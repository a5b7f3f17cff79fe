//! DAX import/export — the Pegasus workflow interchange format.
//!
//! Pegasus workflows are described in DAX ("directed acyclic graph in XML")
//! documents. This module reads and writes a faithful simplified dialect of
//! DAX 3: an `<adag>` element containing `<job>` elements, each with `<uses>`
//! children declaring input/output files with sizes. Dependencies are
//! derived from producer/consumer relations exactly as [`crate::dag`] does,
//! so `<child>/<parent>` edges are not required (Pegasus itself can infer
//! them the same way).
//!
//! ```xml
//! <adag name="montage-4x5">
//!   <job id="j0" name="mProjectPP_00_00" transformation="mProjectPP" runtime="8">
//!     <uses file="2mass_00_00.fits" link="input" size="2000000"/>
//!     <uses file="p_00_00.fits" link="output" size="4000000"/>
//!   </job>
//! </adag>
//! ```
//!
//! The writer/parser are hand-rolled (no XML crate in the dependency
//! budget); the parser accepts exactly the subset the writer emits plus
//! whitespace/comment variations, and rejects anything else loudly.

use crate::dag::{AbstractJob, AbstractWorkflow};
use pwm_core::Name;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Errors from [`parse_dax`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaxError {
    /// Document structure violated (unexpected/missing tags).
    Structure(String),
    /// An attribute was missing or unparsable.
    Attribute(String),
}

impl std::fmt::Display for DaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaxError::Structure(m) => write!(f, "malformed DAX: {m}"),
            DaxError::Attribute(m) => write!(f, "bad DAX attribute: {m}"),
        }
    }
}
impl std::error::Error for DaxError {}

/// Serialize a workflow to the DAX dialect.
pub fn to_dax(workflow: &AbstractWorkflow) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(out, "<adag name=\"{}\">", escape(&workflow.name));
    for (ix, job) in workflow.jobs().iter().enumerate() {
        let _ = writeln!(
            out,
            "  <job id=\"j{ix}\" name=\"{}\" transformation=\"{}\" runtime=\"{}\">",
            escape(&job.name),
            escape(&job.transformation),
            job.runtime_s
        );
        for input in &job.inputs {
            let _ = writeln!(
                out,
                "    <uses file=\"{}\" link=\"input\" size=\"{}\"/>",
                escape(input),
                workflow.file_size(input).unwrap_or(0)
            );
        }
        for output in &job.outputs {
            let _ = writeln!(
                out,
                "    <uses file=\"{}\" link=\"output\" size=\"{}\"/>",
                escape(output),
                workflow.file_size(output).unwrap_or(0)
            );
        }
        out.push_str("  </job>\n");
    }
    out.push_str("</adag>\n");
    out
}

/// Parse the DAX dialect back into a workflow.
pub fn parse_dax(text: &str) -> Result<AbstractWorkflow, DaxError> {
    let mut parser = Parser::new(text);
    parser.skip_prolog();
    let adag = parser.expect_open("adag")?;
    let name = adag
        .attr("name")
        .ok_or_else(|| DaxError::Attribute("adag missing name".into()))?;
    let mut workflow = AbstractWorkflow::new(name);
    let mut sizes: BTreeMap<Name, u64> = BTreeMap::new();

    loop {
        match parser.next_tag()? {
            Tag::Open(tag) if tag.name == "job" => {
                let job_name = tag
                    .attr("name")
                    .ok_or_else(|| DaxError::Attribute("job missing name".into()))?;
                let transformation = tag
                    .attr("transformation")
                    .unwrap_or_else(|| job_name.clone());
                let runtime_s: f64 = tag
                    .attr("runtime")
                    .unwrap_or_else(|| "1".into())
                    .parse()
                    .map_err(|_| DaxError::Attribute(format!("bad runtime on {job_name}")))?;
                let mut inputs = Vec::new();
                let mut outputs = Vec::new();
                loop {
                    match parser.next_tag()? {
                        Tag::SelfClosing(uses) if uses.name == "uses" => {
                            let file: Name = uses
                                .attr("file")
                                .ok_or_else(|| DaxError::Attribute("uses missing file".into()))?
                                .into();
                            let size: u64 = uses
                                .attr("size")
                                .unwrap_or_else(|| "0".into())
                                .parse()
                                .map_err(|_| DaxError::Attribute(format!("bad size on {file}")))?;
                            sizes.insert(file.clone(), size);
                            match uses.attr("link").as_deref() {
                                Some("input") => inputs.push(file),
                                Some("output") => outputs.push(file),
                                other => {
                                    return Err(DaxError::Attribute(format!(
                                        "uses link must be input/output, got {other:?}"
                                    )))
                                }
                            }
                        }
                        Tag::Close(name) if name == "job" => break,
                        other => {
                            return Err(DaxError::Structure(format!(
                                "unexpected {other:?} inside <job>"
                            )))
                        }
                    }
                }
                workflow.add_job(AbstractJob {
                    name: job_name.into(),
                    transformation: transformation.into(),
                    runtime_s,
                    inputs,
                    outputs,
                });
            }
            Tag::Close(name) if name == "adag" => break,
            other => {
                return Err(DaxError::Structure(format!(
                    "unexpected {other:?} inside <adag>"
                )))
            }
        }
    }
    for (file, size) in sizes {
        workflow.set_file_size(file, size);
    }
    Ok(workflow)
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

#[derive(Debug)]
struct TagData {
    name: String,
    attrs: Vec<(String, String)>,
}

impl TagData {
    fn attr(&self, name: &str) -> Option<String> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| unescape(v))
    }
}

#[derive(Debug)]
enum Tag {
    Open(TagData),
    SelfClosing(TagData),
    Close(String),
}

struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { rest: text }
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            self.rest = self.rest.trim_start();
            if let Some(after) = self.rest.strip_prefix("<!--") {
                match after.find("-->") {
                    Some(end) => self.rest = &after[end + 3..],
                    None => {
                        self.rest = "";
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_ws_and_comments();
        if self.rest.starts_with("<?") {
            if let Some(end) = self.rest.find("?>") {
                self.rest = &self.rest[end + 2..];
            }
        }
    }

    fn expect_open(&mut self, name: &str) -> Result<TagData, DaxError> {
        match self.next_tag()? {
            Tag::Open(tag) if tag.name == name => Ok(tag),
            other => Err(DaxError::Structure(format!(
                "expected <{name}>, found {other:?}"
            ))),
        }
    }

    fn next_tag(&mut self) -> Result<Tag, DaxError> {
        self.skip_ws_and_comments();
        let rest = self.rest.strip_prefix('<').ok_or_else(|| {
            DaxError::Structure(format!("expected tag, found {:?}", head(self.rest)))
        })?;
        let end = rest
            .find('>')
            .ok_or_else(|| DaxError::Structure("unterminated tag".into()))?;
        let inner = &rest[..end];
        self.rest = &rest[end + 1..];

        if let Some(name) = inner.strip_prefix('/') {
            return Ok(Tag::Close(name.trim().to_string()));
        }
        let (inner, self_closing) = match inner.strip_suffix('/') {
            Some(i) => (i, true),
            None => (inner, false),
        };
        let mut parts = inner.splitn(2, char::is_whitespace);
        let name = parts
            .next()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| DaxError::Structure("empty tag name".into()))?
            .to_string();
        let attrs = parse_attrs(parts.next().unwrap_or(""))?;
        let data = TagData { name, attrs };
        Ok(if self_closing {
            Tag::SelfClosing(data)
        } else {
            Tag::Open(data)
        })
    }
}

fn parse_attrs(mut s: &str) -> Result<Vec<(String, String)>, DaxError> {
    let mut attrs = Vec::new();
    loop {
        s = s.trim_start();
        if s.is_empty() {
            return Ok(attrs);
        }
        let eq = s
            .find('=')
            .ok_or_else(|| DaxError::Attribute(format!("missing '=' in {:?}", head(s))))?;
        let key = s[..eq].trim().to_string();
        let after = s[eq + 1..].trim_start();
        let after = after
            .strip_prefix('"')
            .ok_or_else(|| DaxError::Attribute(format!("unquoted value for {key}")))?;
        let close = after
            .find('"')
            .ok_or_else(|| DaxError::Attribute(format!("unterminated value for {key}")))?;
        attrs.push((key, after[..close].to_string()));
        s = &after[close + 1..];
    }
}

fn head(s: &str) -> &str {
    match s.char_indices().nth(24) {
        Some((ix, _)) => &s[..ix],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("sample");
        wf.add_job(AbstractJob {
            name: "proj_0".into(),
            transformation: "mProjectPP".into(),
            runtime_s: 8.0,
            inputs: vec!["raw.fits".into()],
            outputs: vec!["p.fits".into()],
        });
        wf.add_job(AbstractJob {
            name: "add_0".into(),
            transformation: "mAdd".into(),
            runtime_s: 40.0,
            inputs: vec!["p.fits".into()],
            outputs: vec!["mosaic.fits".into()],
        });
        wf.set_file_size("raw.fits", 2_000_000);
        wf.set_file_size("p.fits", 4_000_000);
        wf.set_file_size("mosaic.fits", 160_000_000);
        wf
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample();
        let dax = to_dax(&original);
        let parsed = parse_dax(&dax).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.jobs().iter().zip(parsed.jobs()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.transformation, b.transformation);
            assert_eq!(a.runtime_s, b.runtime_s);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.outputs, b.outputs);
        }
        assert_eq!(parsed.file_size("mosaic.fits"), Some(160_000_000));
        // Dependencies survive (derived from files).
        assert_eq!(parsed.edges().unwrap(), original.edges().unwrap());
    }

    #[test]
    fn output_looks_like_dax() {
        let dax = to_dax(&sample());
        assert!(dax.starts_with("<?xml"));
        assert!(dax.contains("<adag name=\"sample\">"));
        assert!(dax.contains("<job id=\"j0\" name=\"proj_0\" transformation=\"mProjectPP\""));
        assert!(dax.contains("<uses file=\"raw.fits\" link=\"input\" size=\"2000000\"/>"));
        assert!(dax.ends_with("</adag>\n"));
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let dax = r#"
            <?xml version="1.0"?>
            <!-- generated by pegasus-like tooling -->
            <adag name="w">
              <!-- first job -->
              <job id="j0" name="a" transformation="t" runtime="2.5">
                <uses file="in" link="input" size="10"/>
                <uses file="out" link="output" size="20"/>
              </job>
            </adag>
        "#;
        let wf = parse_dax(dax).unwrap();
        assert_eq!(wf.len(), 1);
        assert_eq!(wf.job(crate::dag::JobIx(0)).runtime_s, 2.5);
        assert_eq!(wf.file_size("out"), Some(20));
    }

    #[test]
    fn escaped_names_roundtrip() {
        let mut wf = AbstractWorkflow::new(r#"weird "name" <&>"#);
        wf.add_job(AbstractJob {
            name: "j<1>".into(),
            transformation: "t&t".into(),
            runtime_s: 1.0,
            inputs: vec![],
            outputs: vec![],
        });
        let parsed = parse_dax(&to_dax(&wf)).unwrap();
        assert_eq!(parsed.name, wf.name);
        assert_eq!(parsed.jobs()[0].name, "j<1>");
        assert_eq!(parsed.jobs()[0].transformation, "t&t");
    }

    #[test]
    fn missing_name_rejected() {
        assert!(matches!(
            parse_dax("<adag></adag>"),
            Err(DaxError::Attribute(_))
        ));
    }

    #[test]
    fn bad_link_rejected() {
        let dax = r#"<adag name="w"><job id="j0" name="a">
            <uses file="f" link="sideways" size="1"/></job></adag>"#;
        assert!(matches!(parse_dax(dax), Err(DaxError::Attribute(_))));
    }

    #[test]
    fn truncated_document_rejected() {
        let dax = r#"<adag name="w"><job id="j0" name="a">"#;
        assert!(parse_dax(dax).is_err());
    }

    #[test]
    fn garbage_rejected_without_panic() {
        for garbage in ["", "not xml", "<adag", "<adag name=\"w\"><job/></adag>"] {
            let _ = parse_dax(garbage);
        }
    }

    #[test]
    fn montage_89_jobs_roundtrip() {
        // The full paper workload survives the interchange format.
        let mut wf = AbstractWorkflow::new("m");
        for i in 0..89 {
            wf.add_job(AbstractJob {
                name: format!("job_{i}").into(),
                transformation: "t".into(),
                runtime_s: i as f64,
                inputs: vec![format!("in_{i}").into()],
                outputs: vec![format!("out_{i}").into()],
            });
            wf.set_file_size(format!("in_{i}"), i);
            wf.set_file_size(format!("out_{i}"), i * 2);
        }
        let parsed = parse_dax(&to_dax(&wf)).unwrap();
        assert_eq!(parsed.len(), 89);
        assert_eq!(parsed.file_size("out_88"), Some(176));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9_.<>&\" -]{1,24}"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary job structure round-trips.
        #[test]
        fn arbitrary_workflows_roundtrip(
            wf_name in arb_name(),
            jobs in proptest::collection::vec(
                (arb_name(), 0.1f64..1000.0, 0usize..4, 0usize..4),
                1..20,
            ),
        ) {
            let mut wf = AbstractWorkflow::new(wf_name);
            for (i, (name, runtime, n_in, n_out)) in jobs.into_iter().enumerate() {
                let inputs: Vec<String> = (0..n_in).map(|k| format!("in_{i}_{k}")).collect();
                let outputs: Vec<String> = (0..n_out).map(|k| format!("out_{i}_{k}")).collect();
                for f in inputs.iter().chain(&outputs) {
                    wf.set_file_size(f, (i * 1000) as u64);
                }
                wf.add_job(AbstractJob {
                    name: format!("{name}_{i}").into(),
                    transformation: name.into(),
                    runtime_s: runtime,
                    inputs: inputs.into_iter().map(Name::from).collect(),
                    outputs: outputs.into_iter().map(Name::from).collect(),
                });
            }
            let parsed = parse_dax(&to_dax(&wf)).unwrap();
            prop_assert_eq!(&parsed.name, &wf.name);
            prop_assert_eq!(parsed.len(), wf.len());
            for (a, b) in wf.jobs().iter().zip(parsed.jobs()) {
                prop_assert_eq!(&a.name, &b.name);
                prop_assert_eq!(a.runtime_s, b.runtime_s);
                prop_assert_eq!(&a.inputs, &b.inputs);
                prop_assert_eq!(&a.outputs, &b.outputs);
            }
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_never_panics(text in "\\PC{0,512}") {
            let _ = parse_dax(&text);
        }
    }
}
