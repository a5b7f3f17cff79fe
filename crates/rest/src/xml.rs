//! XML wire encoding of the policy API.
//!
//! The paper's RESTful interface speaks "XML or JSON data structures"; this
//! module is the XML half. Hand-rolled writer and tokenizer (the dependency
//! budget has no XML crate); the element vocabulary mirrors the JSON
//! envelopes one-to-one:
//!
//! ```xml
//! <transferRequest>
//!   <transfer source="gsiftp://h/f" dest="file://d/f" bytes="100"
//!             workflow="1" streams="8" cluster="2" priority="3"/>
//! </transferRequest>
//!
//! <transferResponse>
//!   <advice id="7" source="gsiftp://h/f" dest="file://d/f" action="execute"
//!           streams="8" group="0" order="0"/>
//! </transferResponse>
//! ```

use pwm_core::{
    CleanupAction, CleanupAdvice, CleanupId, CleanupOutcome, CleanupSpec, GroupId, Name,
    SuppressReason, TransferAction, TransferAdvice, TransferId, TransferOutcome, TransferSpec, Url,
    WorkflowId,
};
use std::fmt::Write as _;

/// Errors decoding XML payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError(pub String);

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad xml: {}", self.0)
    }
}
impl std::error::Error for XmlError {}

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

// ---------------------------------------------------------------- encoding

/// `<error message="..."/>`
pub fn error_xml(message: &str) -> String {
    format!("<error message=\"{}\"/>\n", escape(message))
}

/// `<ack status="ok"/>`
pub fn ack_xml() -> String {
    "<ack status=\"ok\"/>\n".to_string()
}

/// `<root>`, a `  <.../>` line per item whose inside `leaf` writes, and
/// `</root>`.
fn document<T>(root: &str, items: &[T], mut leaf: impl FnMut(&mut String, &T)) -> String {
    let mut out = format!("<{root}>\n");
    for item in items {
        out.push_str("  <");
        leaf(&mut out, item);
        out.push_str("/>\n");
    }
    let _ = writeln!(out, "</{root}>");
    out
}

/// Encode a transfer-request envelope.
pub fn transfer_request_to_xml(transfers: &[TransferSpec]) -> String {
    document("transferRequest", transfers, |out, t| {
        let _ = write!(
            out,
            "transfer source=\"{}\" dest=\"{}\" bytes=\"{}\" workflow=\"{}\"",
            escape(&t.source.to_string()),
            escape(&t.dest.to_string()),
            t.bytes,
            t.workflow.0
        );
        if let Some(s) = t.requested_streams {
            let _ = write!(out, " streams=\"{s}\"");
        }
        if let Some(c) = t.cluster {
            let _ = write!(out, " cluster=\"{}\"", c.0);
        }
        if let Some(p) = t.priority {
            let _ = write!(out, " priority=\"{p}\"");
        }
    })
}

fn reason_str(reason: SuppressReason) -> &'static str {
    match reason {
        SuppressReason::DuplicateInBatch => "duplicate-in-batch",
        SuppressReason::AlreadyInProgress => "already-in-progress",
        SuppressReason::AlreadyStaged => "already-staged",
        SuppressReason::DuplicateCleanup => "duplicate-cleanup",
        SuppressReason::ResourceInUse => "resource-in-use",
        SuppressReason::SourceQuarantined => "source-quarantined",
        SuppressReason::SourceHostDown => "source-host-down",
    }
}

fn reason_from_str(s: &str) -> Result<SuppressReason, XmlError> {
    Ok(match s {
        "duplicate-in-batch" => SuppressReason::DuplicateInBatch,
        "already-in-progress" => SuppressReason::AlreadyInProgress,
        "already-staged" => SuppressReason::AlreadyStaged,
        "duplicate-cleanup" => SuppressReason::DuplicateCleanup,
        "resource-in-use" => SuppressReason::ResourceInUse,
        "source-quarantined" => SuppressReason::SourceQuarantined,
        "source-host-down" => SuppressReason::SourceHostDown,
        other => return Err(XmlError(format!("unknown skip reason {other:?}"))),
    })
}

/// Encode a transfer-response envelope.
pub fn transfer_response_to_xml(advice: &[TransferAdvice]) -> String {
    document("transferResponse", advice, |out, a| {
        let _ = write!(
            out,
            "advice id=\"{}\" source=\"{}\" dest=\"{}\" streams=\"{}\" group=\"{}\" order=\"{}\"",
            a.id.0,
            escape(&a.source.to_string()),
            escape(&a.dest.to_string()),
            a.streams,
            a.group.0,
            a.order
        );
        if let Some(backend) = &a.backend {
            let _ = write!(out, " backend=\"{}\"", escape(backend));
        }
        match a.action {
            TransferAction::Execute => out.push_str(" action=\"execute\""),
            TransferAction::Skip(reason) => {
                let _ = write!(out, " action=\"skip\" reason=\"{}\"", reason_str(reason));
            }
        }
    })
}

/// Encode a transfer-completion envelope.
pub fn transfer_completion_to_xml(outcomes: &[TransferOutcome]) -> String {
    document("completionReport", outcomes, |out, o| {
        let _ = write!(out, "outcome id=\"{}\" success=\"{}\"", o.id.0, o.success);
    })
}

/// Encode a cleanup-request envelope.
pub fn cleanup_request_to_xml(cleanups: &[CleanupSpec]) -> String {
    document("cleanupRequest", cleanups, |out, c| {
        let file = escape(&c.file.to_string());
        let _ = write!(out, "cleanup file=\"{file}\" workflow=\"{}\"", c.workflow.0);
    })
}

/// Encode a cleanup-response envelope.
pub fn cleanup_response_to_xml(advice: &[CleanupAdvice]) -> String {
    document("cleanupResponse", advice, |out, a| {
        let file = escape(&a.file.to_string());
        let _ = write!(out, "advice id=\"{}\" file=\"{file}\"", a.id.0);
        match a.action {
            CleanupAction::Execute => out.push_str(" action=\"execute\""),
            CleanupAction::Skip(reason) => {
                let _ = write!(out, " action=\"skip\" reason=\"{}\"", reason_str(reason));
            }
        }
    })
}

/// Encode a cleanup-completion envelope.
pub fn cleanup_completion_to_xml(outcomes: &[CleanupOutcome]) -> String {
    document("cleanupCompletionReport", outcomes, |out, o| {
        let _ = write!(out, "outcome id=\"{}\" success=\"{}\"", o.id.0, o.success);
    })
}

// ---------------------------------------------------------------- decoding

/// A parsed element: name + attributes (self-closing leaves only).
#[derive(Debug)]
struct Element {
    name: String,
    attrs: Vec<(String, String)>,
}

impl Element {
    fn attr(&self, name: &str) -> Option<String> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| unescape(v))
    }

    fn require(&self, name: &str) -> Result<String, XmlError> {
        self.attr(name)
            .ok_or_else(|| XmlError(format!("<{}> missing attribute {name:?}", self.name)))
    }

    fn parse_attr<T: std::str::FromStr>(&self, name: &str) -> Result<T, XmlError> {
        self.require(name)?
            .parse()
            .map_err(|_| XmlError(format!("<{}> attribute {name:?} unparsable", self.name)))
    }

    fn url(&self, name: &str) -> Result<Url, XmlError> {
        Url::parse(&self.require(name)?).map_err(|e| XmlError(e.to_string()))
    }
}

/// `text` past its `<?...?>` prolog, if it has one.
fn skip_prolog(text: &str) -> Result<&str, XmlError> {
    let rest = text.trim_start();
    if !rest.starts_with("<?") {
        return Ok(rest);
    }
    match rest.find("?>") {
        Some(end) => Ok(rest[end + 2..].trim_start()),
        None => Err(XmlError("unterminated prolog".into())),
    }
}

/// Parse `<root> <leaf .../>* </root>`; returns the leaves.
fn parse_flat(text: &str, root: &str, leaf: &str) -> Result<Vec<Element>, XmlError> {
    let open = format!("<{root}>");
    let close = format!("</{root}>");
    let rest = skip_prolog(text)?
        .strip_prefix(&open)
        .ok_or_else(|| XmlError(format!("expected {open}")))?;
    match rest.find(&close) {
        Some(end) => parse_leaves(&rest[..end], leaf),
        None => Err(XmlError(format!("missing {close}"))),
    }
}

/// Parse a document that is one `<leaf .../>` element.
fn parse_one(text: &str, leaf: &str) -> Result<Element, XmlError> {
    let mut leaves = parse_leaves(skip_prolog(text)?, leaf)?;
    match (leaves.pop(), leaves.is_empty()) {
        (Some(element), true) => Ok(element),
        _ => Err(XmlError(format!("expected one <{leaf}/>"))),
    }
}

/// Parse a run of self-closing `<leaf .../>` elements.
fn parse_leaves(mut cursor: &str, leaf: &str) -> Result<Vec<Element>, XmlError> {
    let mut elements = Vec::new();
    loop {
        cursor = cursor.trim_start();
        if cursor.is_empty() {
            return Ok(elements);
        }
        let after = cursor
            .strip_prefix('<')
            .ok_or_else(|| XmlError("expected element".into()))?;
        let end = after
            .find("/>")
            .ok_or_else(|| XmlError("element not self-closing".into()))?;
        let body = &after[..end];
        cursor = &after[end + 2..];
        let mut parts = body.splitn(2, char::is_whitespace);
        let name = parts
            .next()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| XmlError("empty element name".into()))?;
        if name != leaf {
            return Err(XmlError(format!("expected <{leaf}>, found <{name}>")));
        }
        elements.push(Element {
            name: name.to_string(),
            attrs: parse_attrs(parts.next().unwrap_or(""))?,
        });
    }
}

fn parse_attrs(mut s: &str) -> Result<Vec<(String, String)>, XmlError> {
    let mut attrs = Vec::new();
    loop {
        s = s.trim_start();
        if s.is_empty() {
            return Ok(attrs);
        }
        let eq = s
            .find('=')
            .ok_or_else(|| XmlError("attribute missing '='".into()))?;
        let key = s[..eq].trim().to_string();
        let after = s[eq + 1..]
            .trim_start()
            .strip_prefix('"')
            .ok_or_else(|| XmlError(format!("unquoted value for {key}")))?;
        let end = after
            .find('"')
            .ok_or_else(|| XmlError(format!("unterminated value for {key}")))?;
        attrs.push((key, after[..end].to_string()));
        s = &after[end + 1..];
    }
}

/// Decode an acknowledgement: its status.
pub fn ack_from_xml(text: &str) -> Result<Name, XmlError> {
    parse_one(text, "ack")?.require("status").map(Name::from)
}

/// Decode an error envelope: its message.
pub fn error_from_xml(text: &str) -> Result<String, XmlError> {
    parse_one(text, "error")?.require("message")
}

/// Decode a transfer-request envelope.
pub fn transfer_request_from_xml(text: &str) -> Result<Vec<TransferSpec>, XmlError> {
    parse_flat(text, "transferRequest", "transfer")?
        .iter()
        .map(|e| {
            Ok(TransferSpec {
                source: e.url("source")?,
                dest: e.url("dest")?,
                bytes: e.parse_attr("bytes").unwrap_or(0),
                requested_streams: e
                    .attr("streams")
                    .map(|s| s.parse())
                    .transpose()
                    .map_err(|_| XmlError("bad streams".into()))?,
                workflow: WorkflowId(e.parse_attr("workflow")?),
                cluster: e
                    .attr("cluster")
                    .map(|s| s.parse().map(pwm_core::ClusterId))
                    .transpose()
                    .map_err(|_| XmlError("bad cluster".into()))?,
                priority: e
                    .attr("priority")
                    .map(|s| s.parse())
                    .transpose()
                    .map_err(|_| XmlError("bad priority".into()))?,
            })
        })
        .collect()
}

/// An advice's action attributes: `None` for execute, the reason for a
/// skip.
fn skipped(e: &Element) -> Result<Option<SuppressReason>, XmlError> {
    match e.require("action")?.as_str() {
        "execute" => Ok(None),
        "skip" => Ok(Some(reason_from_str(&e.require("reason")?)?)),
        other => Err(XmlError(format!("unknown action {other:?}"))),
    }
}

/// Decode a transfer-response envelope.
pub fn transfer_response_from_xml(text: &str) -> Result<Vec<TransferAdvice>, XmlError> {
    parse_flat(text, "transferResponse", "advice")?
        .iter()
        .map(|e| {
            Ok(TransferAdvice {
                id: TransferId(e.parse_attr("id")?),
                source: e.url("source")?,
                dest: e.url("dest")?,
                action: skipped(e)?.map_or(TransferAction::Execute, TransferAction::Skip),
                streams: e.parse_attr("streams")?,
                group: GroupId(e.parse_attr("group")?),
                order: e.parse_attr("order")?,
                backend: e.attr("backend"),
            })
        })
        .collect()
}

/// Decode a transfer-completion envelope.
pub fn transfer_completion_from_xml(text: &str) -> Result<Vec<TransferOutcome>, XmlError> {
    parse_flat(text, "completionReport", "outcome")?
        .iter()
        .map(|e| {
            Ok(TransferOutcome {
                id: TransferId(e.parse_attr("id")?),
                success: e.parse_attr("success")?,
            })
        })
        .collect()
}

/// Decode a cleanup-request envelope.
pub fn cleanup_request_from_xml(text: &str) -> Result<Vec<CleanupSpec>, XmlError> {
    parse_flat(text, "cleanupRequest", "cleanup")?
        .iter()
        .map(|e| {
            Ok(CleanupSpec {
                file: e.url("file")?,
                workflow: WorkflowId(e.parse_attr("workflow")?),
            })
        })
        .collect()
}

/// Decode a cleanup-response envelope.
pub fn cleanup_response_from_xml(text: &str) -> Result<Vec<CleanupAdvice>, XmlError> {
    parse_flat(text, "cleanupResponse", "advice")?
        .iter()
        .map(|e| {
            Ok(CleanupAdvice {
                id: CleanupId(e.parse_attr("id")?),
                file: e.url("file")?,
                action: skipped(e)?.map_or(CleanupAction::Execute, CleanupAction::Skip),
            })
        })
        .collect()
}

/// Decode a cleanup-completion envelope.
pub fn cleanup_completion_from_xml(text: &str) -> Result<Vec<CleanupOutcome>, XmlError> {
    parse_flat(text, "cleanupCompletionReport", "outcome")?
        .iter()
        .map(|e| {
            Ok(CleanupOutcome {
                id: CleanupId(e.parse_attr("id")?),
                success: e.parse_attr("success")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "src", format!("/data/f{n}.dat")),
            dest: Url::new("file", "dst", format!("/scratch/f{n}.dat")),
            bytes: 1_000 + n as u64,
            requested_streams: if n.is_multiple_of(2) { Some(n) } else { None },
            workflow: WorkflowId(7),
            cluster: if n.is_multiple_of(3) {
                Some(pwm_core::ClusterId(n))
            } else {
                None
            },
            priority: Some(n as i32 - 2),
        }
    }

    #[test]
    fn transfer_request_roundtrip() {
        let specs: Vec<TransferSpec> = (0..6).map(spec).collect();
        let xml = transfer_request_to_xml(&specs);
        let back = transfer_request_from_xml(&xml).unwrap();
        assert_eq!(specs, back);
    }

    #[test]
    fn transfer_response_roundtrip_with_both_actions() {
        let advice = vec![
            TransferAdvice {
                id: TransferId(1),
                source: Url::new("gsiftp", "s", "/a"),
                dest: Url::new("file", "d", "/a"),
                action: TransferAction::Execute,
                streams: 8,
                group: GroupId(0),
                order: 0,
                backend: Some("obj-s3".into()),
            },
            TransferAdvice {
                id: TransferId(2),
                source: Url::new("gsiftp", "s", "/a"),
                dest: Url::new("file", "d", "/a"),
                action: TransferAction::Skip(SuppressReason::AlreadyStaged),
                streams: 1,
                group: GroupId(0),
                order: 1,
                backend: None,
            },
        ];
        let xml = transfer_response_to_xml(&advice);
        assert!(xml.contains("action=\"execute\""));
        assert!(xml.contains("reason=\"already-staged\""));
        assert!(xml.contains("backend=\"obj-s3\""));
        let back = transfer_response_from_xml(&xml).unwrap();
        assert_eq!(advice, back);
    }

    #[test]
    fn all_skip_reasons_roundtrip() {
        for reason in [
            SuppressReason::DuplicateInBatch,
            SuppressReason::AlreadyInProgress,
            SuppressReason::AlreadyStaged,
            SuppressReason::DuplicateCleanup,
            SuppressReason::ResourceInUse,
        ] {
            assert_eq!(reason_from_str(reason_str(reason)).unwrap(), reason);
        }
    }

    #[test]
    fn completion_and_cleanup_roundtrips() {
        let outcomes = vec![
            TransferOutcome {
                id: TransferId(3),
                success: true,
            },
            TransferOutcome {
                id: TransferId(4),
                success: false,
            },
        ];
        let back = transfer_completion_from_xml(&transfer_completion_to_xml(&outcomes)).unwrap();
        assert_eq!(outcomes, back);

        let cleanups = vec![CleanupSpec {
            file: Url::new("file", "d", "/x"),
            workflow: WorkflowId(1),
        }];
        let back = cleanup_request_from_xml(&cleanup_request_to_xml(&cleanups)).unwrap();
        assert_eq!(cleanups, back);

        let advice = vec![CleanupAdvice {
            id: CleanupId(9),
            file: Url::new("file", "d", "/x"),
            action: CleanupAction::Skip(SuppressReason::ResourceInUse),
        }];
        let back = cleanup_response_from_xml(&cleanup_response_to_xml(&advice)).unwrap();
        assert_eq!(advice, back);

        let oc = vec![CleanupOutcome {
            id: CleanupId(9),
            success: true,
        }];
        let back = cleanup_completion_from_xml(&cleanup_completion_to_xml(&oc)).unwrap();
        assert_eq!(oc, back);
    }

    #[test]
    fn special_characters_in_paths_roundtrip() {
        let mut s = spec(0);
        s.source = Url::new("gsiftp", "h", "/data/a&b <c>\"d\".dat");
        let xml = transfer_request_to_xml(&[s.clone()]);
        let back = transfer_request_from_xml(&xml).unwrap();
        assert_eq!(back[0].source, s.source);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(transfer_request_from_xml("").is_err());
        assert!(transfer_request_from_xml("<wrongRoot></wrongRoot>").is_err());
        assert!(transfer_request_from_xml("<transferRequest><bogus/></transferRequest>").is_err());
        assert!(transfer_request_from_xml(
            "<transferRequest><transfer source=\"x\"/></transferRequest>"
        )
        .is_err());
        assert!(transfer_response_from_xml(
            "<transferResponse><advice id=\"1\" source=\"gsiftp://s/a\" dest=\"file://d/a\" \
             streams=\"1\" group=\"0\" order=\"0\" action=\"sideways\"/></transferResponse>"
        )
        .is_err());
    }

    #[test]
    fn prolog_tolerated() {
        let xml = format!(
            "<?xml version=\"1.0\"?>\n{}",
            transfer_request_to_xml(&[spec(1)])
        );
        assert_eq!(transfer_request_from_xml(&xml).unwrap().len(), 1);
    }

    #[test]
    fn ack_and_error_render() {
        assert_eq!(ack_xml(), "<ack status=\"ok\"/>\n");
        assert_eq!(ack_from_xml(&ack_xml()).unwrap(), "ok");
        let error = error_xml("no such \"session\"");
        assert!(error.contains("&quot;session&quot;"));
        assert_eq!(error_from_xml(&error).unwrap(), "no such \"session\"");
        assert!(ack_from_xml("<ack status=\"ok\"/><ack status=\"ok\"/>").is_err());
        assert!(error_from_xml("<ack status=\"ok\"/>").is_err());
    }

    use proptest::prelude::*;

    /// URLs whose paths exercise every escaped character plus slashes.
    fn url_strategy() -> impl Strategy<Value = Url> {
        (
            "[a-z]{2,6}",
            "[a-zA-Z0-9.-]{1,12}",
            "/[a-zA-Z0-9 ._&<>\"'/-]{0,20}",
        )
            .prop_map(|(scheme, host, path)| Url::new(scheme, host, path))
    }

    fn spec_strategy() -> impl Strategy<Value = TransferSpec> {
        (
            (url_strategy(), url_strategy()),
            any::<u64>(),
            proptest::option::of(0u32..64),
            any::<u64>(),
            proptest::option::of(0u32..16),
            proptest::option::of(-100i32..100),
        )
            .prop_map(|((source, dest), bytes, streams, wf, cluster, priority)| {
                TransferSpec {
                    source,
                    dest,
                    bytes,
                    requested_streams: streams,
                    workflow: WorkflowId(wf),
                    cluster: cluster.map(pwm_core::ClusterId),
                    priority,
                }
            })
    }

    fn reason_strategy() -> impl Strategy<Value = SuppressReason> {
        (0u32..5).prop_map(|i| {
            [
                SuppressReason::DuplicateInBatch,
                SuppressReason::AlreadyInProgress,
                SuppressReason::AlreadyStaged,
                SuppressReason::DuplicateCleanup,
                SuppressReason::ResourceInUse,
            ][i as usize]
        })
    }

    fn transfer_advice_strategy() -> impl Strategy<Value = TransferAdvice> {
        (
            (url_strategy(), url_strategy()),
            any::<u64>(),
            proptest::option::of(reason_strategy()),
            1u32..64,
            (any::<u64>(), 0u32..100),
            proptest::option::of("[a-zA-Z0-9 ._&<>\"'-]{1,16}"),
        )
            .prop_map(
                |((source, dest), id, skip, streams, (group, order), backend)| TransferAdvice {
                    id: TransferId(id),
                    source,
                    dest,
                    action: match skip {
                        None => TransferAction::Execute,
                        Some(reason) => TransferAction::Skip(reason),
                    },
                    streams,
                    group: GroupId(group),
                    order,
                    backend,
                },
            )
    }

    fn cleanup_advice_strategy() -> impl Strategy<Value = CleanupAdvice> {
        (
            url_strategy(),
            any::<u64>(),
            proptest::option::of(reason_strategy()),
        )
            .prop_map(|(file, id, skip)| CleanupAdvice {
                id: CleanupId(id),
                file,
                action: match skip {
                    None => CleanupAction::Execute,
                    Some(reason) => CleanupAction::Skip(reason),
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Every envelope survives an encode/decode round trip for arbitrary
        // payloads: attribute escaping, optional fields, negative
        // priorities, and full-range 64-bit ids included.
        #[test]
        fn transfer_request_roundtrips(
            specs in proptest::collection::vec(spec_strategy(), 0..8),
        ) {
            let back = transfer_request_from_xml(&transfer_request_to_xml(&specs)).unwrap();
            prop_assert_eq!(specs, back);
        }

        #[test]
        fn transfer_response_roundtrips(
            advice in proptest::collection::vec(transfer_advice_strategy(), 0..8),
        ) {
            let back = transfer_response_from_xml(&transfer_response_to_xml(&advice)).unwrap();
            prop_assert_eq!(advice, back);
        }

        #[test]
        fn transfer_completion_roundtrips(
            raw in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..8),
        ) {
            let outcomes: Vec<TransferOutcome> = raw
                .into_iter()
                .map(|(id, success)| TransferOutcome { id: TransferId(id), success })
                .collect();
            let back =
                transfer_completion_from_xml(&transfer_completion_to_xml(&outcomes)).unwrap();
            prop_assert_eq!(outcomes, back);
        }

        #[test]
        fn cleanup_request_roundtrips(
            raw in proptest::collection::vec((url_strategy(), any::<u64>()), 0..8),
        ) {
            let cleanups: Vec<CleanupSpec> = raw
                .into_iter()
                .map(|(file, wf)| CleanupSpec { file, workflow: WorkflowId(wf) })
                .collect();
            let back = cleanup_request_from_xml(&cleanup_request_to_xml(&cleanups)).unwrap();
            prop_assert_eq!(cleanups, back);
        }

        #[test]
        fn cleanup_response_roundtrips(
            advice in proptest::collection::vec(cleanup_advice_strategy(), 0..8),
        ) {
            let back = cleanup_response_from_xml(&cleanup_response_to_xml(&advice)).unwrap();
            prop_assert_eq!(advice, back);
        }

        #[test]
        fn cleanup_completion_roundtrips(
            raw in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..8),
        ) {
            let outcomes: Vec<CleanupOutcome> = raw
                .into_iter()
                .map(|(id, success)| CleanupOutcome { id: CleanupId(id), success })
                .collect();
            let back = cleanup_completion_from_xml(&cleanup_completion_to_xml(&outcomes)).unwrap();
            prop_assert_eq!(outcomes, back);
        }
    }
}
