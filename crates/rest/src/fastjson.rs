//! Hand-rolled JSON codec for the hot transfer-advice wire envelopes.
//!
//! This module was written when the vendored `serde_json` built a value tree
//! between every document and its struct and cost about half a request. The
//! derived codec streams now, which leaves little of that gap: for the
//! three-spec envelopes the benchmark sends, the derived decode takes 1.75 µs
//! against 1.72 µs here, the derived encode 0.89 µs against 0.43 µs here
//! (0.7 kB bodies, release build). What remains special about the two
//! envelopes the event loop serves at rate:
//!
//! * [`parse_transfer_request`] decodes the canonical
//!   `{"transfers":[...]}` request body directly from bytes. It accepts a
//!   **strict subset** of JSON — the shapes the stock clients actually
//!   produce — and returns `None` on anything unusual (escape sequences,
//!   unknown fields, missing fields, duplicate keys, exotic number forms)
//!   so the caller can fall back to the full `serde_json` path. The fast
//!   path is therefore an invisible optimization: every body is either
//!   decoded identically or handed to the reference decoder.
//! * [`render_transfer_response`] writes the `{"advice":[...]}` response
//!   body directly. It is total (handles every advice value, including
//!   strings that need escaping) and produces bytes **identical** to
//!   `serde_json::to_vec(&TransferResponseEnvelope { advice })`, so clients
//!   decoding with the serde path see no difference.
//!
//! Equivalence with the serde codec is enforced by the property tests at
//! the bottom of this file.

use pwm_core::{
    ClusterId, GroupId, Name, SuppressReason, TransferAction, TransferAdvice, TransferId,
    TransferSpec, Url, WorkflowId,
};

// ---------------------------------------------------------------------------
// Request parser (strict subset, fallback on None)
// ---------------------------------------------------------------------------

/// Decode a canonical `{"transfers":[...]}` request body.
///
/// Returns `None` — **not** an error — whenever the body strays from the
/// canonical shape; the caller must then retry with
/// `serde_json::from_slice::<TransferRequestEnvelope>` so malformed bodies
/// keep producing the reference decoder's diagnostics.
pub fn parse_transfer_request(bytes: &[u8]) -> Option<Vec<TransferSpec>> {
    let mut p = Cursor { b: bytes, i: 0 };
    p.ws();
    p.eat(b'{')?;
    p.ws();
    if p.string()? != "transfers" {
        return None;
    }
    p.ws();
    p.eat(b':')?;
    p.ws();
    p.eat(b'[')?;
    p.ws();
    let mut transfers = Vec::new();
    if p.peek()? == b']' {
        p.i += 1;
    } else {
        loop {
            transfers.push(p.spec()?);
            p.ws();
            match p.next()? {
                b',' => p.ws(),
                b']' => break,
                _ => return None,
            }
        }
    }
    p.ws();
    p.eat(b'}')?;
    p.ws();
    if p.i == p.b.len() {
        Some(transfers)
    } else {
        None
    }
}

/// Byte cursor over the request body. Every method returns `None` on any
/// deviation from the canonical subset; nothing here reports *why* —
/// diagnostics are the fallback path's job.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn eat(&mut self, want: u8) -> Option<()> {
        if self.peek()? == want {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    /// A string without escapes: `"` ... `"` where the body contains no
    /// backslash, no quote, and no control byte. Escaped strings bail to
    /// the reference decoder.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.next()? {
                b'"' => break,
                b'\\' | 0x00..=0x1f => return None,
                _ => {}
            }
        }
        std::str::from_utf8(&self.b[start..self.i - 1]).ok()
    }

    /// A plain decimal integer (no sign, no fraction, no exponent).
    fn u64(&mut self) -> Option<u64> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn u32(&mut self) -> Option<u32> {
        self.u64()?.try_into().ok()
    }

    fn i32(&mut self) -> Option<i32> {
        let neg = self.peek()? == b'-';
        if neg {
            self.i += 1;
        }
        let n = i64::try_from(self.u64()?).ok()?;
        i32::try_from(if neg { -n } else { n }).ok()
    }

    fn null(&mut self) -> Option<()> {
        if self.b[self.i..].starts_with(b"null") {
            self.i += 4;
            Some(())
        } else {
            None
        }
    }

    fn opt_u32(&mut self) -> Option<Option<u32>> {
        if self.peek()? == b'n' {
            self.null()?;
            Some(None)
        } else {
            Some(Some(self.u32()?))
        }
    }

    fn opt_i32(&mut self) -> Option<Option<i32>> {
        if self.peek()? == b'n' {
            self.null()?;
            Some(None)
        } else {
            Some(Some(self.i32()?))
        }
    }

    /// `{"scheme":S,"host":S,"path":S}` with the three keys in any order,
    /// each exactly once.
    fn url(&mut self) -> Option<Url> {
        self.eat(b'{')?;
        let (mut scheme, mut host, mut path) = (None, None, None);
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let slot = match key {
                "scheme" => &mut scheme,
                "host" => &mut host,
                "path" => &mut path,
                _ => return None,
            };
            if slot.is_some() {
                return None;
            }
            *slot = Some(Name::from(self.string()?));
            self.ws();
            match self.next()? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
        Some(Url {
            scheme: scheme?,
            host: host?,
            path: path?,
        })
    }

    /// One transfer spec object: the seven known keys in any order, each
    /// exactly once. A missing, duplicate, or unknown key bails.
    fn spec(&mut self) -> Option<TransferSpec> {
        self.eat(b'{')?;
        let mut source = None;
        let mut dest = None;
        let mut bytes = None;
        let mut requested_streams = None;
        let mut workflow = None;
        let mut cluster = None;
        let mut priority = None;
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            match key {
                "source" => set(&mut source, self.url()?)?,
                "dest" => set(&mut dest, self.url()?)?,
                "bytes" => set(&mut bytes, self.u64()?)?,
                "requested_streams" => set(&mut requested_streams, self.opt_u32()?)?,
                "workflow" => set(&mut workflow, WorkflowId(self.u64()?))?,
                "cluster" => set(&mut cluster, self.opt_u32()?.map(ClusterId))?,
                "priority" => set(&mut priority, self.opt_i32()?)?,
                _ => return None,
            }
            self.ws();
            match self.next()? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
        Some(TransferSpec {
            source: source?,
            dest: dest?,
            bytes: bytes?,
            requested_streams: requested_streams?,
            workflow: workflow?,
            cluster: cluster?,
            priority: priority?,
        })
    }
}

/// Fill a once-only field slot; `None` (bail) if the key repeated.
fn set<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    if slot.is_some() {
        return None;
    }
    *slot = Some(value);
    Some(())
}

// ---------------------------------------------------------------------------
// Response renderer (total, byte-identical to the serde path)
// ---------------------------------------------------------------------------

/// Render `{"advice":[...]}` exactly as
/// `serde_json::to_vec(&TransferResponseEnvelope { advice })` would.
pub fn render_transfer_response(advice: &[TransferAdvice]) -> Vec<u8> {
    // ~200 bytes per advice entry in practice; one allocation either way.
    let mut out = String::with_capacity(16 + 224 * advice.len());
    write_transfer_response(&mut out, advice);
    out.into_bytes()
}

/// [`render_transfer_response`] onto the end of `out` (the event loop's
/// response-body buffer).
pub(crate) fn write_transfer_response(out: &mut String, advice: &[TransferAdvice]) {
    out.push_str("{\"advice\":[");
    for (i, a) in advice.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_advice(out, a);
    }
    out.push_str("]}");
}

fn push_advice(out: &mut String, a: &TransferAdvice) {
    let TransferAdvice {
        id: TransferId(id),
        source,
        dest,
        action,
        streams,
        group: GroupId(group),
        order,
        backend,
    } = a;
    out.push_str("{\"id\":");
    push_u64(out, *id);
    out.push_str(",\"source\":");
    push_url(out, source);
    out.push_str(",\"dest\":");
    push_url(out, dest);
    out.push_str(",\"action\":");
    match action {
        TransferAction::Execute => out.push_str("\"Execute\""),
        TransferAction::Skip(reason) => {
            out.push_str("{\"Skip\":\"");
            out.push_str(match reason {
                SuppressReason::DuplicateInBatch => "DuplicateInBatch",
                SuppressReason::AlreadyInProgress => "AlreadyInProgress",
                SuppressReason::AlreadyStaged => "AlreadyStaged",
                SuppressReason::DuplicateCleanup => "DuplicateCleanup",
                SuppressReason::ResourceInUse => "ResourceInUse",
                SuppressReason::SourceQuarantined => "SourceQuarantined",
                SuppressReason::SourceHostDown => "SourceHostDown",
            });
            out.push_str("\"}");
        }
    }
    out.push_str(",\"streams\":");
    push_u64(out, u64::from(*streams));
    out.push_str(",\"group\":");
    push_u64(out, *group);
    out.push_str(",\"order\":");
    push_u64(out, u64::from(*order));
    out.push_str(",\"backend\":");
    match backend {
        Some(name) => push_string(out, name),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_url(out: &mut String, url: &Url) {
    out.push_str("{\"scheme\":");
    push_string(out, &url.scheme);
    out.push_str(",\"host\":");
    push_string(out, &url.host);
    out.push_str(",\"path\":");
    push_string(out, &url.path);
    out.push('}');
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Write a JSON string with `serde_json`'s exact escape table: `\"`, `\\`,
/// `\n`, `\r`, `\t`, lowercase `\u00xx` for other control characters;
/// everything else (including `/` and non-ASCII) verbatim. Clean runs are
/// copied wholesale — an escaped byte is ASCII, so every cut falls on a
/// character boundary.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(c >> 4)]));
                out.push(char::from(HEX[usize::from(c & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{TransferRequestEnvelope, TransferResponseEnvelope};
    use proptest::prelude::*;

    fn spec(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", format!("gridftp-{n}"), format!("/d/f{n}.dat")),
            dest: Url::new("file", "obelix-nfs", format!("/s/f{n}.dat")),
            bytes: 1_000_000 + u64::from(n),
            requested_streams: (n.is_multiple_of(2)).then_some(n + 1),
            workflow: WorkflowId(u64::from(n % 3)),
            cluster: (n.is_multiple_of(3)).then_some(ClusterId(n)),
            priority: (n.is_multiple_of(4)).then_some(-(n as i32)),
        }
    }

    fn serde_bytes(transfers: Vec<TransferSpec>) -> Vec<u8> {
        serde_json::to_vec(&TransferRequestEnvelope { transfers }).unwrap()
    }

    #[test]
    fn parses_canonical_bodies_identically_to_serde() {
        for transfers in [vec![], vec![spec(0)], (0..7).map(spec).collect::<Vec<_>>()] {
            let body = serde_bytes(transfers.clone());
            assert_eq!(parse_transfer_request(&body), Some(transfers));
        }
    }

    #[test]
    fn tolerates_whitespace_and_field_reorder() {
        let body = br#" {
            "transfers" : [ {
                "bytes" : 42 , "priority" : -7 , "workflow" : 9 ,
                "dest" : { "path" : "/b" , "host" : "h2" , "scheme" : "file" } ,
                "source" : { "scheme" : "gsiftp" , "host" : "h1" , "path" : "/a" } ,
                "cluster" : null , "requested_streams" : 3
            } ]
        } "#;
        let got = parse_transfer_request(body).expect("reordered body parses");
        let want: TransferRequestEnvelope = serde_json::from_slice(body).unwrap();
        assert_eq!(got, want.transfers);
    }

    #[test]
    fn bails_to_serde_on_anything_unusual() {
        let canonical = serde_bytes(vec![spec(1)]);
        let canonical = std::str::from_utf8(&canonical).unwrap();
        for body in [
            // Escapes in strings (legal JSON, not the canonical subset).
            canonical.replace("/d/f1.dat", r"/d/\n-f1.dat"),
            canonical.replace("/d/f1.dat", r#"/d/\"f1\".dat"#),
            // Unknown / missing / duplicate fields.
            canonical.replace("\"bytes\"", "\"extra\":0,\"bytes\""),
            canonical.replace("\"bytes\":1000001,", ""),
            canonical.replace("\"bytes\":", "\"bytes\":7,\"bytes\":"),
            // Exotic number forms the subset rejects.
            canonical.replace(":1000001,", ":1.0e6,"),
            canonical.replace(":1000001,", ":+1000001,"),
            // Structural junk.
            canonical[..canonical.len() - 1].to_string(),
            format!("{canonical}x"),
            canonical.replace("\"transfers\"", "\"Transfers\""),
        ] {
            assert_eq!(
                parse_transfer_request(body.as_bytes()),
                None,
                "must fall back on: {body}"
            );
        }
    }

    /// How Python's `json.dumps` writes a character outside the BMP. Any
    /// escape sends the body to the serde path, so the two decoders cannot
    /// disagree on it: the pair is one scalar, half a pair is refused.
    #[test]
    fn escaped_non_bmp_characters_take_the_serde_path() {
        let canonical = serde_bytes(vec![spec(1)]);
        let canonical = std::str::from_utf8(&canonical).unwrap();
        let pair = canonical.replace("/d/f1.dat", r"/d/\ud83d\ude00.dat");
        assert_eq!(parse_transfer_request(pair.as_bytes()), None);
        let decoded: TransferRequestEnvelope = serde_json::from_str(&pair).unwrap();
        assert_eq!(decoded.transfers[0].source.path, "/d/\u{1f600}.dat");
        // Written raw, the same character takes the fast path to the same spec.
        let raw = canonical.replace("/d/f1.dat", "/d/\u{1f600}.dat");
        assert_eq!(
            parse_transfer_request(raw.as_bytes()),
            Some(decoded.transfers)
        );
        let lone = canonical.replace("/d/f1.dat", r"/d/\ud83d.dat");
        assert_eq!(parse_transfer_request(lone.as_bytes()), None);
        assert!(serde_json::from_str::<TransferRequestEnvelope>(&lone).is_err());
    }

    #[test]
    fn renders_skip_actions_and_escapes_identically_to_serde() {
        let advice: Vec<TransferAdvice> = [
            (TransferAction::Execute, "/plain/path.dat"),
            (
                TransferAction::Skip(SuppressReason::AlreadyInProgress),
                "/with \"quotes\" and \\slashes\\",
            ),
            (
                TransferAction::Skip(SuppressReason::DuplicateInBatch),
                "/ctl\n\r\t\u{1}\u{1f}/end",
            ),
            (
                TransferAction::Skip(SuppressReason::AlreadyStaged),
                "/déjà/vu",
            ),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (action, path))| TransferAdvice {
            id: TransferId(i as u64),
            source: Url::new("gsiftp", "h1", path),
            dest: Url::new("file", "h2", path),
            action,
            streams: 8,
            group: GroupId(i as u64),
            order: i as u32,
            backend: (i % 2 == 0).then(|| format!("backend-\"{i}\"")),
        })
        .collect();
        for advice in [&advice[..], &[]] {
            let fast = render_transfer_response(advice);
            let reference = serde_json::to_vec(&TransferResponseEnvelope {
                advice: advice.to_vec(),
            })
            .unwrap();
            assert_eq!(fast, reference);
        }
    }

    fn arb_string() -> impl Strategy<Value = String> {
        // Plenty of escapes, controls, and non-ASCII.
        const PALETTE: &[char] = &[
            'a', 'b', '/', '.', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{3}', '\u{1f}', 'é',
            '中', '🦀',
        ];
        proptest::collection::vec(
            any::<u8>().prop_map(|b| PALETTE[usize::from(b) % PALETTE.len()]),
            0..12,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    fn arb_url() -> impl Strategy<Value = Url> {
        (arb_string(), arb_string(), arb_string()).prop_map(|(scheme, host, path)| Url {
            scheme: scheme.into(),
            host: host.into(),
            path: path.into(),
        })
    }

    fn arb_action() -> impl Strategy<Value = TransferAction> {
        const ACTIONS: &[TransferAction] = &[
            TransferAction::Execute,
            TransferAction::Skip(SuppressReason::DuplicateInBatch),
            TransferAction::Skip(SuppressReason::AlreadyInProgress),
            TransferAction::Skip(SuppressReason::AlreadyStaged),
            TransferAction::Skip(SuppressReason::DuplicateCleanup),
            TransferAction::Skip(SuppressReason::ResourceInUse),
        ];
        any::<u8>().prop_map(|b| ACTIONS[usize::from(b) % ACTIONS.len()])
    }

    fn arb_advice() -> impl Strategy<Value = TransferAdvice> {
        (
            (any::<u64>(), arb_url(), arb_url(), arb_action()),
            (
                any::<u32>(),
                any::<u64>(),
                any::<u32>(),
                proptest::option::of(arb_string()),
            ),
        )
            .prop_map(
                |((id, source, dest, action), (streams, group, order, backend))| TransferAdvice {
                    id: TransferId(id),
                    source,
                    dest,
                    action,
                    streams,
                    group: GroupId(group),
                    order,
                    backend,
                },
            )
    }

    fn arb_spec() -> impl Strategy<Value = TransferSpec> {
        (
            (arb_url(), arb_url(), any::<u64>()),
            (
                proptest::option::of(any::<u32>()),
                any::<u64>(),
                proptest::option::of(any::<u32>()),
                proptest::option::of(any::<i32>()),
            ),
        )
            .prop_map(
                |((source, dest, bytes), (requested_streams, workflow, cluster, priority))| {
                    TransferSpec {
                        source,
                        dest,
                        bytes,
                        requested_streams,
                        workflow: WorkflowId(workflow),
                        cluster: cluster.map(ClusterId),
                        priority,
                    }
                },
            )
    }

    proptest! {
        /// The renderer is byte-identical to the serde path for arbitrary
        /// advice, including strings that need every kind of escape.
        #[test]
        fn render_matches_serde(advice in proptest::collection::vec(arb_advice(), 0..5)) {
            let fast = render_transfer_response(&advice);
            let reference =
                serde_json::to_vec(&TransferResponseEnvelope { advice }).unwrap();
            prop_assert_eq!(fast, reference);
        }

        /// Trailing bytes after a valid strict-subset body: whitespace is
        /// tolerated (still the canonical shape), but ANY non-whitespace
        /// suffix must bail to the serde path, which 400s it — a silently
        /// ignored suffix would let the fast path accept bodies the
        /// reference decoder rejects.
        #[test]
        fn trailing_nonwhitespace_bytes_always_bail(
            specs in proptest::collection::vec(arb_spec(), 0..3),
            ws in proptest::collection::vec(
                (0usize..4).prop_map(|i| [b' ', b'\t', b'\n', b'\r'][i]), 0..4),
            junk in "\\PC{1,8}",
        ) {
            let canonical =
                serde_json::to_vec(&TransferRequestEnvelope { transfers: specs.clone() })
                    .unwrap();
            let parses_clean = parse_transfer_request(&canonical).is_some();

            // Whitespace-only suffix: same outcome as the clean body.
            let mut padded = canonical.clone();
            padded.extend_from_slice(&ws);
            prop_assert_eq!(parse_transfer_request(&padded).is_some(), parses_clean);

            // Any suffix with a non-whitespace byte: always None. \PC can
            // generate all-whitespace strings; force a visible byte then.
            let junk = match junk.trim() {
                "" => "x",
                j => j,
            };
            let mut trailing = padded;
            trailing.extend_from_slice(junk.as_bytes());
            prop_assert_eq!(parse_transfer_request(&trailing), None);
            // And the serde fallback rejects it too, so the server 400s
            // instead of silently accepting the prefix.
            prop_assert!(
                serde_json::from_slice::<TransferRequestEnvelope>(&trailing).is_err()
            );
        }

        /// Serde-rendered request bodies either fast-parse to exactly what
        /// serde decodes, or bail (None) — never a third behavior. Bodies
        /// with escape-free strings must take the fast path.
        #[test]
        fn parse_agrees_with_serde(specs in proptest::collection::vec(arb_spec(), 0..4)) {
            let body =
                serde_json::to_vec(&TransferRequestEnvelope { transfers: specs.clone() })
                    .unwrap();
            let needs_escape = specs.iter().any(|s| {
                [&s.source, &s.dest].into_iter().any(|u| {
                    [&u.scheme, &u.host, &u.path].into_iter().any(|f| {
                        f.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\')
                    })
                })
            });
            match parse_transfer_request(&body) {
                Some(got) => prop_assert_eq!(got, specs),
                None => prop_assert!(needs_escape, "canonical body must fast-parse"),
            }
        }
    }
}
