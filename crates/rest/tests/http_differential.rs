//! The byte-level head scanner of `pwm_rest::http` against the parser it
//! replaced.
//!
//! The oracle below is the `str`-splitting `frame_request` / `frame_response`
//! of PR 24, moved here unchanged but for the private helpers it called. Over
//! rendered requests and responses with random field-name case and order,
//! optional whitespace, unknown fields, cut points and trailing bytes, both
//! must give the same message, the same "incomplete", or the same error —
//! except on the heads the new scanner refuses on purpose because two ends
//! could frame them differently (conflicting or signed Content-Lengths,
//! whitespace before a field's colon, any Transfer-Encoding), which it must
//! refuse wherever the head is complete.
//!
//! `PWM_PROPTEST_CASES` raises the case count for CI's differential job.

use proptest::prelude::*;
use pwm_rest::http::{self, HttpError, Method, Request, WireFormat};

const MAX_REQUEST: usize = 64 << 20;

// ---------------------------------------------------------------------------
// The oracle: PR 24's parsers
// ---------------------------------------------------------------------------

fn oracle_method(s: &str) -> Option<Method> {
    match s {
        "GET" => Some(Method::Get),
        "POST" => Some(Method::Post),
        "PUT" => Some(Method::Put),
        "DELETE" => Some(Method::Delete),
        _ => None,
    }
}

fn oracle_format(value: &str) -> WireFormat {
    if value.trim().starts_with("application/xml") || value.trim().starts_with("text/xml") {
        WireFormat::Xml
    } else {
        WireFormat::Json
    }
}

fn oracle_separator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn oracle_request(buf: &[u8], max_body: usize) -> Result<Option<(Request<'_>, usize)>, HttpError> {
    let Some(head_end) = oracle_separator(buf) else {
        if buf.len() > MAX_REQUEST {
            return Err(HttpError::TooLarge("headers too large".into()));
        }
        return Ok(None);
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-utf8 header block".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(oracle_method)
        .ok_or_else(|| HttpError::Malformed(format!("bad method in {request_line:?}")))?;
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?;
    let mut keep_alive = parts.next() != Some("HTTP/1.0");

    let mut content_length = 0usize;
    let mut format = WireFormat::Json;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
            } else if name.eq_ignore_ascii_case("content-type") {
                format = oracle_format(value);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > max_body.min(MAX_REQUEST) {
        return Err(HttpError::TooLarge(format!(
            "content-length {content_length} exceeds cap {}",
            max_body.min(MAX_REQUEST)
        )));
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let request = Request {
        method,
        path,
        body: &buf[body_start..body_start + content_length],
        format,
        keep_alive,
    };
    Ok(Some((request, body_start + content_length)))
}

fn oracle_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, HttpError> {
    let Some(head_end) = oracle_separator(buf) else {
        if buf.len() > MAX_REQUEST {
            return Err(HttpError::Malformed("response head too large".into()));
        }
        return Ok(None);
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-utf8 response head".into()))?;
    let mut lines = head_text.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty response".into()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let len = content_length
        .ok_or_else(|| HttpError::Malformed("pipelined response without content-length".into()))?;
    if len > MAX_REQUEST {
        return Err(HttpError::Malformed("response too large".into()));
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + len {
        return Ok(None);
    }
    Ok(Some((
        status,
        buf[body_start..body_start + len].to_vec(),
        body_start + len,
    )))
}

// ---------------------------------------------------------------------------
// Messages as senders write them
// ---------------------------------------------------------------------------

/// A field line: which name, its case (a bit per character, set for upper
/// case), whether a space precedes the colon, the whitespace before and
/// after the value, and which value.
type Field = (usize, u64, bool, (usize, usize), usize);

const NAMES: [&str; 6] = [
    "content-length",
    "content-type",
    "connection",
    "x-trace-id",
    "transfer-encoding",
    "no colon here",
];
const OWS: [&str; 5] = ["", " ", "  ", "\t", " \t"];

fn arb_field() -> impl Strategy<Value = Field> {
    (
        0..NAMES.len(),
        any::<u64>(),
        (0u8..8).prop_map(|n| n == 0),
        (0..OWS.len(), 0..OWS.len()),
        0usize..6,
    )
}

/// The text of `field` in a message whose body is `len` bytes long, whether
/// the new scanner refuses it on purpose, and the Content-Length it
/// declares if it declares a valid one.
fn field_line(
    len: usize,
    (kind, case, space, (before, after), value): Field,
) -> (String, bool, Option<usize>) {
    let name: String = NAMES[kind]
        .chars()
        .enumerate()
        .map(|(i, c)| [c, c.to_ascii_uppercase()][usize::from(case >> i & 1 == 1)])
        .collect();
    let value = match kind {
        0 => [
            len.to_string(),
            (len + 1).to_string(),
            len.saturating_sub(1).to_string(),
            format!("00{len}"),
            format!("+{len}"),
            "x1".into(),
        ][value]
            .clone(),
        1 => [
            "application/json",
            "application/xml",
            " text/xml; q=1",
            "text/plain",
        ][value % 4]
            .into(),
        2 => ["close", "keep-alive", "Close", "upgrade"][value % 4].into(),
        3 => ["1", "a:b", "é", ""][value % 4].into(),
        4 => "chunked".into(),
        _ => return (name, false, None),
    };
    let digits = value.bytes().all(|b| b.is_ascii_digit());
    let declared = (kind == 0 && digits).then(|| value.parse().expect("digits"));
    let on_purpose = space || kind == 4 || (kind == 0 && !digits);
    let space = if space { " " } else { "" };
    let line = format!("{name}{space}:{}{value}{}", OWS[before], OWS[after]);
    (line, on_purpose, declared)
}

/// The start line, the field lines, a blank line, the body and some trailing
/// bytes; with the length of the head up to and including its blank line,
/// and whether the new scanner refuses the fields on purpose: the parent
/// framed them, or some of them, by guessing.
fn message(start: &str, fields: &[Field], body: &[u8], trailing: &[u8]) -> (Vec<u8>, usize, bool) {
    let mut wire = start.as_bytes().to_vec();
    let mut on_purpose = false;
    let mut lengths = Vec::new();
    for &field in fields {
        let (line, refused, declared) = field_line(body.len(), field);
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(line.as_bytes());
        on_purpose |= refused;
        lengths.extend(declared);
    }
    wire.extend_from_slice(b"\r\n\r\n");
    let head = wire.len();
    wire.extend_from_slice(body);
    wire.extend_from_slice(trailing);
    (
        wire,
        head,
        on_purpose || lengths.windows(2).any(|w| w[0] != w[1]),
    )
}

/// The separators a start line's words may have between them, Unicode
/// whitespace included: the parent split on `char::is_whitespace`.
const GAPS: [&str; 6] = [" ", " ", "  ", "\t", "\u{b}", "\u{a0}"];

fn arb_request_line() -> impl Strategy<Value = String> {
    (
        (0usize..7, "/[a-z0-9/]{0,12}", 0usize..4),
        (0..GAPS.len(), 0..GAPS.len(), 0u8..16),
    )
        .prop_map(|((method, path, version), (gap1, gap2, shape))| {
            let method = ["GET", "POST", "PUT", "DELETE", "BREW", "post", ""][method];
            let version = ["HTTP/1.1", "HTTP/1.0", "", "HTTP/2"][version];
            match shape {
                0 => method.to_string(),
                1 => format!("{method}{}", GAPS[gap1]),
                2 => format!("\u{a0}{method} {path} {version}"),
                _ => format!("{method}{}{path}{}{version}", GAPS[gap1], GAPS[gap2]),
            }
        })
}

fn arb_status_line() -> impl Strategy<Value = String> {
    (0usize..8, 0..GAPS.len()).prop_map(|(status, gap)| {
        let status = ["200", "404", "500", "+200", "0200", "abc", "", "70000"][status];
        format!("HTTP/1.1{}{status} Whatever", GAPS[gap])
    })
}

/// The parent's result and the new one agree, down to the error message;
/// where the fields are refused on purpose the new one may instead refuse,
/// and must once the head is complete.
fn agree<T: std::fmt::Debug>(
    old: Result<T, HttpError>,
    new: Result<T, HttpError>,
    on_purpose: bool,
    head_complete: bool,
) {
    if on_purpose && head_complete {
        assert!(new.is_err(), "refused on purpose, but framed: {new:?}");
    }
    if !(on_purpose && new.is_err()) {
        assert_eq!(format!("{new:?}"), format!("{old:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(256),
    })]

    /// A request and a response with the same fields, body and trailing
    /// bytes, each whole and cut anywhere.
    #[test]
    fn heads_frame_as_the_parent_framed_them(
        request_line in arb_request_line(),
        status_line in arb_status_line(),
        fields in proptest::collection::vec(arb_field(), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..40),
        trailing in proptest::collection::vec(any::<u8>(), 0..12),
        cut in any::<usize>(),
    ) {
        for (start, request) in [(&request_line, true), (&status_line, false)] {
            let (wire, head, on_purpose) = message(start, &fields, &body, &trailing);
            for buf in [&wire[..], &wire[..cut % (wire.len() + 1)]] {
                let complete = buf.len() >= head;
                if request {
                    let new = http::try_parse_request(buf, MAX_REQUEST);
                    agree(oracle_request(buf, MAX_REQUEST), new, on_purpose, complete);
                } else {
                    let new = http::try_parse_response(buf);
                    agree(oracle_response(buf), new, on_purpose, complete);
                }
            }
        }
    }

    /// Arbitrary bytes with a blank line somewhere: a head of anything,
    /// non-UTF-8 included.
    #[test]
    fn garbage_heads_frame_as_the_parent_framed_them(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        at in any::<usize>(),
    ) {
        let mut buf = bytes.clone();
        let at = at % (bytes.len() + 1);
        buf.splice(at..at, b"\r\n\r\n".iter().copied());
        let text = String::from_utf8_lossy(&buf).to_ascii_lowercase();
        let on_purpose = ["content-length", "transfer-encoding", " :", "\t:"]
            .iter()
            .any(|s| text.contains(s));
        agree(oracle_request(&buf, MAX_REQUEST), http::try_parse_request(&buf, MAX_REQUEST), on_purpose, false);
        agree(oracle_response(&buf), http::try_parse_response(&buf), on_purpose, false);
    }
}
