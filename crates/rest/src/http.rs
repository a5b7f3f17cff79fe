//! A minimal HTTP/1.1 implementation over `std::net`.
//!
//! Exactly what the loopback REST interface needs and nothing more:
//! `Content-Length` bodies, keep-alive and pipelining (HTTP/1.1 defaults),
//! no chunked encoding, no TLS. Stands in for the paper's Apache Tomcat
//! container.
//!
//! Framing is pure: [`try_parse_request`] and [`try_parse_response`]
//! inspect a byte buffer and either yield a complete message plus its
//! consumed length, report "incomplete", or reject; [`render_request`] and
//! [`render_response`] serialize to bytes. The event-driven server and the
//! pipelining client run them over per-connection accumulation buffers, so
//! several pipelined messages parse out of one buffer back to back, and
//! all socket I/O stays with the caller. A framed message is located, not
//! copied: a [`Request`] borrows its path and body from the buffer.
//!
//! One byte-level scanner reads both directions' heads. On a keep-alive
//! connection the body length is the framing, so a head the two ends could
//! frame differently is refused rather than guessed at (RFC 9112 §6.3):
//! two different Content-Lengths, one that is not plain digits, whitespace
//! between a field name and its colon, and any Transfer-Encoding. The
//! server answers 400 and closes; the client reports an I/O error.

use std::ops::Range;

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only retrieval.
    Get,
    /// Submit a request list or report.
    Post,
    /// Replace configuration.
    Put,
    /// Remove a session.
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }
}

/// Body encodings the API speaks — the paper: "using XML or JSON data
/// structures".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// `application/json` (the default).
    #[default]
    Json,
    /// `application/xml`.
    Xml,
    /// `text/plain` — Prometheus exposition format (`/metrics` responses
    /// only; request bodies are never parsed as text).
    Text,
}

impl WireFormat {
    /// The Content-Type header value.
    pub fn content_type(self) -> &'static str {
        match self {
            WireFormat::Json => "application/json",
            WireFormat::Xml => "application/xml",
            WireFormat::Text => "text/plain; version=0.0.4; charset=utf-8",
        }
    }
}

/// A parsed HTTP request, borrowing from the buffer it was parsed out of.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Request method.
    pub method: Method,
    /// Path component (no query parsing; the API doesn't use queries).
    pub path: &'a str,
    /// Body bytes (JSON or XML per `format`).
    pub body: &'a [u8],
    /// Negotiated body encoding (from the Content-Type header).
    pub format: WireFormat,
    /// Whether the client wants the connection kept open after the
    /// response (HTTP/1.1 default unless `Connection: close`; HTTP/1.0
    /// default unless `Connection: keep-alive`).
    pub keep_alive: bool,
}

/// Where a complete request sits in the buffer it was framed in: what a
/// connection keeps between framing its pipelined requests and serving
/// them, without holding a borrow of its read buffer.
#[derive(Debug, Clone)]
pub(crate) struct RequestFrame {
    method: Method,
    path: Range<usize>,
    body: Range<usize>,
    format: WireFormat,
    keep_alive: bool,
}

impl RequestFrame {
    /// The request, read out of the buffer this frame was made from.
    pub(crate) fn request<'a>(&self, buf: &'a [u8]) -> Request<'a> {
        Request {
            method: self.method,
            path: std::str::from_utf8(&buf[self.path.clone()])
                .expect("the header block was checked when the request was framed"),
            body: &buf[self.body.clone()],
            format: self.format,
            keep_alive: self.keep_alive,
        }
    }
}

/// An HTTP response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, 404, 500...).
    pub status: u16,
    /// Body bytes (JSON or XML per `format`).
    pub body: Vec<u8>,
    /// Body encoding (sets the Content-Type header).
    pub format: WireFormat,
}

impl Response {
    /// 200 with a JSON body.
    pub fn ok_json(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            format: WireFormat::Json,
        }
    }

    /// An error status with a JSON error envelope.
    pub fn error(status: u16, message: &str) -> Response {
        use crate::wire::{Codec, ErrorEnvelope};
        let mut body = String::new();
        let error = message.to_string();
        ErrorEnvelope { error }.encode(WireFormat::Json, &mut body);
        Response {
            status,
            body: body.into_bytes(),
            format: WireFormat::Json,
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Errors reading or parsing a request.
#[derive(Debug)]
pub enum HttpError {
    /// Socket error.
    Io(std::io::Error),
    /// Malformed request line/headers/body.
    Malformed(String),
    /// Declared or observed size exceeds the configured cap (HTTP 413).
    /// Raised before the body is read, so an attacker cannot make the
    /// server buffer it.
    TooLarge(String),
    /// The peer stalled past the socket read deadline (HTTP 408). This is
    /// the slow-loris guard: without a deadline a client trickling one
    /// byte per minute pins a server thread forever.
    Timeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http io error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed http: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Timeout => write!(f, "read timed out"),
        }
    }
}
impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        // `set_read_timeout` expiry surfaces as WouldBlock on Unix and
        // TimedOut on Windows; both mean "peer too slow", not "socket bad".
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Upper bound on header + body size (sanity guard, 64 MiB).
const MAX_REQUEST: usize = 64 << 20;

/// Try to parse one complete request off the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed, `Ok(Some((request,
/// consumed)))` when a full request (head + declared body) is present —
/// `consumed` is how many bytes the caller must drop from the buffer — and
/// an error for malformed or oversized input. A declared Content-Length
/// over `max_body` is rejected as soon as the head is complete, before any
/// body bytes are waited for.
pub fn try_parse_request(
    buf: &[u8],
    max_body: usize,
) -> Result<Option<(Request<'_>, usize)>, HttpError> {
    Ok(frame_request(buf, max_body)?.map(|(frame, consumed)| (frame.request(buf), consumed)))
}

/// [`try_parse_request`], locating the request instead of borrowing it.
pub(crate) fn frame_request(
    buf: &[u8],
    max_body: usize,
) -> Result<Option<(RequestFrame, usize)>, HttpError> {
    let Some(head) = Head::scan(buf, "non-utf8 header block")? else {
        if buf.len() > MAX_REQUEST {
            return Err(HttpError::TooLarge("headers too large".into()));
        }
        return Ok(None);
    };
    let [method, path, version] = words(head.start);
    let method = Method::parse(method)
        .ok_or_else(|| HttpError::Malformed(format!("bad method in {:?}", head.start)))?;
    if path.is_empty() {
        return Err(HttpError::Malformed("missing path".into()));
    }
    // `path` is a subslice of the head, which starts where `buf` does.
    let path_start = path.as_ptr() as usize - buf.as_ptr() as usize;
    let fields = head.fields?;
    let format = fields.format(head.text);
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the Connection
    // header overrides either way.
    let keep_alive = match fields.connection {
        Some(value) => !head.text[value].trim().eq_ignore_ascii_case("close"),
        None => version != "HTTP/1.0",
    };
    let content_length = fields.content_length.unwrap_or(0);
    if content_length > max_body.min(MAX_REQUEST) {
        return Err(HttpError::TooLarge(format!(
            "content-length {content_length} exceeds cap {}",
            max_body.min(MAX_REQUEST)
        )));
    }
    let end = head.body_start + content_length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((
        RequestFrame {
            method,
            path: path_start..path_start + path.len(),
            body: head.body_start..end,
            format,
            keep_alive,
        },
        end,
    )))
}

/// Try to parse one complete response off the front of `buf` (client side
/// of a keep-alive/pipelined connection).
///
/// Returns `Ok(None)` when more bytes are needed and `Ok(Some((status,
/// body, consumed)))` for a full response. Responses must carry a
/// Content-Length (every response this server writes does); connection-
/// close framing is not supported.
pub fn try_parse_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, HttpError> {
    Ok(frame_response(buf)?.map(|(status, _, body, end)| (status, buf[body].to_vec(), end)))
}

/// [`try_parse_response`], locating the body and naming its format.
#[allow(clippy::type_complexity)]
pub(crate) fn frame_response(
    buf: &[u8],
) -> Result<Option<(u16, WireFormat, Range<usize>, usize)>, HttpError> {
    let Some(head) = Head::scan(buf, "non-utf8 response head")? else {
        if buf.len() > MAX_REQUEST {
            return Err(HttpError::Malformed("response head too large".into()));
        }
        return Ok(None);
    };
    let status: u16 = words(head.start)[1]
        .parse()
        .map_err(|_| HttpError::Malformed(format!("bad status line {:?}", head.start)))?;
    let fields = head.fields?;
    let len = fields
        .content_length
        .ok_or_else(|| HttpError::Malformed("pipelined response without content-length".into()))?;
    if len > MAX_REQUEST {
        return Err(HttpError::Malformed("response too large".into()));
    }
    let end = head.body_start + len;
    if buf.len() < end {
        return Ok(None);
    }
    let format = fields.format(head.text);
    Ok(Some((status, format, head.body_start..end, end)))
}

/// A complete message head: everything before the first blank line, UTF-8
/// as a whole.
struct Head<'a> {
    /// The whole head.
    text: &'a str,
    /// The request or status line.
    start: &'a str,
    /// What the field lines say, or the first of them that is refused: the
    /// caller reports a bad start line first.
    fields: Result<Fields, HttpError>,
    /// Where the body begins, past the blank line.
    body_start: usize,
}

impl<'a> Head<'a> {
    /// The head at the front of `buf`, read in one pass over its lines;
    /// `None` until its blank line has arrived. Lines end at `\r\n` (a bare
    /// `\r` or `\n` belongs to its line). A head that is not UTF-8 is refused
    /// with `non_utf8`, whatever else is wrong with it.
    fn scan(buf: &'a [u8], non_utf8: &str) -> Result<Option<Head<'a>>, HttpError> {
        let mut start = None;
        let mut fields = Ok(Fields::default());
        let mut line_start = 0;
        let mut from = 0;
        let end = loop {
            let Some(i) = find(&buf[from..], |word| bytes_equal(word, b'\n')) else {
                return Ok(None);
            };
            let nl = from + i;
            from = nl + 1;
            if nl == 0 || buf[nl - 1] != b'\r' {
                continue;
            }
            let line = line_start..nl - 1;
            line_start = from;
            if start.is_none() {
                start = Some(line);
            } else if line.is_empty() {
                break line.start - 2;
            } else if let Ok(read) = &mut fields {
                if let Err(refused) = read.read(buf, line) {
                    fields = Err(refused);
                }
            }
        };
        let text =
            std::str::from_utf8(&buf[..end]).map_err(|_| HttpError::Malformed(non_utf8.into()))?;
        Ok(Some(Head {
            text,
            start: &text[start.expect("the head has a first line")],
            fields,
            body_start: from,
        }))
    }
}

// Bytes eight at a time: each helper maps a little-endian word to one with
// the high bit set in exactly the bytes it flags. Every sum stays inside its
// byte (seven-bit operands, addends under 0x80), so no flag leaks into a
// neighbour.
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = ONES << 7;
const LOW7: u64 = ONES * 0x7f;

/// The bytes of `word` equal to `byte`.
fn bytes_equal(word: u64, byte: u8) -> u64 {
    let x = word ^ (ONES * u64::from(byte));
    !(((x & LOW7) + LOW7) | x) & HIGH
}

/// The bytes of `word` that are not printable ASCII (`!` to `~`).
fn bytes_unprintable(word: u64) -> u64 {
    let x = word & LOW7;
    let printable = (x + ONES * 0x5f) & !(x + ONES) & !word;
    !printable & HIGH
}

/// The index of the first byte of `bytes` that `flag` flags, a word to a
/// step; each of the last few bytes is a word of its own.
#[inline]
fn find(bytes: &[u8], flag: impl Fn(u64) -> u64) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    for (n, word) in (&mut words).enumerate() {
        let flags = flag(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        if flags != 0 {
            return Some(n * 8 + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter()
        .position(|&b| flag(u64::from(b)) & 0x80 != 0)
        .map(|i| at + i)
}

/// The first three words of a start line as `str::split_whitespace` finds
/// them (`""` where there are fewer). Printable ASCII is never whitespace,
/// so runs of it are skipped a word at a time.
fn words(line: &str) -> [&str; 3] {
    let mut words = [""; 3];
    let mut rest = line;
    for word in &mut words {
        rest = rest.trim_start();
        let mut end = 0;
        loop {
            end += find(&rest.as_bytes()[end..], bytes_unprintable).unwrap_or(rest.len() - end);
            match rest[end..].chars().next() {
                Some(c) if !c.is_whitespace() => end += c.len_utf8(),
                _ => break,
            }
        }
        (*word, rest) = rest.split_at(end);
    }
    words
}

/// The header fields framing reads — the types as byte ranges of the head
/// — where a later line of the same name replaces an earlier one, except
/// Content-Length, which may only repeat itself.
#[derive(Default)]
struct Fields {
    content_length: Option<usize>,
    content_type: Option<Range<usize>>,
    connection: Option<Range<usize>>,
}

impl Fields {
    /// The body's format, as its Content-Type in `head` names it: XML for
    /// an XML media type, JSON for any other or none.
    fn format(&self, head: &str) -> WireFormat {
        let value = self.content_type.clone().map_or("", |v| head[v].trim());
        if value.starts_with("application/xml") || value.starts_with("text/xml") {
            WireFormat::Xml
        } else {
            WireFormat::Json
        }
    }

    /// Take in the field line at `line` of `buf`. What would let two ends
    /// frame the same bytes differently is refused (RFC 9112 §5.1, §6.3):
    /// whitespace between a field name and its colon, a Content-Length that
    /// is not `1*DIGIT` or that contradicts an earlier one, and any
    /// Transfer-Encoding. Lines without a colon and unknown fields are
    /// passed over.
    fn read(&mut self, buf: &[u8], line: Range<usize>) -> Result<(), HttpError> {
        let Some(colon) = find(&buf[line.clone()], |word| bytes_equal(word, b':')) else {
            return Ok(());
        };
        let name = &buf[line.start..line.start + colon];
        let value = line.start + colon + 1..line.end;
        if matches!(name.last(), Some(b' ' | b'\t')) {
            return Err(HttpError::Malformed(format!(
                "whitespace before the colon of {:?}",
                String::from_utf8_lossy(name)
            )));
        }
        if name.eq_ignore_ascii_case(b"content-length") {
            let len = content_length(&buf[value])?;
            if self.content_length.is_some_and(|earlier| earlier != len) {
                return Err(HttpError::Malformed("conflicting content-length".into()));
            }
            self.content_length = Some(len);
        } else if name.eq_ignore_ascii_case(b"content-type") {
            self.content_type = Some(value);
        } else if name.eq_ignore_ascii_case(b"connection") {
            self.connection = Some(value);
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            let refused = "transfer-encoding is not supported";
            return Err(HttpError::Malformed(refused.into()));
        }
        Ok(())
    }
}

/// A Content-Length value: decimal digits between optional ASCII
/// whitespace, no sign (leading zeros are digits too).
fn content_length(value: &[u8]) -> Result<usize, HttpError> {
    let mut digits = value;
    while let [b' ' | b'\t'..=b'\r', rest @ ..] = digits {
        digits = rest;
    }
    while let [rest @ .., b' ' | b'\t'..=b'\r'] = digits {
        digits = rest;
    }
    let len = digits.iter().try_fold(0usize, |n, &b| {
        let digit = usize::from(b.checked_sub(b'0').filter(|d| *d < 10)?);
        n.checked_mul(10)?.checked_add(digit)
    });
    len.filter(|_| !digits.is_empty())
        .ok_or_else(|| HttpError::Malformed("bad content-length".into()))
}

/// Serialize one request to bytes. `keep_alive` selects the Connection
/// header; pipelining clients render several keep-alive requests into one
/// buffer and write them with a single syscall.
pub fn render_request(
    format: WireFormat,
    method: Method,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut wire = Vec::with_capacity(160 + body.len());
    write_request(&mut wire, format, method, path, body, keep_alive);
    wire
}

/// [`render_request`] appended to `wire` (a pipelined window is one buffer).
pub(crate) fn write_request(
    wire: &mut Vec<u8>,
    format: WireFormat,
    method: Method,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) {
    wire.reserve(128 + path.len() + body.len());
    wire.extend_from_slice(method.as_str().as_bytes());
    wire.push(b' ');
    wire.extend_from_slice(path.as_bytes());
    wire.extend_from_slice(b" HTTP/1.1\r\nHost: localhost\r\nContent-Type: ");
    write_fields_and_body(wire, format, body, keep_alive);
}

/// Serialize one response to bytes.
pub fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut wire = Vec::with_capacity(128 + response.body.len());
    write_response(
        &mut wire,
        response.status,
        response.format,
        &response.body,
        keep_alive,
    );
    wire
}

/// [`render_response`] appended to `wire`, from the parts: the event-driven
/// server writes straight into a connection's write buffer, so pipelined
/// responses flush in one write and a body is copied once.
pub(crate) fn write_response(
    wire: &mut Vec<u8>,
    status: u16,
    format: WireFormat,
    body: &[u8],
    keep_alive: bool,
) {
    wire.reserve(128 + body.len());
    wire.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(wire, usize::from(status));
    wire.push(b' ');
    wire.extend_from_slice(status_text(status).as_bytes());
    wire.extend_from_slice(b"\r\nContent-Type: ");
    write_fields_and_body(wire, format, body, keep_alive);
}

/// The head's last three fields, from the Content-Type value on, the blank
/// line and the body: what a request and a response end with alike.
fn write_fields_and_body(wire: &mut Vec<u8>, format: WireFormat, body: &[u8], keep_alive: bool) {
    wire.extend_from_slice(format.content_type().as_bytes());
    wire.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(wire, body.len());
    wire.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n"
    } else {
        b"\r\nConnection: close\r\n\r\n"
    });
    wire.extend_from_slice(body);
}

fn push_decimal(wire: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    wire.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a buffer that must hold exactly one complete request.
    fn parse_whole(wire: &[u8]) -> Request<'_> {
        let (request, consumed) = try_parse_request(wire, MAX_REQUEST)
            .unwrap()
            .expect("complete request");
        assert_eq!(consumed, wire.len());
        request
    }

    fn rendered(method: Method, path: &str, body: &[u8]) -> Vec<u8> {
        render_request(WireFormat::Json, method, path, body, false)
    }

    fn roundtrip_response(response: &Response) -> (u16, Vec<u8>) {
        let wire = render_response(response, false);
        let (status, body, consumed) = try_parse_response(&wire)
            .unwrap()
            .expect("complete response");
        assert_eq!(consumed, wire.len());
        (status, body)
    }

    #[test]
    fn request_roundtrip() {
        let wire = rendered(Method::Post, "/sessions/default/transfers", b"{\"x\":1}");
        let r = parse_whole(&wire);
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.path, "/sessions/default/transfers");
        assert_eq!(r.body, b"{\"x\":1}");
    }

    #[test]
    fn empty_body_request() {
        let wire = rendered(Method::Get, "/health", b"");
        let r = parse_whole(&wire);
        assert_eq!(r.method, Method::Get);
        assert!(r.body.is_empty());
    }

    #[test]
    fn large_body_roundtrip() {
        let body = vec![b'a'; 100_000];
        let wire = rendered(Method::Put, "/config", &body);
        let r = parse_whole(&wire);
        assert_eq!(r.body.len(), 100_000);
    }

    #[test]
    fn response_roundtrip() {
        let (status, body) = roundtrip_response(&Response::ok_json(b"[1,2,3]".to_vec()));
        assert_eq!(status, 200);
        assert_eq!(body, b"[1,2,3]");
    }

    #[test]
    fn error_response_has_json_envelope() {
        let (status, body) = roundtrip_response(&Response::error(404, "nope"));
        assert_eq!(status, 404);
        let e: crate::wire::ErrorEnvelope = serde_json::from_slice(&body).unwrap();
        assert_eq!(e.error, "nope");
    }

    #[test]
    fn malformed_method_rejected() {
        let wire = b"BREW /coffee HTTP/1.1\r\n\r\n";
        assert!(matches!(
            try_parse_request(wire, MAX_REQUEST),
            Err(HttpError::Malformed(_))
        ));
    }

    /// A body shorter than its Content-Length never yields a request: the
    /// parser keeps asking for more, and the connection owner times the
    /// peer out (server: 408) or reports the early close.
    #[test]
    fn truncated_body_rejected() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(try_parse_request(wire, MAX_REQUEST), Ok(None)));
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(try_parse_response(wire), Ok(None)));
    }

    #[test]
    fn missing_separator_rejected() {
        let wire = b"GET /x HTTP/1.1\r\nHeader: v";
        assert!(matches!(try_parse_request(wire, MAX_REQUEST), Ok(None)));
    }

    #[test]
    fn oversized_content_length_rejected() {
        let wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            1usize << 40
        );
        assert!(matches!(
            try_parse_request(wire.as_bytes(), MAX_REQUEST),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn body_cap_rejects_before_reading_the_body() {
        // Only the head is in the buffer: the declared Content-Length alone
        // must trigger the rejection, before any body byte is waited for.
        let head = b"POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(
            try_parse_request(head, 1024),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn body_cap_allows_requests_under_the_limit() {
        let wire = render_request(WireFormat::Json, Method::Post, "/x", b"small", false);
        let (r, _) = try_parse_request(&wire, 1024).unwrap().unwrap();
        assert_eq!(r.body, b"small");
    }

    #[test]
    fn stalled_socket_classifies_as_timeout() {
        // A read deadline expiring surfaces as WouldBlock on Unix and
        // TimedOut on Windows.
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            assert!(matches!(
                HttpError::from(std::io::Error::from(kind)),
                HttpError::Timeout
            ));
        }
        assert!(matches!(
            HttpError::from(std::io::Error::from(std::io::ErrorKind::BrokenPipe)),
            HttpError::Io(_)
        ));
    }

    #[test]
    fn timeout_status_lines_render() {
        for (status, text) in [(408u16, "Request Timeout"), (413, "Payload Too Large")] {
            let wire = render_response(&Response::error(status, "x"), false);
            let head = String::from_utf8_lossy(&wire).to_string();
            assert!(head.starts_with(&format!("HTTP/1.1 {status} {text}\r\n")));
        }
    }

    #[test]
    fn body_split_across_reads() {
        // The head and part of the body arrive first, the rest later.
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 6\r\n\r\nab".to_vec();
        assert!(matches!(try_parse_request(&buf, MAX_REQUEST), Ok(None)));
        buf.extend_from_slice(b"cdef");
        assert_eq!(parse_whole(&buf).body, b"abcdef");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parsers must never panic on arbitrary bytes — they produce a
        /// message, ask for more, or reject.
        #[test]
        fn parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let _ = try_parse_request(&bytes, MAX_REQUEST);
            let _ = try_parse_response(&bytes);
        }

        /// Any method/path/body combination round-trips through the wire
        /// format losslessly.
        #[test]
        fn request_roundtrip_lossless(
            method_ix in 0usize..4,
            path in "/[a-z0-9/_-]{0,64}",
            body in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            let method = [Method::Get, Method::Post, Method::Put, Method::Delete][method_ix];
            let wire = render_request(WireFormat::Json, method, &path, &body, false);
            let (parsed, consumed) = try_parse_request(&wire, MAX_REQUEST).unwrap().unwrap();
            prop_assert_eq!(consumed, wire.len());
            prop_assert_eq!(parsed.method, method);
            prop_assert_eq!(parsed.path, path);
            prop_assert_eq!(parsed.body, body);
        }

        /// Responses round-trip for every status the server emits.
        #[test]
        fn response_roundtrip_lossless(
            status_ix in 0usize..5,
            body in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            let status = [200u16, 400, 404, 405, 500][status_ix];
            let wire = render_response(&Response { status, body: body.clone(), format: WireFormat::Json }, false);
            let (s, b, consumed) = try_parse_response(&wire).unwrap().unwrap();
            prop_assert_eq!(consumed, wire.len());
            prop_assert_eq!(s, status);
            prop_assert_eq!(b, body);
        }

        /// A valid request delivered in arbitrary chunk sizes is
        /// "incomplete" at every strict prefix and parses identically once
        /// the last chunk lands (stream reassembly).
        #[test]
        fn chunked_delivery_is_equivalent(
            body in proptest::collection::vec(any::<u8>(), 1..512),
            chunk in 1usize..64,
        ) {
            let wire = render_request(WireFormat::Json, Method::Post, "/x", &body, false);
            let mut buf = Vec::new();
            for piece in wire.chunks(chunk) {
                prop_assert!(matches!(try_parse_request(&buf, MAX_REQUEST), Ok(None)));
                buf.extend_from_slice(piece);
            }
            let (parsed, consumed) = try_parse_request(&buf, MAX_REQUEST).unwrap().unwrap();
            prop_assert_eq!(consumed, wire.len());
            prop_assert_eq!(parsed.body, body);
        }
    }
}
