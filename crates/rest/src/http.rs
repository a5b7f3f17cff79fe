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

use std::io::Write;
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

    fn from_content_type(value: &str) -> WireFormat {
        if value.trim().starts_with("application/xml") || value.trim().starts_with("text/xml") {
            WireFormat::Xml
        } else {
            WireFormat::Json
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

    /// 200 with a body in the given format.
    pub fn ok(format: WireFormat, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            format,
        }
    }

    /// 200 with a plain-text body (Prometheus exposition format).
    pub fn ok_text(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            format: WireFormat::Text,
        }
    }

    /// An error status with an error envelope in the given format.
    pub fn error_in(format: WireFormat, status: u16, message: &str) -> Response {
        Response {
            status,
            body: error_body(format, message).into_bytes(),
            format,
        }
    }

    /// An error status with a JSON error envelope.
    pub fn error(status: u16, message: &str) -> Response {
        Self::error_in(WireFormat::Json, status, message)
    }
}

/// The error envelope carrying `message`, in `format`.
pub(crate) fn error_body(format: WireFormat, message: &str) -> String {
    match format {
        WireFormat::Json => serde_json::to_string(&crate::wire::ErrorEnvelope {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string()),
        WireFormat::Xml => crate::xml::error_xml(message),
        WireFormat::Text => message.to_string(),
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
    let Some(head_end) = find_separator(buf) else {
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
        .and_then(Method::parse)
        .ok_or_else(|| HttpError::Malformed(format!("bad method in {request_line:?}")))?;
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?;
    // `path` is a subslice of `head_text`, which starts where `buf` does.
    let path_start = path.as_ptr() as usize - head_text.as_ptr() as usize;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the Connection
    // header overrides either way.
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
                format = WireFormat::from_content_type(value);
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
    Ok(Some((
        RequestFrame {
            method,
            path: path_start..path_start + path.len(),
            body: body_start..body_start + content_length,
            format,
            keep_alive,
        },
        body_start + content_length,
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
    Ok(frame_response(buf)?.map(|(status, body, consumed)| (status, buf[body].to_vec(), consumed)))
}

/// [`try_parse_response`], locating the body instead of copying it.
pub(crate) fn frame_response(buf: &[u8]) -> Result<Option<(u16, Range<usize>, usize)>, HttpError> {
    let Some(head_end) = find_separator(buf) else {
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
        body_start..body_start + len,
        body_start + len,
    )))
}

fn find_separator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
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
    let _ = write!(
        wire,
        "{} {} HTTP/1.1\r\nHost: localhost\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        method.as_str(),
        path,
        format.content_type(),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    wire.extend_from_slice(body);
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
    let _ = write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        status_text(status),
        format.content_type(),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    wire.extend_from_slice(body);
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
