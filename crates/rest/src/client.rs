//! The RESTful web interface (client side).
//!
//! [`PolicyRestClient`] is the blocking HTTP client the modified Pegasus
//! Transfer Tool uses: it encodes request lists in JSON or XML (the
//! envelopes' codec, [`crate::wire`]), sends them to the Policy Service,
//! and decodes the advice. It implements [`PolicyTransport`], and its bytes
//! move over a loopback socket ([`PolicyRestClient::new`]) or, in every
//! simulated run, a pipe ([`PolicyRestClient::pipe`]); nothing else differs.
//!
//! The client keeps one HTTP/1.1 connection alive across calls and
//! reconnects transparently when the server has closed it (one retry, and
//! only when the failure shows no live server took the request: these calls
//! are not idempotent).

use crate::http::{frame_response, write_request, HttpError, Method, WireFormat};
use crate::server::Pipe;
use crate::wire::*;
use pwm_core::transport::{PolicyTransport, TransportError};
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, HealthEvent, PolicyConfig, PolicyController,
    TransferAdvice, TransferOutcome, TransferSpec,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Where a client's connections go: a server's socket, or a controller
/// served on the caller's thread.
#[derive(Clone)]
enum Endpoint {
    Tcp(SocketAddr),
    Pipe(PolicyController),
}

/// How a connection's bytes move: a socket, with what `read` fills (zeroed
/// once, so a read costs a copy of the bytes that arrived), or a server
/// core that answers what it is sent as it is sent.
enum Link {
    Tcp(TcpStream, Box<[u8]>),
    Pipe(Box<Pipe>),
}

/// A keep-alive connection with a buffered reader: pipelined responses may
/// arrive packed into one segment, so leftovers after one parsed response
/// must carry over to the next. It also owns the buffers a request is
/// rendered in, so a call on a warm connection allocates only what it
/// returns.
struct ClientConn {
    link: Link,
    leftover: Vec<u8>,
    /// The encoded body of the request being rendered.
    body: String,
    /// The framed bytes of the request (or pipelined window) being sent.
    wire: Vec<u8>,
    /// True from a `send` until the first response byte arrives.
    awaiting_first_byte: bool,
    /// Set by a failure that shows no live server answered what was sent:
    /// the peer had closed or reset the connection before writing a byte
    /// back. Only then may the request be sent again.
    unanswered: bool,
}

/// The errors a peer that has closed the connection produces (as opposed to
/// a timeout, behind which a live server may be working on the request).
fn peer_gone(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        BrokenPipe | ConnectionReset | ConnectionAborted | NotConnected | UnexpectedEof
    )
}

impl ClientConn {
    fn connect(to: &Endpoint, timeout: Duration) -> Result<ClientConn, TransportError> {
        let link = match to {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| TransportError::Io(format!("connect {addr}: {e}")))?;
                stream
                    .set_read_timeout(Some(timeout))
                    .and_then(|_| stream.set_write_timeout(Some(timeout)))
                    .and_then(|_| stream.set_nodelay(true))
                    .map_err(|e| TransportError::Io(format!("socket setup: {e}")))?;
                Link::Tcp(stream, vec![0u8; 16 * 1024].into_boxed_slice())
            }
            Endpoint::Pipe(controller) => Link::Pipe(Box::new(Pipe::new(controller.clone()))),
        };
        Ok(ClientConn {
            link,
            leftover: Vec::new(),
            body: String::new(),
            wire: Vec::new(),
            awaiting_first_byte: false,
            unanswered: false,
        })
    }

    /// Frame one keep-alive request onto the end of `wire`; `encode` writes
    /// its body.
    fn render(
        &mut self,
        format: WireFormat,
        method: Method,
        path: &str,
        encode: impl FnOnce(&mut String),
    ) {
        self.body.clear();
        encode(&mut self.body);
        write_request(
            &mut self.wire,
            format,
            method,
            path,
            self.body.as_bytes(),
            true,
        );
    }

    /// Send what has been rendered, and empty `wire` for the next call.
    fn send(&mut self) -> Result<(), TransportError> {
        self.awaiting_first_byte = true;
        let sent = match &mut self.link {
            Link::Tcp(stream, _) => stream.write_all(&self.wire).and_then(|_| stream.flush()),
            Link::Pipe(pipe) => {
                pipe.exchange(&self.wire, &mut self.leftover);
                Ok(())
            }
        };
        self.wire.clear();
        sent.map_err(|e| {
            self.unanswered = peer_gone(&e);
            TransportError::Io(format!("send: {e}"))
        })
    }

    /// Read one response and hand its status, format and body to `read`,
    /// in place; bytes of the next pipelined response that arrived in the
    /// same segment stay buffered.
    fn read_one<R>(
        &mut self,
        mut read: impl FnMut(u16, WireFormat, &[u8]) -> R,
    ) -> Result<R, TransportError> {
        loop {
            if let Some(out) = self.frame(&mut read)? {
                return Ok(out);
            }
            let n = match &mut self.link {
                Link::Tcp(stream, scratch) => {
                    let n = stream.read(scratch).map_err(|e| {
                        self.unanswered = self.awaiting_first_byte && peer_gone(&e);
                        TransportError::Io(format!("recv: {}", HttpError::from(e)))
                    })?;
                    self.leftover.extend_from_slice(&scratch[..n]);
                    n
                }
                Link::Pipe(_) => 0,
            };
            if n == 0 {
                self.unanswered = self.awaiting_first_byte;
                return Err(TransportError::Io("recv: connection closed".into()));
            }
            self.awaiting_first_byte = false;
        }
    }

    /// The socket-free half of [`ClientConn::read_one`]: hand the first
    /// response buffered to `read` and drop its bytes, if it is whole. A
    /// response that cannot be framed leaves every byte where it is.
    fn frame<R>(
        &mut self,
        read: impl FnOnce(u16, WireFormat, &[u8]) -> R,
    ) -> Result<Option<R>, TransportError> {
        let framed = frame_response(&self.leftover);
        let framed = framed.map_err(|e| TransportError::Io(format!("recv: {e}")))?;
        Ok(framed.map(|(status, format, body, consumed)| {
            let out = read(status, format, &self.leftover[body]);
            self.leftover.drain(..consumed);
            out
        }))
    }
}

/// What a response says: the decoded body of a 200, the message of an error
/// envelope in the response's `format` (or the bare body) otherwise.
fn answer<R>(
    status: u16,
    format: WireFormat,
    body: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<R, TransportError>,
) -> Result<R, TransportError> {
    if status != 200 {
        let message = ErrorEnvelope::decode(format, body)
            .map(|e| e.error)
            .unwrap_or_else(|_| String::from_utf8_lossy(body).to_string());
        return Err(TransportError::Service(message));
    }
    decode(body)
}

fn decode_json<R: serde::de::DeserializeOwned>(body: &[u8]) -> Result<R, TransportError> {
    serde_json::from_slice(body).map_err(|e| TransportError::Io(format!("decode: {e}")))
}

fn decode_text(what: &str, body: &[u8]) -> Result<String, TransportError> {
    String::from_utf8(body.to_vec())
        .map_err(|e| TransportError::Io(format!("non-utf8 {what}: {e}")))
}

/// The request paths of one session's five `PolicyTransport` calls, rendered
/// when the client is made instead of on every call.
#[derive(Debug, Clone)]
struct SessionPaths {
    transfers: String,
    transfers_complete: String,
    cleanups: String,
    cleanups_complete: String,
    health: String,
}

impl SessionPaths {
    fn of(session: &str) -> SessionPaths {
        SessionPaths {
            transfers: format!("/sessions/{session}/transfers"),
            transfers_complete: format!("/sessions/{session}/transfers/complete"),
            cleanups: format!("/sessions/{session}/cleanups"),
            cleanups_complete: format!("/sessions/{session}/cleanups/complete"),
            health: format!("/sessions/{session}/health"),
        }
    }
}

/// A blocking JSON-over-HTTP client for the policy API with a persistent
/// keep-alive connection.
pub struct PolicyRestClient {
    to: Endpoint,
    session: String,
    paths: SessionPaths,
    timeout: Duration,
    format: WireFormat,
    conn: Mutex<Option<ClientConn>>,
}

impl std::fmt::Debug for PolicyRestClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let to: &dyn std::fmt::Debug = match &self.to {
            Endpoint::Tcp(addr) => addr,
            Endpoint::Pipe(_) => &"pipe",
        };
        f.debug_struct("PolicyRestClient")
            .field("to", to)
            .field("session", &self.session)
            .field("timeout", &self.timeout)
            .field("format", &self.format)
            .finish()
    }
}

impl Clone for PolicyRestClient {
    /// Clones share configuration but not the connection — each clone
    /// opens its own keep-alive connection on first use (connections are
    /// not safely shareable across threads interleaving requests).
    fn clone(&self) -> Self {
        PolicyRestClient {
            to: self.to.clone(),
            session: self.session.clone(),
            paths: self.paths.clone(),
            timeout: self.timeout,
            format: self.format,
            conn: Mutex::new(None),
        }
    }
}

impl PolicyRestClient {
    /// Client for `session` on the server at `addr`.
    pub fn new(addr: SocketAddr, session: impl Into<String>) -> Self {
        Self::to(Endpoint::Tcp(addr), session.into())
    }

    /// Client for `session` on `controller`, served on the caller's thread
    /// by the server's own connection core, with no socket.
    pub fn pipe(controller: PolicyController, session: impl Into<String>) -> Self {
        Self::to(Endpoint::Pipe(controller), session.into())
    }

    fn to(to: Endpoint, session: String) -> Self {
        PolicyRestClient {
            to,
            paths: SessionPaths::of(&session),
            session,
            timeout: Duration::from_secs(10),
            format: WireFormat::Json,
            conn: Mutex::new(None),
        }
    }

    /// Choose the wire encoding (the paper's interface speaks "XML or JSON
    /// data structures"; JSON is the default).
    pub fn with_format(mut self, format: WireFormat) -> Self {
        self.format = format;
        self
    }

    /// Run `op` against the persistent connection. A reused connection may
    /// be stale (the server timed it out between calls), so a failure on a
    /// reused connection that shows the request went [unanswered] is retried
    /// once on a fresh one. Any other failure — a read timeout above all —
    /// is returned: the service may already have applied the request, and a
    /// second `evaluate_transfers` would come back `AlreadyInProgress` for
    /// transfers nobody is running.
    ///
    /// [unanswered]: ClientConn::unanswered
    fn with_conn<R>(
        &self,
        op: impl Fn(&mut ClientConn) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let mut slot = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let reused = slot.is_some();
        if slot.is_none() {
            *slot = Some(ClientConn::connect(&self.to, self.timeout)?);
        }
        let conn = slot.as_mut().expect("connection just ensured");
        match op(conn) {
            Ok(r) => Ok(r),
            Err(e) => {
                let stale = reused && conn.unanswered;
                *slot = None;
                if !stale {
                    return Err(e);
                }
                // Stale keep-alive connection: reconnect and retry once.
                let mut fresh = ClientConn::connect(&self.to, self.timeout)?;
                let result = op(&mut fresh);
                if result.is_ok() {
                    *slot = Some(fresh);
                }
                result
            }
        }
    }

    /// One round trip over the persistent connection: `encode` writes the
    /// request body in `format` (nothing for a GET) into the connection's
    /// buffer, `decode` reads the body of a 200 where it was received.
    /// Neither buffer outlives the call, so a call allocates what `decode`
    /// returns and nothing else. A transport failure drops the connection;
    /// a refusal by the service does not.
    fn exchange<R>(
        &self,
        method: Method,
        path: &str,
        format: WireFormat,
        encode: impl Fn(&mut String),
        decode: impl Fn(&[u8]) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        self.with_conn(|conn| {
            conn.render(format, method, path, &encode);
            conn.send()?;
            conn.read_one(|status, format, body| answer(status, format, body, &decode))
        })?
    }

    /// A request carrying `request` in `format`, its answer read in the
    /// same format.
    fn call<Req: Codec, Resp: Codec>(
        &self,
        format: WireFormat,
        method: Method,
        path: &str,
        request: &Req,
    ) -> Result<Resp, TransportError> {
        self.exchange(
            method,
            path,
            format,
            |body| {
                request.encode(format, body);
            },
            |body| {
                Resp::decode(format, body).map_err(|e| TransportError::Io(format!("decode: {e}")))
            },
        )
    }

    /// GET `/health`; true when the service answers.
    pub fn health(&self) -> bool {
        let answer = self.exchange(
            Method::Get,
            "/health",
            WireFormat::Json,
            |_| {},
            decode_json,
        );
        matches!(answer, Ok(AckEnvelope { status }) if status == "ok")
    }

    /// PUT the session's policy configuration (creates the session if new).
    pub fn put_config(&self, config: &PolicyConfig) -> Result<(), TransportError> {
        let path = format!("/sessions/{}/config", self.session);
        let _: AckEnvelope = self.call(WireFormat::Json, Method::Put, &path, config)?;
        Ok(())
    }

    /// GET `/metrics` — the Prometheus text exposition covering every
    /// session on the server.
    pub fn metrics(&self) -> Result<String, TransportError> {
        let decode = |body: &[u8]| decode_text("metrics", body);
        self.exchange(Method::Get, "/metrics", WireFormat::Json, |_| {}, decode)
    }

    /// GET the session's span trace as Chrome-trace JSON (viewable in
    /// Perfetto / `chrome://tracing`).
    pub fn trace(&self) -> Result<String, TransportError> {
        let path = format!("/sessions/{}/trace", self.session);
        let decode = |body: &[u8]| decode_text("trace", body);
        self.exchange(Method::Get, &path, WireFormat::Json, |_| {}, decode)
    }

    /// GET the session's status (snapshot + stats).
    pub fn status(&self) -> Result<StatusEnvelope, TransportError> {
        let path = format!("/sessions/{}/status", self.session);
        self.exchange(Method::Get, &path, WireFormat::Json, |_| {}, decode_json)
    }
}

impl PolicyTransport for PolicyRestClient {
    fn evaluate_transfers(
        &mut self,
        transfers: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        let request = TransferRequestEnvelope { transfers };
        let path = &self.paths.transfers;
        let answer: TransferResponseEnvelope =
            self.call(self.format, Method::Post, path, &request)?;
        Ok(answer.advice)
    }

    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        let request = TransferCompletionEnvelope { outcomes };
        let path = &self.paths.transfers_complete;
        let _: AckEnvelope = self.call(self.format, Method::Post, path, &request)?;
        Ok(())
    }

    fn evaluate_cleanups(
        &mut self,
        cleanups: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        let request = CleanupRequestEnvelope { cleanups };
        let path = &self.paths.cleanups;
        let answer: CleanupResponseEnvelope =
            self.call(self.format, Method::Post, path, &request)?;
        Ok(answer.advice)
    }

    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        let request = CleanupCompletionEnvelope { outcomes };
        let path = &self.paths.cleanups_complete;
        let _: AckEnvelope = self.call(self.format, Method::Post, path, &request)?;
        Ok(())
    }

    /// JSON regardless of [`Self::with_format`]: the recovery family has no
    /// XML schema.
    fn report_health(&mut self, events: Vec<HealthEvent>) -> Result<(), TransportError> {
        let request = HealthReportEnvelope { events };
        let path = &self.paths.health;
        let _: AckEnvelope = self.call(WireFormat::Json, Method::Post, path, &request)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests;
