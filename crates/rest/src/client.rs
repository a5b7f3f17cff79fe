//! The RESTful web interface (client side).
//!
//! [`PolicyRestClient`] is the blocking HTTP client the modified Pegasus
//! Transfer Tool uses: it encodes request lists in JSON or XML (the
//! envelopes' codec, [`crate::wire`]), POSTs them to the Policy Service,
//! and decodes the advice. It also implements [`PolicyTransport`], so the
//! workflow substrate can swap between in-process and over-the-wire policy
//! callouts without code changes.
//!
//! The client keeps one HTTP/1.1 connection alive across calls and
//! reconnects transparently when the server has closed it (one retry, and
//! only when the failure shows no live server took the request: these calls
//! are not idempotent).

use crate::http::{frame_response, write_request, HttpError, Method, WireFormat};
use crate::wire::*;
use pwm_core::transport::{PolicyTransport, TransportError};
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, HealthEvent, PolicyConfig, TransferAdvice,
    TransferOutcome, TransferSpec,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// A keep-alive connection with a buffered reader: pipelined responses may
/// arrive packed into one segment, so leftovers after one parsed response
/// must carry over to the next. It also owns the buffers a request is
/// rendered in, so a call on a warm connection allocates only what it
/// returns.
struct ClientConn {
    stream: TcpStream,
    leftover: Vec<u8>,
    /// What `read` fills: zeroed once per connection, so a read costs a copy
    /// of the bytes that arrived.
    scratch: Box<[u8]>,
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
    fn connect(addr: SocketAddr, timeout: Duration) -> Result<ClientConn, TransportError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| TransportError::Io(format!("connect {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|_| stream.set_write_timeout(Some(timeout)))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| TransportError::Io(format!("socket setup: {e}")))?;
        Ok(ClientConn {
            stream,
            leftover: Vec::new(),
            scratch: vec![0u8; 16 * 1024].into_boxed_slice(),
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
        let sent = self
            .stream
            .write_all(&self.wire)
            .and_then(|_| self.stream.flush());
        self.wire.clear();
        sent.map_err(|e| {
            self.unanswered = peer_gone(&e);
            TransportError::Io(format!("send: {e}"))
        })
    }

    /// Read one response and hand its status and body to `read`, in place;
    /// bytes of the next pipelined response that arrived in the same
    /// segment stay buffered.
    fn read_one<R>(&mut self, read: impl FnOnce(u16, &[u8]) -> R) -> Result<R, TransportError> {
        loop {
            match frame_response(&self.leftover) {
                Ok(Some((status, body, consumed))) => {
                    let out = read(status, &self.leftover[body]);
                    self.leftover.drain(..consumed);
                    return Ok(out);
                }
                Ok(None) => {}
                Err(e) => return Err(TransportError::Io(format!("recv: {e}"))),
            }
            let n = self.stream.read(&mut self.scratch).map_err(|e| {
                self.unanswered = self.awaiting_first_byte && peer_gone(&e);
                TransportError::Io(format!("recv: {}", HttpError::from(e)))
            })?;
            if n == 0 {
                self.unanswered = self.awaiting_first_byte;
                return Err(TransportError::Io("recv: connection closed".into()));
            }
            self.awaiting_first_byte = false;
            self.leftover.extend_from_slice(&self.scratch[..n]);
        }
    }
}

/// What a response says: the decoded body of a 200, the service's message
/// otherwise.
fn answer<R>(
    status: u16,
    body: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<R, TransportError>,
) -> Result<R, TransportError> {
    if status != 200 {
        let message = serde_json::from_slice::<ErrorEnvelope>(body)
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
    addr: SocketAddr,
    session: String,
    paths: SessionPaths,
    timeout: Duration,
    format: WireFormat,
    conn: Mutex<Option<ClientConn>>,
}

impl std::fmt::Debug for PolicyRestClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRestClient")
            .field("addr", &self.addr)
            .field("session", &self.session)
            .field("timeout", &self.timeout)
            .field("format", &self.format)
            .finish()
    }
}

impl Clone for PolicyRestClient {
    /// Clones share configuration but not the connection — each clone
    /// opens its own keep-alive socket on first use (connections are not
    /// safely shareable across threads interleaving requests).
    fn clone(&self) -> Self {
        PolicyRestClient {
            addr: self.addr,
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
        let session = session.into();
        PolicyRestClient {
            addr,
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
            *slot = Some(ClientConn::connect(self.addr, self.timeout)?);
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
                let mut fresh = ClientConn::connect(self.addr, self.timeout)?;
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
            conn.read_one(|status, body| answer(status, body, &decode))
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
mod tests {
    use super::*;
    use crate::server::PolicyRestServer;
    use pwm_core::{PolicyController, Url, WorkflowId, DEFAULT_SESSION};

    fn start() -> (PolicyRestServer, PolicyRestClient) {
        let controller = PolicyController::new(PolicyConfig::default());
        let server = PolicyRestServer::start(controller).unwrap();
        let client = PolicyRestClient::new(server.addr(), DEFAULT_SESSION);
        (server, client)
    }

    fn spec(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "tacc", format!("/data/f{n}.dat")),
            dest: Url::new("file", "isi", format!("/scratch/f{n}.dat")),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    #[test]
    fn health_check() {
        let (_server, client) = start();
        assert!(client.health());
    }

    #[test]
    fn transfer_round_trip_over_http() {
        let (_server, mut client) = start();
        let advice = client.evaluate_transfers(vec![spec(1), spec(2)]).unwrap();
        assert_eq!(advice.len(), 2);
        assert!(advice.iter().all(|a| a.should_execute()));
        assert_eq!(advice[0].streams, 4);

        client
            .report_transfers(
                advice
                    .iter()
                    .map(|a| TransferOutcome {
                        id: a.id,
                        success: true,
                    })
                    .collect(),
            )
            .unwrap();
        let status = client.status().unwrap();
        assert_eq!(status.stats.transfers_completed, 2);
        assert_eq!(status.snapshot.staged_files, 2);
    }

    #[test]
    fn dedup_works_over_http() {
        let (_server, mut client) = start();
        let first = client.evaluate_transfers(vec![spec(1)]).unwrap();
        assert!(first[0].should_execute());
        let second = client.evaluate_transfers(vec![spec(1)]).unwrap();
        assert!(!second[0].should_execute());
    }

    #[test]
    fn cleanup_round_trip_over_http() {
        let (_server, mut client) = start();
        let advice = client.evaluate_transfers(vec![spec(1)]).unwrap();
        client
            .report_transfers(vec![TransferOutcome {
                id: advice[0].id,
                success: true,
            }])
            .unwrap();
        let cleanups = client
            .evaluate_cleanups(vec![CleanupSpec {
                file: Url::new("file", "isi", "/scratch/f1.dat"),
                workflow: WorkflowId(1),
            }])
            .unwrap();
        assert!(cleanups[0].should_execute());
        client
            .report_cleanups(vec![CleanupOutcome {
                id: cleanups[0].id,
                success: true,
            }])
            .unwrap();
        assert_eq!(client.status().unwrap().snapshot.staged_files, 0);
    }

    #[test]
    fn missing_session_is_a_service_error() {
        let (server, _client) = start();
        let mut client = PolicyRestClient::new(server.addr(), "missing");
        let err = client.evaluate_transfers(vec![spec(1)]).unwrap_err();
        assert!(matches!(err, TransportError::Service(_)), "{err:?}");
    }

    #[test]
    fn connection_refused_is_an_io_error() {
        let (mut server, _client) = start();
        let addr = server.addr();
        server.shutdown();
        let mut client = PolicyRestClient::new(addr, DEFAULT_SESSION);
        client.timeout = Duration::from_millis(500);
        let err = client.evaluate_transfers(vec![spec(1)]);
        assert!(err.is_err());
    }

    #[test]
    fn put_config_then_use_new_session() {
        let (_server, client) = start();
        let client = PolicyRestClient::new(client.addr, "exp-42");
        client
            .put_config(&PolicyConfig::default().with_default_streams(12))
            .unwrap();
        let mut client = client;
        let advice = client.evaluate_transfers(vec![spec(1)]).unwrap();
        assert_eq!(advice[0].streams, 12);
    }

    #[test]
    fn xml_transport_round_trips_and_matches_json() {
        let (_server, json_client) = start();
        let mut xml_client = json_client.clone().with_format(WireFormat::Xml);
        let advice = xml_client
            .evaluate_transfers(vec![spec(1), spec(1)])
            .unwrap();
        assert_eq!(advice.len(), 2);
        assert!(advice[0].should_execute());
        assert!(!advice[1].should_execute(), "dedup works over XML too");
        xml_client
            .report_transfers(vec![TransferOutcome {
                id: advice[0].id,
                success: true,
            }])
            .unwrap();
        let cleanups = xml_client
            .evaluate_cleanups(vec![CleanupSpec {
                file: Url::new("file", "isi", "/scratch/f1.dat"),
                workflow: WorkflowId(1),
            }])
            .unwrap();
        assert!(cleanups[0].should_execute());
        xml_client
            .report_cleanups(vec![pwm_core::CleanupOutcome {
                id: cleanups[0].id,
                success: true,
            }])
            .unwrap();
        // Status (JSON endpoint) reflects the XML-driven lifecycle.
        let status = json_client.status().unwrap();
        assert_eq!(status.stats.transfers_completed, 1);
        assert_eq!(status.snapshot.staged_files, 0);
    }

    #[test]
    fn xml_errors_surface_as_service_errors() {
        let (server, _c) = start();
        let mut client =
            PolicyRestClient::new(server.addr(), "missing").with_format(WireFormat::Xml);
        let err = client.evaluate_transfers(vec![spec(1)]).unwrap_err();
        assert!(matches!(err, TransportError::Service(_)), "{err:?}");
    }

    #[test]
    fn keep_alive_connection_is_reused_across_calls() {
        let (_server, mut client) = start();
        // Several sequential calls over one client: all ride the same
        // keep-alive socket (reconnect-on-stale covers the rest).
        for n in 0..5 {
            client.evaluate_transfers(vec![spec(n)]).unwrap();
        }
        assert_eq!(client.status().unwrap().stats.transfer_requests, 5);
    }

    /// A hand-driven server: `script` gets the listener, and returns how
    /// many complete requests it read.
    fn stub_server(
        script: impl FnOnce(std::net::TcpListener) -> usize + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (addr, std::thread::spawn(move || script(listener)))
    }

    /// Block until one complete request has arrived on `stream`; returns
    /// its bytes.
    fn read_request(stream: &mut TcpStream) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while crate::http::try_parse_request(&buf, 1 << 20)
            .unwrap()
            .is_none()
        {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "client hung up mid-request");
            buf.extend_from_slice(&chunk[..n]);
        }
        buf
    }

    #[test]
    fn get_requests_carry_no_body() {
        let (seen, requests) = std::sync::mpsc::channel();
        let (addr, server) = stub_server(move |listener| {
            let (mut conn, _) = listener.accept().unwrap();
            let answers = [
                r#"{"status":"ok"}"#.to_string(),
                serde_json::to_string(&StatusEnvelope {
                    snapshot: pwm_core::MemorySnapshot {
                        in_progress_transfers: 0,
                        staged_files: 0,
                        staging_files: 0,
                        in_progress_cleanups: 0,
                        host_pairs: Vec::new(),
                    },
                    stats: Default::default(),
                    rules: Vec::new(),
                })
                .unwrap(),
                "# metrics".to_string(),
                "[]".to_string(),
            ];
            for answer in answers {
                seen.send(read_request(&mut conn)).unwrap();
                let response = crate::http::Response::ok_json(answer);
                conn.write_all(&crate::http::render_response(&response, true))
                    .unwrap();
            }
            4
        });
        let client = PolicyRestClient::new(addr, DEFAULT_SESSION);
        assert!(client.health());
        client.status().unwrap();
        client.metrics().unwrap();
        client.trace().unwrap();
        assert_eq!(server.join().unwrap(), 4);
        let paths = [
            "/health",
            "/sessions/default/status",
            "/metrics",
            "/sessions/default/trace",
        ];
        for (wire, path) in requests.iter().zip(paths) {
            let text = String::from_utf8(wire).unwrap();
            assert!(
                text.starts_with(&format!("GET {path} HTTP/1.1\r\n")),
                "{text}"
            );
            assert!(text.contains("\r\nContent-Length: 0\r\n"), "{text}");
            assert!(
                text.ends_with("\r\n\r\n"),
                "a body follows the head: {text}"
            );
        }
    }

    fn answer_no_advice(stream: &mut TcpStream) {
        let response = crate::http::Response::ok_json(r#"{"advice":[]}"#);
        stream
            .write_all(&crate::http::render_response(&response, true))
            .unwrap();
    }

    #[test]
    fn stale_keep_alive_connection_is_replaced_and_the_request_resent() {
        let (addr, server) = stub_server(|listener| {
            // Answer one request, then drop the connection the way an idle
            // timeout does; the re-sent request arrives on a second one.
            let (mut first, _) = listener.accept().unwrap();
            read_request(&mut first);
            answer_no_advice(&mut first);
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            read_request(&mut second);
            answer_no_advice(&mut second);
            2
        });
        let mut client = PolicyRestClient::new(addr, DEFAULT_SESSION);
        assert!(client.evaluate_transfers(vec![spec(1)]).unwrap().is_empty());
        assert!(client.evaluate_transfers(vec![spec(2)]).unwrap().is_empty());
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn a_request_the_server_took_but_never_answered_is_not_sent_twice() {
        let (release, stalled) = std::sync::mpsc::channel::<()>();
        let (addr, server) = stub_server(move |listener| {
            let (mut conn, _) = listener.accept().unwrap();
            read_request(&mut conn);
            answer_no_advice(&mut conn);
            // The second request is read — for all the client can tell,
            // applied — and never answered.
            read_request(&mut conn);
            let _ = stalled.recv();
            // A re-sent copy would be waiting here, on this connection or on
            // a new one.
            listener.set_nonblocking(true).unwrap();
            conn.set_nonblocking(true).unwrap();
            let resent_here = matches!(conn.read(&mut [0u8; 1]), Ok(n) if n > 0);
            2 + usize::from(resent_here) + usize::from(listener.accept().is_ok())
        });
        let mut client = PolicyRestClient::new(addr, DEFAULT_SESSION);
        client.timeout = Duration::from_millis(200);
        client.evaluate_transfers(vec![spec(1)]).unwrap();
        let err = client.evaluate_transfers(vec![spec(2)]).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        release.send(()).unwrap();
        assert_eq!(server.join().unwrap(), 2, "the stalled request was re-sent");
    }

    #[test]
    fn read_one_keeps_the_bytes_of_the_next_response_in_the_same_segment() {
        let body = |n: usize| format!(r#"{{"advice":[],"pad":"{}"}}"#, "x".repeat(n));
        let (addr, server) = stub_server(move |listener| {
            let (mut conn, _) = listener.accept().unwrap();
            read_request(&mut conn);
            // Two whole responses and the head of a third in one segment
            // (the third longer than one read), the rest in a second.
            let mut wire = Vec::new();
            for n in [1, 2, 40_000] {
                let response = crate::http::Response::ok_json(body(n));
                wire.extend_from_slice(&crate::http::render_response(&response, true));
            }
            let cut = wire.len() - 39_000;
            conn.write_all(&wire[..cut]).unwrap();
            conn.write_all(&wire[cut..]).unwrap();
            1
        });
        let mut conn = ClientConn::connect(addr, Duration::from_secs(5)).unwrap();
        conn.render(WireFormat::Json, Method::Get, "/health", |_| {});
        conn.send().unwrap();
        for n in [1, 2, 40_000] {
            let (status, got) = conn.read_one(|status, got| (status, got.to_vec())).unwrap();
            assert_eq!(status, 200);
            assert_eq!(got, body(n).into_bytes());
        }
        assert!(conn.leftover.is_empty());
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn concurrent_clients_share_the_session() {
        let (_server, client) = start();
        let mut threads = Vec::new();
        for t in 0..4 {
            let mut c = client.clone();
            threads.push(std::thread::spawn(move || {
                for i in 0..10 {
                    c.evaluate_transfers(vec![spec(t * 100 + i)]).unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(client.status().unwrap().stats.transfer_requests, 40);
    }
}
