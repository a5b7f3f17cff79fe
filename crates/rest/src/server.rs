//! The RESTful web interface (server side).
//!
//! [`PolicyRestServer`] binds a loopback TCP listener and serves the policy
//! API, delegating every request to a [`PolicyController`] exactly as the
//! paper's web interface delegates to the Policy Controller.
//!
//! The server is a single-threaded nonblocking event loop driven by
//! `poll(2)` (see [`crate::poller`]): every connection is a small state
//! machine with a read buffer, a write buffer, and a deadline. HTTP/1.1
//! keep-alive and pipelining are supported, and consecutive pipelined
//! transfer-evaluate requests for the same session are drained into one
//! batched `evaluate_transfer_groups` call — one rules pass serves a whole
//! pipeline window (`pwm_rest_batched_requests_total` counts the requests
//! served that way).
//! Graceful shutdown uses the poller's self-pipe: requests fully received
//! before shutdown are answered, partial requests get a clean 503.
//!
//! Routes:
//!
//! | Method | Path | Body → Response |
//! |--------|------|-----------------|
//! | GET    | `/health` | — → `{"status":"ok"}` |
//! | POST   | `/sessions/{s}/transfers` | TransferRequestEnvelope → TransferResponseEnvelope |
//! | POST   | `/sessions/{s}/transfers/complete` | TransferCompletionEnvelope → Ack |
//! | POST   | `/sessions/{s}/cleanups` | CleanupRequestEnvelope → CleanupResponseEnvelope |
//! | POST   | `/sessions/{s}/cleanups/complete` | CleanupCompletionEnvelope → Ack |
//! | POST   | `/sessions/{s}/health` | HealthReportEnvelope → Ack (JSON only) |
//! | GET    | `/sessions/{s}/status` | — → StatusEnvelope |
//! | GET    | `/sessions/{s}/log` | — → `[AuditRecord]` (the monitoring log) |
//! | GET    | `/sessions/{s}/trace` | — → Chrome-trace JSON (load in Perfetto) |
//! | GET    | `/metrics` | — → Prometheus text exposition (all sessions) |
//! | PUT    | `/sessions/{s}/config` | PolicyConfig → Ack (creates the session if absent) |

use crate::http::{
    error_body, frame_request, write_response, HttpError, Method, Request, RequestFrame, WireFormat,
};
use crate::poller::{poll_fds, PollFd, WakePipe, Waker, POLL_IN, POLL_OUT};
use crate::wire::*;
use crate::xml;
use pwm_core::{ControllerError, PolicyConfig, PolicyController, TransferSpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection resource limits (slow-loris and memory-bomb guards).
#[derive(Debug, Clone, Copy)]
pub struct ServerLimits {
    /// Read deadline: a connection with an unfinished request that stalls
    /// past this gets 408 and is closed. (Idle keep-alive connections that
    /// already served a request are closed silently.) Also the grace
    /// period a graceful shutdown allows for flushing responses.
    pub read_timeout: Duration,
    /// Maximum request-body size: a larger declared Content-Length gets
    /// 413 without the body ever being read.
    pub max_body: usize,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            read_timeout: Duration::from_secs(5),
            max_body: 16 << 20,
        }
    }
}

/// A running policy REST server (event-driven, single loop thread).
pub struct PolicyRestServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    loop_thread: Option<JoinHandle<()>>,
}

impl PolicyRestServer {
    /// Bind `127.0.0.1:0` (ephemeral port) and start serving `controller`
    /// with default [`ServerLimits`].
    pub fn start(controller: PolicyController) -> std::io::Result<PolicyRestServer> {
        Self::start_with_limits(controller, ServerLimits::default())
    }

    /// Bind `127.0.0.1:0` and start serving with explicit limits.
    pub fn start_with_limits(
        controller: PolicyController,
        limits: ServerLimits,
    ) -> std::io::Result<PolicyRestServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let (wake, waker) = WakePipe::new()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_shutdown = shutdown.clone();
        let loop_thread = std::thread::Builder::new()
            .name("policy-rest-loop".into())
            .spawn(move || event_loop(listener, wake, controller, limits, loop_shutdown))?;
        Ok(PolicyRestServer {
            addr,
            shutdown,
            waker,
            loop_thread: Some(loop_thread),
        })
    }

    /// The bound address (ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: wake the event loop via the self-pipe, stop
    /// accepting, answer every request that was fully received, 503 the
    /// partial ones, flush, and join the loop thread. After this returns,
    /// no request is mid-flight — safe to recover the controller's state
    /// elsewhere (see `recover_session` / `resume_durable_session`).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PolicyRestServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Event-loop counters and gauges, published on the controller's shared
/// `/metrics` registry alongside the per-session policy metrics.
struct LoopMetrics {
    wakeups: pwm_obs::Counter,
    requests: pwm_obs::Counter,
    batched: pwm_obs::Counter,
    open_connections: pwm_obs::Gauge,
    write_backlog: pwm_obs::Gauge,
}

impl LoopMetrics {
    fn register(controller: &PolicyController) -> LoopMetrics {
        let r = &controller.obs().registry;
        LoopMetrics {
            wakeups: r.counter(
                "pwm_rest_event_loop_wakeups_total",
                "Times the server's poll loop woke up (readiness, timeout, or self-pipe)",
                &[],
            ),
            requests: r.counter(
                "pwm_rest_requests_total",
                "HTTP requests parsed by the event loop",
                &[],
            ),
            batched: r.counter(
                "pwm_rest_batched_requests_total",
                "Requests answered via a batched evaluate_transfer_groups rules pass",
                &[],
            ),
            open_connections: r.gauge(
                "pwm_rest_open_connections",
                "Connections currently registered with the event loop",
                &[],
            ),
            write_backlog: r.gauge(
                "pwm_rest_write_backlog_bytes",
                "Response bytes queued across all connections (event-loop queue depth)",
                &[],
            ),
        }
    }
}

/// Bytes one `read` may deliver (the event loop's scratch buffer).
const READ_CHUNK: usize = 16 * 1024;

enum ConnState {
    /// Reading and serving requests.
    Open,
    /// No more reads; flush the write buffer, then close.
    Closing,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    rbuf: Vec<u8>,
    /// Unflushed response bytes.
    wbuf: Vec<u8>,
    /// Requests answered on this connection (distinguishes a never-spoke
    /// stall, which deserves 408, from an idle keep-alive connection,
    /// which is closed silently).
    served: u64,
    deadline: Instant,
    state: ConnState,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant, limits: &ServerLimits) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            served: 0,
            deadline: now + limits.read_timeout,
            state: ConnState::Open,
        }
    }

    /// Answer what the connection sent with an error status, and close it.
    fn push_refusal(&mut self, status: u16, message: &str) {
        let answer = Answer {
            status,
            format: WireFormat::Json,
        };
        self.push_answer(answer, &error_body(answer.format, message), false);
    }

    /// Queue an answer whose body was rendered into the loop's body buffer:
    /// head and body go straight into the write buffer.
    fn push_answer(&mut self, answer: Answer, body: &str, keep_alive: bool) {
        write_response(
            &mut self.wbuf,
            answer.status,
            answer.format,
            body.as_bytes(),
            keep_alive,
        );
        if !keep_alive {
            self.state = ConnState::Closing;
        }
    }

    /// Append what the socket holds to `rbuf`, reading through `scratch`
    /// (the event loop's one read chunk, [`Workspace::chunk`]). A read that
    /// does not fill `scratch` emptied the socket, so no second `read` is
    /// issued just to see `WouldBlock`: `poll` is level-triggered
    /// and reports anything that arrives later, end of stream included, on
    /// the next turn. True when the peer closed its write side.
    fn drain_read(&mut self, scratch: &mut [u8]) -> bool {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        return false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// Write as much of `wbuf` as the socket accepts.
    fn drain_write(&mut self) {
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Peer is gone; nothing left to flush.
                    written = self.wbuf.len();
                    self.state = ConnState::Closing;
                    break;
                }
            }
        }
        self.wbuf.drain(..written);
    }

    fn finished(&self) -> bool {
        matches!(self.state, ConnState::Closing) && self.wbuf.is_empty()
    }
}

fn event_loop(
    listener: TcpListener,
    mut wake: WakePipe,
    controller: PolicyController,
    limits: ServerLimits,
    shutdown: Arc<AtomicBool>,
) {
    let metrics = LoopMetrics::register(&controller);
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut work = Workspace {
        chunk: vec![0u8; READ_CHUNK],
        frames: Vec::new(),
        body: String::new(),
    };
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        // Poll set: [wake, listener?, conns...]. Indices into `fds` for
        // the connection entries start at `conn_base`.
        fds.clear();
        fds.push(PollFd::new(wake.fd(), POLL_IN));
        let listener_slot = (!draining).then(|| {
            fds.push(PollFd::new(listener.as_raw_fd(), POLL_IN));
            fds.len() - 1
        });
        let conn_base = fds.len();
        for c in &conns {
            let mut events = 0i16;
            if matches!(c.state, ConnState::Open) {
                events |= POLL_IN;
            }
            if !c.wbuf.is_empty() {
                events |= POLL_OUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }

        // Sleep until the nearest deadline (connection read deadlines, or
        // the drain grace deadline), capped so gauge refreshes stay live.
        let now = Instant::now();
        let mut next_deadline = now + Duration::from_secs(1);
        for c in &conns {
            if matches!(c.state, ConnState::Open) {
                next_deadline = next_deadline.min(c.deadline);
            }
        }
        if draining {
            next_deadline = next_deadline.min(drain_deadline);
        }
        let timeout = next_deadline.saturating_duration_since(now);
        let _ = poll_fds(&mut fds, Some(timeout));
        metrics.wakeups.inc();
        let now = Instant::now();

        if fds[0].readable() {
            wake.drain();
        }

        // Serve readable connections (indices still aligned with `fds`;
        // new connections are accepted after this pass).
        if !draining {
            for (i, c) in conns.iter_mut().enumerate() {
                if matches!(c.state, ConnState::Open) && fds[conn_base + i].readable() {
                    let eof = c.drain_read(&mut work.chunk);
                    c.deadline = now + limits.read_timeout;
                    serve_buffered(c, &mut work, &controller, &limits, &metrics);
                    if eof {
                        c.state = ConnState::Closing;
                    }
                }
            }
        }

        // Accept new connections.
        if let Some(slot) = listener_slot {
            if fds[slot].readable() {
                while let Ok((stream, _)) = listener.accept() {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream, now, &limits));
                }
            }
        }

        // Shutdown requested: stop reading, answer everything already on
        // the wire, 503 the partials, then flush within the grace period.
        if shutdown.load(Ordering::SeqCst) && !draining {
            draining = true;
            drain_deadline = now + limits.read_timeout;
            for c in conns.iter_mut() {
                if matches!(c.state, ConnState::Open) {
                    c.drain_read(&mut work.chunk);
                    serve_buffered(c, &mut work, &controller, &limits, &metrics);
                    if !c.rbuf.is_empty() {
                        c.push_refusal(503, "server shutting down");
                        c.rbuf.clear();
                    }
                    c.state = ConnState::Closing;
                }
            }
        }

        // Read-deadline enforcement.
        for c in conns.iter_mut() {
            if matches!(c.state, ConnState::Open) && now >= c.deadline {
                if !c.rbuf.is_empty() || c.served == 0 {
                    // Mid-request stall (slow loris) or a connection that
                    // never spoke: answer 408 and close.
                    c.push_refusal(408, "request read timed out");
                } else {
                    // Idle keep-alive connection: close silently.
                    c.state = ConnState::Closing;
                }
            }
        }

        // Flush pending writes, then reap finished connections.
        for c in conns.iter_mut() {
            if !c.wbuf.is_empty() {
                c.drain_write();
            }
        }
        conns.retain(|c| !c.finished());

        metrics.open_connections.set(conns.len() as f64);
        metrics
            .write_backlog
            .set(conns.iter().map(|c| c.wbuf.len()).sum::<usize>() as f64);

        if draining && (conns.is_empty() || now >= drain_deadline) {
            metrics.open_connections.set(0.0);
            metrics.write_backlog.set(0.0);
            break;
        }
    }
}

/// What the loop thread keeps from one request to the next, so that serving
/// a request allocates nothing of its own: the read chunk, the list of
/// requests framed in the connection being served, and the body of the
/// response being rendered.
struct Workspace {
    /// What one `read` may deliver: zeroed once, so a read costs a copy of
    /// the bytes that arrived and nothing per byte that did not.
    chunk: Vec<u8>,
    /// Each framed request with the offset of the bytes it was framed in.
    frames: Vec<(usize, RequestFrame)>,
    body: String,
}

/// Status and encoding of a response whose body is in [`Workspace::body`].
#[derive(Debug, Clone, Copy)]
struct Answer {
    status: u16,
    format: WireFormat,
}

/// Frame every complete request in a connection's read buffer, then answer
/// them in order. Runs of ≥ 2 consecutive pipelined JSON transfer-evaluate
/// requests for the same session collapse into one batched
/// `evaluate_transfer_groups` controller call.
fn serve_buffered(
    c: &mut Conn,
    work: &mut Workspace,
    controller: &PolicyController,
    limits: &ServerLimits,
    metrics: &LoopMetrics,
) {
    let Workspace { frames, body, .. } = work;
    frames.clear();
    let mut fatal: Option<(u16, String)> = None;
    let mut consumed = 0;
    loop {
        match frame_request(&c.rbuf[consumed..], limits.max_body) {
            Ok(Some((frame, len))) => {
                frames.push((consumed, frame));
                consumed += len;
            }
            Ok(None) => break,
            Err(e @ HttpError::TooLarge(_)) => {
                fatal = Some((413, e.to_string()));
                break;
            }
            Err(e) => {
                fatal = Some((400, format!("bad request: {e}")));
                break;
            }
        }
    }
    metrics.requests.add(frames.len() as u64);

    // The requests borrow the read buffer while their answers go to the
    // same connection's write buffer: lend the read buffer out for the pass.
    let rbuf = std::mem::take(&mut c.rbuf);
    let request = |i: usize| {
        let (at, frame) = &frames[i];
        frame.request(&rbuf[*at..])
    };
    // Each request's path is split once: a request that ends a pipelined run
    // is kept, split, for the turn that answers it.
    let routed = |i: usize| {
        let r = request(i);
        (r, path_segments(r.path))
    };
    let mut next = None;
    let mut i = 0;
    while i < frames.len() {
        let (first, (all, len)) = next.take().unwrap_or_else(|| routed(i));
        let segments = &all[..len];
        // A pipelined run: maximal stretch of batchable transfer-evaluate
        // requests addressed to one session.
        if let Some(session) = batchable_session(&first, segments) {
            let mut j = i + 1;
            while j < frames.len() {
                let (r, (all, len)) = routed(j);
                if batchable_session(&r, &all[..len]) != Some(session) {
                    next = Some((r, (all, len)));
                    break;
                }
                j += 1;
            }
            if j - i >= 2 {
                serve_batched(c, (i..j).map(&request), session, controller, metrics, body);
                c.served += (j - i) as u64;
                i = j;
                continue;
            }
        }
        body.clear();
        let answer = route(&first, segments, controller, body);
        c.push_answer(answer, body, first.keep_alive);
        c.served += 1;
        i += 1;
        if !first.keep_alive {
            // Pipelined bytes after an explicit close are undefined
            // behavior per HTTP; drop them with the lent buffer.
            return;
        }
    }
    c.rbuf = rbuf;
    c.rbuf.drain(..consumed);

    if let Some((status, message)) = fatal {
        c.push_refusal(status, &message);
        c.rbuf.clear();
    }
}

/// Is this request eligible for the batched advice path? JSON POSTs to
/// `/sessions/{s}/transfers` on a keep-alive connection; returns the
/// session name.
fn batchable_session<'a>(request: &Request<'a>, segments: &[&'a str]) -> Option<&'a str> {
    if request.method != Method::Post || !request.keep_alive {
        return None;
    }
    if !matches!(request.format, WireFormat::Json | WireFormat::Text) {
        return None;
    }
    match segments {
        ["sessions", session, "transfers"] => Some(session),
        _ => None,
    }
}

/// The non-empty `/`-separated segments of a request path (the first `.1`
/// entries of `.0`), without allocating: no route has more than four, so a
/// fifth only has to make the path match none of them.
fn path_segments(path: &str) -> ([&str; 5], usize) {
    let mut segments = [""; 5];
    let mut len = 0;
    for segment in path.split('/').filter(|s| !s.is_empty()).take(5) {
        segments[len] = segment;
        len += 1;
    }
    (segments, len)
}

/// Answer a run of pipelined transfer-evaluate requests with one batched
/// rules pass. Requests whose bodies fail to decode get their own 400
/// without disturbing the rest of the run; response order matches request
/// order (HTTP pipelining contract).
fn serve_batched<'a>(
    c: &mut Conn,
    run: impl ExactSizeIterator<Item = Request<'a>>,
    session: &str,
    controller: &PolicyController,
    metrics: &LoopMetrics,
    body: &mut String,
) {
    // Each decoded group moves into the one batched call; what stays behind
    // per request is only why it was refused, if it was.
    let requests = run.len();
    let mut groups: Vec<Vec<TransferSpec>> = Vec::with_capacity(requests);
    let refused: Vec<Option<String>> = run
        .map(
            |r| match serde_json::from_slice::<TransferRequestEnvelope>(r.body) {
                Ok(env) => {
                    groups.push(env.transfers);
                    None
                }
                Err(e) => Some(format!("bad json: {e}")),
            },
        )
        .collect();
    let mut advice_groups = match controller.evaluate_transfer_groups(session, groups) {
        Ok(groups) => groups.into_iter(),
        Err(e) => {
            body.clear();
            let answer = controller_error(body, WireFormat::Json, e);
            for _ in 0..requests {
                c.push_answer(answer, body, true);
            }
            return;
        }
    };
    metrics.batched.add(requests as u64);
    for r in refused {
        body.clear();
        let answer = match r {
            None => {
                let advice = advice_groups.next().unwrap_or_default();
                json(body, &TransferResponseEnvelope { advice })
            }
            Some(message) => refuse(body, WireFormat::Json, 400, &message),
        };
        c.push_answer(answer, body, true);
    }
}

const OK_JSON: Answer = Answer {
    status: 200,
    format: WireFormat::Json,
};

/// Render the answer to `request`, whose path splits into `segments`, into
/// `body` (empty on entry).
fn route(
    request: &Request<'_>,
    segments: &[&str],
    controller: &PolicyController,
    body: &mut String,
) -> Answer {
    match (request.method, segments) {
        (Method::Get, ["health"]) => {
            body.push_str(r#"{"status":"ok"}"#);
            OK_JSON
        }
        (Method::Get, ["metrics"]) => {
            *body = controller.render_metrics();
            Answer {
                status: 200,
                format: WireFormat::Text,
            }
        }
        (Method::Get, ["sessions", session, "trace"]) => {
            match controller.trace_chrome_json(session) {
                Ok(json) => {
                    *body = json;
                    OK_JSON
                }
                Err(e) => controller_error(body, WireFormat::Json, e),
            }
        }
        (Method::Post, ["sessions", session, "transfers"]) => match request.format {
            WireFormat::Json | WireFormat::Text => {
                with_body::<TransferRequestEnvelope>(request, body, |env, body| {
                    let advice = controller.evaluate_transfers(session, env.transfers)?;
                    Ok(json(body, &TransferResponseEnvelope { advice }))
                })
            }
            WireFormat::Xml => {
                with_xml_body(request, body, xml::transfer_request_from_xml, |transfers| {
                    let advice = controller.evaluate_transfers(session, transfers)?;
                    Ok(xml::transfer_response_to_xml(&advice))
                })
            }
        },
        (Method::Post, ["sessions", session, "transfers", "complete"]) => match request.format {
            WireFormat::Json | WireFormat::Text => {
                with_body::<TransferCompletionEnvelope>(request, body, |env, body| {
                    controller.report_transfers(session, env.outcomes)?;
                    Ok(json(body, &AckEnvelope::ok()))
                })
            }
            WireFormat::Xml => with_xml_body(
                request,
                body,
                xml::transfer_completion_from_xml,
                |outcomes| {
                    controller.report_transfers(session, outcomes)?;
                    Ok(xml::ack_xml())
                },
            ),
        },
        (Method::Post, ["sessions", session, "cleanups"]) => match request.format {
            WireFormat::Json | WireFormat::Text => {
                with_body::<CleanupRequestEnvelope>(request, body, |env, body| {
                    let advice = controller.evaluate_cleanups(session, env.cleanups)?;
                    Ok(json(body, &CleanupResponseEnvelope { advice }))
                })
            }
            WireFormat::Xml => {
                with_xml_body(request, body, xml::cleanup_request_from_xml, |cleanups| {
                    let advice = controller.evaluate_cleanups(session, cleanups)?;
                    Ok(xml::cleanup_response_to_xml(&advice))
                })
            }
        },
        (Method::Post, ["sessions", session, "cleanups", "complete"]) => match request.format {
            WireFormat::Json | WireFormat::Text => {
                with_body::<CleanupCompletionEnvelope>(request, body, |env, body| {
                    controller.report_cleanups(session, env.outcomes)?;
                    Ok(json(body, &AckEnvelope::ok()))
                })
            }
            WireFormat::Xml => with_xml_body(
                request,
                body,
                xml::cleanup_completion_from_xml,
                |outcomes| {
                    controller.report_cleanups(session, outcomes)?;
                    Ok(xml::ack_xml())
                },
            ),
        },
        (Method::Post, ["sessions", session, "health"]) => {
            with_body::<HealthReportEnvelope>(request, body, |env, body| {
                controller.report_health(session, env.events)?;
                Ok(json(body, &AckEnvelope::ok()))
            })
        }
        (Method::Get, ["sessions", session, "log"]) => match controller.audit_since(session, 0) {
            Ok(records) => json(body, &records),
            Err(e) => controller_error(body, WireFormat::Json, e),
        },
        (Method::Get, ["sessions", session, "status"]) => {
            match (
                controller.snapshot(session),
                controller.stats(session),
                controller.rule_stats(session),
            ) {
                (Ok(snapshot), Ok(stats), Ok(rules)) => json(
                    body,
                    &StatusEnvelope {
                        snapshot,
                        stats,
                        rules,
                    },
                ),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                    controller_error(body, WireFormat::Json, e)
                }
            }
        }
        (Method::Put, ["sessions", session, "config"]) => {
            with_body::<PolicyConfig>(request, body, |config, body| {
                // PUT is an upsert: reconfigure or create.
                match controller.set_config(session, config.clone()) {
                    Err(ControllerError::NoSuchSession(_)) => {
                        controller.create_session(*session, config);
                    }
                    answer => answer?,
                }
                Ok(json(body, &AckEnvelope::ok()))
            })
        }
        (Method::Delete, ["sessions", session]) => {
            if controller.drop_session(session) {
                json(body, &AckEnvelope::ok())
            } else {
                let message = format!("no such policy session: {session}");
                refuse(body, WireFormat::Json, 404, &message)
            }
        }
        _ => {
            let message = format!("no route for {}", request.path);
            refuse(body, WireFormat::Json, 404, &message)
        }
    }
}

/// Decode an XML body, run the handler, and answer in XML.
fn with_xml_body<T>(
    request: &Request<'_>,
    body: &mut String,
    decode: impl FnOnce(&str) -> Result<T, crate::xml::XmlError>,
    f: impl FnOnce(T) -> Result<String, ControllerError>,
) -> Answer {
    let text = match std::str::from_utf8(request.body) {
        Ok(t) => t,
        Err(_) => return refuse(body, WireFormat::Xml, 400, "body is not utf-8"),
    };
    match decode(text) {
        Ok(value) => match f(value) {
            Ok(answer) => {
                *body = answer;
                Answer {
                    status: 200,
                    format: WireFormat::Xml,
                }
            }
            Err(e) => controller_error(body, WireFormat::Xml, e),
        },
        Err(e) => refuse(body, WireFormat::Xml, 400, &e.to_string()),
    }
}

fn with_body<T: serde::de::DeserializeOwned>(
    request: &Request<'_>,
    body: &mut String,
    f: impl FnOnce(T, &mut String) -> Result<Answer, ControllerError>,
) -> Answer {
    match serde_json::from_slice::<T>(request.body) {
        Ok(value) => f(value, body).unwrap_or_else(|e| controller_error(body, WireFormat::Json, e)),
        Err(e) => refuse(body, WireFormat::Json, 400, &format!("bad json: {e}")),
    }
}

/// An unknown session is 404; a session that died at its crash point is
/// 503, as a dead process behind a live front end is.
fn controller_error(body: &mut String, format: WireFormat, e: ControllerError) -> Answer {
    let status = match e {
        ControllerError::NoSuchSession(_) => 404,
        ControllerError::SessionDown(_) => 503,
    };
    refuse(body, format, status, &e.to_string())
}

/// An error status with its envelope in `format`.
fn refuse(body: &mut String, format: WireFormat, status: u16, message: &str) -> Answer {
    body.push_str(&error_body(format, message));
    Answer { status, format }
}

fn json<T: serde::Serialize>(body: &mut String, value: &T) -> Answer {
    serde_json::to_string_onto(value, body);
    OK_JSON
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{render_request, try_parse_response};

    fn start() -> (PolicyRestServer, SocketAddr) {
        let controller = PolicyController::new(PolicyConfig::default());
        let server = PolicyRestServer::start(controller).unwrap();
        let addr = server.addr();
        (server, addr)
    }

    /// One `Connection: close` request on a fresh connection.
    fn call_in(
        addr: SocketAddr,
        format: WireFormat,
        method: Method,
        path: &str,
        body: &[u8],
    ) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&render_request(format, method, path, body, false))
            .unwrap();
        read_pipelined(&mut stream, 1).remove(0)
    }

    fn call(addr: SocketAddr, method: Method, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        call_in(addr, WireFormat::Json, method, path, body)
    }

    /// Read `n` responses off one stream, accumulating and parsing
    /// incrementally like the pipelining client (bytes of the next response
    /// may arrive in the same segment). `None` when the server closes or
    /// the socket errors before the n-th response is complete.
    fn try_read_responses(stream: &mut TcpStream, n: usize) -> Option<Vec<(u16, Vec<u8>)>> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while out.len() < n {
            if let Some((status, body, consumed)) = try_parse_response(&buf).ok()? {
                buf.drain(..consumed);
                out.push((status, body));
                continue;
            }
            let mut chunk = [0u8; 8192];
            let got = stream.read(&mut chunk).ok().filter(|&got| got > 0)?;
            buf.extend_from_slice(&chunk[..got]);
        }
        Some(out)
    }

    fn read_pipelined(stream: &mut TcpStream, n: usize) -> Vec<(u16, Vec<u8>)> {
        try_read_responses(stream, n).expect("server closed mid-pipeline")
    }

    #[test]
    fn health_endpoint() {
        let (_server, addr) = start();
        let (status, body) = call(addr, Method::Get, "/health", b"");
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"ok"}"#);
    }

    #[test]
    fn unknown_route_is_404() {
        let (_server, addr) = start();
        let (status, _) = call(addr, Method::Get, "/nope", b"");
        assert_eq!(status, 404);
    }

    #[test]
    fn bad_json_is_400() {
        let (_server, addr) = start();
        let (status, _) = call(
            addr,
            Method::Post,
            "/sessions/default/transfers",
            b"{broken",
        );
        assert_eq!(status, 400);
    }

    fn call_xml(addr: SocketAddr, method: Method, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        call_in(addr, WireFormat::Xml, method, path, body)
    }

    #[test]
    fn malformed_xml_bodies_are_400() {
        let (_server, addr) = start();
        for body in [
            &b"not xml at all"[..],
            b"<transferRequest>",
            b"<wrongRoot></wrongRoot>",
            b"<transferRequest><transfer source=\"x\"/></transferRequest>",
            b"<transferRequest><bogus/></transferRequest>",
        ] {
            let (status, _) = call_xml(addr, Method::Post, "/sessions/default/transfers", body);
            assert_eq!(status, 400, "body {:?} must be rejected", body);
        }
        let (status, _) = call_xml(
            addr,
            Method::Post,
            "/sessions/default/cleanups",
            b"<cleanupRequest><cleanup/></cleanupRequest>",
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn non_utf8_xml_body_is_400() {
        let (_server, addr) = start();
        let (status, _) = call_xml(
            addr,
            Method::Post,
            "/sessions/default/transfers",
            &[0xff, 0xfe, 0x80, 0x00, 0x12],
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn unknown_session_is_404() {
        let (_server, addr) = start();
        let env = TransferRequestEnvelope { transfers: vec![] };
        let (status, _) = call(
            addr,
            Method::Post,
            "/sessions/missing/transfers",
            &serde_json::to_vec(&env).unwrap(),
        );
        assert_eq!(status, 404);
    }

    #[test]
    fn session_dead_at_its_crash_point_is_503() {
        let dir = std::env::temp_dir().join(format!("pwm-rest-503-{}", std::process::id()));
        let controller = PolicyController::new(PolicyConfig::default());
        let dcfg =
            pwm_core::DurabilityConfig::new(&dir).with_crash(pwm_core::CrashPoint::AfterAppend(1));
        let cfg = PolicyConfig::default();
        controller
            .create_durable_session("dying", cfg.clone(), dcfg)
            .unwrap();
        let server = PolicyRestServer::start(controller).unwrap();
        let addr = server.addr();
        let transfers = serde_json::to_vec(&TransferRequestEnvelope { transfers: vec![] }).unwrap();
        let cfg = serde_json::to_vec(&cfg).unwrap();
        // The first append fires the crash: that request and every later
        // one are refused, JSON or XML, request or monitoring, and PUT
        // config upserts only a missing session, never a dead one.
        for (method, path, body) in [
            (Method::Post, "/sessions/dying/transfers", &transfers[..]),
            (Method::Post, "/sessions/dying/transfers", &transfers[..]),
            (Method::Get, "/sessions/dying/status", b""),
            (Method::Put, "/sessions/dying/config", &cfg[..]),
        ] {
            assert_eq!(call(addr, method, path, body).0, 503, "{path}");
        }
        let xml = b"<transferRequest></transferRequest>";
        assert_eq!(
            call_xml(addr, Method::Post, "/sessions/dying/transfers", xml).0,
            503
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_endpoint_returns_snapshot() {
        let (_server, addr) = start();
        let (status, body) = call(addr, Method::Get, "/sessions/default/status", b"");
        assert_eq!(status, 200);
        let env: StatusEnvelope = serde_json::from_slice(&body).unwrap();
        assert_eq!(env.stats.transfer_requests, 0);
        assert!(
            !env.rules.is_empty(),
            "status must expose per-rule engine counters"
        );
        assert!(env.rules.iter().all(|r| !r.name.is_empty()));
    }

    #[test]
    fn audit_log_endpoint_reports_decisions() {
        let (_server, addr) = start();
        let env = TransferRequestEnvelope {
            transfers: vec![pwm_core::TransferSpec {
                source: pwm_core::Url::new("gsiftp", "s", "/f1"),
                dest: pwm_core::Url::new("file", "d", "/f1"),
                bytes: 1,
                requested_streams: None,
                workflow: pwm_core::WorkflowId(1),
                cluster: None,
                priority: None,
            }],
        };
        call(
            addr,
            Method::Post,
            "/sessions/default/transfers",
            &serde_json::to_vec(&env).unwrap(),
        );
        let (status, body) = call(addr, Method::Get, "/sessions/default/log", b"");
        assert_eq!(status, 200);
        let records: Vec<pwm_core::AuditRecord> = serde_json::from_slice(&body).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].event,
            pwm_core::PolicyEvent::TransferEvaluated { .. }
        ));
        let (status, _) = call(addr, Method::Get, "/sessions/missing/log", b"");
        assert_eq!(status, 404);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (_server, addr) = start();
        let env = TransferRequestEnvelope {
            transfers: vec![pwm_core::TransferSpec {
                source: pwm_core::Url::new("gsiftp", "s", "/f1"),
                dest: pwm_core::Url::new("file", "d", "/f1"),
                bytes: 1,
                requested_streams: None,
                workflow: pwm_core::WorkflowId(1),
                cluster: None,
                priority: None,
            }],
        };
        call(
            addr,
            Method::Post,
            "/sessions/default/transfers",
            &serde_json::to_vec(&env).unwrap(),
        );
        let (status, body) = call(addr, Method::Get, "/metrics", b"");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("# TYPE pwm_policy_transfer_requests_total counter"));
        assert!(
            text.contains("pwm_policy_transfer_requests_total{session=\"default\"} 1"),
            "scrape missing session counter:\n{text}"
        );
    }

    #[test]
    fn trace_endpoint_serves_chrome_trace_json() {
        let controller = PolicyController::new(PolicyConfig::default());
        // A sim clock makes evaluations emit trace instants.
        controller
            .set_sim_clock(
                pwm_core::DEFAULT_SESSION,
                pwm_core::SharedSimClock::default(),
            )
            .unwrap();
        let server = PolicyRestServer::start(controller).unwrap();
        let addr = server.addr();
        let env = TransferRequestEnvelope {
            transfers: vec![pwm_core::TransferSpec {
                source: pwm_core::Url::new("gsiftp", "s", "/f1"),
                dest: pwm_core::Url::new("file", "d", "/f1"),
                bytes: 1,
                requested_streams: None,
                workflow: pwm_core::WorkflowId(1),
                cluster: None,
                priority: None,
            }],
        };
        call(
            addr,
            Method::Post,
            "/sessions/default/transfers",
            &serde_json::to_vec(&env).unwrap(),
        );
        let (status, body) = call(addr, Method::Get, "/sessions/default/trace", b"");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        pwm_obs::validate_chrome_trace(&text).expect("trace must be valid Chrome-trace JSON");
        let (status, _) = call(addr, Method::Get, "/sessions/missing/trace", b"");
        assert_eq!(status, 404);
    }

    #[test]
    fn put_config_creates_session() {
        let (_server, addr) = start();
        let cfg = PolicyConfig::default().with_threshold(123);
        let (status, _) = call(
            addr,
            Method::Put,
            "/sessions/new-session/config",
            &serde_json::to_vec(&cfg).unwrap(),
        );
        assert_eq!(status, 200);
        let (status, _) = call(addr, Method::Get, "/sessions/new-session/status", b"");
        assert_eq!(status, 200);
    }

    #[test]
    fn delete_session() {
        let (_server, addr) = start();
        let cfg = PolicyConfig::default();
        call(
            addr,
            Method::Put,
            "/sessions/temp/config",
            &serde_json::to_vec(&cfg).unwrap(),
        );
        let (status, _) = call(addr, Method::Delete, "/sessions/temp", b"");
        assert_eq!(status, 200);
        let (status, _) = call(addr, Method::Delete, "/sessions/temp", b"");
        assert_eq!(status, 404);
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let controller = PolicyController::new(PolicyConfig::default());
        let server = PolicyRestServer::start_with_limits(
            controller,
            ServerLimits {
                read_timeout: Duration::from_secs(5),
                max_body: 64,
            },
        )
        .unwrap();
        let (status, _) = call(
            server.addr(),
            Method::Post,
            "/sessions/default/transfers",
            &vec![b'x'; 4096],
        );
        assert_eq!(status, 413);
    }

    #[test]
    fn stalled_client_gets_408() {
        let controller = PolicyController::new(PolicyConfig::default());
        let server = PolicyRestServer::start_with_limits(
            controller,
            ServerLimits {
                read_timeout: Duration::from_millis(200),
                max_body: 16 << 20,
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        // Headers never finish: the slow-loris pattern.
        stream.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        let (status, _) = read_pipelined(&mut stream, 1).remove(0);
        assert_eq!(status, 408);
    }

    #[test]
    fn shutdown_drains_inflight_connections() {
        let controller = PolicyController::new(PolicyConfig::default());
        let mut server = PolicyRestServer::start_with_limits(
            controller,
            ServerLimits {
                read_timeout: Duration::from_millis(200),
                max_body: 16 << 20,
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"POST /x HTTP/1.1\r\n").unwrap();
        // Let the event loop register the connection and its partial bytes.
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        // The drain answered the partial request with a clean 503 before
        // closing (or the connection was never registered under scheduling
        // races).
        if let Some(responses) = try_read_responses(&mut stream, 1) {
            assert_eq!(responses[0].0, 503);
        }
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (_server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Three pipelined keep-alive requests in one write: two JSON
        // transfer-evaluates (the batched path) and a health check.
        let env = TransferRequestEnvelope {
            transfers: vec![pwm_core::TransferSpec {
                source: pwm_core::Url::new("gsiftp", "s", "/f1"),
                dest: pwm_core::Url::new("file", "d", "/f1"),
                bytes: 1,
                requested_streams: None,
                workflow: pwm_core::WorkflowId(1),
                cluster: None,
                priority: None,
            }],
        };
        let body = serde_json::to_vec(&env).unwrap();
        let mut wire = Vec::new();
        for _ in 0..2 {
            wire.extend_from_slice(&crate::http::render_request(
                WireFormat::Json,
                Method::Post,
                "/sessions/default/transfers",
                &body,
                true,
            ));
        }
        wire.extend_from_slice(&crate::http::render_request(
            WireFormat::Json,
            Method::Get,
            "/health",
            b"",
            true,
        ));
        stream.write_all(&wire).unwrap();
        stream.flush().unwrap();

        let responses = read_pipelined(&mut stream, 3);
        assert!(responses.iter().all(|(status, _)| *status == 200));
        let first: TransferResponseEnvelope = serde_json::from_slice(&responses[0].1).unwrap();
        assert!(first.advice[0].should_execute());
        let second: TransferResponseEnvelope = serde_json::from_slice(&responses[1].1).unwrap();
        assert!(
            !second.advice[0].should_execute(),
            "duplicate in the same pipeline window must still be suppressed"
        );
        assert_eq!(responses[2].1, br#"{"status":"ok"}"#);
    }

    #[test]
    fn bad_json_mid_pipeline_gets_its_own_400() {
        let (_server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        let env = TransferRequestEnvelope {
            transfers: vec![pwm_core::TransferSpec {
                source: pwm_core::Url::new("gsiftp", "s", "/f9"),
                dest: pwm_core::Url::new("file", "d", "/f9"),
                bytes: 1,
                requested_streams: None,
                workflow: pwm_core::WorkflowId(1),
                cluster: None,
                priority: None,
            }],
        };
        let good = serde_json::to_vec(&env).unwrap();
        let mut wire = Vec::new();
        wire.extend_from_slice(&crate::http::render_request(
            WireFormat::Json,
            Method::Post,
            "/sessions/default/transfers",
            &good,
            true,
        ));
        wire.extend_from_slice(&crate::http::render_request(
            WireFormat::Json,
            Method::Post,
            "/sessions/default/transfers",
            b"{broken",
            true,
        ));
        wire.extend_from_slice(&crate::http::render_request(
            WireFormat::Json,
            Method::Post,
            "/sessions/default/transfers",
            &good,
            true,
        ));
        stream.write_all(&wire).unwrap();
        let responses = read_pipelined(&mut stream, 3);
        let statuses: Vec<u16> = responses.iter().map(|(s, _)| *s).collect();
        assert_eq!(statuses, [200, 400, 200]);
        let third: TransferResponseEnvelope = serde_json::from_slice(&responses[2].1).unwrap();
        assert!(!third.advice[0].should_execute(), "dedup across the batch");
    }

    fn spec_for(path: &str) -> pwm_core::TransferSpec {
        pwm_core::TransferSpec {
            source: pwm_core::Url::new("gsiftp", "s", path),
            dest: pwm_core::Url::new("file", "d", path),
            bytes: 1,
            requested_streams: None,
            workflow: pwm_core::WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    fn transfers_request(path: &str) -> Vec<u8> {
        let env = TransferRequestEnvelope {
            transfers: vec![spec_for(path)],
        };
        render_request(
            WireFormat::Json,
            Method::Post,
            "/sessions/default/transfers",
            &serde_json::to_vec(&env).unwrap(),
            true,
        )
    }

    /// Returns once the event loop has taken a turn that began after this
    /// call: a fresh connection's request is answered in the same pass that
    /// reads every earlier connection's pending bytes, so whatever another
    /// stream wrote before has been consumed by then.
    fn wait_for_a_loop_turn(addr: SocketAddr) {
        assert_eq!(call(addr, Method::Get, "/health", b"").0, 200);
    }

    #[test]
    fn deeply_nested_body_is_refused_and_the_server_survives() {
        let (_server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        // 20 kB of `[`: one stack frame per level would overflow the loop
        // thread's stack and abort the process.
        let mut hostile = br#"{"cleanups":"#.to_vec();
        hostile.resize(hostile.len() + 20_000, b'[');
        for path in ["/sessions/default/cleanups", "/sessions/default/transfers"] {
            stream
                .write_all(&render_request(
                    WireFormat::Json,
                    Method::Post,
                    path,
                    &hostile,
                    true,
                ))
                .unwrap();
            let (status, body) = read_pipelined(&mut stream, 1).remove(0);
            assert_eq!(status, 400);
            let refused: ErrorEnvelope = serde_json::from_slice(&body).unwrap();
            assert!(refused.error.contains("nesting"), "{}", refused.error);
        }
        // The same connection goes on being served, and so does a new one.
        stream.write_all(&transfers_request("/after")).unwrap();
        assert_eq!(read_pipelined(&mut stream, 1)[0].0, 200);
        assert_eq!(call(addr, Method::Get, "/health", b"").0, 200);
    }

    #[test]
    fn request_split_mid_header_and_mid_body_is_answered() {
        let (_server, addr) = start();
        let wire = transfers_request("/split");
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // Three segments, each read (short) by its own loop turn: the cut
        // points fall inside the header block and inside the body.
        let cuts = [head_end / 2, head_end + 4 + (wire.len() - head_end - 4) / 2];
        stream.write_all(&wire[..cuts[0]]).unwrap();
        wait_for_a_loop_turn(addr);
        stream.write_all(&wire[cuts[0]..cuts[1]]).unwrap();
        wait_for_a_loop_turn(addr);
        stream.write_all(&wire[cuts[1]..]).unwrap();
        let (status, body) = read_pipelined(&mut stream, 1).remove(0);
        assert_eq!(status, 200);
        let env: TransferResponseEnvelope = serde_json::from_slice(&body).unwrap();
        assert_eq!(env.advice[0].source.path, "/split");
    }

    #[test]
    fn pipelined_window_larger_than_one_read_is_answered_in_full() {
        let (_server, addr) = start();
        let mut wire = Vec::new();
        let mut sent = 0;
        while wire.len() < 5 * READ_CHUNK {
            wire.extend_from_slice(&transfers_request(&format!("/window/{sent}")));
            sent += 1;
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire).unwrap();
        let responses = read_pipelined(&mut stream, sent);
        for (n, (status, body)) in responses.iter().enumerate() {
            assert_eq!(*status, 200);
            let env: TransferResponseEnvelope = serde_json::from_slice(body).unwrap();
            assert_eq!(env.advice[0].source.path, format!("/window/{n}"));
            assert!(env.advice[0].should_execute());
        }
    }

    #[test]
    fn client_that_half_closes_after_its_last_request_is_answered_then_closed() {
        let (_server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = transfers_request("/last/0");
        wire.extend_from_slice(&transfers_request("/last/1"));
        stream.write_all(&wire).unwrap();
        // The FIN sits behind the requests: the turn that reads them stops
        // at the short read and answers; a later turn sees the end of
        // stream and closes.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let responses = read_pipelined(&mut stream, 2);
        assert!(responses.iter().all(|(status, _)| *status == 200));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "nothing follows the last response");
    }

    #[test]
    fn server_restarts_from_log_with_state_preserved() {
        let dir = std::env::temp_dir().join(format!(
            "pwm-rest-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = PolicyConfig::default();
        let controller = PolicyController::new(cfg.clone());
        controller
            .create_durable_session(
                pwm_core::DEFAULT_SESSION,
                cfg.clone(),
                pwm_core::DurabilityConfig::new(&dir),
            )
            .unwrap();
        let mut server = PolicyRestServer::start(controller).unwrap();
        let addr = server.addr();
        let env = TransferRequestEnvelope {
            transfers: vec![pwm_core::TransferSpec {
                source: pwm_core::Url::new("gsiftp", "s", "/f1"),
                dest: pwm_core::Url::new("file", "d", "/f1"),
                bytes: 1,
                requested_streams: None,
                workflow: pwm_core::WorkflowId(1),
                cluster: None,
                priority: None,
            }],
        };
        // Stage f1 to completion over the socket, then stop the server.
        let (status, body) = call(
            addr,
            Method::Post,
            "/sessions/default/transfers",
            &serde_json::to_vec(&env).unwrap(),
        );
        assert_eq!(status, 200);
        let resp: TransferResponseEnvelope = serde_json::from_slice(&body).unwrap();
        let done = TransferCompletionEnvelope {
            outcomes: vec![pwm_core::TransferOutcome {
                id: resp.advice[0].id,
                success: true,
            }],
        };
        let (status, _) = call(
            addr,
            Method::Post,
            "/sessions/default/transfers/complete",
            &serde_json::to_vec(&done).unwrap(),
        );
        assert_eq!(status, 200);
        server.shutdown();

        // "New process": a fresh controller resumes from the log and a new
        // server binds a new port. The staged file must still be known.
        let controller2 = PolicyController::new(cfg.clone());
        controller2
            .resume_durable_session(
                pwm_core::DEFAULT_SESSION,
                pwm_core::DurabilityConfig::new(&dir),
            )
            .unwrap();
        let server2 = PolicyRestServer::start(controller2).unwrap();
        let (status, body) = call(
            server2.addr(),
            Method::Post,
            "/sessions/default/transfers",
            &serde_json::to_vec(&env).unwrap(),
        );
        assert_eq!(status, 200);
        let again: TransferResponseEnvelope = serde_json::from_slice(&body).unwrap();
        assert!(
            !again.advice[0].should_execute(),
            "restarted server must remember the staged file"
        );
        let (status, body) = call(server2.addr(), Method::Get, "/sessions/default/status", b"");
        assert_eq!(status, 200);
        let status_env: StatusEnvelope = serde_json::from_slice(&body).unwrap();
        assert_eq!(
            status_env.stats.transfer_requests, 2,
            "pre-restart traffic counts in post-restart stats"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (mut server, addr) = start();
        server.shutdown();
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly; a request must at least fail.
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&render_request(
                    WireFormat::Json,
                    Method::Get,
                    "/health",
                    b"",
                    false,
                ))
                .ok();
                try_read_responses(&mut s, 1).is_none()
            }
        );
    }
}
