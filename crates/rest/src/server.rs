//! The RESTful web interface (server side).
//!
//! [`PolicyRestServer`] binds a loopback TCP listener and serves the policy
//! API, delegating every request to a [`PolicyController`] exactly as the
//! paper's web interface delegates to the Policy Controller.
//!
//! Each connection is a `connection::Connection`, a state machine over
//! bytes and a clock that frames, answers (keep-alive, pipelining, one
//! batched rules pass per pipelined run of transfer evaluations) and decides
//! every status and every close. Around it, one thread's `poll(2)` loop (see
//! [`crate::poller`]) only accepts, polls, reads, writes and reaps; a
//! shutdown wakes it through the poller's self-pipe. A `Pipe` serves one
//! connection on its caller's thread instead, with no socket.
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

mod connection;

use crate::poller::{poll_fds, PollFd, WakePipe, Waker, POLL_IN, POLL_OUT};
use connection::{Connection, Handler};
use pwm_core::PolicyController;
use std::io::{ErrorKind, Read, Write};
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

/// One connection served on the caller's thread, with no socket. Its clock
/// is never ticked, so no read or write deadline fires.
pub(crate) struct Pipe {
    conn: Connection,
    handler: Handler,
}

impl Pipe {
    pub(crate) fn new(controller: PolicyController) -> Pipe {
        let handler = Handler::new(controller, ServerLimits::default());
        let conn = Connection::new(Instant::now(), &handler);
        Pipe { conn, handler }
    }

    /// Serve `request` now and append every answer to `answers`; a closed
    /// connection takes nothing and answers nothing.
    pub(crate) fn exchange(&mut self, request: &[u8], answers: &mut Vec<u8>) {
        let now = Instant::now();
        self.conn.receive(request);
        self.conn.serve(now, false, &mut self.handler);
        while let written @ 1.. = self.conn.output().len() {
            answers.extend_from_slice(self.conn.output());
            self.conn.wrote(written, now, &mut self.handler);
        }
    }
}

/// Bytes one `read` may deliver (the event loop's one read chunk, zeroed
/// once, so a read costs a copy of the bytes that arrived and nothing per
/// byte that did not).
const READ_CHUNK: usize = 16 * 1024;

fn event_loop(
    listener: TcpListener,
    mut wake: WakePipe,
    controller: PolicyController,
    limits: ServerLimits,
    shutdown: Arc<AtomicBool>,
) {
    // The loop's own series, on the controller's shared `/metrics` registry.
    let r = &controller.obs().registry;
    let wakeups = r.counter(
        "pwm_rest_event_loop_wakeups_total",
        "Times the server's poll loop woke up (readiness, timeout, or self-pipe)",
        &[],
    );
    let open_connections = r.gauge(
        "pwm_rest_open_connections",
        "Connections currently registered with the event loop",
        &[],
    );
    let write_backlog = r.gauge(
        "pwm_rest_write_backlog_bytes",
        "Response bytes queued across all connections (event-loop queue depth)",
        &[],
    );
    let mut handler = Handler::new(controller, limits);
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<(TcpStream, Connection)> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    // Set by a shutdown: the grace deadline for flushing what is queued.
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Poll set: [wake, listener?, conns...]. Indices into `fds` for
        // the connection entries start at `conn_base`.
        fds.clear();
        fds.push(PollFd::new(wake.fd(), POLL_IN));
        let listener_slot = drain_deadline.is_none().then(|| {
            fds.push(PollFd::new(listener.as_raw_fd(), POLL_IN));
            fds.len() - 1
        });
        let conn_base = fds.len();
        for (stream, c) in &conns {
            let mut events = 0i16;
            if c.reading() {
                events |= POLL_IN;
            }
            if !c.output().is_empty() {
                events |= POLL_OUT;
            }
            fds.push(PollFd::new(stream.as_raw_fd(), events));
        }

        // Sleep until the nearest deadline (connection read deadlines, or
        // the drain grace deadline), capped so gauge refreshes stay live.
        let now = Instant::now();
        let next_deadline = conns
            .iter()
            .filter_map(|(_, c)| c.deadline())
            .chain(drain_deadline)
            .fold(now + Duration::from_secs(1), Instant::min);
        let _ = poll_fds(&mut fds, Some(next_deadline.saturating_duration_since(now)));
        wakeups.inc();
        let now = Instant::now();

        if fds[0].readable() {
            wake.drain();
        }

        // Serve readable connections (indices still aligned with `fds`;
        // new connections are accepted after this pass).
        if drain_deadline.is_none() {
            for (i, (stream, c)) in conns.iter_mut().enumerate() {
                if c.reading() && fds[conn_base + i].readable() {
                    let eof = read_into(stream, c, &mut chunk);
                    c.serve(now, eof, &mut handler);
                }
            }
        }

        if let Some(slot) = listener_slot {
            if fds[slot].readable() {
                while let Ok((stream, _)) = listener.accept() {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    conns.push((stream, Connection::new(now, &handler)));
                }
            }
        }

        // Shutdown requested: take what is already on the wire, then let
        // each connection drain within the grace period.
        if drain_deadline.is_none() && shutdown.load(Ordering::SeqCst) {
            drain_deadline = Some(now + limits.read_timeout);
            for (stream, c) in conns.iter_mut() {
                read_into(stream, c, &mut chunk);
                c.shut_down(now, &mut handler);
            }
        }

        for (stream, c) in conns.iter_mut() {
            c.tick(now);
            if !c.output().is_empty() {
                write_from(stream, c, now, &mut handler);
            }
        }
        // Past the drain's grace deadline, what is left unflushed is dropped.
        let grace_over = drain_deadline.is_some_and(|deadline| now >= deadline);
        conns.retain(|(_, c)| !grace_over && !c.finished());
        open_connections.set(conns.len() as f64);
        let backlog: usize = conns.iter().map(|(_, c)| c.output().len()).sum();
        write_backlog.set(backlog as f64);
        if drain_deadline.is_some() && conns.is_empty() {
            break;
        }
    }
}

/// Hand `conn` what the socket holds, read through `chunk`, while it takes
/// bytes. A read that does not fill `chunk` emptied the socket, so no second
/// `read` is issued just to see `WouldBlock`: `poll` is level-triggered and
/// reports anything that arrives later, end of stream included, on the next
/// turn. True when the peer closed its write side.
fn read_into(stream: &mut TcpStream, conn: &mut Connection, chunk: &mut [u8]) -> bool {
    while conn.reading() {
        match stream.read(chunk) {
            Ok(0) => return true,
            Ok(n) => {
                conn.receive(&chunk[..n]);
                if n < chunk.len() {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

/// Write as much of `conn`'s output as the socket accepts, at `now`.
fn write_from(stream: &mut TcpStream, conn: &mut Connection, now: Instant, handler: &mut Handler) {
    let mut written = 0;
    while written < conn.output().len() {
        match stream.write(&conn.output()[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return conn.lost(),
        }
    }
    conn.wrote(written, now, handler);
}

#[cfg(test)]
mod tests;
