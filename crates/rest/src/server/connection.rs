//! One connection of the REST server, without its socket.
//!
//! A [`Connection`] takes what the poll loop sees of a connection: bytes
//! that arrived, the end of a read turn with the peer's half-close, the
//! clock, writes and a shutdown. It gives back response bytes and whether
//! it is done, calling the [`PolicyController`] of the [`Handler`] it is
//! handed; every status and every close is decided here. A pipelined run of
//! two or more transfer evaluations for one session, received in one turn,
//! is one batched `evaluate_transfer_groups` call whose sequential
//! mini-passes give each request the advice it would get alone, in JSON or
//! XML alike, so the answers and the close decision do not depend on how
//! the bytes were cut into reads. Answers wait unsent only up to a bound:
//! past `max_body` bytes of them the connection answers and takes nothing
//! more until the peer reads, and a peer that reads nothing for
//! `read_timeout` loses the connection.

use super::ServerLimits;
use crate::http::{
    frame_request, write_response, HttpError, Method, Request, RequestFrame, WireFormat,
};
use crate::wire::*;
use pwm_core::{ControllerError, PolicyConfig, PolicyController, TransferSpec};
use serde::Serialize;
use std::time::Instant;

/// What every connection of one server answers with: the controller, the
/// limits, two of the loop's counters, and the scratch a request is answered
/// in, kept from one request to the next so that answering allocates nothing
/// of its own.
pub(crate) struct Handler {
    controller: PolicyController,
    limits: ServerLimits,
    requests: pwm_obs::Counter,
    batched: pwm_obs::Counter,
    /// Each framed request with the offset of the bytes it was framed in.
    frames: Vec<(usize, RequestFrame)>,
    /// The body of the response being rendered.
    body: String,
}

impl Handler {
    pub(crate) fn new(controller: PolicyController, limits: ServerLimits) -> Handler {
        let r = &controller.obs().registry;
        let requests = r.counter(
            "pwm_rest_requests_total",
            "HTTP requests parsed by the event loop",
            &[],
        );
        let batched = r.counter(
            "pwm_rest_batched_requests_total",
            "Requests answered via a batched evaluate_transfer_groups rules pass",
            &[],
        );
        Handler {
            controller,
            limits,
            requests,
            batched,
            frames: Vec::new(),
            body: String::new(),
        }
    }
}

/// One connection's state machine.
pub(crate) struct Connection {
    /// Received bytes not yet answered: a partial request, or complete ones
    /// held back while the output is over its bound.
    rbuf: Vec<u8>,
    /// Response bytes not yet written.
    wbuf: Vec<u8>,
    /// Requests answered (tells a connection that never spoke, which gets
    /// 408 at its deadline, from an idle keep-alive one, closed silently).
    served: u64,
    /// When an open connection with no answer waiting is timed out if
    /// nothing arrives before.
    deadline: Instant,
    /// When a connection with answers waiting is dropped if none of their
    /// bytes is written before.
    write_deadline: Instant,
    /// False once nothing more is read: flush the output, then close.
    open: bool,
    limits: ServerLimits,
}

impl Connection {
    /// A connection accepted at `now`.
    pub(crate) fn new(now: Instant, handler: &Handler) -> Connection {
        let limits = handler.limits;
        Connection {
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            served: 0,
            deadline: now + limits.read_timeout,
            write_deadline: now + limits.read_timeout,
            open: true,
            limits,
        }
    }

    /// Bytes that arrived, answered by the turn's [`Connection::serve`].
    /// Nothing is taken once the connection stopped reading.
    pub(crate) fn receive(&mut self, bytes: &[u8]) {
        if self.open {
            self.rbuf.extend_from_slice(bytes);
        }
    }

    /// End a read turn at `now`: restart the read deadline, answer the
    /// complete requests received, and stop reading if the peer half-closed
    /// (`eof`); a partial request it left is dropped unanswered.
    pub(crate) fn serve(&mut self, now: Instant, eof: bool, handler: &mut Handler) {
        if self.open {
            self.start_write_clock(now);
            self.deadline = now + self.limits.read_timeout;
            self.answer(handler);
            self.open &= !eof;
        }
    }

    /// The clock reached `now`. While answers wait unsent, a connection
    /// that wrote none of them for `read_timeout` is dropped. Otherwise,
    /// past the read deadline, a request left unfinished (slow loris) or
    /// never sent gets 408, and an idle keep-alive connection is closed
    /// silently.
    pub(crate) fn tick(&mut self, now: Instant) {
        self.start_write_clock(now);
        if !self.wbuf.is_empty() {
            if now >= self.write_deadline {
                self.lost();
            }
        } else if self.open && now >= self.deadline {
            if !self.rbuf.is_empty() || self.served == 0 {
                self.close_with(408, "request read timed out");
            } else {
                self.open = false;
            }
        }
    }

    /// The server shuts down at `now`: answer the complete requests
    /// received, 503 what is left, and stop reading.
    pub(crate) fn shut_down(&mut self, now: Instant, handler: &mut Handler) {
        if self.open {
            self.start_write_clock(now);
            self.answer(handler);
            if !self.rbuf.is_empty() {
                self.close_with(503, "server shutting down");
            }
            self.open = false;
        }
    }

    /// Response bytes not yet written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.wbuf
    }

    /// The first `n` bytes of [`Connection::output`] were written at `now`.
    /// Output that falls back under its bound answers what was held back.
    pub(crate) fn wrote(&mut self, n: usize, now: Instant, handler: &mut Handler) {
        let held = self.holding();
        self.wbuf.drain(..n);
        if n > 0 {
            self.write_deadline = now + self.limits.read_timeout;
        }
        if held && !self.holding() {
            self.deadline = now + self.limits.read_timeout;
            self.answer(handler);
        }
    }

    /// The peer is gone: nothing is left to write, and nothing is read.
    pub(crate) fn lost(&mut self) {
        self.wbuf.clear();
        self.rbuf.clear();
        self.open = false;
    }

    /// Whether the connection takes bytes: it reads, and its output is
    /// within its bound.
    pub(crate) fn reading(&self) -> bool {
        self.open && !self.holding()
    }

    /// When [`Connection::tick`] acts next, if it will.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        if !self.wbuf.is_empty() {
            Some(self.write_deadline)
        } else {
            self.open.then_some(self.deadline)
        }
    }

    /// Nothing more is read and everything was written: close it.
    pub(crate) fn finished(&self) -> bool {
        !self.open && self.wbuf.is_empty()
    }

    /// More than `max_body` bytes of answers wait unsent: no request is
    /// answered and no byte taken until the peer reads some.
    fn holding(&self) -> bool {
        self.wbuf.len() > self.limits.max_body
    }

    /// Answers queued at `now` on an empty output have `read_timeout` to
    /// make their first write.
    fn start_write_clock(&mut self, now: Instant) {
        if self.wbuf.is_empty() {
            self.write_deadline = now + self.limits.read_timeout;
        }
    }

    /// Answer what was received with an error status, and stop reading.
    fn close_with(&mut self, status: u16, message: &str) {
        let mut body = String::new();
        let answer = refuse(&mut body, WireFormat::Json, status, message);
        self.push_answer(answer, &body, false);
        self.rbuf.clear();
    }

    /// Queue an answer whose body was rendered into the handler's body.
    fn push_answer(&mut self, (status, format): Answer, body: &str, keep_alive: bool) {
        write_response(&mut self.wbuf, status, format, body.as_bytes(), keep_alive);
        self.open &= keep_alive;
    }

    /// Frame every complete request received, then answer them in order
    /// until the output is over its bound; the rest waits in the read
    /// buffer. Runs of ≥ 2 consecutive pipelined transfer-evaluate requests
    /// for the same session collapse into one batched controller call.
    fn answer(&mut self, handler: &mut Handler) {
        let frames = &mut handler.frames;
        frames.clear();
        let mut consumed = 0;
        let mut fatal = loop {
            match frame_request(&self.rbuf[consumed..], handler.limits.max_body) {
                Ok(Some((frame, len))) => {
                    frames.push((consumed, frame));
                    consumed += len;
                }
                Ok(None) => break None,
                Err(e @ HttpError::TooLarge(_)) => break Some((413, e.to_string())),
                Err(e) => break Some((400, format!("bad request: {e}"))),
            }
        };

        // The requests borrow the read buffer while their answers go to the
        // write buffer: lend the read buffer out for the pass.
        let rbuf = std::mem::take(&mut self.rbuf);
        let request = |i: usize| {
            let (at, frame) = &handler.frames[i];
            frame.request(&rbuf[*at..])
        };
        // Each request's path is split once: a request that ends a pipelined
        // run is kept, split, for the turn that answers it.
        let routed = |i: usize| {
            let r = request(i);
            (r, path_segments(r.path))
        };
        let mut next = None;
        let mut i = 0;
        while i < handler.frames.len() {
            if self.holding() {
                (consumed, fatal) = (handler.frames[i].0, None);
                break;
            }
            let (first, (all, len)) = next.take().unwrap_or_else(|| routed(i));
            let segments = &all[..len];
            // A pipelined run: maximal stretch of batchable transfer-evaluate
            // requests addressed to one session.
            if let Some(session) = batchable_session(&first, segments) {
                let mut j = i + 1;
                while j < handler.frames.len() {
                    let (r, (all, len)) = routed(j);
                    if batchable_session(&r, &all[..len]) != Some(session) {
                        next = Some((r, (all, len)));
                        break;
                    }
                    j += 1;
                }
                if j - i >= 2 {
                    let run = (i..j).map(&request);
                    let (controller, batched) = (&handler.controller, &handler.batched);
                    self.serve_batched(run, session, controller, batched, &mut handler.body);
                    self.served += (j - i) as u64;
                    handler.requests.add((j - i) as u64);
                    i = j;
                    continue;
                }
            }
            let body = &mut handler.body;
            body.clear();
            let answer = route(&first, segments, &handler.controller, body);
            self.push_answer(answer, body, first.keep_alive);
            self.served += 1;
            handler.requests.inc();
            i += 1;
            if !first.keep_alive {
                // Pipelined bytes after an explicit close are undefined
                // behavior per HTTP; drop them with the lent buffer.
                return;
            }
        }
        self.rbuf = rbuf;
        self.rbuf.drain(..consumed);

        if let Some((status, message)) = fatal {
            self.close_with(status, &message);
        }
    }

    /// Answer a run of pipelined transfer-evaluate requests with one batched
    /// rules pass, each in its own request's format. A request whose body
    /// fails to decode gets its own 400 whatever the call returns, and no
    /// call is made when no body decoded; response order matches request
    /// order (HTTP pipelining contract).
    fn serve_batched<'a>(
        &mut self,
        run: impl ExactSizeIterator<Item = Request<'a>>,
        session: &str,
        controller: &PolicyController,
        batched: &pwm_obs::Counter,
        body: &mut String,
    ) {
        // Each decoded group moves into the one batched call; what stays
        // behind per request is its format and why it was refused, if it was.
        let requests = run.len();
        let mut groups: Vec<Vec<TransferSpec>> = Vec::with_capacity(requests);
        let refused: Vec<(WireFormat, Option<String>)> = run
            .map(
                |r| match TransferRequestEnvelope::decode(r.format, r.body) {
                    Ok(env) => {
                        groups.push(env.transfers);
                        (r.format, None)
                    }
                    Err(message) => (r.format, Some(message)),
                },
            )
            .collect();
        let mut advice = if groups.is_empty() {
            Ok(Vec::new().into_iter())
        } else {
            let advice = controller.evaluate_transfer_groups(session, groups);
            if advice.is_ok() {
                batched.add(requests as u64);
            }
            advice.map(Vec::into_iter)
        };
        for (format, refused) in refused {
            body.clear();
            let answer = match (refused, &mut advice) {
                (Some(message), _) => refuse(body, format, 400, &message),
                (None, Ok(groups)) => {
                    let advice = groups.next().unwrap_or_default();
                    ok(body, format, &TransferResponseEnvelope { advice })
                }
                (None, Err(e)) => controller_error(body, format, e.clone()),
            };
            self.push_answer(answer, body, true);
        }
    }
}

/// Is this request eligible for the batched advice path? POSTs to
/// `/sessions/{s}/transfers` on a keep-alive connection; returns the
/// session name.
fn batchable_session<'a>(request: &Request<'a>, segments: &[&'a str]) -> Option<&'a str> {
    match (request.method, segments) {
        (Method::Post, ["sessions", session, "transfers"]) if request.keep_alive => Some(session),
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

/// Status and encoding of a response whose body is in [`Handler::body`].
type Answer = (u16, WireFormat);

const OK_JSON: Answer = (200, WireFormat::Json);

/// Render the answer to `request`, whose path splits into `segments`, into
/// `body` (empty on entry). The staging routes speak the request's format;
/// the others speak JSON.
fn route(
    request: &Request<'_>,
    segments: &[&str],
    controller: &PolicyController,
    body: &mut String,
) -> Answer {
    let format = request.format;
    match (request.method, segments) {
        (Method::Get, ["health"]) => {
            body.push_str(r#"{"status":"ok"}"#);
            OK_JSON
        }
        (Method::Get, ["metrics"]) => {
            *body = controller.render_metrics();
            (200, WireFormat::Text)
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
        (Method::Post, ["sessions", session, "transfers"]) => {
            with_body(request, format, body, |env: TransferRequestEnvelope| {
                let advice = controller.evaluate_transfers(session, env.transfers)?;
                Ok(TransferResponseEnvelope { advice })
            })
        }
        (Method::Post, ["sessions", session, "transfers", "complete"]) => {
            with_body(request, format, body, |env: TransferCompletionEnvelope| {
                controller.report_transfers(session, env.outcomes)?;
                Ok(AckEnvelope::ok())
            })
        }
        (Method::Post, ["sessions", session, "cleanups"]) => {
            with_body(request, format, body, |env: CleanupRequestEnvelope| {
                let advice = controller.evaluate_cleanups(session, env.cleanups)?;
                Ok(CleanupResponseEnvelope { advice })
            })
        }
        (Method::Post, ["sessions", session, "cleanups", "complete"]) => {
            with_body(request, format, body, |env: CleanupCompletionEnvelope| {
                controller.report_cleanups(session, env.outcomes)?;
                Ok(AckEnvelope::ok())
            })
        }
        (Method::Post, ["sessions", session, "health"]) => with_body(
            request,
            WireFormat::Json,
            body,
            |env: HealthReportEnvelope| {
                controller.report_health(session, env.events)?;
                Ok(AckEnvelope::ok())
            },
        ),
        (Method::Get, ["sessions", session, "log"]) => {
            json_or(body, controller.audit_since(session, 0))
        }
        (Method::Get, ["sessions", session, "status"]) => {
            let status = || {
                Ok(StatusEnvelope {
                    snapshot: controller.snapshot(session)?,
                    stats: controller.stats(session)?,
                    rules: controller.rule_stats(session)?,
                })
            };
            json_or(body, status())
        }
        (Method::Put, ["sessions", session, "config"]) => {
            with_body(request, WireFormat::Json, body, |config: PolicyConfig| {
                // PUT is an upsert: reconfigure or create.
                match controller.set_config(session, config.clone()) {
                    Err(ControllerError::NoSuchSession(_)) => {
                        controller.create_session(*session, config);
                    }
                    answer => answer?,
                }
                Ok(AckEnvelope::ok())
            })
        }
        (Method::Delete, ["sessions", session]) => {
            if controller.drop_session(session) {
                ok(body, WireFormat::Json, &AckEnvelope::ok())
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

/// Decode the request's body in `format`, run the handler, and answer in
/// `format`: 400 for a body that does not decode, the controller's error
/// status for a refused call.
fn with_body<Req: Codec, Resp: Codec>(
    request: &Request<'_>,
    format: WireFormat,
    body: &mut String,
    f: impl FnOnce(Req) -> Result<Resp, ControllerError>,
) -> Answer {
    match Req::decode(format, request.body).map(f) {
        Ok(Ok(answer)) => ok(body, format, &answer),
        Ok(Err(e)) => controller_error(body, format, e),
        Err(message) => refuse(body, format, 400, &message),
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
    let error = message.to_string();
    (status, ErrorEnvelope { error }.encode(format, body))
}

/// A 200 with `value` in `format`.
fn ok<T: Codec>(body: &mut String, format: WireFormat, value: &T) -> Answer {
    (200, value.encode(format, body))
}

/// A controller's answer in JSON, or the status of its error.
fn json_or<T: Serialize>(body: &mut String, answer: Result<T, ControllerError>) -> Answer {
    match answer {
        Ok(value) => {
            serde_json::to_string_onto(&value, body);
            OK_JSON
        }
        Err(e) => controller_error(body, WireFormat::Json, e),
    }
}

#[cfg(test)]
pub(super) mod tests;
