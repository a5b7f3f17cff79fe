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
//!
//! Answering allocates no buffer of its own. A connection reads into and
//! writes from its own two byte buffers; the handler decodes every request
//! into envelopes and windows it keeps, the service answers into the same
//! windows, and the answer is rendered into one body string. Each buffer
//! grows with the calls, keeps what it grew to up to a cap
//! ([`RETAINED_BYTES`], [`RETAINED_ITEMS`]), and is shrunk back to the cap
//! at the end of the turn an outsized call grew it past it. None is made
//! larger than a call needs: capacity held but not used is heap the
//! server's other allocations cannot reuse.

use super::ServerLimits;
use crate::http::{
    frame_request, write_response, HttpError, Method, Request, RequestFrame, WireFormat,
};
use crate::wire::*;
use pwm_core::{CleanupWindow, ControllerError, PolicyConfig, PolicyController, TransferWindow};
use serde::Serialize;
use std::time::Instant;

/// The most bytes a connection's read and write buffers and the handler's
/// response body each keep after a call that grew them.
pub(crate) const RETAINED_BYTES: usize = 64 << 10;

/// The most entries each of the handler's typed buffers (framed requests,
/// decoded specs and outcomes, advice, the shards' slices of a window)
/// keeps.
pub(crate) const RETAINED_ITEMS: usize = 256;

/// Shrink `v` back to `cap` if a call grew it and what it holds now fits.
fn trim<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() > cap && v.len() <= cap {
        v.shrink_to(cap);
    }
}

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
    calls: Calls,
}

/// The buffers a call is decoded into, evaluated in and rendered from.
struct Calls {
    /// The body of the response being rendered.
    body: String,
    /// The transfer groups of a request or a pipelined run, and their
    /// advice (with the partition of a sharded session).
    window: TransferWindow,
    /// One cleanup request and its advice.
    cleanups: CleanupWindow,
    /// Envelopes a request body is decoded into in place.
    transfer_request: TransferRequestEnvelope,
    transfer_outcomes: TransferCompletionEnvelope,
    cleanup_request: CleanupRequestEnvelope,
    cleanup_outcomes: CleanupCompletionEnvelope,
    /// Per request of a pipelined run: its format and, if its body did not
    /// decode, why.
    run: Vec<(WireFormat, Option<String>)>,
}

impl Calls {
    fn new() -> Calls {
        Calls {
            body: String::new(),
            window: TransferWindow::default(),
            cleanups: CleanupWindow::default(),
            transfer_request: TransferRequestEnvelope {
                transfers: Vec::new(),
            },
            transfer_outcomes: TransferCompletionEnvelope {
                outcomes: Vec::new(),
            },
            cleanup_request: CleanupRequestEnvelope {
                cleanups: Vec::new(),
            },
            cleanup_outcomes: CleanupCompletionEnvelope {
                outcomes: Vec::new(),
            },
            run: Vec::new(),
        }
    }

    /// Empty what the turn's calls left and shrink what an outsized call
    /// grew back to the retained capacities.
    fn trim(&mut self) {
        self.body.clear();
        self.window.clear();
        self.cleanups.clear();
        self.transfer_request.transfers.clear();
        self.transfer_outcomes.outcomes.clear();
        self.cleanup_request.cleanups.clear();
        self.cleanup_outcomes.outcomes.clear();
        if self.body.capacity() > RETAINED_BYTES {
            self.body.shrink_to(RETAINED_BYTES);
        }
        self.window.trim(RETAINED_ITEMS);
        self.cleanups.trim(RETAINED_ITEMS);
        trim(&mut self.transfer_request.transfers, RETAINED_ITEMS);
        trim(&mut self.transfer_outcomes.outcomes, RETAINED_ITEMS);
        trim(&mut self.cleanup_request.cleanups, RETAINED_ITEMS);
        trim(&mut self.cleanup_outcomes.outcomes, RETAINED_ITEMS);
        trim(&mut self.run, RETAINED_ITEMS);
    }
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
            calls: Calls::new(),
        }
    }

    /// (bytes, entries): the largest capacity of the handler's byte buffer
    /// and of its typed buffers.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> (usize, usize) {
        let c = &self.calls;
        let items = [
            self.frames.capacity(),
            c.window.capacity(),
            c.cleanups.capacity(),
            c.transfer_request.transfers.capacity(),
            c.transfer_outcomes.outcomes.capacity(),
            c.cleanup_request.cleanups.capacity(),
            c.cleanup_outcomes.outcomes.capacity(),
            c.run.capacity(),
        ];
        (c.body.capacity(), items.into_iter().max().unwrap_or(0))
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
        trim(&mut self.wbuf, RETAINED_BYTES);
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
        trim(&mut self.wbuf, RETAINED_BYTES);
        trim(&mut self.rbuf, RETAINED_BYTES);
        self.open = false;
    }

    /// The larger capacity of the connection's two byte buffers.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.rbuf.capacity().max(self.wbuf.capacity())
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
        trim(&mut self.rbuf, RETAINED_BYTES);
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
    /// Whatever the turn grew past its retained capacity shrinks back.
    fn answer(&mut self, handler: &mut Handler) {
        self.answer_framed(handler);
        trim(&mut self.rbuf, RETAINED_BYTES);
        trim(&mut handler.frames, RETAINED_ITEMS);
        handler.calls.trim();
    }

    fn answer_framed(&mut self, handler: &mut Handler) {
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
                    self.serve_batched(run, session, controller, batched, &mut handler.calls);
                    self.served += (j - i) as u64;
                    handler.requests.add((j - i) as u64);
                    i = j;
                    continue;
                }
            }
            let calls = &mut handler.calls;
            calls.body.clear();
            let answer = route(&first, segments, &handler.controller, calls);
            self.push_answer(answer, &calls.body, first.keep_alive);
            self.served += 1;
            handler.requests.inc();
            i += 1;
            if !first.keep_alive {
                // Pipelined bytes after an explicit close are undefined
                // behavior per HTTP; drop them, and keep the lent buffer.
                self.rbuf = rbuf;
                self.rbuf.clear();
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
        run: impl Iterator<Item = Request<'a>>,
        session: &str,
        controller: &PolicyController,
        batched: &pwm_obs::Counter,
        calls: &mut Calls,
    ) {
        // Each decoded body becomes one group of the window; what stays
        // behind per request is its format and why it was refused, if it was.
        let Calls {
            body,
            window,
            transfer_request: decoded,
            run: requests,
            ..
        } = calls;
        window.clear();
        requests.clear();
        for r in run {
            match TransferRequestEnvelope::decode_into(r.format, r.body, decoded) {
                Ok(()) => {
                    window.push_group(decoded.transfers.drain(..));
                    requests.push((r.format, None));
                }
                Err(message) => requests.push((r.format, Some(message))),
            }
        }
        let evaluated = if window.groups() == 0 {
            Ok(())
        } else {
            let evaluated = controller.evaluate_window(session, window);
            if evaluated.is_ok() {
                batched.add(requests.len() as u64);
            }
            evaluated
        };
        let mut group = 0;
        for (format, refused) in requests.drain(..) {
            body.clear();
            let answer = match (refused, &evaluated) {
                (Some(message), _) => refuse(body, format, 400, &message),
                (None, Ok(())) => {
                    group += 1;
                    let advice = window.advice(group - 1);
                    (
                        200,
                        TransferResponseEnvelope::encode_advice(advice, format, body),
                    )
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
/// `calls.body` (empty on entry). The staging routes speak the request's
/// format, decode into `calls`' envelopes and are answered from its
/// windows; the others speak JSON.
fn route(
    request: &Request<'_>,
    segments: &[&str],
    controller: &PolicyController,
    calls: &mut Calls,
) -> Answer {
    let format = request.format;
    let Calls {
        body,
        window,
        cleanups,
        transfer_request,
        transfer_outcomes,
        cleanup_request,
        cleanup_outcomes,
        ..
    } = calls;
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
            match TransferRequestEnvelope::decode_into(format, request.body, transfer_request) {
                Ok(()) => {
                    window.clear();
                    window.push_group(transfer_request.transfers.drain(..));
                    match controller.evaluate_window(session, window) {
                        Ok(()) => {
                            let advice = window.advice(0);
                            (
                                200,
                                TransferResponseEnvelope::encode_advice(advice, format, body),
                            )
                        }
                        Err(e) => controller_error(body, format, e),
                    }
                }
                Err(message) => refuse(body, format, 400, &message),
            }
        }
        (Method::Post, ["sessions", session, "transfers", "complete"]) => {
            with_body_in(request, format, body, transfer_outcomes, |env| {
                controller.report_transfer_outcomes(session, &env.outcomes)
            })
        }
        (Method::Post, ["sessions", session, "cleanups"]) => {
            match CleanupRequestEnvelope::decode_into(format, request.body, cleanup_request) {
                Ok(()) => {
                    cleanups.fill(cleanup_request.cleanups.drain(..));
                    match controller.evaluate_cleanup_window(session, cleanups) {
                        Ok(()) => {
                            let advice = cleanups.advice();
                            (
                                200,
                                CleanupResponseEnvelope::encode_advice(advice, format, body),
                            )
                        }
                        Err(e) => controller_error(body, format, e),
                    }
                }
                Err(message) => refuse(body, format, 400, &message),
            }
        }
        (Method::Post, ["sessions", session, "cleanups", "complete"]) => {
            with_body_in(request, format, body, cleanup_outcomes, |env| {
                controller.report_cleanup_outcomes(session, &env.outcomes)
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

/// [`with_body`] for a report: the body is decoded into `place`, which the
/// handler keeps, and a call that succeeds is acknowledged.
fn with_body_in<Req: Codec>(
    request: &Request<'_>,
    format: WireFormat,
    body: &mut String,
    place: &mut Req,
    f: impl FnOnce(&Req) -> Result<(), ControllerError>,
) -> Answer {
    match Req::decode_into(format, request.body, place).map(|()| f(place)) {
        Ok(Ok(())) => ok(body, format, &AckEnvelope::ok()),
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
