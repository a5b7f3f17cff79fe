//! One connection of the REST server, without its socket.
//!
//! A [`Connection`] takes what the poll loop sees of a connection: bytes
//! that arrived, the end of a read turn with the peer's half-close, the
//! clock and a shutdown. It gives back response bytes and whether it is
//! done, calling the [`PolicyController`] of the [`Handler`] it is handed;
//! every status and every close is decided here. A pipelined run of two or
//! more JSON transfer evaluations for one session, received in one turn, is
//! one batched `evaluate_transfer_groups` call whose sequential mini-passes
//! give each request the advice it would get alone, so the answers and the
//! close decision do not depend on how the bytes were cut into reads.

use super::ServerLimits;
use crate::http::{
    error_body, frame_request, write_response, HttpError, Method, Request, RequestFrame, WireFormat,
};
use crate::wire::*;
use crate::xml;
use pwm_core::{ControllerError, PolicyConfig, PolicyController, TransferSpec};
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
    /// Received bytes not yet framed into a request.
    rbuf: Vec<u8>,
    /// Response bytes not yet written.
    wbuf: Vec<u8>,
    /// Requests answered (tells a connection that never spoke, which gets
    /// 408 at its deadline, from an idle keep-alive one, closed silently).
    served: u64,
    /// When an open connection is timed out if nothing arrives before.
    deadline: Instant,
    /// False once nothing more is read: flush the output, then close.
    open: bool,
}

impl Connection {
    /// A connection accepted at `now`.
    pub(crate) fn new(now: Instant, handler: &Handler) -> Connection {
        Connection {
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            served: 0,
            deadline: now + handler.limits.read_timeout,
            open: true,
        }
    }

    /// Bytes that arrived, answered by the turn's [`Connection::serve`].
    /// Nothing is taken once the connection stopped reading.
    pub(crate) fn receive(&mut self, bytes: &[u8]) {
        if self.open {
            self.rbuf.extend_from_slice(bytes);
        }
    }

    /// End a read turn at `now`: restart the read deadline, answer every
    /// complete request received, and stop reading if the peer half-closed
    /// (`eof`); a partial request it left is dropped unanswered.
    pub(crate) fn serve(&mut self, now: Instant, eof: bool, handler: &mut Handler) {
        if self.open {
            self.deadline = now + handler.limits.read_timeout;
            self.answer(handler);
            self.open &= !eof;
        }
    }

    /// The clock reached `now`. Past the read deadline, a request left
    /// unfinished (slow loris) or never sent gets 408; an idle keep-alive
    /// connection is closed silently.
    pub(crate) fn tick(&mut self, now: Instant) {
        if self.open && now >= self.deadline {
            if !self.rbuf.is_empty() || self.served == 0 {
                self.close_with(408, "request read timed out");
            } else {
                self.open = false;
            }
        }
    }

    /// The server shuts down: answer every complete request received, 503
    /// a partial one, and stop reading.
    pub(crate) fn shut_down(&mut self, handler: &mut Handler) {
        if self.open {
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

    /// The first `n` bytes of [`Connection::output`] were written.
    pub(crate) fn wrote(&mut self, n: usize) {
        self.wbuf.drain(..n);
    }

    /// The peer is gone: nothing is left to write, and nothing is read.
    pub(crate) fn lost(&mut self) {
        self.wbuf.clear();
        self.open = false;
    }

    /// Whether the connection still reads.
    pub(crate) fn reading(&self) -> bool {
        self.open
    }

    /// When [`Connection::tick`] acts next, while the connection reads.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.open.then_some(self.deadline)
    }

    /// Nothing more is read and everything was written: close it.
    pub(crate) fn finished(&self) -> bool {
        !self.open && self.wbuf.is_empty()
    }

    /// Answer what was received with an error status, and stop reading.
    fn close_with(&mut self, status: u16, message: &str) {
        let body = error_body(WireFormat::Json, message);
        self.push_answer((status, WireFormat::Json), &body, false);
        self.rbuf.clear();
    }

    /// Queue an answer whose body was rendered into the handler's body.
    fn push_answer(&mut self, (status, format): Answer, body: &str, keep_alive: bool) {
        write_response(&mut self.wbuf, status, format, body.as_bytes(), keep_alive);
        self.open &= keep_alive;
    }

    /// Frame every complete request received, then answer them in order.
    /// Runs of ≥ 2 consecutive pipelined JSON transfer-evaluate requests for
    /// the same session collapse into one batched controller call.
    fn answer(&mut self, handler: &mut Handler) {
        let frames = &mut handler.frames;
        frames.clear();
        let mut consumed = 0;
        let fatal = loop {
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
        handler.requests.add(frames.len() as u64);

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
                    i = j;
                    continue;
                }
            }
            let body = &mut handler.body;
            body.clear();
            let answer = route(&first, segments, &handler.controller, body);
            self.push_answer(answer, body, first.keep_alive);
            self.served += 1;
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
    /// rules pass. A request whose body fails to decode gets its own 400
    /// whatever the call returns, and no call is made when no body decoded;
    /// response order matches request order (HTTP pipelining contract).
    fn serve_batched<'a>(
        &mut self,
        run: impl ExactSizeIterator<Item = Request<'a>>,
        session: &str,
        controller: &PolicyController,
        batched: &pwm_obs::Counter,
        body: &mut String,
    ) {
        // Each decoded group moves into the one batched call; what stays
        // behind per request is only why it was refused, if it was.
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
        let mut advice = if groups.is_empty() {
            Ok(Vec::new().into_iter())
        } else {
            let advice = controller.evaluate_transfer_groups(session, groups);
            if advice.is_ok() {
                batched.add(requests as u64);
            }
            advice.map(Vec::into_iter)
        };
        for r in refused {
            body.clear();
            let answer = match (r, &mut advice) {
                (Some(message), _) => refuse(body, WireFormat::Json, 400, &message),
                (None, Ok(groups)) => {
                    let advice = groups.next().unwrap_or_default();
                    json(body, &TransferResponseEnvelope { advice })
                }
                (None, Err(e)) => controller_error(body, WireFormat::Json, e.clone()),
            };
            self.push_answer(answer, body, true);
        }
    }
}

/// Is this request eligible for the batched advice path? JSON POSTs to
/// `/sessions/{s}/transfers` on a keep-alive connection; returns the
/// session name.
fn batchable_session<'a>(request: &Request<'a>, segments: &[&'a str]) -> Option<&'a str> {
    match (request.method, request.format, segments) {
        (Method::Post, WireFormat::Json | WireFormat::Text, ["sessions", session, "transfers"])
            if request.keep_alive =>
        {
            Some(session)
        }
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
    let Ok(text) = std::str::from_utf8(request.body) else {
        return refuse(body, WireFormat::Xml, 400, "body is not utf-8");
    };
    match decode(text).map(f) {
        Ok(Ok(answer)) => {
            *body = answer;
            (200, WireFormat::Xml)
        }
        Ok(Err(e)) => controller_error(body, WireFormat::Xml, e),
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
    (status, format)
}

fn json<T: serde::Serialize>(body: &mut String, value: &T) -> Answer {
    serde_json::to_string_onto(value, body);
    OK_JSON
}

/// A controller's answer in JSON, or the status of its error.
fn json_or<T: serde::Serialize>(body: &mut String, answer: Result<T, ControllerError>) -> Answer {
    match answer {
        Ok(value) => json(body, &value),
        Err(e) => controller_error(body, WireFormat::Json, e),
    }
}

#[cfg(test)]
pub(super) mod tests;
