//! The connection core's test harness, shared with the server's tests, and
//! the split-invariance fuzzer.

use super::*;
use crate::http::{render_request, try_parse_response};
use crate::xml;
use proptest::prelude::*;
use pwm_core::{CleanupId, CleanupOutcome, CleanupSpec, HealthEvent, TransferId};
use pwm_core::{TransferOutcome, TransferSpec, Url, WorkflowId};
use std::time::Duration;

/// A server's connection core at one instant: connections are opened
/// on it and fed bytes directly, with no socket and no clock.
pub(crate) struct Core {
    pub(crate) handler: Handler,
    pub(crate) now: Instant,
}

impl Core {
    pub(crate) fn new(controller: PolicyController) -> Core {
        Core::with_limits(controller, ServerLimits::default())
    }

    pub(crate) fn with_limits(controller: PolicyController, limits: ServerLimits) -> Core {
        Core {
            handler: Handler::new(controller, limits),
            now: Instant::now(),
        }
    }

    pub(crate) fn connect(&self) -> Connection {
        Connection::new(self.now, &self.handler)
    }

    /// One read turn in which `wire` arrives on `conn`; the responses
    /// it completed.
    pub(crate) fn send(&mut self, conn: &mut Connection, wire: &[u8]) -> Vec<(u16, Vec<u8>)> {
        conn.receive(wire);
        conn.serve(self.now, false, &mut self.handler);
        self.responses(conn)
    }

    /// Every response `conn` has queued, taken as written.
    pub(crate) fn responses(&mut self, conn: &mut Connection) -> Vec<(u16, Vec<u8>)> {
        let out = self.responses_unwritten(conn);
        conn.wrote(conn.output().len(), self.now, &mut self.handler);
        out
    }

    /// Every response `conn` has queued, left queued.
    pub(crate) fn responses_unwritten(&self, conn: &Connection) -> Vec<(u16, Vec<u8>)> {
        let mut out = Vec::new();
        let mut at = 0;
        while let Some((status, body, len)) = try_parse_response(&conn.output()[at..]).unwrap() {
            out.push((status, body));
            at += len;
        }
        assert_eq!(at, conn.output().len(), "only whole responses are queued");
        out
    }

    /// One `Connection: close` request on a fresh connection: one
    /// answer, then the connection is done.
    pub(crate) fn call_in(
        &mut self,
        format: WireFormat,
        method: Method,
        path: &str,
        body: &[u8],
    ) -> (u16, Vec<u8>) {
        let mut conn = self.connect();
        let wire = render_request(format, method, path, body, false);
        let mut answers = self.send(&mut conn, &wire);
        assert!(conn.finished(), "{path}: the connection must close");
        assert_eq!(answers.len(), 1, "{path}");
        answers.remove(0)
    }

    pub(crate) fn call(&mut self, method: Method, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        self.call_in(WireFormat::Json, method, path, body)
    }
}

/// `other` exists once a config request created it; `missing` never does.
const SESSIONS: [&str; 3] = ["default", "other", "missing"];

fn spec(file: u32) -> TransferSpec {
    let path = format!("/split/f{file}.dat");
    TransferSpec {
        source: Url::new("gsiftp", "src", &path),
        dest: Url::new("file", "dst", &path),
        bytes: 1 << 20,
        requested_streams: None,
        workflow: WorkflowId(1 + u64::from(file % 2)),
        cluster: None,
        priority: None,
    }
}

/// One keep-alive request of a fuzzed script, drawn as (kind, session, n,
/// flag). Transfers and undecodable bodies are drawn most: runs of them are
/// what batching touches. `flag` picks XML where the route speaks it.
fn request((kind, session, n, flag): (u8, usize, u32, bool)) -> Vec<u8> {
    let path = |s: usize, route: &str| format!("/sessions/{}/{route}", SESSIONS[s]);
    let json = |body: Vec<u8>| (WireFormat::Json, body);
    let either = |body: Vec<u8>, xml: String| match flag {
        true => (WireFormat::Xml, xml.into_bytes()),
        false => (WireFormat::Json, body),
    };
    let id = u64::from(n);
    let (method, path, (format, body)) = match kind {
        0..=3 => {
            let transfers = vec![spec(n)];
            let xml = xml::transfer_request_to_xml(&transfers);
            let body = serde_json::to_vec(&TransferRequestEnvelope { transfers }).unwrap();
            let body = if kind == 0 {
                either(body, xml)
            } else {
                json(body)
            };
            (Method::Post, path(session, "transfers"), body)
        }
        4 | 5 => {
            let body = br#"{"transfers":[{"source":"#.to_vec();
            (Method::Post, path(session, "transfers"), json(body))
        }
        6 => {
            let success = id % 3 != 2;
            let outcomes = vec![TransferOutcome {
                id: TransferId(id),
                success,
            }];
            let xml = xml::transfer_completion_to_xml(&outcomes);
            let body = serde_json::to_vec(&TransferCompletionEnvelope { outcomes }).unwrap();
            (
                Method::Post,
                path(0, "transfers/complete"),
                either(body, xml),
            )
        }
        7 => {
            let file = spec(n);
            let cleanups = vec![CleanupSpec {
                file: file.dest,
                workflow: file.workflow,
            }];
            let xml = xml::cleanup_request_to_xml(&cleanups);
            let body = serde_json::to_vec(&CleanupRequestEnvelope { cleanups }).unwrap();
            (Method::Post, path(0, "cleanups"), either(body, xml))
        }
        8 => {
            let outcomes = vec![CleanupOutcome {
                id: CleanupId(id),
                success: true,
            }];
            let xml = xml::cleanup_completion_to_xml(&outcomes);
            let body = serde_json::to_vec(&CleanupCompletionEnvelope { outcomes }).unwrap();
            (
                Method::Post,
                path(0, "cleanups/complete"),
                either(body, xml),
            )
        }
        9 => (Method::Get, "/health".into(), json(Vec::new())),
        10 => {
            let host = "src".into();
            let event = match flag {
                true => HealthEvent::HostDown { host },
                false => HealthEvent::HostUp { host },
            };
            let body = serde_json::to_vec(&HealthReportEnvelope {
                events: vec![event],
            })
            .unwrap();
            (Method::Post, path(0, "health"), json(body))
        }
        _ => {
            let config = PolicyConfig::default().with_threshold(1 + n * 100);
            let body = serde_json::to_vec(&config).unwrap();
            (Method::Put, path(session % 2, "config"), json(body))
        }
    };
    render_request(format, method, &path, &body, true)
}

/// What follows the script's requests on the wire.
const TAILS: [&[u8]; 5] = [
    b"",
    b"BREW /health HTTP/1.1\r\n\r\n",
    b"POST /sessions/default/transfers HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /sessions/default/transfers HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\nGET /health HTTP/1.1\r\n\r\n",
];

/// Feed `wire` to a fresh core in the pieces `cuts` makes of it, one
/// read turn each, then end as `end` says: 0 leaves the connection
/// open, 1 half-closes it, 2 shuts the server down. The response bytes
/// and whether the connection still reads.
fn replay(wire: &[u8], cuts: &[usize], end: u8) -> (Vec<u8>, bool) {
    let mut core = Core::new(PolicyController::new(PolicyConfig::default()));
    let mut conn = core.connect();
    replay_on(&mut core, &mut conn, wire, cuts, end)
}

/// [`replay`], then the same again on the same core — and on the same
/// connection while it still reads — after its sessions were put back as
/// they started. The handler's buffers, and the connection's, answer the
/// second time from what the first left in them.
fn replay_twice(wire: &[u8], cuts: &[usize], end: u8) -> [(Vec<u8>, bool); 2] {
    let controller = PolicyController::new(PolicyConfig::default());
    let mut core = Core::new(controller.clone());
    let mut conn = core.connect();
    let first = replay_on(&mut core, &mut conn, wire, cuts, end);
    controller.create_session(SESSIONS[0], PolicyConfig::default());
    controller.drop_session(SESSIONS[1]);
    if !conn.reading() {
        conn = core.connect();
    }
    [first, replay_on(&mut core, &mut conn, wire, cuts, end)]
}

fn replay_on(
    core: &mut Core,
    conn: &mut Connection,
    wire: &[u8],
    cuts: &[usize],
    end: u8,
) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    let mut at = 0;
    for &cut in cuts.iter().chain([&wire.len()]) {
        conn.receive(&wire[at..cut]);
        conn.serve(core.now, false, &mut core.handler);
        out.extend_from_slice(conn.output());
        conn.wrote(conn.output().len(), core.now, &mut core.handler);
        at = cut;
    }
    match end {
        1 => conn.serve(core.now, true, &mut core.handler),
        2 => conn.shut_down(core.now, &mut core.handler),
        _ => {}
    }
    out.extend_from_slice(conn.output());
    (out, conn.reading())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64),
    })]

    /// A pipelined script of requests to every session route but the
    /// wall-clock ones (`/metrics`, `/trace`, `/status`) gets the same
    /// response bytes and the same close decision whole and cut into
    /// reads anywhere: batching a run never shows. Replayed a second time
    /// through the buffers the first replay left, it gets them again: no
    /// byte of one request is carried into the next.
    #[test]
    fn answers_do_not_depend_on_how_the_bytes_arrived(
        draws in proptest::collection::vec((0u8..12, 0usize..3, 0u32..4, any::<bool>()), 1..12),
        tail in 0usize..TAILS.len(),
        cuts in proptest::collection::vec(0usize..1 << 16, 0..6),
        end in 0u8..3,
    ) {
        let mut wire: Vec<u8> = draws.into_iter().flat_map(request).collect();
        wire.extend_from_slice(TAILS[tail]);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        let whole = replay(&wire, &[], end);
        let [split, again] = replay_twice(&wire, &cuts, end);
        prop_assert!(
            whole == split,
            "{}\ncut at {cuts:?}, end {end}:\n{}\n---\n{}",
            String::from_utf8_lossy(&wire),
            String::from_utf8_lossy(&whole.0),
            String::from_utf8_lossy(&split.0)
        );
        prop_assert!(
            again == split,
            "{}\nreplayed through reused buffers, cut at {cuts:?}, end {end}:\n{}\n---\n{}",
            String::from_utf8_lossy(&wire),
            String::from_utf8_lossy(&split.0),
            String::from_utf8_lossy(&again.0)
        );
    }
}

fn bounded_core(read_timeout: Duration, max_body: usize) -> Core {
    let limits = ServerLimits {
        read_timeout,
        max_body,
    };
    Core::with_limits(PolicyController::new(PolicyConfig::default()), limits)
}

/// A peer pipelines status requests and reads slowly: the core answers
/// while its unsent output is within `max_body`, so the output never passes
/// it by more than one answer, takes no byte while over it, and answers
/// what it held back as the peer reads.
#[test]
fn unsent_answers_stay_within_max_body_plus_one_answer() {
    const MAX_BODY: usize = 4096;
    let mut core = bounded_core(Duration::from_secs(5), MAX_BODY);
    let mut conn = core.connect();
    let status = "/sessions/default/status";
    let status = render_request(WireFormat::Json, Method::Get, status, b"", true);
    let sent = 64;
    conn.receive(&status.repeat(sent));
    conn.serve(core.now, false, &mut core.handler);
    assert!(!conn.reading(), "the first turn passes the bound");
    // Every answer is the same status document.
    let one = try_parse_response(conn.output()).unwrap().unwrap().2;
    let mut answered = 0;
    while answered < sent {
        let waiting = conn.output().len();
        assert!(
            waiting > 0,
            "held requests are answered as the output drains"
        );
        assert!(waiting <= MAX_BODY + one, "{waiting} bytes wait");
        assert_eq!(conn.reading(), waiting <= MAX_BODY);
        answered += core.responses(&mut conn).len();
    }
    assert_eq!(answered, sent);
    assert!(conn.output().is_empty() && conn.reading());
}

/// A request near `max_body` grows the connection's and the handler's
/// buffers for the turn that answers it; the next turn gives back all they
/// hold past their retained capacities, so a long-lived server's resident
/// set stays where its steady traffic puts it.
#[test]
fn buffers_an_outsized_request_grew_shrink_back_on_the_next_turn() {
    const MAX_BODY: usize = 1 << 20;
    let mut core = bounded_core(Duration::from_secs(5), MAX_BODY);
    let mut conn = core.connect();
    let post = |route: &str, body: Vec<u8>| {
        let path = format!("/sessions/default/{route}");
        render_request(WireFormat::Json, Method::Post, &path, &body, true)
    };
    // Advice for 400 transfers is a body past RETAINED_BYTES.
    let transfers: Vec<_> = (0..400).map(spec).collect();
    let transfers = serde_json::to_vec(&TransferRequestEnvelope { transfers }).unwrap();
    // Outcomes for ids never minted: a report that only decodes and looks up.
    let outcome = |id| TransferOutcome {
        id: TransferId(id),
        success: true,
    };
    let report = |n| {
        let outcomes = vec![outcome(1 << 40); n];
        serde_json::to_vec(&TransferCompletionEnvelope { outcomes }).unwrap()
    };
    let each = report(2).len() - report(1).len();
    let report = report((MAX_BODY - report(0).len()) / each);
    assert!((MAX_BODY - each..=MAX_BODY).contains(&report.len()));
    conn.receive(
        &[
            post("transfers", transfers),
            post("transfers/complete", report),
        ]
        .concat(),
    );
    assert!(
        conn.retained() > MAX_BODY,
        "the read buffer holds both requests"
    );
    conn.serve(core.now, false, &mut core.handler);
    let statuses: Vec<_> = core
        .responses_unwritten(&conn)
        .iter()
        .map(|a| a.0)
        .collect();
    assert_eq!(statuses, [200, 200]);
    // The handler gives back what the turn grew as the turn ends; the
    // answers it queued hold the write buffer until they are written.
    let (bytes, items) = core.handler.retained();
    assert!(
        bytes <= RETAINED_BYTES && items <= RETAINED_ITEMS,
        "{bytes}, {items}"
    );
    assert!(
        conn.retained() > RETAINED_BYTES,
        "{} bytes queued",
        conn.retained()
    );
    core.responses(&mut conn);
    let answers = core.send(
        &mut conn,
        &post("transfers", b"{\"transfers\":[]}".to_vec()),
    );
    assert_eq!(answers.len(), 1);
    assert!(
        conn.retained() <= RETAINED_BYTES,
        "connection holds {}",
        conn.retained()
    );
    let (bytes, items) = core.handler.retained();
    assert!(bytes <= RETAINED_BYTES, "handler holds {bytes} bytes");
    assert!(items <= RETAINED_ITEMS, "handler holds {items} entries");
}

/// A peer that reads none of its answers loses the connection
/// `read_timeout` after they were queued, whether the connection still
/// reads or was asked to close; a write that makes progress restarts the
/// clock.
#[test]
fn a_peer_that_reads_nothing_is_dropped_after_read_timeout() {
    let timeout = Duration::from_millis(200);
    let mut core = bounded_core(timeout, 16 << 20);
    let health =
        |keep_alive| render_request(WireFormat::Json, Method::Get, "/health", b"", keep_alive);
    for keep_alive in [true, false] {
        let mut conn = core.connect();
        conn.receive(&health(keep_alive));
        conn.serve(core.now, false, &mut core.handler);
        assert_eq!(conn.reading(), keep_alive);
        assert_eq!(conn.deadline(), Some(core.now + timeout));
        conn.tick(core.now + timeout - Duration::from_millis(1));
        assert!(!conn.finished(), "not before its deadline");
        conn.tick(core.now + timeout);
        assert!(conn.finished(), "keep-alive {keep_alive}: dropped");
    }
    let mut conn = core.connect();
    conn.receive(&health(true).repeat(2));
    conn.serve(core.now, false, &mut core.handler);
    let progress = core.now + timeout / 2;
    conn.wrote(1, progress, &mut core.handler);
    conn.tick(core.now + timeout);
    assert!(!conn.finished(), "a write restarted the clock");
    assert_eq!(conn.deadline(), Some(progress + timeout));
    conn.tick(progress + timeout);
    assert!(conn.finished());
}

/// A pipelined window of transfer evaluations alternating JSON and XML is
/// one batched pass: each answer is in its request's format and holds its
/// own group's advice, and a second window finds every file in progress.
#[test]
fn pipelined_evaluate_returns_group_aligned_advice() {
    let mut core = Core::new(PolicyController::new(PolicyConfig::default()));
    let mut conn = core.connect();
    let format = |n: u32| [WireFormat::Json, WireFormat::Xml][n as usize % 2];
    let wire: Vec<u8> = (0..8)
        .flat_map(|n| request((0, 0, n, n % 2 == 1)))
        .collect();
    for window in 0..2 {
        let answers = core.send(&mut conn, &wire);
        assert_eq!(answers.len(), 8);
        for ((status, body), n) in answers.into_iter().zip(0..) {
            assert_eq!(status, 200);
            let advice = TransferResponseEnvelope::decode(format(n), &body)
                .unwrap()
                .advice;
            assert_eq!(advice.len(), 1);
            assert_eq!(advice[0].source, spec(n).source);
            assert_eq!(advice[0].should_execute(), window == 0);
        }
    }
    assert_eq!(core.handler.batched.get(), 16);
}

/// The split fuzzer's staging kinds, transfer evaluations drawn most:
/// evaluations, their reports, cleanup evaluations and their reports.
const STAGING: [u8; 6] = [0, 0, 0, 6, 7, 8];

/// Run `script`, drawn as (staging kind, session, n, turn), on a fresh
/// controller in XML or JSON; a request whose `turn` is under 3 starts a
/// read turn and the others join the turn before it, so evaluations
/// pipeline. Half
/// the requests go to the default session, the rest to sessions that do
/// not exist. Each answer's status and its body transcoded to JSON, and how
/// many requests batched passes answered.
fn run_script(script: &[(usize, usize, u32, u8)], xml: bool) -> (Vec<(u16, String)>, u64) {
    let mut core = Core::new(PolicyController::new(PolicyConfig::default()));
    let mut conn = core.connect();
    let format = [WireFormat::Json, WireFormat::Xml][usize::from(xml)];
    let (mut answers, mut kinds, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &(kind, session, n, _)) in script.iter().enumerate() {
        wire.extend(request((STAGING[kind], session.saturating_sub(1), n, xml)));
        kinds.push(STAGING[kind]);
        if script.get(i + 1).is_none_or(|next| next.3 < 3) {
            answers.extend(core.send(&mut conn, &std::mem::take(&mut wire)));
        }
    }
    fn as_json<T: Codec>(format: WireFormat, body: &[u8]) -> String {
        let mut json = String::new();
        let value = T::decode(format, body).expect("an answer decodes in its request's format");
        value.encode(WireFormat::Json, &mut json);
        json
    }
    let said = answers
        .into_iter()
        .zip(kinds)
        .map(|((status, body), kind)| {
            let json = match (status, kind) {
                (200, 0) => as_json::<TransferResponseEnvelope>(format, &body),
                (200, 7) => as_json::<CleanupResponseEnvelope>(format, &body),
                (200, _) => as_json::<AckEnvelope>(format, &body),
                _ => as_json::<ErrorEnvelope>(format, &body),
            };
            (status, json)
        });
    (said.collect(), core.handler.batched.get())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64),
    })]

    /// The same script of staging requests, pipelined runs and unknown
    /// sessions included, gets the same statuses, advice, acks and refusals
    /// in JSON and in XML, and its XML runs batch as its JSON runs do.
    #[test]
    fn json_and_xml_scripts_get_the_same_answers(
        script in proptest::collection::vec(
            (0usize..6, 0usize..4, 0u32..6, 0u8..10),
            1..16,
        ),
    ) {
        let json = run_script(&script, false);
        prop_assert_eq!(json.0.len(), script.len());
        prop_assert_eq!(json, run_script(&script, true));
    }
}
