//! The server's tests. Four socket smoke tests drive the poll loop; every
//! other connection behaviour is a direct call on the connection core, with
//! no listener, no thread, no sleep and no real timeout.

use super::connection::tests::Core;
use super::*;
use crate::http::{render_request, try_parse_response, Method, WireFormat};
use crate::wire::*;
use pwm_core::{PolicyConfig, TransferSpec};

fn core() -> Core {
    Core::new(PolicyController::new(PolicyConfig::default()))
}

fn spec_for(path: &str) -> TransferSpec {
    TransferSpec {
        source: pwm_core::Url::new("gsiftp", "s", path),
        dest: pwm_core::Url::new("file", "d", path),
        bytes: 1,
        requested_streams: None,
        workflow: pwm_core::WorkflowId(1),
        cluster: None,
        priority: None,
    }
}

fn transfers_body(specs: Vec<TransferSpec>) -> Vec<u8> {
    serde_json::to_vec(&TransferRequestEnvelope { transfers: specs }).unwrap()
}

/// A keep-alive JSON POST of `body` to `path`.
fn post(path: &str, body: &[u8]) -> Vec<u8> {
    render_request(WireFormat::Json, Method::Post, path, body, true)
}

fn transfers_request(path: &str) -> Vec<u8> {
    let body = transfers_body(vec![spec_for(path)]);
    post("/sessions/default/transfers", &body)
}

fn statuses(responses: &[(u16, Vec<u8>)]) -> Vec<u16> {
    responses.iter().map(|(status, _)| *status).collect()
}

fn advice_of(body: &[u8]) -> Vec<pwm_core::TransferAdvice> {
    serde_json::from_slice::<TransferResponseEnvelope>(body)
        .unwrap()
        .advice
}

// -- Socket smoke tests: the shell around the core. --

/// One `Connection: close` request over a fresh socket.
fn call_socket(addr: SocketAddr, method: Method, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&render_request(WireFormat::Json, method, path, body, false))
        .unwrap();
    read_pipelined(&mut stream, 1).remove(0)
}

/// Read `n` responses off one stream; `None` when the server closes or
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

fn start() -> (PolicyRestServer, SocketAddr) {
    let server = PolicyRestServer::start(PolicyController::new(PolicyConfig::default())).unwrap();
    let addr = server.addr();
    (server, addr)
}

#[test]
fn health_endpoint() {
    let (_server, addr) = start();
    let (status, body) = call_socket(addr, Method::Get, "/health", b"");
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);
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
        let advice = advice_of(body);
        assert_eq!(advice[0].source.path, format!("/window/{n}"));
        assert!(advice[0].should_execute());
    }
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
    let evaluate = transfers_body(vec![spec_for("/f1")]);
    // Stage f1 to completion over the socket, then stop the server.
    let (status, body) = call_socket(
        server.addr(),
        Method::Post,
        "/sessions/default/transfers",
        &evaluate,
    );
    assert_eq!(status, 200);
    let done = TransferCompletionEnvelope {
        outcomes: vec![pwm_core::TransferOutcome {
            id: advice_of(&body)[0].id,
            success: true,
        }],
    };
    let (status, _) = call_socket(
        server.addr(),
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
    let (status, body) = call_socket(
        server2.addr(),
        Method::Post,
        "/sessions/default/transfers",
        &evaluate,
    );
    assert_eq!(status, 200);
    assert!(
        !advice_of(&body)[0].should_execute(),
        "restarted server must remember the staged file"
    );
    let (status, body) = call_socket(server2.addr(), Method::Get, "/sessions/default/status", b"");
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

// -- The connection core, fed bytes directly. --

#[test]
fn unknown_route_is_404() {
    assert_eq!(core().call(Method::Get, "/nope", b"").0, 404);
}

#[test]
fn bad_json_is_400() {
    let (status, _) = core().call(Method::Post, "/sessions/default/transfers", b"{broken");
    assert_eq!(status, 400);
}

#[test]
fn malformed_xml_bodies_are_400() {
    let mut core = core();
    let mut call_xml = |path, body| core.call_in(WireFormat::Xml, Method::Post, path, body).0;
    for body in [
        &b"not xml at all"[..],
        b"<transferRequest>",
        b"<wrongRoot></wrongRoot>",
        b"<transferRequest><transfer source=\"x\"/></transferRequest>",
        b"<transferRequest><bogus/></transferRequest>",
    ] {
        let status = call_xml("/sessions/default/transfers", body);
        assert_eq!(status, 400, "body {:?} must be rejected", body);
    }
    let body = b"<cleanupRequest><cleanup/></cleanupRequest>";
    assert_eq!(call_xml("/sessions/default/cleanups", body), 400);
}

#[test]
fn non_utf8_xml_body_is_400() {
    let path = "/sessions/default/transfers";
    let body = [0xff, 0xfe, 0x80, 0x00, 0x12];
    let (status, _) = core().call_in(WireFormat::Xml, Method::Post, path, &body);
    assert_eq!(status, 400);
}

#[test]
fn unknown_session_is_404() {
    let body = transfers_body(vec![]);
    let (status, _) = core().call(Method::Post, "/sessions/missing/transfers", &body);
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
    let mut core = Core::new(controller);
    let transfers = transfers_body(vec![]);
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
        assert_eq!(core.call(method, path, body).0, 503, "{path}");
    }
    let xml = b"<transferRequest></transferRequest>";
    let path = "/sessions/dying/transfers";
    assert_eq!(
        core.call_in(WireFormat::Xml, Method::Post, path, xml).0,
        503
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_endpoint_returns_snapshot() {
    let (status, body) = core().call(Method::Get, "/sessions/default/status", b"");
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
    let mut core = core();
    let body = transfers_body(vec![spec_for("/f1")]);
    core.call(Method::Post, "/sessions/default/transfers", &body);
    let (status, body) = core.call(Method::Get, "/sessions/default/log", b"");
    assert_eq!(status, 200);
    let records: Vec<pwm_core::AuditRecord> = serde_json::from_slice(&body).unwrap();
    assert_eq!(records.len(), 1);
    assert!(matches!(
        records[0].event,
        pwm_core::PolicyEvent::TransferEvaluated { .. }
    ));
    let (status, _) = core.call(Method::Get, "/sessions/missing/log", b"");
    assert_eq!(status, 404);
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let mut core = core();
    let body = transfers_body(vec![spec_for("/f1")]);
    core.call(Method::Post, "/sessions/default/transfers", &body);
    let (status, body) = core.call(Method::Get, "/metrics", b"");
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
    let mut core = Core::new(controller);
    let body = transfers_body(vec![spec_for("/f1")]);
    core.call(Method::Post, "/sessions/default/transfers", &body);
    let (status, body) = core.call(Method::Get, "/sessions/default/trace", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    pwm_obs::validate_chrome_trace(&text).expect("trace must be valid Chrome-trace JSON");
    let (status, _) = core.call(Method::Get, "/sessions/missing/trace", b"");
    assert_eq!(status, 404);
}

#[test]
fn put_config_creates_session() {
    let mut core = core();
    let cfg = serde_json::to_vec(&PolicyConfig::default().with_threshold(123)).unwrap();
    let (status, _) = core.call(Method::Put, "/sessions/new-session/config", &cfg);
    assert_eq!(status, 200);
    let (status, _) = core.call(Method::Get, "/sessions/new-session/status", b"");
    assert_eq!(status, 200);
}

#[test]
fn delete_session() {
    let mut core = core();
    let cfg = serde_json::to_vec(&PolicyConfig::default()).unwrap();
    core.call(Method::Put, "/sessions/temp/config", &cfg);
    let (status, _) = core.call(Method::Delete, "/sessions/temp", b"");
    assert_eq!(status, 200);
    let (status, _) = core.call(Method::Delete, "/sessions/temp", b"");
    assert_eq!(status, 404);
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let limits = ServerLimits {
        read_timeout: Duration::from_secs(5),
        max_body: 64,
    };
    let controller = PolicyController::new(PolicyConfig::default());
    let mut core = Core::with_limits(controller, limits);
    let mut conn = core.connect();
    // Only the head arrives: the declared length alone is refused.
    let wire = post("/sessions/default/transfers", &[b'x'; 4096]);
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    assert_eq!(statuses(&core.send(&mut conn, &wire[..head_end])), [413]);
    assert!(conn.finished());
}

/// A head past the 64 MiB bound is refused whether or not its blank line
/// came in the same read: the answer does not depend on the cut.
#[test]
fn a_head_past_the_bound_is_refused_even_when_it_is_whole() {
    let mut wire = b"GET /health HTTP/1.1\r\nX: ".to_vec();
    wire.resize((64 << 20) + 1, b'a');
    wire.extend_from_slice(b"\r\n\r\n");
    let mut core = core();
    let mut conn = core.connect();
    assert_eq!(statuses(&core.send(&mut conn, &wire)), [413]);
}

#[test]
fn stalled_client_gets_408() {
    let limits = ServerLimits {
        read_timeout: Duration::from_millis(200),
        max_body: 16 << 20,
    };
    let mut core = Core::with_limits(PolicyController::new(PolicyConfig::default()), limits);
    let mut conn = core.connect();
    // Headers never finish: the slow-loris pattern.
    assert!(core.send(&mut conn, b"GET /health HTTP/1.1\r\n").is_empty());
    conn.tick(core.now + Duration::from_millis(199));
    assert!(conn.reading(), "not before its deadline");
    conn.tick(core.now + Duration::from_millis(200));
    assert_eq!(statuses(&core.responses(&mut conn)), [408]);
    assert!(conn.finished());

    // A connection that never spoke gets 408 too; an idle keep-alive
    // connection that was answered is closed silently.
    let mut mute = core.connect();
    mute.tick(core.now + Duration::from_millis(200));
    assert_eq!(statuses(&core.responses(&mut mute)), [408]);
    let mut idle = core.connect();
    let wire = render_request(WireFormat::Json, Method::Get, "/health", b"", true);
    assert_eq!(statuses(&core.send(&mut idle, &wire)), [200]);
    idle.tick(core.now + Duration::from_millis(200));
    assert!(idle.finished() && core.responses(&mut idle).is_empty());
}

#[test]
fn shutdown_drains_inflight_connections() {
    let mut core = core();
    let mut conn = core.connect();
    let mut wire = transfers_request("/drained");
    wire.extend_from_slice(b"POST /x HTTP/1.1\r\n");
    // The bytes are taken by the shutdown's own read, with no serve in
    // between: the complete request is answered, the partial one gets
    // a clean 503, and the connection closes.
    conn.receive(&wire);
    conn.shut_down(core.now, &mut core.handler);
    assert_eq!(statuses(&core.responses(&mut conn)), [200, 503]);
    assert!(conn.finished());
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut core = core();
    let mut conn = core.connect();
    // Three pipelined keep-alive requests in one read: two JSON
    // transfer-evaluates (the batched path) and a health check.
    let mut wire = transfers_request("/f1");
    wire.extend_from_slice(&transfers_request("/f1"));
    wire.extend_from_slice(&render_request(
        WireFormat::Json,
        Method::Get,
        "/health",
        b"",
        true,
    ));
    let responses = core.send(&mut conn, &wire);
    assert_eq!(statuses(&responses), [200; 3]);
    assert!(advice_of(&responses[0].1)[0].should_execute());
    assert!(
        !advice_of(&responses[1].1)[0].should_execute(),
        "duplicate in the same pipeline window must still be suppressed"
    );
    assert_eq!(responses[2].1, br#"{"status":"ok"}"#);
}

#[test]
fn bad_json_mid_pipeline_gets_its_own_400() {
    let mut core = core();
    let mut conn = core.connect();
    let mut wire = transfers_request("/f9");
    wire.extend_from_slice(&post("/sessions/default/transfers", b"{broken"));
    wire.extend_from_slice(&transfers_request("/f9"));
    let responses = core.send(&mut conn, &wire);
    assert_eq!(statuses(&responses), [200, 400, 200]);
    assert!(
        !advice_of(&responses[2].1)[0].should_execute(),
        "dedup across the batch"
    );
}

/// The first group holds two plain specs, the last one a spec with every
/// optional field set and a path that needs each kind of escape; both move
/// into the one rules pass.
#[test]
fn a_malformed_middle_request_leaves_its_neighbours_their_own_advice() {
    let mut core = core();
    let mut conn = core.connect();
    let first = vec![spec_for("/f2.dat"), spec_for("/f2.dat")];
    let last = vec![TransferSpec {
        source: pwm_core::Url::new(
            "gsiftp",
            "gridftp-vm.tacc",
            "/data/\"q\"\\b\n\t\u{1}é中🦀.dat",
        ),
        dest: pwm_core::Url::new("file", "", "/scratch/f1.dat"),
        bytes: u64::MAX,
        requested_streams: Some(8),
        workflow: pwm_core::WorkflowId(7),
        cluster: Some(pwm_core::ClusterId(3)),
        priority: Some(-2),
    }];
    let mut wire = post(
        "/sessions/default/transfers",
        &transfers_body(first.clone()),
    );
    wire.extend_from_slice(&post(
        "/sessions/default/transfers",
        br#"{"transfers":[{"source":"#,
    ));
    wire.extend_from_slice(&post(
        "/sessions/default/transfers",
        &transfers_body(last.clone()),
    ));
    let responses = core.send(&mut conn, &wire);
    assert_eq!(statuses(&responses), [200, 400, 200]);
    let (a, c) = (advice_of(&responses[0].1), advice_of(&responses[2].1));
    assert_eq!(a.len(), 2);
    assert!(a
        .iter()
        .all(|advice| advice.source == first[0].source && advice.dest == first[0].dest));
    assert!(
        a[0].should_execute() && !a[1].should_execute(),
        "duplicate within the group"
    );
    assert_eq!(c.len(), 1);
    assert_eq!((&c[0].source, &c[0].dest), (&last[0].source, &last[0].dest));
    assert!(c[0].should_execute());
    let refused: ErrorEnvelope = serde_json::from_slice(&responses[1].1).unwrap();
    assert!(refused.error.starts_with("bad json: "), "{}", refused.error);
}

/// An undecodable request in a pipelined run keeps its own 400 whatever
/// the batched call answers the rest, as it does sent alone.
#[test]
fn an_undecodable_request_in_a_run_to_an_unknown_session_keeps_its_400() {
    let mut core = core();
    let path = "/sessions/missing/transfers";
    let body = transfers_body(vec![spec_for("/f1")]);
    let mut wire = post(path, b"[");
    wire.extend_from_slice(&post(path, &body));
    let mut conn = core.connect();
    assert_eq!(statuses(&core.send(&mut conn, &wire)), [400, 404]);
    let mut conn = core.connect();
    assert_eq!(statuses(&core.send(&mut conn, &post(path, b"["))), [400]);
    assert_eq!(statuses(&core.send(&mut conn, &post(path, &body))), [404]);
}

/// A run in which no body decodes makes no controller call, so a
/// durable session logs nothing for it, as for the requests sent apart.
#[test]
fn an_undecodable_run_appends_no_wal_record() {
    let dir = std::env::temp_dir().join(format!("pwm-rest-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let controller = PolicyController::new(PolicyConfig::default());
    let dcfg = pwm_core::DurabilityConfig::new(&dir);
    controller
        .create_durable_session("logged", PolicyConfig::default(), dcfg)
        .unwrap();
    let mut core = Core::new(controller);
    let mut conn = core.connect();
    let mut wire = post("/sessions/logged/transfers", b"[");
    wire.extend_from_slice(&post("/sessions/logged/transfers", b"{"));
    assert_eq!(statuses(&core.send(&mut conn, &wire)), [400, 400]);
    let recovered = pwm_core::read_recovery(&dir).unwrap();
    assert!(recovered.records.is_empty(), "{:?}", recovered.records);
    std::fs::remove_dir_all(&dir).ok();
}

/// An ambiguous head is answered with one 400, and nothing after it on
/// the connection is framed as a request of its own.
#[test]
fn the_server_answers_a_chunked_request_once_and_closes() {
    let mut core = core();
    let mut conn = core.connect();
    let wire = b"POST /sessions/default/transfers HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                 3\r\nabc\r\n0\r\n\r\n";
    assert_eq!(statuses(&core.send(&mut conn, wire)), [400]);
    assert!(conn.finished(), "one answer, then close");
}

#[test]
fn deeply_nested_body_is_refused_and_the_server_survives() {
    let mut core = core();
    let mut conn = core.connect();
    // 20 kB of `[`: one stack frame per level would overflow the loop
    // thread's stack and abort the process.
    let mut hostile = br#"{"cleanups":"#.to_vec();
    hostile.resize(hostile.len() + 20_000, b'[');
    for path in ["/sessions/default/cleanups", "/sessions/default/transfers"] {
        let mut answers = core.send(&mut conn, &post(path, &hostile));
        let (status, body) = answers.remove(0);
        assert_eq!(status, 400);
        let refused: ErrorEnvelope = serde_json::from_slice(&body).unwrap();
        assert!(refused.error.contains("nesting"), "{}", refused.error);
    }
    // The same connection goes on being served, and so does a new one.
    let answers = core.send(&mut conn, &transfers_request("/after"));
    assert_eq!(statuses(&answers), [200]);
    assert_eq!(core.call(Method::Get, "/health", b"").0, 200);
}

#[test]
fn request_split_mid_header_and_mid_body_is_answered() {
    let mut core = core();
    let mut conn = core.connect();
    let wire = transfers_request("/split");
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    // Three read turns: the cut points fall inside the header block and
    // inside the body.
    let cuts = [head_end / 2, head_end + 4 + (wire.len() - head_end - 4) / 2];
    assert!(core.send(&mut conn, &wire[..cuts[0]]).is_empty());
    assert!(core.send(&mut conn, &wire[cuts[0]..cuts[1]]).is_empty());
    let answers = core.send(&mut conn, &wire[cuts[1]..]);
    assert_eq!(statuses(&answers), [200]);
    assert_eq!(advice_of(&answers[0].1)[0].source.path, "/split");
}

#[test]
fn client_that_half_closes_after_its_last_request_is_answered_then_closed() {
    let mut core = core();
    let mut conn = core.connect();
    let mut wire = transfers_request("/last/0");
    wire.extend_from_slice(&transfers_request("/last/1"));
    // The FIN arrives in the read turn that takes the requests: they
    // are answered, and then the connection closes.
    conn.receive(&wire);
    conn.serve(core.now, true, &mut core.handler);
    assert_eq!(statuses(&core.responses(&mut conn)), [200, 200]);
    assert!(conn.finished(), "nothing follows the last response");
}
