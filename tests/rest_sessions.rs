//! Integration: multi-session REST lifecycle — per-experiment sessions with
//! different configurations, mixed JSON/XML clients against one server,
//! incremental audit-log polling, and graceful shutdown of the event loop
//! under pipelined load.

use pwm_core::transport::PolicyTransport;
use pwm_core::{PolicyConfig, PolicyController, TransferSpec, Url, WorkflowId};
use pwm_rest::{PolicyRestClient, PolicyRestServer, WireFormat};

fn spec(n: u32) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", "gridftp-vm", format!("/d/f{n}.dat")),
        dest: Url::new("file", "obelix-nfs", format!("/s/f{n}.dat")),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    }
}

#[test]
fn per_experiment_sessions_have_independent_configs_and_state() {
    let controller = PolicyController::new(PolicyConfig::default());
    let server = PolicyRestServer::start(controller).unwrap();

    // Two experiment sessions, as the paper configures "prior to each test".
    let exp_a = PolicyRestClient::new(server.addr(), "exp-threshold-50");
    exp_a
        .put_config(
            &PolicyConfig::default()
                .with_default_streams(8)
                .with_threshold(50),
        )
        .unwrap();
    let exp_b = PolicyRestClient::new(server.addr(), "exp-threshold-200");
    exp_b
        .put_config(
            &PolicyConfig::default()
                .with_default_streams(12)
                .with_threshold(200),
        )
        .unwrap();

    let mut a = exp_a.clone();
    let mut b = exp_b.clone();
    let advice_a = a.evaluate_transfers(vec![spec(1)]).unwrap();
    let advice_b = b.evaluate_transfers(vec![spec(1)]).unwrap();
    assert_eq!(advice_a[0].streams, 8);
    assert_eq!(advice_b[0].streams, 12);
    // Same file in both sessions — no cross-session dedup.
    assert!(advice_a[0].should_execute());
    assert!(advice_b[0].should_execute());

    // Independent ledgers.
    let sa = exp_a.status().unwrap();
    let sb = exp_b.status().unwrap();
    assert_eq!(sa.snapshot.host_pairs[0].allocated, 8);
    assert_eq!(sb.snapshot.host_pairs[0].allocated, 12);
}

#[test]
fn json_and_xml_clients_share_one_session() {
    let controller = PolicyController::new(PolicyConfig::default());
    let server = PolicyRestServer::start(controller).unwrap();
    let mut json = PolicyRestClient::new(server.addr(), "default");
    let mut xml = PolicyRestClient::new(server.addr(), "default").with_format(WireFormat::Xml);

    // The JSON client stages a file; the XML client's duplicate is skipped —
    // one policy session, two wire formats.
    let first = json.evaluate_transfers(vec![spec(7)]).unwrap();
    assert!(first[0].should_execute());
    let second = xml.evaluate_transfers(vec![spec(7)]).unwrap();
    assert!(!second[0].should_execute());
}

/// Health reports reach a REST-backed session: after `HostDown` goes over
/// the wire, a transfer sourced at that host is suppressed, exactly as when
/// the session is called directly.
#[test]
fn health_reports_reach_the_service_over_rest() {
    use pwm_core::{HealthEvent, SuppressReason, TransferAction};
    let controller = PolicyController::new(PolicyConfig::default());
    let server = PolicyRestServer::start(controller).unwrap();
    // An XML client too: health reports are JSON whatever the format.
    for format in [WireFormat::Json, WireFormat::Xml] {
        let session = format!("health-{format:?}");
        let mut client = PolicyRestClient::new(server.addr(), &session).with_format(format);
        client.put_config(&PolicyConfig::default()).unwrap();
        client
            .report_health(vec![HealthEvent::HostDown {
                host: "gridftp-vm".into(),
            }])
            .unwrap();
        let advice = client.evaluate_transfers(vec![spec(1)]).unwrap();
        assert_eq!(
            advice[0].action,
            TransferAction::Skip(SuppressReason::SourceHostDown)
        );
        client
            .report_health(vec![HealthEvent::HostUp {
                host: "gridftp-vm".into(),
            }])
            .unwrap();
        let advice = client.evaluate_transfers(vec![spec(2)]).unwrap();
        assert!(advice[0].should_execute());
    }
}

/// Graceful shutdown under pipelined load: while several connections are
/// mid-window, `shutdown()` must answer every fully-received request (200),
/// 503 the partially-received one, flush whole frames, and only then close
/// — no truncated responses, no drops before the drain begins, and no new
/// connections afterwards.
#[test]
fn graceful_shutdown_under_pipelined_load() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const DEPTH: usize = 8;

    let controller = PolicyController::new(PolicyConfig::default());
    let mut server = PolicyRestServer::start(controller).unwrap();
    let addr = server.addr();

    let draining = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));

    let render = |t: u32, n: u32| {
        let body = serde_json::to_vec(&pwm_rest::TransferRequestEnvelope {
            transfers: vec![spec(1000 * t + n)],
        })
        .unwrap();
        pwm_rest::http::render_request(
            WireFormat::Json,
            pwm_rest::Method::Post,
            "/sessions/default/transfers",
            &body,
            true,
        )
    };

    // A connection parked with half a request on the wire: the drain must
    // answer it with a clean 503, not silence or a torn frame.
    let mut parked = TcpStream::connect(addr).unwrap();
    parked.set_nodelay(true).ok();
    let half = render(9, 0);
    parked.write_all(&half[..half.len() / 2]).unwrap();

    // Load threads, each pipelining windows of DEPTH distinct requests.
    let mut threads = Vec::new();
    for t in 0..3u32 {
        let draining = Arc::clone(&draining);
        let answered = Arc::clone(&answered);
        let reqs: Vec<Vec<u8>> = (0..64).map(|n| render(t, n)).collect();
        threads.push(std::thread::spawn(move || -> u64 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut ok200 = 0u64;
            let mut cursor = 0usize;
            let mut rbuf: Vec<u8> = Vec::new();
            let mut chunk = [0u8; 8192];
            loop {
                let mut window = Vec::new();
                for _ in 0..DEPTH {
                    window.extend_from_slice(&reqs[cursor % reqs.len()]);
                    cursor += 1;
                }
                if stream.write_all(&window).is_err() {
                    assert!(
                        draining.load(Ordering::SeqCst),
                        "write failed before shutdown began"
                    );
                    break;
                }
                let mut got = 0usize;
                let mut closed = false;
                while got < DEPTH {
                    while let Some((status, _body, consumed)) =
                        pwm_rest::http::try_parse_response(&rbuf).expect("well-formed frame")
                    {
                        rbuf.drain(..consumed);
                        got += 1;
                        assert!(
                            status == 200 || status == 503,
                            "unexpected status {status} during drain"
                        );
                        if status == 200 {
                            ok200 += 1;
                        }
                        answered.fetch_add(1, Ordering::SeqCst);
                        if got == DEPTH {
                            break;
                        }
                    }
                    if got == DEPTH {
                        break;
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                    }
                }
                if closed {
                    assert!(
                        draining.load(Ordering::SeqCst),
                        "server closed a connection before shutdown began"
                    );
                    assert!(
                        rbuf.is_empty(),
                        "connection closed with a truncated response in flight"
                    );
                    break;
                }
                if draining.load(Ordering::SeqCst) {
                    break;
                }
            }
            ok200
        }));
    }

    // Let the load demonstrably flow, then pull the plug mid-traffic.
    while answered.load(Ordering::SeqCst) < 200 {
        std::thread::yield_now();
    }
    draining.store(true, Ordering::SeqCst);
    server.shutdown();

    for t in threads {
        let ok200 = t.join().expect("load thread");
        assert!(
            ok200 > 0,
            "every connection served requests before shutdown"
        );
    }

    // The parked half-request got its clean 503 before the close.
    let mut tail = Vec::new();
    parked.read_to_end(&mut tail).expect("read parked tail");
    let (status, _body, consumed) = pwm_rest::http::try_parse_response(&tail)
        .expect("well-formed frame")
        .expect("partial request must be answered, not dropped");
    assert_eq!(status, 503, "partial request gets a clean 503");
    assert_eq!(consumed, tail.len(), "nothing after the 503 frame");

    // The listener is gone: no new connections after shutdown returns.
    assert!(
        TcpStream::connect(addr).is_err(),
        "shutdown must close the listener"
    );
}

#[test]
fn audit_log_can_be_polled_incrementally() {
    let controller = PolicyController::new(PolicyConfig::default());
    let mut t = PolicyRestClient::pipe(controller.clone(), "default");

    t.evaluate_transfers(vec![spec(1)]).unwrap();
    let first_batch = controller.audit_since("default", 0).unwrap();
    assert_eq!(first_batch.len(), 1);
    let next_seq = first_batch.last().unwrap().seq + 1;

    t.evaluate_transfers(vec![spec(2), spec(2)]).unwrap();
    let second_batch = controller.audit_since("default", next_seq).unwrap();
    // Two evaluations recorded (one execute, one duplicate-skip), nothing
    // from before the cursor.
    assert_eq!(second_batch.len(), 2);
    assert!(second_batch.iter().all(|r| r.seq >= next_seq));
    let skipped = second_batch
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                pwm_core::PolicyEvent::TransferEvaluated {
                    skipped: Some(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(skipped, 1);
}
