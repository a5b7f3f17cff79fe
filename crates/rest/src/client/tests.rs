//! The client's tests: calls over a loopback socket to a running server
//! and to hand-driven stub servers, and the socket-free framing core driven
//! by hand.

use super::*;
use crate::server::PolicyRestServer;
use proptest::prelude::*;
use pwm_core::{Url, WorkflowId, DEFAULT_SESSION};

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

/// Stage `/scratch/f1.dat` (asked for twice: the second is a duplicate),
/// then clean it up, reporting each success.
fn stage_and_clean_up(client: &mut PolicyRestClient) {
    let advice = client.evaluate_transfers(vec![spec(1), spec(1)]).unwrap();
    assert!(advice[0].should_execute() && !advice[1].should_execute());
    let id = advice[0].id;
    let staged = vec![TransferOutcome { id, success: true }];
    client.report_transfers(staged).unwrap();
    let (file, workflow) = (Url::new("file", "isi", "/scratch/f1.dat"), WorkflowId(1));
    let cleanups = client.evaluate_cleanups(vec![CleanupSpec { file, workflow }]);
    let cleanups = cleanups.unwrap();
    assert!(cleanups[0].should_execute());
    let id = cleanups[0].id;
    client
        .report_cleanups(vec![CleanupOutcome { id, success: true }])
        .unwrap();
}

#[test]
fn transfer_round_trip_over_http() {
    let (_server, mut client) = start();
    let advice = client.evaluate_transfers(vec![spec(1), spec(2)]).unwrap();
    assert_eq!(advice.len(), 2);
    assert!(advice.iter().all(|a| a.should_execute()));
    assert_eq!(advice[0].streams, 4);
    let done = advice.iter().map(|a| TransferOutcome {
        id: a.id,
        success: true,
    });
    client.report_transfers(done.collect()).unwrap();
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
    stage_and_clean_up(&mut client);
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
    let (server, _client) = start();
    let client = PolicyRestClient::new(server.addr(), "exp-42");
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
    stage_and_clean_up(&mut json_client.clone().with_format(WireFormat::Xml));
    // Status (JSON endpoint) reflects the XML-driven lifecycle.
    let status = json_client.status().unwrap();
    assert_eq!(status.stats.transfers_completed, 1);
    assert_eq!(status.snapshot.staged_files, 0);
}

#[test]
fn xml_errors_surface_as_service_errors() {
    let (server, _c) = start();
    let mut client = PolicyRestClient::new(server.addr(), "missing").with_format(WireFormat::Xml);
    let err = client.evaluate_transfers(vec![spec(1)]).unwrap_err();
    let message = "no such policy session: missing".to_string();
    assert_eq!(err, TransportError::Service(message));
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

/// A client connection driven by hand, with no socket: bytes pushed onto
/// `leftover` are what arrived, and a read past them sees the stream end.
fn unlinked() -> ClientConn {
    let to = Endpoint::Pipe(PolicyController::new(PolicyConfig::default()));
    ClientConn::connect(&to, Duration::from_secs(1)).unwrap()
}

/// One response: status, format and body.
type Piece = (u16, WireFormat, String);

/// `value` encoded in `format` (or JSON, where it has no XML form).
fn encoded<T: Codec>(status: u16, format: WireFormat, value: &T) -> Piece {
    let mut body = String::new();
    (status, value.encode(format, &mut body), body)
}

/// The responses a client reads: advice from a real session (a file, then
/// its duplicate), cleanup advice, an ack, a 404 and a 503 error envelope,
/// and a body that spans many reads.
fn pieces(format: WireFormat) -> Vec<Piece> {
    let controller = PolicyController::new(PolicyConfig::default());
    let (session, workflow) = (DEFAULT_SESSION, WorkflowId(1));
    let advice = controller.evaluate_transfers(session, vec![spec(1), spec(1)]);
    let file = Url::new("file", "isi", "/scratch/f1.dat");
    let cleanups = controller.evaluate_cleanups(session, vec![CleanupSpec { file, workflow }]);
    let error = |error: &str| ErrorEnvelope {
        error: error.into(),
    };
    let pad = format!(r#"{{"advice":[],"pad":"{}"}}"#, "x".repeat(40_000));
    vec![
        encoded(
            200,
            format,
            &TransferResponseEnvelope {
                advice: advice.unwrap(),
            },
        ),
        encoded(
            200,
            format,
            &CleanupResponseEnvelope {
                advice: cleanups.unwrap(),
            },
        ),
        encoded(200, format, &AckEnvelope::ok()),
        encoded(404, format, &error("no such policy session: missing")),
        encoded(503, format, &error("policy session default is down")),
        (200, WireFormat::Json, pad),
    ]
}

fn render(pieces: &[Piece]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (status, format, body) in pieces {
        crate::http::write_response(&mut wire, *status, *format, body.as_bytes(), true);
    }
    wire
}

/// Push `wire` onto `conn` in the pieces `cuts` makes of it, framing every
/// response that is whole after each push.
fn frame_all(conn: &mut ClientConn, wire: &[u8], cuts: &[usize]) -> Vec<Piece> {
    let (mut framed, mut at) = (Vec::new(), 0);
    let text = |status, format, body: &[u8]| (status, format, String::from_utf8_lossy(body).into());
    for &cut in cuts.iter().chain([&wire.len()]) {
        conn.leftover.extend_from_slice(&wire[at..cut]);
        at = cut;
        while let Some(piece) = conn.frame(text).unwrap() {
            framed.push(piece);
        }
    }
    framed
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64),
    })]

    /// A pipelined stream of responses, JSON and XML, advice, acks and
    /// errors, is framed into the same responses whole and cut into reads
    /// anywhere: the next response's bytes stay behind the one handed out.
    #[test]
    fn responses_do_not_depend_on_how_the_bytes_arrived(
        draws in proptest::collection::vec((0usize..6, 0usize..2), 1..10),
        cuts in proptest::collection::vec(0usize..1 << 17, 0..6),
    ) {
        let all = [pieces(WireFormat::Json), pieces(WireFormat::Xml)];
        let sent: Vec<Piece> = draws.iter().map(|&(kind, xml)| all[xml][kind].clone()).collect();
        let wire = render(&sent);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        let (mut whole, mut split) = (unlinked(), unlinked());
        prop_assert_eq!(&frame_all(&mut whole, &wire, &[]), &sent);
        prop_assert_eq!(&frame_all(&mut split, &wire, &cuts), &sent);
        prop_assert!(split.leftover.is_empty());
    }
}

/// A response that cannot be framed (a garbage status line or head, no
/// length, a non-UTF-8 head, a head past the size bound, a body the stream
/// ends inside) is an I/O error that takes none of its bytes, nor the next
/// response's.
#[test]
fn malformed_responses_are_io_errors_that_take_no_bytes() {
    let next = render(&pieces(WireFormat::Json)[2..3]);
    let mut oversized = b"HTTP/1.1 200 OK\r\nX: ".to_vec();
    oversized.resize((64 << 20) + 1, b'a');
    let malformed = [
        b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"garbage\r\n\r\n".to_vec(),
        b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
        b"HTTP/1.1 200 \xff\r\nContent-Length: 0\r\n\r\n".to_vec(),
        oversized,
    ];
    let truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}".to_vec();
    let cases = malformed
        .into_iter()
        .map(|bad| [bad, next.clone()].concat());
    for wire in cases.chain([truncated]) {
        let (mut conn, len) = (unlinked(), wire.len());
        conn.leftover = wire;
        let err = conn.read_one(|_, _, _| ()).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        assert_eq!(conn.leftover.len(), len, "{err:?} took bytes");
    }
}

/// Every GET the client makes is rendered with an empty body, and says so.
#[test]
fn get_requests_carry_no_body() {
    let mut conn = unlinked();
    let paths = [
        "/health",
        "/sessions/default/status",
        "/metrics",
        "/sessions/default/trace",
    ];
    for path in paths {
        conn.render(WireFormat::Json, Method::Get, path, |_| {});
        let text = String::from_utf8(std::mem::take(&mut conn.wire)).unwrap();
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
