//! Policy Service front-end throughput benchmark (`repro svc`).
//!
//! Drives the event-driven REST server end to end — keep-alive HTTP,
//! pipelined advice windows, the batched `evaluate_transfer_groups` path,
//! and the sharded policy service — and measures sustained advice requests
//! per wall-clock second over a grid of (shards × pipeline depth) cells.
//! The `noreuse` cell is the baseline: a single unsharded shard, one
//! request per round-trip, and a fresh TCP connection per request —
//! exactly how the pre-change client talked to the thread-per-connection
//! server (one connect per advice call, no keep-alive, no pipelining).
//! The keep-alive `depth1` cell isolates what connection reuse alone
//! buys; the deeper cells add pipelining and server-side batching. The
//! headline numbers in `BENCH_svc.json` are the best cell's req/s and its
//! speedup over the baseline, measured in the same run; DESIGN.md §10
//! explains how to read them.
//!
//! Workload: `sessions` logical workflow sessions (distinct workflow ids
//! and staged files across 64 host pairs, so a sharded service spreads
//! them over its ring). A warmup pass stages every session's file once;
//! the measured phase then cycles advice requests over all sessions —
//! steady-state duplicate-suppression traffic, the hot path of the paper's
//! shared-staging scenario — from `connections` concurrent client threads,
//! each pipelining `depth` requests per window. No durability in any cell:
//! the bench measures the advice path, not fsync.

use pwm_core::{
    PolicyConfig, PolicyController, PolicyTransport, TransferOutcome, TransferSpec, Url, WorkflowId,
};
use pwm_obs::{global_logger, HistogramSnapshot, JsonValue};
use pwm_rest::{PolicyRestClient, PolicyRestServer, ServerLimits};
use std::time::{Duration, Instant};

/// Distinct (source host, dest host) pairs the workload spreads over; the
/// shard ring hashes these, so every shard owns a slice of the traffic.
const HOST_PAIRS: usize = 64;

/// One grid cell: a shard count and a pipeline depth over a fixed workload.
#[derive(Debug, Clone)]
pub struct SvcbenchScenario {
    /// Cell name as it appears in `BENCH_svc.json`.
    pub label: String,
    /// Policy-service shards (1 = the paper's centralized service).
    pub shards: u16,
    /// Requests pipelined per window (1 = one request per round-trip).
    pub depth: usize,
    /// Concurrent client threads, each with its own keep-alive connection.
    pub connections: usize,
    /// Reuse connections (keep-alive)? `false` reproduces the pre-change
    /// client: one TCP connect per request. Only the baseline cell sets it.
    pub keepalive: bool,
    /// Logical workflow sessions (distinct dedup streams) kept concurrent.
    pub sessions: usize,
    /// Advice requests to issue in the measured phase.
    pub requests: u64,
}

/// The full grid: shards × depth, all over the same 10k-session workload.
/// The first cell is the baseline the speedups are computed against.
pub fn standard_suite() -> Vec<SvcbenchScenario> {
    let mut cells = vec![SvcbenchScenario {
        label: "shards1-depth1-noreuse".into(),
        shards: 1,
        depth: 1,
        connections: 4,
        keepalive: false,
        sessions: 10_000,
        requests: 20_000,
    }];
    for &shards in &[1u16, 4] {
        for &depth in &[1usize, 8, 32] {
            cells.push(SvcbenchScenario {
                label: format!("shards{shards}-depth{depth}"),
                shards,
                depth,
                connections: 4,
                keepalive: true,
                sessions: 10_000,
                // Deeper pipelines are faster; give them more requests so
                // every cell's timed window stays meaningful.
                requests: 30_000 + 30_000 * depth.min(8) as u64,
            });
        }
    }
    cells
}

/// The CI smoke grid: tiny workload, three cells — enough to assert the
/// batched path is actually faster than request-per-round-trip.
pub fn smoke_suite() -> Vec<SvcbenchScenario> {
    [(1u16, 1usize, false), (1, 16, true), (2, 16, true)]
        .iter()
        .map(|&(shards, depth, keepalive)| SvcbenchScenario {
            label: if keepalive {
                format!("shards{shards}-depth{depth}")
            } else {
                format!("shards{shards}-depth{depth}-noreuse")
            },
            shards,
            depth,
            connections: 2,
            keepalive,
            sessions: 500,
            requests: if keepalive { 6_000 } else { 3_000 },
        })
        .collect()
}

/// What one cell measured.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The configuration that produced this result.
    pub scenario: SvcbenchScenario,
    /// Requests actually issued (rounded to whole windows per thread).
    pub requests: u64,
    /// Wall-clock seconds for the measured phase.
    pub wall_secs: f64,
    /// Advice requests per wall-clock second — the headline throughput.
    pub req_per_sec: f64,
    /// Amortized per-request latency distribution in microseconds
    /// (window round-trip time divided by its depth).
    pub latency: HistogramSnapshot,
}

impl CellResult {
    /// Latency quantile in microseconds.
    pub fn latency_us(&self, q: f64) -> u64 {
        self.latency.quantile(q).unwrap_or(0)
    }
}

/// The logical session `j`'s transfer spec: a stable file and host pair,
/// so the first request stages it and every later one is a duplicate.
fn session_spec(j: usize) -> TransferSpec {
    let p = j % HOST_PAIRS;
    TransferSpec {
        source: Url::new("gsiftp", format!("gridftp-{p}"), format!("/data/s{j}.dat")),
        dest: Url::new("file", format!("scratch-{p}"), format!("/scratch/s{j}.dat")),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: WorkflowId(j as u64),
        cluster: None,
        priority: None,
    }
}

/// Run one grid cell: start a fresh server with the right shard count,
/// stage every session once (warmup), then hammer the advice path.
pub fn run_cell(s: &SvcbenchScenario) -> CellResult {
    let session = "svc";
    let config = PolicyConfig::default().with_default_streams(4);
    let controller = PolicyController::new(config.clone());
    controller.create_sharded_session(session, config, s.shards);
    let server = PolicyRestServer::start_with_limits(
        controller,
        ServerLimits {
            read_timeout: Duration::from_secs(30),
            max_body: 16 << 20,
        },
    )
    .expect("bind svcbench server");
    let addr = server.addr();

    // Warmup: stage every logical session's file once, in big pipelined
    // windows, and report each staging complete. This populates the dedup
    // working set ("concurrent sessions" = staged resources the measured
    // phase dedups against) and warms the keep-alive path. Reporting
    // completion matters: an unreported transfer stays InProgress in
    // policy memory forever, and a workload that never completes anything
    // measures unbounded memory growth, not steady-state advice.
    {
        let mut client = PolicyRestClient::new(addr, session);
        let specs: Vec<Vec<TransferSpec>> =
            (0..s.sessions).map(|j| vec![session_spec(j)]).collect();
        for chunk in specs.chunks(256) {
            let advice = client
                .evaluate_transfers_pipelined(chunk)
                .expect("warmup window");
            let outcomes: Vec<TransferOutcome> = advice
                .iter()
                .flatten()
                .filter(|a| a.should_execute())
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect();
            if !outcomes.is_empty() {
                client.report_transfers(outcomes).expect("warmup report");
            }
        }
    }

    // Measured phase: `connections` threads, each cycling its slice of the
    // sessions in pipelined windows of `depth`. The load generator works
    // like wrk: each session's request is rendered to wire bytes once and
    // replayed, and responses are split on the HTTP framing without
    // decoding advice bodies (the warmup already validated those) — the
    // client must not spend its share of the core re-serializing JSON the
    // server is being benchmarked on.
    let windows_per_thread = (s.requests as usize / s.connections / s.depth).max(1);
    let started = Instant::now();
    let mut threads = Vec::new();
    for t in 0..s.connections {
        let sessions = s.sessions;
        let connections = s.connections;
        let depth = s.depth;
        let keepalive = s.keepalive;
        threads.push(std::thread::spawn(move || {
            use std::io::{Read, Write};
            // Pre-render this thread's slice: sessions congruent to
            // t mod connections.
            let wire: Vec<Vec<u8>> = (0..sessions)
                .skip(t)
                .step_by(connections.max(1))
                .map(|j| {
                    let body = serde_json::to_vec(&pwm_rest::TransferRequestEnvelope {
                        transfers: vec![session_spec(j)],
                    })
                    .expect("render request body");
                    pwm_rest::http::render_request(
                        pwm_rest::WireFormat::Json,
                        pwm_rest::Method::Post,
                        &format!("/sessions/{session}/transfers"),
                        &body,
                        keepalive,
                    )
                })
                .collect();
            let mut latency = HistogramSnapshot::new();
            let mut cursor = 0usize;
            let mut rbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
            let mut chunk = [0u8; 16 * 1024];
            if !keepalive {
                // Pre-change client behavior: a fresh TCP connection per
                // request, one request per round-trip, `Connection: close`.
                for _ in 0..windows_per_thread * depth {
                    let req = &wire[cursor % wire.len()];
                    cursor += 1;
                    let t0 = Instant::now();
                    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    stream.write_all(req).expect("write request");
                    rbuf.clear();
                    loop {
                        if let Some((status, _body, _consumed)) =
                            pwm_rest::http::try_parse_response(&rbuf).expect("parse response")
                        {
                            assert_eq!(status, 200, "advice request failed");
                            break;
                        }
                        let n = stream.read(&mut chunk).expect("read response");
                        assert!(n > 0, "server closed before responding");
                        rbuf.extend_from_slice(&chunk[..n]);
                    }
                    latency.record(t0.elapsed().as_micros() as u64);
                }
                return latency;
            }
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut window = Vec::new();
            for _ in 0..windows_per_thread {
                window.clear();
                for _ in 0..depth {
                    window.extend_from_slice(&wire[cursor % wire.len()]);
                    cursor += 1;
                }
                let t0 = Instant::now();
                stream.write_all(&window).expect("write window");
                let mut answered = 0usize;
                rbuf.clear();
                while answered < depth {
                    while let Some((status, _body, consumed)) =
                        pwm_rest::http::try_parse_response(&rbuf).expect("parse response")
                    {
                        assert_eq!(status, 200, "advice request failed");
                        rbuf.drain(..consumed);
                        answered += 1;
                        if answered == depth {
                            break;
                        }
                    }
                    if answered == depth {
                        break;
                    }
                    let n = stream.read(&mut chunk).expect("read responses");
                    assert!(n > 0, "server closed mid-window");
                    rbuf.extend_from_slice(&chunk[..n]);
                }
                let us = t0.elapsed().as_micros() as u64;
                latency.record(us / depth as u64);
            }
            latency
        }));
    }
    let mut latency = HistogramSnapshot::new();
    for t in threads {
        latency.merge(&t.join().expect("client thread"));
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let requests = (windows_per_thread * s.depth * s.connections) as u64;
    drop(server);
    CellResult {
        scenario: s.clone(),
        requests,
        wall_secs,
        req_per_sec: requests as f64 / wall_secs,
        latency,
    }
}

/// Run a suite and log per-cell progress. The `(shards=1, depth=1)` cell
/// must be present — it is the speedup baseline.
pub fn run_suite(suite: &[SvcbenchScenario]) -> Vec<CellResult> {
    let log = global_logger();
    let mut results = Vec::with_capacity(suite.len());
    for s in suite {
        log.info(&format!(
            "svcbench: {} — {} sessions, {} conns, {} reqs",
            s.label, s.sessions, s.connections, s.requests
        ));
        let r = run_cell(s);
        log.info(&format!(
            "svcbench: {}: {:.0} req/s (p50 {}µs, p99 {}µs, {} reqs in {:.2}s)",
            s.label,
            r.req_per_sec,
            r.latency_us(0.50),
            r.latency_us(0.99),
            r.requests,
            r.wall_secs,
        ));
        results.push(r);
    }
    results
}

/// The baseline cell of a result set: single shard, one request per
/// round-trip, and — when such a cell exists — no connection reuse (the
/// pre-change client). Falls back to a keep-alive depth-1 cell so partial
/// grids still report speedups against *something* unbatched.
pub fn baseline(results: &[CellResult]) -> Option<&CellResult> {
    let depth1 = |r: &&CellResult| r.scenario.shards == 1 && r.scenario.depth == 1;
    results
        .iter()
        .find(|r| depth1(r) && !r.scenario.keepalive)
        .or_else(|| results.iter().find(depth1))
}

/// The highest-throughput cell.
pub fn best(results: &[CellResult]) -> Option<&CellResult> {
    results
        .iter()
        .max_by(|a, b| a.req_per_sec.total_cmp(&b.req_per_sec))
}

/// The best cell's throughput over the baseline's (`--min-speedup` floors
/// it): NaN without a baseline cell, 0 without any cell.
pub fn best_speedup(results: &[CellResult]) -> f64 {
    let base = baseline(results).map(|r| r.req_per_sec).unwrap_or(f64::NAN);
    best(results).map(|r| r.req_per_sec / base).unwrap_or(0.0)
}

/// Render a result set as the `BENCH_svc.json` document.
pub fn report_json(results: &[CellResult]) -> JsonValue {
    let base_rps = baseline(results).map(|r| r.req_per_sec).unwrap_or(f64::NAN);
    let cells = results
        .iter()
        .map(|r| {
            JsonValue::Obj(vec![
                ("label".into(), JsonValue::Str(r.scenario.label.clone())),
                ("shards".into(), JsonValue::Int(r.scenario.shards as i64)),
                ("depth".into(), JsonValue::Int(r.scenario.depth as i64)),
                (
                    "connections".into(),
                    JsonValue::Int(r.scenario.connections as i64),
                ),
                ("keepalive".into(), JsonValue::Bool(r.scenario.keepalive)),
                (
                    "concurrent_sessions".into(),
                    JsonValue::Int(r.scenario.sessions as i64),
                ),
                ("requests".into(), JsonValue::Int(r.requests as i64)),
                ("wall_secs".into(), JsonValue::Float(r.wall_secs)),
                ("req_per_sec".into(), JsonValue::Float(r.req_per_sec)),
                (
                    "latency_us_p50".into(),
                    JsonValue::Int(r.latency_us(0.50) as i64),
                ),
                (
                    "latency_us_p95".into(),
                    JsonValue::Int(r.latency_us(0.95) as i64),
                ),
                (
                    "latency_us_p99".into(),
                    JsonValue::Int(r.latency_us(0.99) as i64),
                ),
                (
                    "speedup_vs_baseline".into(),
                    JsonValue::Float(r.req_per_sec / base_rps),
                ),
            ])
        })
        .collect();
    let best_cell = best(results);
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("svcbench".into())),
        (
            "units".into(),
            JsonValue::Str(
                "req_per_sec: advice requests per wall-clock second; latency_us_*: amortized per-request round-trip"
                    .into(),
            ),
        ),
        (
            "baseline".into(),
            JsonValue::Str(
                baseline(results)
                    .map(|r| {
                        if r.scenario.keepalive {
                            format!("{} (unsharded, one request per round-trip)", r.scenario.label)
                        } else {
                            format!(
                                "{} (unsharded, one request per round-trip, fresh TCP connection per request — the pre-change client)",
                                r.scenario.label
                            )
                        }
                    })
                    .unwrap_or_default(),
            ),
        ),
        (
            "best_label".into(),
            JsonValue::Str(best_cell.map(|r| r.scenario.label.clone()).unwrap_or_default()),
        ),
        (
            "best_req_per_sec".into(),
            JsonValue::Float(best_cell.map(|r| r.req_per_sec).unwrap_or(0.0)),
        ),
        (
            "best_speedup_vs_baseline".into(),
            JsonValue::Float(best_speedup(results)),
        ),
        ("cells".into(), JsonValue::Arr(cells)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_runs_and_reports() {
        let s = SvcbenchScenario {
            label: "tiny".into(),
            shards: 2,
            depth: 4,
            connections: 2,
            keepalive: true,
            sessions: 40,
            requests: 160,
        };
        let r = run_cell(&s);
        assert!(r.requests >= 80);
        assert!(r.req_per_sec > 0.0);
        let doc = report_json(&[r]);
        let text = doc.render();
        JsonValue::parse(&text).expect("svcbench JSON must parse");
    }

    #[test]
    fn baseline_and_best_are_found() {
        let mk = |label: &str, shards: u16, depth: usize, keepalive: bool, rps: f64| CellResult {
            scenario: SvcbenchScenario {
                label: label.into(),
                shards,
                depth,
                connections: 1,
                keepalive,
                sessions: 1,
                requests: 1,
            },
            requests: 1,
            wall_secs: 1.0,
            req_per_sec: rps,
            latency: HistogramSnapshot::new(),
        };
        let results = vec![
            mk("shards1-depth1-noreuse", 1, 1, false, 60.0),
            mk("shards1-depth1", 1, 1, true, 100.0),
            mk("shards4-depth32", 4, 32, true, 900.0),
        ];
        assert_eq!(
            baseline(&results).unwrap().scenario.label,
            "shards1-depth1-noreuse"
        );
        assert_eq!(best(&results).unwrap().scenario.label, "shards4-depth32");
        // Without a no-reuse cell the keep-alive depth-1 cell is the fallback.
        assert_eq!(
            baseline(&results[1..]).unwrap().scenario.label,
            "shards1-depth1"
        );
    }
}
