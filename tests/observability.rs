//! Integration: the unified observability subsystem end to end — a traced
//! seeded Montage run exporting a Chrome-trace flame timeline, and a
//! Prometheus `/metrics` scrape over the REST interface after real policy
//! traffic.

use pwm_bench::{mb, MontageExperiment, PolicyMode};
use pwm_core::transport::PolicyTransport;
use pwm_core::{
    CleanupOutcome, CleanupSpec, PolicyConfig, PolicyController, TransferOutcome, TransferSpec,
    Url, WorkflowId, DEFAULT_SESSION,
};
use pwm_obs::{validate_chrome_trace, JsonValue};
use pwm_rest::{
    http, Method, PolicyRestClient, PolicyRestServer, TransferRequestEnvelope, WireFormat,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

fn small_experiment() -> MontageExperiment {
    MontageExperiment::paper_setup(mb(1), 4, PolicyMode::Greedy { threshold: 50 })
}

#[test]
fn traced_montage_run_round_trips_through_chrome_trace() {
    let (stats, obs) = small_experiment().run_once_traced(1);
    assert!(stats.success);

    // The export is valid JSON with properly nested spans (the validator
    // checks every child against its parent's [ts, ts+dur] interval).
    let trace = obs.tracer.chrome_trace_json();
    let events = validate_chrome_trace(&trace).expect("export must validate");
    assert!(
        events > 500,
        "a Montage run yields many events, got {events}"
    );

    // The flame timeline carries every instrumented layer: workflow job
    // rows, transfer + net flow rows, policy RPC rows, and the policy
    // engine's evaluation instants.
    let doc = JsonValue::parse(&trace).expect("parseable");
    let rows = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    for cat in [
        "stage_in",
        "compute",
        "cleanup",
        "transfer",
        "net",
        "policy_rpc",
        "policy",
    ] {
        assert!(
            rows.iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat)),
            "no {cat} events in trace"
        );
    }
}

#[test]
fn same_seed_exports_identical_traces() {
    let a = small_experiment()
        .run_once_traced(3)
        .1
        .tracer
        .chrome_trace_json();
    let b = small_experiment()
        .run_once_traced(3)
        .1
        .tracer
        .chrome_trace_json();
    assert_eq!(a, b, "sim-time tracing must be deterministic per seed");
    let c = small_experiment()
        .run_once_traced(4)
        .1
        .tracer
        .chrome_trace_json();
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn metrics_scrape_reflects_rest_traffic() {
    let controller = PolicyController::new(PolicyConfig::default());
    let server = PolicyRestServer::start(controller.clone()).unwrap();
    controller
        .set_sim_clock(
            pwm_core::DEFAULT_SESSION,
            pwm_core::SharedSimClock::default(),
        )
        .unwrap();
    let mut client = PolicyRestClient::new(server.addr(), pwm_core::DEFAULT_SESSION);

    for n in 0..3u32 {
        let advice = client
            .evaluate_transfers(vec![TransferSpec {
                source: Url::new("gsiftp", "gridftp-vm", format!("/d/f{n}.dat")),
                dest: Url::new("file", "obelix-nfs", format!("/s/f{n}.dat")),
                bytes: 1_000_000,
                requested_streams: None,
                workflow: WorkflowId(1),
                cluster: None,
                priority: None,
            }])
            .unwrap();
        assert!(advice[0].should_execute());
    }

    let text = client.metrics().unwrap();
    assert!(
        text.contains("pwm_policy_transfer_requests_total{session=\"default\"} 3"),
        "scrape missing request counter:\n{text}"
    );
    assert!(text.contains("# TYPE pwm_policy_advice_latency_micros histogram"));
    assert!(text.contains("pwm_rules_firings_total"));

    // The event loop publishes its own readiness/queue-depth series on the
    // same scrape.
    for metric in [
        "pwm_rest_event_loop_wakeups_total",
        "pwm_rest_requests_total",
        "pwm_rest_batched_requests_total",
        "pwm_rest_open_connections",
        "pwm_rest_write_backlog_bytes",
    ] {
        assert!(text.contains(metric), "scrape missing {metric}:\n{text}");
    }

    // The per-session trace dump validates too (evaluation instants were
    // stamped with the attached sim clock).
    let trace = client.trace().unwrap();
    let events = validate_chrome_trace(&trace).expect("session trace validates");
    assert!(events >= 3, "one instant per evaluation, got {events}");
}

/// A sharded session's counters appear once per shard under a `shard="N"`
/// label, and pipelined traffic drives the event loop's batched counter.
#[test]
fn sharded_session_metrics_carry_per_shard_labels() {
    let controller = PolicyController::new(PolicyConfig::default());
    controller.create_sharded_session("grid", PolicyConfig::default(), 4);
    let server = PolicyRestServer::start(controller).unwrap();
    let client = PolicyRestClient::new(server.addr(), "grid");

    // 32 requests over 32 distinct host pairs, pipelined in one window so
    // the event loop collapses them into batched rules passes.
    let mut window = Vec::new();
    for n in 0..32u32 {
        let transfers = vec![TransferSpec {
            source: Url::new("gsiftp", format!("gridftp-{n}"), format!("/d/f{n}.dat")),
            dest: Url::new("file", format!("scratch-{n}"), format!("/s/f{n}.dat")),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }];
        let body = serde_json::to_vec(&TransferRequestEnvelope { transfers }).unwrap();
        let path = "/sessions/grid/transfers";
        window.extend(http::render_request(
            WireFormat::Json,
            Method::Post,
            path,
            &body,
            true,
        ));
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&window).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let (mut received, mut answered) = (Vec::new(), 0);
    stream.read_to_end(&mut received).unwrap();
    while let Some((status, _, len)) = http::try_parse_response(&received).unwrap() {
        assert_eq!(status, 200);
        received.drain(..len);
        answered += 1;
    }
    assert_eq!((answered, received.len()), (32, 0));

    let text = client.metrics().unwrap();

    // Every shard that saw traffic reports under its own label, and the
    // per-shard counts add up to exactly the 32 requests issued — the
    // series partition the session's traffic, they don't duplicate it.
    let mut shards_seen = 0u32;
    let mut sum = 0u64;
    for line in text.lines() {
        if let Some(rest) =
            line.strip_prefix("pwm_policy_transfer_requests_total{session=\"grid\",shard=\"")
        {
            shards_seen += 1;
            let count = rest
                .split_once("\"} ")
                .expect("well-formed series line")
                .1
                .parse::<u64>()
                .expect("counter value");
            sum += count;
        }
    }
    assert!(
        shards_seen >= 2,
        "32 host pairs must spread over several shards:\n{text}"
    );
    assert_eq!(sum, 32, "per-shard request counters must sum to the total");

    // The batched path served the pipelined window.
    let batched = text
        .lines()
        .find(|l| l.starts_with("pwm_rest_batched_requests_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("batched counter present");
    assert!(
        batched >= 32,
        "a 32-deep pipelined window must be served by the batched path, got {batched}"
    );
}

/// The simulation event queue's health series reach the Prometheus render
/// end to end: a traced run (executor → network → queue) publishes
/// `sim_queue_*` gauges labeled `queue="ladder"`, and the ladder's geometry
/// series (current bucket / rungs / overflow) are present.
#[test]
fn queue_health_series_reach_the_metrics_render() {
    let (stats, obs) = small_experiment().run_once_traced(7);
    assert!(stats.success);
    let text = obs.registry.render_prometheus();
    for metric in [
        "sim_queue_depth{queue=\"ladder\"}",
        "sim_queue_current_bucket_events{queue=\"ladder\"}",
        "sim_queue_rung_events{queue=\"ladder\"}",
        "sim_queue_overflow_events{queue=\"ladder\"}",
        "sim_queue_active_rungs{queue=\"ladder\"}",
        "sim_queue_cancelled_total{queue=\"ladder\"}",
    ] {
        assert!(text.contains(metric), "scrape missing {metric}:\n{text}");
    }
    // The series carry parseable sample values (the engine moves ETAs with
    // in-place `reschedule`, so the cancel counter may legitimately read 0;
    // it must still render as a number).
    for name in ["sim_queue_depth", "sim_queue_cancelled_total"] {
        let v = text
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("{name} must render a numeric sample"));
        assert!(v.is_finite() && v >= 0.0, "{name} rendered {v}");
    }
}

/// Every sample of the metric `name` in a Prometheus render: its labels and
/// its value.
fn samples<'a>(text: &'a str, name: &str) -> Vec<(BTreeMap<&'a str, &'a str>, f64)> {
    let parse = |line: &'a str| {
        let (series, value) = line.rsplit_once(' ')?;
        let labels = series.strip_prefix(name)?.strip_prefix('{')?;
        let labels = (labels.strip_suffix('}')?.split(','))
            .filter_map(|pair| pair.split_once('='))
            .map(|(k, v)| (k, v.trim_matches('"')))
            .collect();
        Some((labels, value.parse().ok()?))
    };
    text.lines().filter_map(parse).collect()
}

/// A scrape reads `session`'s snapshot as it stands: each occupancy gauge
/// summed over the session's series (one per shard), and each host pair's
/// allocated and peak-allocated streams. Returns the shard labels seen.
fn assert_scrape_reads_snapshot(c: &PolicyController, session: &str, after: &str) -> Vec<String> {
    let text = c.render_metrics();
    let memory = c.snapshot(session).unwrap();
    let of_session = |name: &str| {
        let all = samples(&text, name).into_iter();
        all.filter(|(labels, _)| labels["session"] == session)
    };
    let occupancy = [
        ("in_progress_transfers", memory.in_progress_transfers),
        ("staged_files", memory.staged_files),
        ("staging_files", memory.staging_files),
        ("in_progress_cleanups", memory.in_progress_cleanups),
    ];
    for (name, n) in occupancy {
        let total: f64 = of_session(&format!("pwm_policy_{name}"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, n as f64, "{name} after {after}:\n{text}");
    }
    let pairs = |name: &str| {
        let mut pairs: Vec<_> = of_session(&format!("pwm_policy_{name}"))
            .map(|(labels, v)| (labels["src"].to_string(), labels["dst"].to_string(), v))
            .collect();
        pairs.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        pairs
    };
    let snapshot = |streams: fn(&pwm_core::HostPairSnapshot) -> u32| {
        (memory.host_pairs.iter())
            .map(|p| {
                (
                    p.src_host.to_string(),
                    p.dst_host.to_string(),
                    streams(p).into(),
                )
            })
            .collect::<Vec<_>>()
    };
    let allocated = snapshot(|p| p.allocated);
    assert_eq!(pairs("allocated_streams"), allocated, "after {after}");
    let peak = snapshot(|p| p.peak_allocated);
    assert_eq!(pairs("peak_allocated_streams"), peak, "after {after}");
    let mut shards: Vec<_> = of_session("pwm_policy_staged_files")
        .filter_map(|(labels, _)| Some(labels.get("shard")?.to_string()))
        .collect();
    shards.sort();
    shards
}

/// File `n` between the hosts of `pair`, for workflow `n`.
fn file(pair: u32, n: u32) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", format!("gridftp-{pair}"), format!("/d/f{n}.dat")),
        dest: Url::new("file", format!("scratch-{pair}"), format!("/s/f{n}.dat")),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: WorkflowId(u64::from(n)),
        cluster: None,
        priority: None,
    }
}

/// Evaluate `specs` on `session` and report every executed transfer done.
fn stage(c: &PolicyController, session: &str, specs: Vec<TransferSpec>) {
    let advice = c.evaluate_transfers(session, specs).unwrap();
    let done = advice.iter().filter(|a| a.should_execute());
    let done = done.map(|a| TransferOutcome {
        id: a.id,
        success: true,
    });
    c.report_transfers(session, done.collect()).unwrap();
}

/// Gauges are read when scraped, so a scrape after each call of a burst
/// reads policy memory as that call left it, however many facts the memory
/// holds and however close together the calls come.
#[test]
fn a_scrape_reads_occupancy_as_it_stands() {
    let c = PolicyController::new(PolicyConfig::default());
    let specs: Vec<_> = (0..600).map(|n| file(n % 4, n)).collect();
    for chunk in specs.chunks(50) {
        stage(&c, DEFAULT_SESSION, chunk.to_vec());
    }
    assert_eq!(c.snapshot(DEFAULT_SESSION).unwrap().staged_files, 600);
    let shards = assert_scrape_reads_snapshot(&c, DEFAULT_SESSION, "600 staged files");
    assert!(shards.is_empty(), "a one-shard session has no shard label");

    let advice = c.evaluate_transfers(DEFAULT_SESSION, vec![file(1, 600)]);
    let advice = advice.unwrap().remove(0);
    assert!(advice.should_execute());
    assert_scrape_reads_snapshot(&c, DEFAULT_SESSION, "an evaluate");
    let done = vec![TransferOutcome {
        id: advice.id,
        success: true,
    }];
    c.report_transfers(DEFAULT_SESSION, done).unwrap();
    assert_scrape_reads_snapshot(&c, DEFAULT_SESSION, "its report");
    let cleanup = CleanupSpec {
        file: advice.dest,
        workflow: WorkflowId(600),
    };
    let cleanup = c.evaluate_cleanups(DEFAULT_SESSION, vec![cleanup]);
    let cleanup = cleanup.unwrap().remove(0);
    assert!(cleanup.should_execute());
    assert_scrape_reads_snapshot(&c, DEFAULT_SESSION, "a cleanup");
    let done = vec![CleanupOutcome {
        id: cleanup.id,
        success: true,
    }];
    c.report_cleanups(DEFAULT_SESSION, done).unwrap();
    assert_scrape_reads_snapshot(&c, DEFAULT_SESSION, "its report");
    assert_eq!(c.snapshot(DEFAULT_SESSION).unwrap().staged_files, 600);
}

/// Each shard of a sharded session sets its own `shard="N"` gauges: summed,
/// they read the session's merged snapshot, and its host-pair series are the
/// snapshot's host pairs, each under the one shard that owns it.
#[test]
fn a_sharded_scrape_sums_to_the_session_snapshot() {
    let c = PolicyController::new(PolicyConfig::default());
    c.create_sharded_session("grid", PolicyConfig::default(), 4);
    // 48 files over 16 host pairs: the first 32 staged, the last 16 left in
    // progress, and cleanups of the first 8 left in progress too.
    let specs: Vec<_> = (0..48).map(|n| file(n % 16, n)).collect();
    stage(&c, "grid", specs[..32].to_vec());
    let advice = c.evaluate_transfers("grid", specs[32..].to_vec()).unwrap();
    assert!(advice.iter().all(|a| a.should_execute()));
    let cleanups = (specs[..8].iter()).map(|t| CleanupSpec {
        file: t.dest.clone(),
        workflow: t.workflow,
    });
    let cleanups = c.evaluate_cleanups("grid", cleanups.collect()).unwrap();
    assert!(cleanups.iter().all(|a| a.should_execute()));
    let memory = c.snapshot("grid").unwrap();
    assert_eq!(
        (memory.staged_files, memory.in_progress_transfers),
        (32, 16)
    );
    assert_eq!(
        (memory.in_progress_cleanups, memory.host_pairs.len()),
        (8, 16)
    );
    let shards = assert_scrape_reads_snapshot(&c, "grid", "the traffic");
    assert_eq!(
        shards,
        ["0", "1", "2", "3"],
        "every shard publishes its own"
    );
}
