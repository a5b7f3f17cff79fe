//! Integration: the unified observability subsystem end to end — a traced
//! seeded Montage run exporting a Chrome-trace flame timeline, and a
//! Prometheus `/metrics` scrape over the REST interface after real policy
//! traffic.

use pwm_bench::{mb, MontageExperiment, PolicyMode};
use pwm_core::transport::PolicyTransport;
use pwm_core::{PolicyConfig, PolicyController, TransferSpec, Url, WorkflowId};
use pwm_obs::{validate_chrome_trace, JsonValue};
use pwm_rest::{
    http, Method, PolicyRestClient, PolicyRestServer, TransferRequestEnvelope, WireFormat,
};
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
