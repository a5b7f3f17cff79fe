//! Equivalence and determinism of the incremental component-local rate
//! allocator (`pwm-net`).
//!
//! The allocator-level proptest (`crates/net/src/sharing.rs`) already shows
//! the scratch-buffer progressive filling matches the naive reference within
//! 1e-6 relative on random topologies. These tests close the loop at the
//! system level: a full `Network` driven through churn produces the same
//! transfers whether rates come from the incremental engine (the default)
//! or the preserved full-recompute baseline (`set_full_recompute`), the
//! incremental engine does less allocator work and writes (almost) no rate
//! that did not move, and a same-seed `MontageExperiment::run_once` is
//! exactly reproducible.

use pwm_bench::{MontageExperiment, PolicyMode};
use pwm_net::{AllocStats, FlowSpec, Network, SimDuration, SimTime, StreamModel, Topology};

/// A small multi-cluster topology: three disjoint host pairs with their own
/// WAN links plus one pair sharing the first cluster's destination, so the
/// flow↔link graph has both isolated components and a shared one.
fn test_topology() -> (Topology, Vec<(pwm_net::HostId, pwm_net::HostId)>) {
    let mut t = Topology::new();
    let mut pairs = Vec::new();
    for i in 0..3 {
        let src = t.add_host(format!("src{i}"), 50.0e6 + i as f64 * 10.0e6);
        let dst = t.add_host(format!("dst{i}"), 40.0e6);
        let wan = t.add_link(
            format!("wan{i}"),
            3.0e6 + i as f64 * 2.0e6,
            SimDuration::from_millis(20 + i as u64 * 10),
        );
        t.set_route(src, dst, vec![wan]);
        pairs.push((src, dst));
    }
    // A fourth source funnels into dst0, entangling it with cluster 0.
    let extra = t.add_host("extra", 60.0e6);
    let dst0 = pairs[0].1;
    let wan = t.add_link("wan-extra", 4.0e6, SimDuration::from_millis(15));
    t.set_route(extra, dst0, vec![wan]);
    pairs.push((extra, dst0));
    (t, pairs)
}

/// What one churn run did: every completed transfer as `(tag, completed_at,
/// bytes)` sorted by tag, the number of `advance` calls, and the allocator's
/// counters.
struct Churn {
    done: Vec<(u64, SimTime, f64)>,
    events: u64,
    stats: AllocStats,
}

/// Drive a churn workload under `model` over the first `clusters` pairs of
/// [`test_topology`], `per_cluster` flows each at the start — every
/// completion replaced until 120 flows have been started, then drain.
fn run_workload(
    model: StreamModel,
    full_recompute: bool,
    clusters: usize,
    per_cluster: usize,
) -> Churn {
    let (topo, pairs) = test_topology();
    let mut net = Network::with_seed(topo, model, 99);
    net.set_full_recompute(full_recompute);
    let total = 120u64;
    let mut next_tag = 0u64;
    let start = |net: &mut Network, cluster: usize, tag: u64| {
        let (src, dst) = pairs[cluster];
        net.start_flow(
            net.now(),
            FlowSpec {
                src,
                dst,
                bytes: 8.0e6 + (tag % 7) as f64 * 3.0e6,
                streams: 1 + (tag % 6) as u32,
                tag: tag * 8 + cluster as u64,
            },
        );
    };
    for cluster in 0..clusters {
        for _ in 0..per_cluster {
            start(&mut net, cluster, next_tag);
            next_tag += 1;
        }
    }
    let mut done = Vec::new();
    let mut events = 0u64;
    for _ in 0..100_000 {
        let Some(t) = net.next_wakeup() else { break };
        net.advance(t);
        events += 1;
        for r in net.take_completed() {
            let cluster = (r.tag % 8) as usize;
            done.push((r.tag, r.completed_at, r.bytes));
            if next_tag < total {
                start(&mut net, cluster, next_tag);
                next_tag += 1;
            }
        }
        if net.live_flow_count() == 0 {
            break;
        }
    }
    assert_eq!(done.len() as u64, total, "workload must drain completely");
    done.sort_by_key(|(tag, _, _)| *tag);
    Churn {
        done,
        events,
        stats: net.alloc_stats(),
    }
}

/// The incremental engine and the full-recompute baseline agree on *what*
/// completes and *when*. Completion times are compared at 0.1% relative:
/// beyond float-summation noise, the incremental engine deliberately stops
/// chasing the slow-start exponential tail once a flow is `ramp_done`
/// (caps freeze at ≥ 99.3% of asymptote instead of being re-evaluated
/// forever), which shifts completion times by a few parts in 1e5.
///
/// Weight jitter is disabled so the per-flow RNG draw order (which can
/// legitimately differ between modes when near-simultaneous completions
/// swap) cannot alter flow weights; everything else is the default model,
/// turbulence included.
#[test]
fn incremental_matches_full_recompute_end_to_end() {
    let model = StreamModel {
        flow_weight_jitter: 0.0,
        ..StreamModel::default()
    };
    let incremental = run_workload(model.clone(), false, 4, 5).done;
    let full = run_workload(model, true, 4, 5).done;
    assert_eq!(
        incremental.len(),
        full.len(),
        "modes completed different transfer counts"
    );
    for ((tag_i, at_i, bytes_i), (tag_f, at_f, bytes_f)) in incremental.iter().zip(&full) {
        assert_eq!(tag_i, tag_f, "completion order diverged");
        assert_eq!(bytes_i, bytes_f);
        let a = at_i.as_secs_f64();
        let b = at_f.as_secs_f64();
        assert!(
            (a - b).abs() <= 1e-3 * b.max(1.0),
            "flow {tag_i} completed at {a} (incremental) vs {b} (full)"
        );
    }
}

/// Under the default model (turbulence and slow-start on, what the figures
/// run) the incremental engine re-writes at most about one unmoved rate per
/// event: a ramping flow's rising cap marks its links dirty only while that
/// cap binds. Without that gate every event re-allocates every ramping
/// flow's component (~40 unchanged writes per event on this run). The
/// whole-stack benchmark applies the same predicate to `netsim_turbulent`.
///
/// The predicate is about crowded, link-limited clusters: ten flows on each
/// of the three disjoint pairs. The entangled fourth pair, and clusters thin
/// enough that a flow's own cap binds, legitimately re-run a component in
/// which some rates stand still.
#[test]
fn turbulent_churn_suppresses_unchanged_writes() {
    let churn = run_workload(StreamModel::default(), false, 3, 10);
    assert!(churn.events > 0 && churn.stats.flows_allocated > 0);
    assert!(
        churn.stats.unchanged_writes <= churn.events + 32,
        "{} unchanged rate writes over {} events ({} flow slots allocated)",
        churn.stats.unchanged_writes,
        churn.events,
        churn.stats.flows_allocated,
    );
}

/// The incremental engine does strictly less allocation work than the
/// baseline on the same workload — the allocator's own counters must show
/// it, not just wall-clock.
#[test]
fn incremental_allocates_fewer_flow_slots() {
    let run_stats = |full: bool| {
        let (topo, pairs) = test_topology();
        // Clean model: no turbulence or slow-start, so the only dirty links
        // are the ones membership actually changed and disjoint clusters
        // stay out of each other's components.
        let model = StreamModel {
            turbulence_per_event: 0.0,
            flow_weight_jitter: 0.0,
            ramp_tau: SimDuration::ZERO,
            ..StreamModel::default()
        };
        let mut net = Network::with_seed(topo, model, 7);
        net.set_full_recompute(full);
        for (cluster, &(src, dst)) in pairs.iter().enumerate() {
            for j in 0..4u64 {
                net.start_flow(
                    net.now(),
                    FlowSpec {
                        src,
                        dst,
                        bytes: 5.0e6,
                        streams: 2 + j as u32,
                        tag: cluster as u64,
                    },
                );
            }
        }
        net.run_to_completion(SimTime::from_secs(4000));
        assert_eq!(net.live_flow_count(), 0, "workload must drain");
        net.alloc_stats()
    };
    let inc = run_stats(false);
    let full = run_stats(true);
    assert!(
        inc.flows_allocated < full.flows_allocated,
        "incremental allocated {} flow-slots, full {}",
        inc.flows_allocated,
        full.flows_allocated
    );
    assert!(inc.skipped > 0, "no recompute was ever skipped");
}

/// Same-seed `MontageExperiment::run_once` is exactly reproducible: every
/// field of `RunStats`, including each transfer record, compares equal.
#[test]
fn same_seed_run_once_produces_identical_run_stats() {
    let exp = MontageExperiment::paper_setup(100_000_000, 8, PolicyMode::Greedy { threshold: 50 });
    let a = exp.run_once(1234);
    let b = exp.run_once(1234);
    assert_eq!(a, b, "same-seed runs diverged");
    assert!(a.success);
    assert!(!a.transfers.is_empty());
}
