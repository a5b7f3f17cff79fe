//! End-to-end determinism: the raw-speed core must not cost reproducibility.
//!
//! The arena fact store, the ladder event queue (in-place `reschedule`
//! instead of cancel + schedule), and the SoA flow table all recycle ids and
//! slots aggressively. Any order-sensitivity introduced there — iterating in
//! slot order instead of id order, a reschedule firing before a same-instant
//! tie it used to follow — would show up here first: two same-seed runs of
//! the full stack (workflow → policy → network → trace export) must be
//! *bit-identical*, not merely statistically close.
//!
//! Three probes:
//! - an untraced Montage run (`run_once`): full `RunStats` equality;
//! - a traced Montage run: full [`RunStats`] equality (every field, floats
//!   exact, including the per-transfer record stream) plus a byte-identical
//!   Chrome-trace export;
//! - a chaos run (WAN flaps + replica outage): full `RunStats` equality and
//!   an identical fault fingerprint.
//!
//! Seed sensitivity is asserted alongside, so the equalities can't be
//! trivially satisfied by an empty or constant artifact.

use pwm_bench::{mb, run_chaos, ChaosConfig, MontageExperiment, PolicyMode};

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

#[test]
fn same_seed_traced_runs_are_bit_identical() {
    let exp = MontageExperiment::paper_setup(mb(10), 8, PolicyMode::Greedy { threshold: 50 });
    let (stats_a, obs_a) = exp.run_once_traced(42);
    let (stats_b, obs_b) = exp.run_once_traced(42);

    // Full-struct equality: every counter, every float, and the complete
    // TransferRecord stream (source/dest/bytes/rates/timestamps per flow).
    assert_eq!(stats_a, stats_b, "same-seed RunStats diverged");
    assert!(stats_a.success);
    assert!(
        !stats_a.transfers.is_empty(),
        "equality would be vacuous without transfer records"
    );

    // The exported trace is byte-identical and well-formed.
    let trace_a = obs_a.tracer.chrome_trace_json();
    let trace_b = obs_b.tracer.chrome_trace_json();
    assert!(trace_a == trace_b, "same-seed trace exports differ");
    let events = pwm_obs::validate_chrome_trace(&trace_a).expect("valid Chrome trace");
    assert!(
        events > 100,
        "a traced Montage run should export many spans"
    );

    // A different seed perturbs both artifacts — the checks above are live.
    let (stats_c, obs_c) = exp.run_once_traced(43);
    assert_ne!(stats_a, stats_c, "seed must perturb RunStats");
    assert!(
        trace_a != obs_c.tracer.chrome_trace_json(),
        "seed must perturb the trace export"
    );
}

#[test]
fn same_seed_chaos_runs_are_bit_identical() {
    // The compact chaos scenario: two WAN flaps, a degradation window, and
    // a 45 s replica outage.
    let cfg = ChaosConfig::compact();
    let a = run_chaos(&cfg, 21);
    let b = run_chaos(&cfg, 21);

    // The whole RunStats — transfer records included — and the fault
    // fingerprint must match.
    assert_eq!(a.stats, b.stats, "same-seed chaos RunStats diverged");
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.injected_service_failures, b.injected_service_failures);
    assert_eq!(a.failovers, b.failovers);
    assert!(a.stats.success);
    assert!(!a.stats.transfers.is_empty());
    assert!(!a.fault_events.is_empty(), "chaos plan must be non-trivial");
}
