//! Integration: the deterministic chaos scenario end to end.
//!
//! Under seeded WAN link flaps and a policy-replica outage the Montage run
//! must still complete, the policy memory of the surviving replica must
//! drain, and — the acceptance criterion for the fault-injection layer —
//! two runs with the same seed must reproduce the identical fault sequence
//! and makespan.

use pwm_bench::{run_chaos, ChaosConfig};
use pwm_sim::{SimDuration, SimTime};

/// A compact scenario so debug-mode runs stay quick: two WAN flaps, one
/// degradation window, and a 45 s replica-crash outage early in the run.
fn scenario() -> ChaosConfig {
    ChaosConfig {
        extra_file_bytes: 2_000_000,
        flaps: 2,
        degradations: 1,
        fault_horizon: SimDuration::from_secs(150),
        outage_start: SimTime::from_secs(30),
        outage_duration: SimDuration::from_secs(45),
        timeout_glitches: 1,
        transfer_failure_prob: 0.0,
        ..ChaosConfig::default()
    }
}

#[test]
fn montage_survives_link_flaps_and_a_replica_outage() {
    let report = run_chaos(&scenario(), 3);
    assert!(
        report.stats.success,
        "chaos must degrade the run, not break it"
    );
    // Makespan is finite and strictly positive.
    let makespan = report.makespan_secs();
    assert!(makespan.is_finite() && makespan > 0.0);
    // The outage fell inside the run, so the replica chain failed over.
    assert!(report.injected_service_failures >= 1, "outage never hit");
    assert!(report.failovers >= 1, "replica crash must drive failover");
    // Executor-side ledger: every staged byte was cleaned up again.
    assert_eq!(report.stats.final_scratch_bytes, 0.0);
    // Service-side ledger: the surviving (post-failover) replica drains to
    // zero — nothing in flight, no streams still allocated.
    let backup = report.backup_snapshot.expect("two replicas configured");
    assert_eq!(backup.in_progress_transfers, 0);
    assert_eq!(backup.staging_files, 0);
    assert_eq!(backup.in_progress_cleanups, 0);
    assert!(backup.host_pairs.iter().all(|hp| hp.allocated == 0));
}

#[test]
fn same_seed_reproduces_fault_sequence_and_makespan() {
    let cfg = scenario();
    let a = run_chaos(&cfg, 17);
    let b = run_chaos(&cfg, 17);
    // Bit-for-bit identical fault schedule and outcome.
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.stats.makespan, b.stats.makespan);
    assert_eq!(a.stats.transfer_retries, b.stats.transfer_retries);
    assert_eq!(a.injected_service_failures, b.injected_service_failures);
    assert_eq!(a.failovers, b.failovers);
    // A different seed perturbs the schedule and hence the makespan.
    let c = run_chaos(&cfg, 18);
    assert_ne!(a.stats.makespan, c.stats.makespan);
    assert_ne!(a.fault_events, c.fault_events);
}

#[test]
fn policy_outage_degrades_to_default_streams_without_aborting() {
    // Single replica, no backup: an outage spanning most of the run forces
    // the executor onto its fallback (execute the submitted list with the
    // default stream count) instead of aborting.
    let cfg = ChaosConfig {
        replicas: 1,
        link_faults: false,
        outage_start: SimTime::from_secs(5),
        outage_duration: SimDuration::from_secs(600),
        ..scenario()
    };
    let report = run_chaos(&cfg, 9);
    assert!(
        report.stats.success,
        "a policy outage must never abort the workflow"
    );
    assert!(report.injected_service_failures > 0);
    assert_eq!(report.failovers, 0, "no backup replica to fail over to");
    assert!(report.stats.bytes_staged > 0.0);
    assert_eq!(report.stats.final_scratch_bytes, 0.0);
}
