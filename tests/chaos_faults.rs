//! Integration: the deterministic chaos scenario end to end.
//!
//! Under seeded WAN link flaps and a policy-replica outage the Montage run
//! must still complete and keep [`ChaosReport::violations`]' invariants:
//! every staged byte cleaned up, the surviving replica's policy memory
//! drained — and two runs with the same seed must reproduce the identical
//! fault sequence and makespan. With one replica, the makespan and the
//! policy calls a nested outage refused are pinned.
//!
//! [`ChaosReport::violations`]: pwm_bench::ChaosReport::violations

use pwm_bench::{run_chaos, ChaosConfig};
use pwm_sim::{SimDuration, SimTime};

#[test]
fn montage_survives_link_flaps_and_a_replica_outage() {
    let report = run_chaos(&ChaosConfig::compact(), 3);
    let violations = report.violations();
    assert!(violations.is_empty(), "violations: {violations:?}");
    // The outage fell inside the run, so the replica chain failed over.
    assert!(report.injected_service_failures >= 1, "outage never hit");
    assert!(report.failovers >= 1, "replica crash must drive failover");
    assert!(report.backup_snapshot.is_some(), "two replicas configured");
}

#[test]
fn same_seed_reproduces_fault_sequence_and_makespan() {
    let cfg = ChaosConfig::compact();
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
        ..ChaosConfig::compact()
    };
    let report = run_chaos(&cfg, 9);
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "a policy outage must never abort the workflow: {violations:?}"
    );
    assert!(report.injected_service_failures > 0);
    assert_eq!(report.failovers, 0, "no backup replica to fail over to");
    assert!(report.stats.bytes_staged > 0.0);
}

/// `[start, end)` of a fault fingerprint line such as
/// `[30.000000s, 75.000000s) Outage`, in seconds.
fn window(line: &str) -> (f64, f64) {
    let (start, rest) = line
        .trim_start_matches('[')
        .split_once("s, ")
        .expect("a window");
    let end = rest.split_once("s)").expect("a window").0;
    (start.parse().unwrap(), end.parse().unwrap())
}

#[test]
fn one_replica_golden_holds_the_replica_down_through_a_nested_timeout() {
    // One replica, so every call the outage refuses reaches the executor's
    // fallback, and seed 5 puts the timeout glitch inside the outage: the
    // glitch's end must not bring the replica back. The three values were
    // printed by the build whose policy faults were a wrapper transport
    // reading a shared clock; never regenerate them to make a change pass.
    let cfg = ChaosConfig {
        replicas: 1,
        ..ChaosConfig::compact()
    };
    let report = run_chaos(&cfg, 5);
    let service: Vec<&String> = report
        .fault_events
        .iter()
        .filter(|e| !e.contains("LinkFault"))
        .collect();
    assert_eq!(service.len(), 2, "{service:?}");
    let (outage, glitch) = (window(service[0]), window(service[1]));
    assert!(service[0].ends_with("Outage") && service[1].ends_with("Timeout"));
    assert!(
        outage.0 < glitch.0 && glitch.1 < outage.1,
        "the timeout {glitch:?} lies inside the outage {outage:?}"
    );
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert_eq!(report.injected_service_failures, 1717);
    assert_eq!(report.service_calls_passed, 341);
    assert_eq!(report.stats.makespan, SimDuration::from_micros(143_842_528));
}
