//! The chaos scenario: the paper's Montage experiment run under a
//! deterministic fault plan.
//!
//! Three fault classes are injected, each derived from the run seed so the
//! whole scenario is a pure function of `(config, seed)`:
//!
//! * **link flaps** — short full outages of the TACC→ISI WAN link
//!   (capacity → 0, in-flight transfers stall and resume),
//! * **link degradations** — longer windows where the WAN runs at a
//!   fraction of its capacity (in-flight flows re-share),
//! * **policy-service faults** — one replica-crash outage window plus
//!   seeded advice-timeout glitches on the primary replica, driving either
//!   [`FailoverTransport`] recovery (with a backup replica) or the
//!   executor's default-stream fallback (without one). Each is a
//!   [`CrashTarget::PolicyReplica`] window of the executor's recovery
//!   plan, like every other crash.
//!
//! [`run_chaos`] reports makespan, recovery statistics, and a fault-event
//! fingerprint that two same-seed runs must reproduce exactly;
//! [`chaos_ablation`] reruns the same seed under each fault class alone to
//! attribute the makespan inflation; [`repro`] is `repro chaos`: both, and
//! the invariants they must keep.
//!
//! `run_faulted` builds the stack this scenario and [`crate::crash`]
//! share: replica failover and warm log replay are the same run, configured
//! two ways.

use crate::experiment::PaperWorld;
use crate::SuiteOutput;
use pwm_core::transport::PolicyTransport;
use pwm_core::{
    AllocationPolicy, DurabilityConfig, FailoverTransport, MemorySnapshot, PolicyConfig,
    PolicyController, ServiceFault, WorkflowId, DEFAULT_SESSION,
};
use pwm_net::fault::{LinkFault, LinkFaultKind};
use pwm_net::{Network, StreamModel};
use pwm_rest::PolicyRestClient;
use pwm_sim::{seeded_windows, FaultPlan, SimDuration, SimRng, SimTime};
use pwm_workflow::{
    CrashTarget, ExecutorConfig, PlannerConfig, RecoveryConfig, RunStats, WorkflowExecutor,
};
use std::fmt::Write;

/// Default (and fallback) streams per transfer in both fault scenarios.
pub(crate) const DEFAULT_STREAMS: u32 = 4;
/// Greedy host-pair threshold in both fault scenarios.
pub(crate) const THRESHOLD: u32 = 50;

/// Called with the backup replica just before its first request.
pub(crate) type WarmHook = Box<dyn FnMut(&PolicyController) + Send>;

/// One Montage-under-faults run, as [`run_faulted`] builds it.
pub(crate) struct FaultedMontage {
    /// Extra WAN-staged bytes per staging job.
    pub extra_file_bytes: u64,
    /// Seeds the plan, the network and the executor.
    pub seed: u64,
    /// Transient transfer-failure probability (retried with backoff).
    pub transfer_failure_prob: f64,
    /// Windows on the WAN link.
    pub link_faults: FaultPlan<LinkFault>,
    /// Windows in which the primary replica refuses calls.
    pub service_faults: FaultPlan<ServiceFault>,
    /// Put a backup replica behind the primary in a failover chain.
    pub backup: bool,
    /// Run the primary's session durable (WAL, snapshots, crash point).
    pub durable: Option<DurabilityConfig>,
    /// Warms the backup (only with `backup`).
    pub warm: Option<WarmHook>,
}

/// Build and run the stack both fault scenarios share: `world`'s Montage
/// plan, a greedy primary (optionally followed by a backup) in a
/// [`FailoverTransport`] chain, the primary's service faults as windows of
/// the executor's recovery plan, and the paper's 75 ms callout with the
/// WAN watched.
pub(crate) fn run_faulted(world: PaperWorld, run: FaultedMontage) -> ChaosReport {
    let seed = run.seed;
    let mut fault_events = run.link_faults.describe();
    fault_events.extend(run.service_faults.describe());
    let executable = world.plan_montage(run.extra_file_bytes, seed, &PlannerConfig::default());
    let mut network = Network::with_seed(world.topology, StreamModel::default(), seed);
    network.set_fault_plan(run.link_faults);

    let policy = PolicyConfig::default()
        .with_default_streams(DEFAULT_STREAMS)
        .with_threshold(THRESHOLD)
        .with_allocation(AllocationPolicy::Greedy);
    let primary = PolicyController::new(policy.clone());
    if let Some(durability) = run.durable {
        primary
            .create_durable_session(DEFAULT_SESSION, policy.clone(), durability)
            .expect("durable primary session");
    }
    let backup = run.backup.then(|| PolicyController::new(policy));
    let replicas = [Some(&primary), backup.as_ref()]
        .into_iter()
        .flatten()
        .map(|c| Box::new(PolicyRestClient::pipe(c.clone(), DEFAULT_SESSION)) as _)
        .collect();
    let mut chain = FailoverTransport::new(replicas);
    if let (Some(backup), Some(mut warm)) = (&backup, run.warm) {
        let backup = backup.clone();
        chain = chain.with_warm_recovery(move |_ix| warm(&backup));
    }
    let probe = chain.probe();
    let mut faults = FaultPlan::new();
    for ev in run.service_faults.events() {
        let target = CrashTarget::PolicyReplica {
            chain: probe.clone(),
            replica: 0,
            fault: ev.kind,
        };
        faults.add(ev.window.start, ev.window.duration, target);
    }

    let exec_cfg = ExecutorConfig {
        seed,
        transfer_failure_prob: run.transfer_failure_prob,
        fallback_streams: DEFAULT_STREAMS,
        policy_call_latency: SimDuration::from_millis(75),
        workflow_id: WorkflowId(seed),
        watch_link: Some(world.wan),
        recovery: Some(RecoveryConfig {
            faults,
            ..RecoveryConfig::default()
        }),
        ..ExecutorConfig::default()
    };
    let transport: Box<dyn PolicyTransport> = Box::new(chain);
    let executor = WorkflowExecutor::new(&executable, &world.site, network, transport, exec_cfg);
    let (stats, _network) = executor.run();
    ChaosReport {
        stats,
        fault_events,
        injected_service_failures: probe.refused(),
        service_calls_passed: probe.calls(0),
        failovers: probe.failovers(),
        backup_snapshot: backup.map(|c| c.snapshot(DEFAULT_SESSION).expect("backup snapshot")),
    }
}

/// Everything that parameterizes a chaos run (the faults themselves are
/// derived from these knobs plus the run seed).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Extra WAN-staged bytes per staging job (as in the paper setup).
    pub extra_file_bytes: u64,
    /// Inject link faults (flaps + degradations) on the WAN bottleneck.
    pub link_faults: bool,
    /// Inject policy-service faults (outage + timeout glitches).
    pub service_faults: bool,
    /// Number of WAN flaps (short full outages, 5–20 s), seeded over the
    /// horizon.
    pub flaps: usize,
    /// Number of WAN degradation windows (30–60 s at 35 % capacity), seeded
    /// over the horizon.
    pub degradations: usize,
    /// Window over which seeded link faults are placed.
    pub fault_horizon: SimDuration,
    /// Replica-crash outage start.
    pub outage_start: SimTime,
    /// Replica-crash outage duration.
    pub outage_duration: SimDuration,
    /// Seeded short advice-timeout glitches on the primary replica.
    pub timeout_glitches: usize,
    /// Policy replicas: 1 = primary only (outages exercise the executor's
    /// default-stream fallback), 2 = primary + backup (outages exercise
    /// failover).
    pub replicas: usize,
    /// Transient transfer-failure probability (retried with backoff).
    pub transfer_failure_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            extra_file_bytes: crate::mb(10),
            link_faults: true,
            service_faults: true,
            flaps: 3,
            degradations: 2,
            fault_horizon: SimDuration::from_secs(400),
            outage_start: SimTime::from_secs(90),
            outage_duration: SimDuration::from_secs(120),
            timeout_glitches: 2,
            replicas: 2,
            transfer_failure_prob: 0.05,
        }
    }
}

impl ChaosConfig {
    /// A compact scenario so debug-mode tests stay quick: two WAN flaps,
    /// one degradation window, and a 45 s replica-crash outage early in
    /// the run.
    pub fn compact() -> Self {
        ChaosConfig {
            extra_file_bytes: crate::mb(2),
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
}

/// What a Montage-under-faults run observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The workflow run statistics.
    pub stats: RunStats,
    /// Deterministic fingerprint of every scheduled fault (link plan then
    /// service plan, one line per event). Two same-seed runs must produce
    /// identical fingerprints.
    pub fault_events: Vec<String>,
    /// Policy calls refused because a service-fault window held the
    /// primary down.
    pub injected_service_failures: u64,
    /// Policy calls that reached the primary.
    pub service_calls_passed: u64,
    /// Failovers performed by the replica chain (0 without a backup).
    pub failovers: u64,
    /// Backup replica's policy memory after the run (`None` with 1
    /// replica). The post-failover active replica: its ledgers must drain.
    pub backup_snapshot: Option<MemorySnapshot>,
}

impl ChaosReport {
    /// Invariants a chaos run must keep; each breach is one line. The run
    /// completes, every staged byte is cleaned up again, and the backup
    /// replica's ledger drains. Without a backup the surviving primary may
    /// keep entries whose reports an outage swallowed, so only the
    /// executor's side is checked.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.stats.success {
            v.push("run did not complete".into());
        }
        if self.stats.final_scratch_bytes != 0.0 {
            v.push(format!(
                "{} bytes left on scratch",
                self.stats.final_scratch_bytes
            ));
        }
        if let Some(b) = &self.backup_snapshot {
            let streams: u32 = b.host_pairs.iter().map(|hp| hp.allocated).sum();
            let (transfers, staging, cleanups) = (
                b.in_progress_transfers,
                b.staging_files,
                b.in_progress_cleanups,
            );
            if (transfers, staging, cleanups, streams) != (0, 0, 0, 0) {
                v.push(format!(
                    "backup ledger not drained: {transfers} transfers, {staging} files staging, \
                     {cleanups} cleanups in progress, {streams} streams allocated"
                ));
            }
        }
        v
    }
}

/// Derive the link fault plan for `(cfg, seed)`.
fn link_plan(cfg: &ChaosConfig, seed: u64, wan: pwm_net::LinkId) -> FaultPlan<LinkFault> {
    let mut plan = FaultPlan::new();
    if !cfg.link_faults {
        return plan;
    }
    for (component, count, (shortest, longest), kind) in [
        ("chaos-link-flaps", cfg.flaps, (5, 20), LinkFaultKind::Down),
        (
            "chaos-link-degrade",
            cfg.degradations,
            (30, 60),
            LinkFaultKind::Degrade(0.35),
        ),
    ] {
        let mut rng = SimRng::for_component(seed, component);
        for w in seeded_windows(
            &mut rng,
            count,
            cfg.fault_horizon,
            SimDuration::from_secs(shortest),
            SimDuration::from_secs(longest),
        ) {
            plan.add(w.start, w.duration, LinkFault { link: wan, kind });
        }
    }
    plan
}

/// Derive the policy-service fault plan for `(cfg, seed)`.
fn service_plan(cfg: &ChaosConfig, seed: u64) -> FaultPlan<ServiceFault> {
    let mut plan = FaultPlan::new();
    if !cfg.service_faults {
        return plan;
    }
    plan.add(cfg.outage_start, cfg.outage_duration, ServiceFault::Outage);
    let mut rng = SimRng::for_component(seed, "chaos-service-timeouts");
    for w in seeded_windows(
        &mut rng,
        cfg.timeout_glitches,
        cfg.fault_horizon,
        SimDuration::from_secs(1),
        SimDuration::from_secs(3),
    ) {
        plan.add(w.start, w.duration, ServiceFault::Timeout);
    }
    plan
}

/// Run the chaos scenario once.
pub fn run_chaos(cfg: &ChaosConfig, seed: u64) -> ChaosReport {
    let world = PaperWorld::testbed();
    let link_faults = link_plan(cfg, seed, world.wan);
    run_faulted(
        world,
        FaultedMontage {
            extra_file_bytes: cfg.extra_file_bytes,
            seed,
            transfer_failure_prob: cfg.transfer_failure_prob,
            link_faults,
            service_faults: service_plan(cfg, seed),
            backup: cfg.replicas > 1,
            durable: None,
            warm: None,
        },
    )
}

/// Rerun `seed` with each fault class toggled: none, link-only,
/// service-only, both. The first row is the fault-free baseline.
pub fn chaos_ablation(cfg: &ChaosConfig, seed: u64) -> Vec<(&'static str, ChaosReport)> {
    [
        ("none", false, false),
        ("link", true, false),
        ("service", false, true),
        ("link+service", true, true),
    ]
    .map(|(label, link_faults, service_faults)| {
        let cfg = ChaosConfig {
            link_faults,
            service_faults,
            ..cfg.clone()
        };
        (label, run_chaos(&cfg, seed))
    })
    .into()
}

/// Render the ablation as an aligned text table, each makespan also as
/// its inflation over the first row's.
pub fn render_ablation(rows: &[(&str, ChaosReport)]) -> String {
    let mut out = format!(
        "{:<14} {:>12} {:>10} {:>9} {:>10} {:>9} {:>8}\n",
        "faults", "makespan[s]", "inflation", "retries", "failovers", "injected", "success"
    );
    let base = rows.first().map_or(0.0, |(_, r)| r.stats.makespan_secs());
    for (label, r) in rows {
        let makespan = r.stats.makespan_secs();
        let inflation = if base > 0.0 { makespan / base } else { 1.0 };
        let _ = writeln!(
            out,
            "{label:<14} {makespan:>12.1} {inflation:>9.2}x {:>9} {:>10} {:>9} {:>8}",
            r.stats.transfer_retries, r.failovers, r.injected_service_failures, r.stats.success
        );
    }
    out
}

/// `repro chaos`: one full fault-injected run plus the per-class ablation,
/// and every run's [`ChaosReport::violations`].
pub fn repro(seed: u64) -> SuiteOutput {
    let cfg = ChaosConfig::default();
    let report = run_chaos(&cfg, seed);
    let rows = chaos_ablation(&cfg, seed);
    let mut text = format!(
        "Chaos scenario, seed {seed}: Montage under WAN flaps/degradations and a policy-service outage\n  injected faults:\n"
    );
    for ev in &report.fault_events {
        let _ = writeln!(text, "    {ev}");
    }
    let _ = write!(
        text,
        "  outcome: success={} makespan {:.0}s  transfer retries {}  failovers {}\n  \
         policy service: {} calls passed, {} failures injected; final scratch {:.0} bytes\n\n\
         Ablation (same seed, fault classes toggled; inflation vs fault-free):\n{}\n",
        report.stats.success,
        report.stats.makespan_secs(),
        report.stats.transfer_retries,
        report.failovers,
        report.service_calls_passed,
        report.injected_service_failures,
        report.stats.final_scratch_bytes,
        render_ablation(&rows),
    );
    let mut violations = report.violations();
    for (label, row) in &rows {
        violations.extend(
            row.violations()
                .iter()
                .map(|v| format!("ablation {label}: {v}")),
        );
    }
    SuiteOutput {
        text,
        json: None,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_variant_matches_shape_of_paper_run() {
        let cfg = ChaosConfig {
            link_faults: false,
            service_faults: false,
            ..ChaosConfig::compact()
        };
        let report = run_chaos(&cfg, 3);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert!(report.fault_events.is_empty());
        assert_eq!(report.injected_service_failures, 0);
        assert_eq!(report.failovers, 0);
    }

    #[test]
    fn ablation_has_a_baseline_first_row() {
        let rows = chaos_ablation(&ChaosConfig::compact(), 5);
        let labels: Vec<&str> = rows.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels, ["none", "link", "service", "link+service"]);
        assert!(rows.iter().all(|(_, r)| r.violations().is_empty()));
        let rendered = render_ablation(&rows);
        assert!(rendered.lines().nth(1).unwrap().contains(" 1.00x "));
    }

    #[test]
    fn violations_name_an_undrained_backup_ledger() {
        let mut report = run_chaos(&ChaosConfig::compact(), 3);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        let backup = report.backup_snapshot.as_mut().expect("two replicas");
        backup.in_progress_cleanups = 2;
        report.stats.final_scratch_bytes = 5.0;
        let v = report.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("5 bytes left on scratch"));
        assert!(v[1].contains("2 cleanups in progress"));
    }

    /// The compact scenario with service faults alone: the outage at
    /// `[30 s, 75 s)` and `glitches` timeout glitches.
    fn service_only(replicas: usize, glitches: usize) -> ChaosConfig {
        ChaosConfig {
            replicas,
            link_faults: false,
            timeout_glitches: glitches,
            ..ChaosConfig::compact()
        }
    }

    #[test]
    fn calls_pass_outside_fault_windows() {
        // The outage opens long after the run ends: every call reaches
        // the primary.
        let cfg = ChaosConfig {
            outage_start: SimTime::from_secs(10_000),
            ..service_only(1, 0)
        };
        let report = run_chaos(&cfg, 3);
        assert_eq!(
            report.fault_events,
            ["[10000.000000s, 10045.000000s) Outage"]
        );
        assert_eq!(report.injected_service_failures, 0);
        assert_eq!(report.service_calls_passed, report.stats.policy_calls);
    }

    #[test]
    fn calls_fail_inside_the_window_and_are_logged() {
        // One replica: each call is either refused by the outage or
        // reaches the replica, and the run still completes.
        let report = run_chaos(&service_only(1, 0), 3);
        assert_eq!(report.fault_events, ["[30.000000s, 75.000000s) Outage"]);
        assert!(report.injected_service_failures > 0, "the outage hit");
        assert!(report.service_calls_passed > 0, "calls outside it passed");
        assert_eq!(
            report.injected_service_failures + report.service_calls_passed,
            report.stats.policy_calls
        );
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn timeout_faults_are_distinguishable_in_the_log() {
        let report = run_chaos(&service_only(2, 2), 3);
        let kinds: Vec<&str> = (report.fault_events.iter())
            .filter_map(|e| e.rsplit(' ').next())
            .collect();
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
        assert_eq!((count("Outage"), count("Timeout")), (1, 2), "{kinds:?}");
    }

    #[test]
    fn replica_crash_drives_failover_and_recovery_is_possible() {
        // The primary is down for [30 s, 75 s): the chain fails over to the
        // backup once and sticks there, so the primary refuses one call,
        // and the backup's ledger drains by the end of the run.
        let report = run_chaos(&service_only(2, 0), 3);
        assert_eq!(report.failovers, 1);
        assert_eq!(report.injected_service_failures, 1);
        assert!(report.service_calls_passed > 0, "the primary served first");
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }
}
