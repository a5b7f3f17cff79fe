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
//!   seeded advice-timeout glitches, driving either
//!   [`FailoverTransport`] recovery (with a backup replica) or the
//!   executor's default-stream fallback (without one).
//!
//! [`run_chaos`] reports makespan, recovery statistics, and a fault-event
//! fingerprint that two same-seed runs must reproduce exactly;
//! [`chaos_ablation`] reruns the same seed under each fault class alone to
//! attribute the makespan inflation.

use crate::experiment::PaperWorld;
use pwm_core::chaos::{ChaosTransport, ServiceFault, SharedSimClock};
use pwm_core::transport::{InProcessTransport, PolicyTransport};
use pwm_core::{
    AllocationPolicy, FailoverTransport, MemorySnapshot, PolicyConfig, PolicyController,
    WorkflowId, DEFAULT_SESSION,
};
use pwm_net::fault::{LinkFault, LinkFaultKind};
use pwm_net::{Network, StreamModel};
use pwm_sim::{seeded_windows, FaultPlan, SimDuration, SimRng, SimTime};
use pwm_workflow::{ExecutorConfig, PlannerConfig, RunStats, WorkflowExecutor};

/// Everything that parameterizes a chaos run (the faults themselves are
/// derived from these knobs plus the run seed).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Extra WAN-staged bytes per staging job (as in the paper setup).
    pub extra_file_bytes: u64,
    /// Default/fallback streams per transfer.
    pub default_streams: u32,
    /// Greedy host-pair threshold.
    pub threshold: u32,
    /// Inject link faults (flaps + degradations) on the WAN bottleneck.
    pub link_faults: bool,
    /// Inject policy-service faults (outage + timeout glitches).
    pub service_faults: bool,
    /// Number of WAN flaps (short full outages), seeded over the horizon.
    pub flaps: usize,
    /// Flap duration range.
    pub flap_duration: (SimDuration, SimDuration),
    /// Number of WAN degradation windows, seeded over the horizon.
    pub degradations: usize,
    /// Degradation duration range.
    pub degrade_duration: (SimDuration, SimDuration),
    /// WAN capacity multiplier while degraded.
    pub degrade_factor: f64,
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
    /// Probability a failed transfer is fatal (job fails immediately).
    pub fatal_failure_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            extra_file_bytes: crate::mb(10),
            default_streams: 4,
            threshold: 50,
            link_faults: true,
            service_faults: true,
            flaps: 3,
            flap_duration: (SimDuration::from_secs(5), SimDuration::from_secs(20)),
            degradations: 2,
            degrade_duration: (SimDuration::from_secs(30), SimDuration::from_secs(60)),
            degrade_factor: 0.35,
            fault_horizon: SimDuration::from_secs(400),
            outage_start: SimTime::from_secs(90),
            outage_duration: SimDuration::from_secs(120),
            timeout_glitches: 2,
            replicas: 2,
            transfer_failure_prob: 0.05,
            fatal_failure_prob: 0.0,
        }
    }
}

/// What a chaos run observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The workflow run statistics.
    pub stats: RunStats,
    /// Deterministic fingerprint of every scheduled fault (link plan then
    /// service plan, one line per event). Two same-seed runs must produce
    /// identical fingerprints.
    pub fault_events: Vec<String>,
    /// Policy calls failed by an active service-fault window.
    pub injected_service_failures: u64,
    /// Policy calls that passed through the chaos transport.
    pub service_calls_passed: u64,
    /// Failovers performed by the replica chain (0 without a backup).
    pub failovers: u64,
    /// Primary replica's policy memory after the run. May retain stale
    /// in-progress entries for work whose completion was reported to the
    /// backup after a failover (advisory degradation, not a leak).
    pub primary_snapshot: MemorySnapshot,
    /// Backup replica's policy memory after the run (`None` with 1
    /// replica). The post-failover active replica: its ledgers must drain.
    pub backup_snapshot: Option<MemorySnapshot>,
}

impl ChaosReport {
    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.stats.makespan_secs()
    }
}

/// Derive the link fault plan for `(cfg, seed)`.
fn link_plan(cfg: &ChaosConfig, seed: u64, wan: pwm_net::LinkId) -> FaultPlan<LinkFault> {
    let mut plan = FaultPlan::new();
    if !cfg.link_faults {
        return plan;
    }
    for (component, count, (shortest, longest), kind) in [
        (
            "chaos-link-flaps",
            cfg.flaps,
            cfg.flap_duration,
            LinkFaultKind::Down,
        ),
        (
            "chaos-link-degrade",
            cfg.degradations,
            cfg.degrade_duration,
            LinkFaultKind::Degrade(cfg.degrade_factor),
        ),
    ] {
        let mut rng = SimRng::for_component(seed, component);
        for w in seeded_windows(&mut rng, count, cfg.fault_horizon, shortest, longest) {
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
    let executable = world.plan_montage(cfg.extra_file_bytes, seed, &PlannerConfig::default());

    let links = link_plan(cfg, seed, world.wan);
    let services = service_plan(cfg, seed);
    let mut fault_events = links.describe();
    fault_events.extend(services.describe());

    let mut network = Network::with_seed(world.topology, StreamModel::default(), seed);
    network.set_fault_plan(links);

    let policy = PolicyConfig::default()
        .with_default_streams(cfg.default_streams)
        .with_threshold(cfg.threshold)
        .with_allocation(AllocationPolicy::Greedy);
    let clock = SharedSimClock::new();
    let primary_controller = PolicyController::new(policy.clone());
    let chaotic = ChaosTransport::new(
        Box::new(InProcessTransport::new(
            primary_controller.clone(),
            DEFAULT_SESSION,
        )),
        clock.clone(),
        services,
    );
    let chaos_probe = chaotic.probe();
    let backup_controller = (cfg.replicas > 1).then(|| PolicyController::new(policy));
    let (transport, failover_probe): (Box<dyn PolicyTransport>, _) = match &backup_controller {
        Some(backup) => {
            let chain = FailoverTransport::new(vec![
                Box::new(chaotic),
                Box::new(InProcessTransport::new(backup.clone(), DEFAULT_SESSION)),
            ]);
            let probe = chain.probe();
            (Box::new(chain), Some(probe))
        }
        None => (Box::new(chaotic), None),
    };

    let exec_cfg = ExecutorConfig {
        seed,
        transfer_failure_prob: cfg.transfer_failure_prob,
        fatal_failure_prob: cfg.fatal_failure_prob,
        fallback_streams: cfg.default_streams,
        policy_call_latency: SimDuration::from_millis(75),
        clock: Some(clock),
        workflow_id: WorkflowId(seed),
        watch_link: Some(world.wan),
        ..ExecutorConfig::default()
    };
    let executor = WorkflowExecutor::new(&executable, &world.site, network, transport, exec_cfg);
    let (stats, _network) = executor.run();

    ChaosReport {
        stats,
        fault_events,
        injected_service_failures: chaos_probe.injected_failures(),
        service_calls_passed: chaos_probe.calls_passed(),
        failovers: failover_probe.map(|p| p.failovers()).unwrap_or(0),
        primary_snapshot: primary_controller
            .snapshot(DEFAULT_SESSION)
            .expect("primary snapshot"),
        backup_snapshot: backup_controller
            .map(|c| c.snapshot(DEFAULT_SESSION).expect("backup snapshot")),
    }
}

/// One row of the chaos ablation table.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Fault classes active in this row.
    pub label: &'static str,
    /// Makespan in seconds.
    pub makespan_secs: f64,
    /// Makespan divided by the fault-free makespan.
    pub inflation: f64,
    /// Transfer retries performed.
    pub retries: u64,
    /// Replica failovers.
    pub failovers: u64,
    /// Policy calls failed by injection.
    pub injected: u64,
    /// Whether the workflow completed successfully.
    pub success: bool,
}

/// Rerun `seed` with each fault class toggled: none, link-only,
/// service-only, both. The first row is the fault-free baseline.
pub fn chaos_ablation(cfg: &ChaosConfig, seed: u64) -> Vec<ChaosRow> {
    let variants: [(&'static str, bool, bool); 4] = [
        ("none", false, false),
        ("link", true, false),
        ("service", false, true),
        ("link+service", true, true),
    ];
    let mut rows = Vec::new();
    let mut baseline = None;
    for (label, link, service) in variants {
        let mut v = cfg.clone();
        v.link_faults = link;
        v.service_faults = service;
        let report = run_chaos(&v, seed);
        let makespan = report.makespan_secs();
        let base = *baseline.get_or_insert(makespan);
        rows.push(ChaosRow {
            label,
            makespan_secs: makespan,
            inflation: if base > 0.0 { makespan / base } else { 1.0 },
            retries: report.stats.transfer_retries,
            failovers: report.failovers,
            injected: report.injected_service_failures,
            success: report.stats.success,
        });
    }
    rows
}

/// Render the ablation as an aligned text table.
pub fn render_ablation(rows: &[ChaosRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>12} {:>10} {:>9} {:>10} {:>9} {:>8}\n",
        "faults", "makespan[s]", "inflation", "retries", "failovers", "injected", "success"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>12.1} {:>9.2}x {:>9} {:>10} {:>9} {:>8}\n",
            r.label, r.makespan_secs, r.inflation, r.retries, r.failovers, r.injected, r.success
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small chaos configuration so debug-mode tests stay quick.
    fn small() -> ChaosConfig {
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

    #[test]
    fn chaos_run_completes_and_reports_injections() {
        let report = run_chaos(&small(), 3);
        assert!(report.stats.success, "chaos must not break the workflow");
        assert!(!report.fault_events.is_empty());
        assert!(report.makespan_secs() > 0.0);
    }

    #[test]
    fn fault_free_variant_matches_shape_of_paper_run() {
        let mut cfg = small();
        cfg.link_faults = false;
        cfg.service_faults = false;
        let report = run_chaos(&cfg, 3);
        assert!(report.stats.success);
        assert!(report.fault_events.is_empty());
        assert_eq!(report.injected_service_failures, 0);
        assert_eq!(report.failovers, 0);
    }

    #[test]
    fn ablation_has_a_baseline_first_row() {
        let rows = chaos_ablation(&small(), 5);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "none");
        assert!((rows[0].inflation - 1.0).abs() < 1e-9);
        assert!(rows.iter().all(|r| r.success));
        let rendered = render_ablation(&rows);
        assert!(rendered.contains("link+service"));
    }
}
