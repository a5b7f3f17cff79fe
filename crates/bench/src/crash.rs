//! The crash scenario: a mid-run Policy Service death with cold vs warm
//! recovery, under the paper's Montage workload.
//!
//! The primary policy service runs with durability enabled (WAL +
//! snapshots) and a seeded [`CrashPoint`] injected into its durability
//! sink: at the chosen append the sink freezes, modeling the process dying
//! with only the on-disk log surviving (possibly with a torn tail). A
//! service outage window then makes the primary transport fail, forcing
//! the executor onto the backup replica. The two recovery modes differ
//! only in what the backup knows:
//!
//! * **cold** — the backup starts with empty policy memory (the seed
//!   repo's original failover semantics): staged files may be re-staged,
//!   host-pair ledgers restart empty.
//! * **warm** — the backup replays the primary's log just before its first
//!   request ([`FailoverTransport::with_warm_recovery`] +
//!   `PolicyController::recover_session`), inheriting dedup memory and
//!   allocation ledgers up to the crash point.
//!
//! [`run_crash`] runs both modes on the same seed and reports makespans,
//! staged bytes, policy-skip counts, and the recovery invariants;
//! [`CrashReport::violations`] lists any invariant breaches (the `repro
//! crash` subcommand exits nonzero if it is non-empty).

use crate::experiment::PaperWorld;
use pwm_core::chaos::{ChaosTransport, ServiceFault, SharedSimClock};
use pwm_core::transport::InProcessTransport;
use pwm_core::{
    read_recovery, AllocationPolicy, CrashPoint, DurabilityConfig, FailoverTransport,
    MemorySnapshot, PolicyConfig, PolicyController, WorkflowId, DEFAULT_SESSION,
};
use pwm_net::{Network, StreamModel};
use pwm_sim::{FaultPlan, SimDuration, SimRng, SimTime};
use pwm_workflow::{ExecutorConfig, PlannerConfig, RunStats, WorkflowExecutor};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Everything that parameterizes a crash run.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Extra WAN-staged bytes per staging job (as in the paper setup).
    pub extra_file_bytes: u64,
    /// Default/fallback streams per transfer.
    pub default_streams: u32,
    /// Greedy host-pair threshold.
    pub threshold: u32,
    /// The seeded crash point lands at a WAL append in
    /// `[1, max_crash_append]`.
    pub max_crash_append: u64,
    /// Snapshot/compaction cadence of the primary's durability sink.
    pub snapshot_every: u64,
    /// When the primary process "dies" (its transport starts failing).
    pub outage_start: SimTime,
    /// How long the primary stays dead. Failover is sticky, so anything
    /// covering a few policy calls is enough to move traffic for good.
    pub outage_duration: SimDuration,
    /// Transient transfer-failure probability (retried with backoff).
    pub transfer_failure_prob: f64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            extra_file_bytes: crate::mb(10),
            default_streams: 4,
            threshold: 50,
            max_crash_append: 60,
            snapshot_every: 16,
            outage_start: SimTime::from_secs(90),
            outage_duration: SimDuration::from_secs(100_000),
            transfer_failure_prob: 0.0,
        }
    }
}

/// What one recovery mode observed.
#[derive(Debug, Clone)]
pub struct CrashRunReport {
    /// The workflow run statistics.
    pub stats: RunStats,
    /// Failovers performed by the replica chain.
    pub failovers: u64,
    /// Warm mode: staged files the backup knew immediately after replaying
    /// the primary's log (`None` in cold mode).
    pub recovered_staged_files: Option<usize>,
    /// Warm mode: WAL records replayed on top of the recovered snapshot.
    pub recovered_records: Option<usize>,
    /// Warm mode: the backup's full policy memory right after the replay,
    /// before it served a single request. Its per-pair `allocated` is the
    /// inherited baseline: streams of transfers the dead primary granted
    /// whose completions were consumed by the primary while it still
    /// lived, so the backup never sees their releases.
    pub recovered_snapshot: Option<MemorySnapshot>,
    /// Backup replica's policy memory after the run.
    pub backup_snapshot: MemorySnapshot,
}

/// Cold vs warm comparison for one seed.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// The seeded crash point injected into the primary's durability sink.
    pub crash: CrashPoint,
    /// Run with an empty (cold) backup.
    pub cold: CrashRunReport,
    /// Run with a log-shipped (warm) backup.
    pub warm: CrashRunReport,
    /// The host-pair threshold both services enforced.
    pub threshold: u32,
    /// Upper bound on legitimate peak allocation *on top of the recovered
    /// allocation baseline*: the greedy policy can cross the threshold
    /// once by up to `default_streams - 1` and then hands a 1-stream
    /// starvation grant to each concurrently running staging job (the
    /// executor caps those at `staging_job_limit`). A warm backup starts
    /// from the baseline its replayed ledger carries (see
    /// [`CrashRunReport::recovered_snapshot`]); a cold backup's baseline
    /// is zero.
    pub grant_bound: u32,
}

impl CrashReport {
    /// Recovery invariants that must hold; each breach is one line.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.cold.stats.success {
            v.push("cold run did not complete".into());
        }
        if !self.warm.stats.success {
            v.push("warm run did not complete".into());
        }
        for (label, run) in [("cold", &self.cold), ("warm", &self.warm)] {
            if run.failovers == 0 {
                v.push(format!("{label} run never failed over to the backup"));
            }
            for hp in &run.backup_snapshot.host_pairs {
                // Streams the backup inherited from the replayed log whose
                // releases went to the dead primary: legitimate carry-over,
                // not new grants.
                let baseline = run
                    .recovered_snapshot
                    .as_ref()
                    .and_then(|s| {
                        s.host_pairs
                            .iter()
                            .find(|r| r.src_host == hp.src_host && r.dst_host == hp.dst_host)
                    })
                    .map_or(0, |r| r.allocated);
                if hp.peak_allocated > baseline + self.grant_bound {
                    v.push(format!(
                        "{label} backup over-granted {}->{}: peak {} > bound {} \
                         (recovered baseline {} + threshold {} + starvation allowance)",
                        hp.src_host,
                        hp.dst_host,
                        hp.peak_allocated,
                        baseline + self.grant_bound,
                        baseline,
                        self.threshold
                    ));
                }
            }
        }
        if self.warm.recovered_records.is_none() {
            v.push("warm recovery hook never ran".into());
        }
        // Warm recovery retains dedup/ledger memory, so the warm run can
        // never need *more* policy-skipped work re-executed than cold.
        if self.warm.stats.transfers_skipped < self.cold.stats.transfers_skipped {
            v.push(format!(
                "warm run skipped fewer duplicate transfers ({}) than cold ({})",
                self.warm.stats.transfers_skipped, self.cold.stats.transfers_skipped
            ));
        }
        v
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pwm-crash-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn run_once(cfg: &CrashConfig, seed: u64, crash: CrashPoint, warm: bool) -> CrashRunReport {
    let world = PaperWorld::testbed();
    let executable = world.plan_montage(cfg.extra_file_bytes, seed, &PlannerConfig::default());

    let policy = PolicyConfig::default()
        .with_default_streams(cfg.default_streams)
        .with_threshold(cfg.threshold)
        .with_allocation(AllocationPolicy::Greedy);

    // Primary: durable session with the crash point armed. The WAL dir is
    // per-run so cold and warm replay identical logs independently.
    let dir = scratch_dir(if warm { "warm" } else { "cold" });
    let primary = PolicyController::new(policy.clone());
    primary
        .create_durable_session(
            DEFAULT_SESSION,
            policy.clone(),
            DurabilityConfig::new(&dir)
                .with_snapshot_every(cfg.snapshot_every)
                .with_crash(crash),
        )
        .expect("durable primary session");

    // The primary "process death": its transport fails for the outage
    // window, driving sticky failover to the backup.
    let mut outage = FaultPlan::new();
    outage.add(cfg.outage_start, cfg.outage_duration, ServiceFault::Outage);
    let clock = SharedSimClock::new();
    let chaotic = ChaosTransport::new(
        Box::new(InProcessTransport::new(primary.clone(), DEFAULT_SESSION)),
        clock.clone(),
        outage,
    );

    let backup = PolicyController::new(policy);
    let recovered: Arc<Mutex<Option<(MemorySnapshot, usize)>>> = Arc::new(Mutex::new(None));
    let chain = FailoverTransport::new(vec![
        Box::new(chaotic),
        Box::new(InProcessTransport::new(backup.clone(), DEFAULT_SESSION)),
    ]);
    let chain = if warm {
        let hook_backup = backup.clone();
        let hook_dir = dir.clone();
        let hook_recovered = recovered.clone();
        chain.with_warm_recovery(move |_ix| {
            let records = read_recovery(&hook_dir)
                .map(|r| r.records.len())
                .unwrap_or(0);
            if hook_backup
                .recover_session(DEFAULT_SESSION, &hook_dir)
                .is_ok()
            {
                if let Ok(snap) = hook_backup.snapshot(DEFAULT_SESSION) {
                    *hook_recovered.lock().unwrap() = Some((snap, records));
                }
            }
        })
    } else {
        chain
    };
    let probe = chain.probe();

    let exec_cfg = ExecutorConfig {
        seed,
        transfer_failure_prob: cfg.transfer_failure_prob,
        fallback_streams: cfg.default_streams,
        policy_call_latency: SimDuration::from_millis(75),
        clock: Some(clock),
        workflow_id: WorkflowId(seed),
        watch_link: Some(world.wan),
        ..ExecutorConfig::default()
    };
    let executor = WorkflowExecutor::new(
        &executable,
        &world.site,
        Network::with_seed(world.topology, StreamModel::default(), seed),
        Box::new(chain),
        exec_cfg,
    );
    let (stats, _network) = executor.run();
    let backup_snapshot = backup.snapshot(DEFAULT_SESSION).expect("backup snapshot");
    std::fs::remove_dir_all(&dir).ok();
    let rec = recovered.lock().unwrap().take();
    CrashRunReport {
        stats,
        failovers: probe.failovers(),
        recovered_staged_files: rec.as_ref().map(|(s, _)| s.staged_files),
        recovered_records: rec.as_ref().map(|(_, r)| *r),
        recovered_snapshot: rec.map(|(s, _)| s),
        backup_snapshot,
    }
}

/// Run the crash scenario: same seed and crash point, cold then warm.
pub fn run_crash(cfg: &CrashConfig, seed: u64) -> CrashReport {
    let mut rng = SimRng::for_component(seed, "crash-point");
    let crash = CrashPoint::seeded(&mut rng, cfg.max_crash_append);
    let cold = run_once(cfg, seed, crash, false);
    let warm = run_once(cfg, seed, crash, true);
    let staging_job_limit = ExecutorConfig::default().staging_job_limit as u32;
    CrashReport {
        crash,
        cold,
        warm,
        threshold: cfg.threshold,
        grant_bound: cfg.threshold + cfg.default_streams.saturating_sub(1) + staging_job_limit,
    }
}

/// Render the cold/warm comparison as an aligned text table.
pub fn render_crash(report: &CrashReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("crash point: {}\n", report.crash));
    out.push_str(&format!(
        "{:<10} {:>12} {:>14} {:>9} {:>10} {:>16} {:>12}\n",
        "recovery",
        "makespan[s]",
        "bytes_staged",
        "skipped",
        "failovers",
        "recovered_files",
        "wal_records"
    ));
    for (label, run) in [("cold", &report.cold), ("warm", &report.warm)] {
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>14.0} {:>9} {:>10} {:>16} {:>12}\n",
            label,
            run.stats.makespan_secs(),
            run.stats.bytes_staged,
            run.stats.transfers_skipped,
            run.failovers,
            run.recovered_staged_files
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            run.recovered_records
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small crash configuration so debug-mode tests stay quick.
    fn small() -> CrashConfig {
        CrashConfig {
            extra_file_bytes: crate::mb(2),
            max_crash_append: 20,
            snapshot_every: 8,
            outage_start: SimTime::from_secs(30),
            ..CrashConfig::default()
        }
    }

    #[test]
    fn crash_scenario_holds_its_invariants() {
        let report = run_crash(&small(), 7);
        assert!(
            report.violations().is_empty(),
            "violations: {:?}",
            report.violations()
        );
        assert!(report.warm.recovered_records.is_some());
        let rendered = render_crash(&report);
        assert!(rendered.contains("warm"));
    }

    #[test]
    fn crash_scenario_is_deterministic_per_seed() {
        let a = run_crash(&small(), 11);
        let b = run_crash(&small(), 11);
        assert_eq!(a.crash, b.crash);
        assert_eq!(a.cold.stats.makespan, b.cold.stats.makespan);
        assert_eq!(a.warm.stats.makespan, b.warm.stats.makespan);
        assert_eq!(a.warm.recovered_records, b.warm.recovered_records);
    }
}
