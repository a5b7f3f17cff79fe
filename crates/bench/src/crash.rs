//! The crash scenario: a mid-run Policy Service death with cold vs warm
//! recovery, under the paper's Montage workload.
//!
//! The primary policy service runs with durability enabled (WAL +
//! snapshots) on a [`SimDisk`] scripted by a seeded [`CrashPoint`]
//! (`DiskFault::from`: a death at the n-th log sync, or a torn n-th log
//! write). The disk's failure is the death, and nothing else states it: it
//! freezes the log (possibly with a torn tail), and from that call on the
//! primary's controller refuses every request
//! ([`pwm_core::ControllerError::SessionDown`]), the failing call
//! included, so the executor fails over to the backup replica at that call.
//! Both runs are `chaos::run_faulted`'s stack with a durable primary and
//! no scheduled service faults; the two recovery modes differ only in what
//! the backup knows:
//!
//! * **cold** — the backup starts with empty policy memory (the seed
//!   repo's original failover semantics): staged files may be re-staged,
//!   host-pair ledgers restart empty.
//! * **warm** — the backup replays the primary's log just before its first
//!   request ([`pwm_core::FailoverTransport::with_warm_recovery`] +
//!   `PolicyController::recover_sharded_session_on`, from the same
//!   simulated disk), inheriting dedup memory and
//!   allocation ledgers up to the crash point. Since the primary answered
//!   nothing past it, that is every piece of advice the executor acted on.
//!
//! [`run_crash`] runs both modes on the same seed and reports makespans,
//! staged bytes, policy-skip counts, and the recovery invariants;
//! [`CrashReport::violations`] lists any invariant breaches (the `repro
//! crash` subcommand exits nonzero if it is non-empty).

use crate::chaos::{run_faulted, FaultedMontage, WarmHook, DEFAULT_STREAMS, THRESHOLD};
use crate::experiment::PaperWorld;
use crate::SuiteOutput;
use pwm_core::{
    greedy_total_for_concurrent_jobs, read_recovery, CrashPoint, DurabilityConfig, MemorySnapshot,
    PolicyController, SimDisk, DEFAULT_SESSION,
};
use pwm_sim::{FaultPlan, SimRng};
use pwm_workflow::{ExecutablePlan, ExecutorConfig, PlanJobKind, PlannerConfig, RunStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Everything that parameterizes a crash run.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Extra WAN-staged bytes per staging job (as in the paper setup).
    pub extra_file_bytes: u64,
    /// The seeded crash point lands at a WAL append in
    /// `[1, max_crash_append]`.
    pub max_crash_append: u64,
    /// Snapshot/compaction cadence of the primary's durability sink.
    pub snapshot_every: u64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            extra_file_bytes: crate::mb(10),
            max_crash_append: 60,
            snapshot_every: 16,
        }
    }
}

/// What the warm backup knew right after replaying the primary's log.
#[derive(Debug, Clone)]
pub struct WarmRecovery {
    /// WAL records replayed on top of the recovered snapshot.
    pub records: usize,
    /// The backup's full policy memory right after the replay, before it
    /// served a single request. Its per-pair `allocated` is the inherited
    /// baseline: streams of transfers the dead primary granted whose
    /// completions were consumed by the primary while it still lived, so
    /// the backup never sees their releases.
    pub snapshot: MemorySnapshot,
}

/// What one recovery mode observed.
#[derive(Debug, Clone)]
pub struct CrashRunReport {
    /// The workflow run statistics.
    pub stats: RunStats,
    /// Failovers performed by the replica chain.
    pub failovers: u64,
    /// Warm mode: the replay's outcome, `Err` naming the step that failed
    /// (`None` in cold mode, or if the warm hook never ran).
    pub recovery: Option<Result<WarmRecovery, String>>,
    /// Backup replica's policy memory after the run.
    pub backup_snapshot: MemorySnapshot,
    /// Calls that reached the primary.
    pub primary_calls: u64,
}

impl CrashRunReport {
    /// The warm replay, if it ran and succeeded.
    pub fn recovered(&self) -> Option<&WarmRecovery> {
        self.recovery.as_ref().and_then(|r| r.as_ref().ok())
    }
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
    /// Per `(source host, destination host)` pair, the most streams the
    /// greedy policy can have allocated *on top of the recovered allocation
    /// baseline*: see [`grant_bounds`]. A warm backup starts from the
    /// baseline its replayed ledger carries (see [`WarmRecovery::snapshot`]);
    /// a cold backup's baseline is zero.
    pub grant_bounds: BTreeMap<(String, String), u32>,
}

impl CrashReport {
    /// Recovery invariants that must hold; each breach is one line.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (label, run) in [("cold", &self.cold), ("warm", &self.warm)] {
            if !run.stats.success {
                v.push(format!("{label} run did not complete"));
            }
            if run.failovers == 0 {
                v.push(format!("{label} run never failed over to the backup"));
            }
            // Each call appends one record, and the append that fires the
            // crash point is the primary's last call: any later one is
            // advice no replay of its log can know.
            if run.primary_calls > self.crash.append() {
                v.push(format!(
                    "{label} primary took {} calls, past its crash point ({})",
                    run.primary_calls, self.crash
                ));
            }
            for hp in &run.backup_snapshot.host_pairs {
                // Streams the backup inherited from the replayed log (the
                // primary's grants, an unanswered logged evaluate's
                // included): carry-over, not new grants.
                let baseline = run
                    .recovered()
                    .and_then(|r| {
                        r.snapshot
                            .host_pairs
                            .iter()
                            .find(|p| p.src_host == hp.src_host && p.dst_host == hp.dst_host)
                    })
                    .map_or(0, |p| p.allocated);
                let pair = (hp.src_host.to_string(), hp.dst_host.to_string());
                let bound = self.grant_bounds.get(&pair).copied().unwrap_or(0);
                if hp.peak_allocated > baseline + bound {
                    v.push(format!(
                        "{label} backup over-granted {}->{}: peak {} > bound {} \
                         (recovered baseline {baseline} + grant bound {bound})",
                        hp.src_host,
                        hp.dst_host,
                        hp.peak_allocated,
                        baseline + bound,
                    ));
                }
            }
        }
        match &self.warm.recovery {
            None => v.push("warm recovery hook never ran".into()),
            Some(Err(e)) => v.push(format!("warm recovery failed: {e}")),
            Some(Ok(_)) => {}
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

/// The primary's durability directory on its simulated disk.
const WAL_DIR: &str = "primary";

/// The warm hook's work: replay the log in `dir` on `disk` into `backup`
/// and report what it knows afterwards. An `Err` names the step that
/// failed.
fn warm_replay(
    backup: &PolicyController,
    disk: &SimDisk,
    dir: &Path,
) -> Result<WarmRecovery, String> {
    let records = read_recovery(disk, dir)
        .map_err(|e| format!("reading the log: {e}"))?
        .records
        .len();
    backup
        .recover_sharded_session_on(DEFAULT_SESSION, 1, disk, dir)
        .map_err(|e| format!("replaying the log: {e}"))?;
    let snapshot = backup
        .snapshot(DEFAULT_SESSION)
        .map_err(|e| format!("snapshotting the backup: {e}"))?;
    Ok(WarmRecovery { records, snapshot })
}

/// Per host pair, the most streams the greedy policy can have allocated:
/// Table IV's total for the most transfers the executor can have in flight
/// on the pair at once. The executor runs at most `staging_job_limit`
/// staging jobs, and a job has all its transfers in flight together, so
/// that is the pair's transfer count summed over the `staging_job_limit`
/// jobs carrying the most of them (Montage stage-in jobs carry up to two).
///
/// Why Table IV bounds a ledger that also sees completions: at the peak,
/// take the last in-flight transfer granted below the threshold. It and
/// every in-flight transfer granted before it fit under the threshold
/// together, at most `DEFAULT_STREAMS` each; every one granted after it is a
/// 1-stream starvation grant. That sum is largest when all of them asked
/// at once on an empty ledger, which is Table IV's case.
pub fn grant_bounds(
    plan: &ExecutablePlan,
    staging_job_limit: usize,
) -> BTreeMap<(String, String), u32> {
    let mut per_job: BTreeMap<(String, String), Vec<u32>> = BTreeMap::new();
    for i in 0..plan.len() {
        let (PlanJobKind::StageIn { transfers, .. } | PlanJobKind::StageOut { transfers }) =
            &plan.job(i).kind
        else {
            continue;
        };
        let mut counts: BTreeMap<(String, String), u32> = BTreeMap::new();
        for t in transfers.iter() {
            let pair = (t.source.host.to_string(), t.dest.host.to_string());
            *counts.entry(pair).or_default() += 1;
        }
        for (pair, n) in counts {
            per_job.entry(pair).or_default().push(n);
        }
    }
    per_job
        .into_iter()
        .map(|(pair, mut counts)| {
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let in_flight = counts.iter().take(staging_job_limit).sum();
            let bound = greedy_total_for_concurrent_jobs(in_flight, DEFAULT_STREAMS, THRESHOLD);
            (pair, bound)
        })
        .collect()
}

/// Run the crash scenario: same seed and crash point, cold then warm.
pub fn run_crash(cfg: &CrashConfig, seed: u64) -> CrashReport {
    let mut rng = SimRng::for_component(seed, "crash-point");
    let crash = CrashPoint::seeded(&mut rng, cfg.max_crash_append);
    let [cold, warm] = [false, true].map(|warm| {
        // The disk is per-run so cold and warm replay identical logs
        // independently.
        let disk = SimDisk::failing(crash);
        let slot = Arc::new(Mutex::new(None));
        let hook = warm.then(|| {
            let (disk, slot) = (disk.clone(), slot.clone());
            Box::new(move |backup: &PolicyController| {
                let replay = warm_replay(backup, &disk, Path::new(WAL_DIR));
                *slot.lock().expect("no other holder panics") = Some(replay);
            }) as WarmHook
        });
        // No service fault is scheduled: the crash point is the death.
        let run = run_faulted(
            PaperWorld::testbed(),
            FaultedMontage {
                extra_file_bytes: cfg.extra_file_bytes,
                seed,
                transfer_failure_prob: 0.0,
                link_faults: FaultPlan::new(),
                service_faults: FaultPlan::new(),
                backup: true,
                durable: Some(
                    DurabilityConfig::on(disk, WAL_DIR).with_snapshot_every(cfg.snapshot_every),
                ),
                warm: hook,
            },
        );
        let recovery = slot.lock().expect("no other holder panics").take();
        CrashRunReport {
            stats: run.stats,
            failovers: run.failovers,
            recovery,
            backup_snapshot: run.backup_snapshot.expect("crash runs have a backup"),
            primary_calls: run.service_calls_passed,
        }
    });
    let plan =
        PaperWorld::testbed().plan_montage(cfg.extra_file_bytes, seed, &PlannerConfig::default());
    CrashReport {
        crash,
        cold,
        warm,
        grant_bounds: grant_bounds(&plan, ExecutorConfig::default().staging_job_limit),
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
        let recovered = |f: fn(&WarmRecovery) -> usize| {
            run.recovered()
                .map_or_else(|| "-".into(), |r| f(r).to_string())
        };
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>14.0} {:>9} {:>10} {:>16} {:>12}\n",
            label,
            run.stats.makespan_secs(),
            run.stats.bytes_staged,
            run.stats.transfers_skipped,
            run.failovers,
            recovered(|r| r.snapshot.staged_files),
            recovered(|r| r.records),
        ));
    }
    out
}

/// `repro crash`: the cold/warm table, and [`CrashReport::violations`].
pub fn repro(seed: u64) -> SuiteOutput {
    let report = run_crash(&CrashConfig::default(), seed);
    let violations = report.violations();
    let mut text = format!(
        "Crash scenario, seed {seed}: primary policy service dies mid-run; \
         backup takes over cold (empty memory) vs warm (log-shipped)\n{}",
        render_crash(&report)
    );
    if violations.is_empty() {
        text.push_str("recovery invariants: all hold\n\n");
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
    fn a_failed_warm_replay_is_reported_by_name() {
        // A log directory that does not exist: the replay fails at its
        // first step, and the report carries that error instead of an
        // empty recovery.
        let backup = PolicyController::new(pwm_core::PolicyConfig::default());
        let err = warm_replay(&backup, &SimDisk::new(), Path::new("missing")).unwrap_err();
        assert!(err.starts_with("reading the log: "), "{err}");

        let run = |recovery| CrashRunReport {
            stats: RunStats {
                success: true,
                ..RunStats::default()
            },
            failovers: 1,
            recovery,
            backup_snapshot: backup.snapshot(DEFAULT_SESSION).unwrap(),
            primary_calls: 0,
        };
        let report = CrashReport {
            crash: CrashPoint::AfterAppend(1),
            cold: run(None),
            warm: run(Some(Err(err.clone()))),
            grant_bounds: BTreeMap::new(),
        };
        assert_eq!(
            report.violations(),
            vec![format!("warm recovery failed: {err}")]
        );
        // The failed replay renders as no recovery at all.
        assert!(render_crash(&report).ends_with("-            -\n"));
    }
}
