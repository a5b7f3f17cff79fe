//! Integration: crash-consistent policy memory, end to end.
//!
//! The acceptance criteria for the durability layer:
//!
//! 1. **Recovery equivalence** — for seeded disk faults (crash points,
//!    `ENOSPC` on an append, a failed sync), [`PolicyService::recover_from`]
//!    rebuilds a service that is `PartialEq`-identical (facts, ids,
//!    ledgers, stats, audit numbering) to an uninterrupted service that
//!    applied exactly the commands that survived on the [`SimDisk`]: all
//!    `n` for `AfterAppend(n)`, `MidSnapshot { append: n }` and a failed
//!    `n`-th sync, the first `n - 1` for a torn or `ENOSPC` `n`-th append.
//! 2. **Warm-failover invariants** — the primary dies at its crash point
//!    and answers no call its log does not hold, so a backup warmed from
//!    that log knows every piece of advice the executor acted on; it never
//!    grants a host pair past its threshold on top of allocations that
//!    survived the crash, and never re-advises a file the ledger already
//!    marked staged.
//! 3. **Determinism** — the full crash → failover → recovery scenario is a
//!    pure function of its seed, and an uneventful durability sink does
//!    not perturb the simulation it shadows.

use pwm_bench::{grant_bounds, run_crash, CrashConfig, PaperWorld};
use pwm_core::{
    AllocationPolicy, CleanupId, CleanupOutcome, CleanupSpec, CrashPoint, DiskFault, DiskOp,
    DurabilityConfig, FailoverTransport, FaultKind, PolicyConfig, PolicyController, PolicyService,
    PolicyTransport, SimDisk, TransferId, TransferOutcome, TransferSpec, Url, WalCommand,
    WorkflowId, DEFAULT_SESSION,
};
use pwm_rest::PolicyRestClient;
use pwm_sim::SimRng;
use pwm_workflow::{ExecutorConfig, PlanJobKind, PlannerConfig};
use std::path::Path;

/// The durability directory every test here writes, on its own disk.
const DIR: &str = "wal";

/// A deterministic, seed-derived script of service commands: staged and
/// re-requested files (exercising dedup), successes and failures, cleanups,
/// and mid-stream config changes. Reports may name ids that were never
/// granted — the service ignores them, identically live and on replay.
fn command_script(rng: &mut SimRng, steps: usize) -> Vec<WalCommand> {
    let sources = ["srcA", "srcB"];
    let mut transfers_seen: u64 = 0;
    let mut cleanups_seen: u64 = 0;
    let mut cmds = Vec::with_capacity(steps);
    for step in 0..steps {
        let kind = if transfers_seen == 0 {
            0
        } else {
            rng.uniform_u64(0, 4)
        };
        match kind {
            0 | 1 => {
                let batch: Vec<TransferSpec> = (0..rng.uniform_u64(1, 3))
                    .map(|_| {
                        let f = rng.uniform_u64(0, 11);
                        let src = sources[rng.uniform_u64(0, 1) as usize];
                        TransferSpec {
                            source: Url::new("gsiftp", src, format!("/data/f{f}")),
                            dest: Url::new("file", "wn", format!("/scratch/f{f}")),
                            bytes: (f + 1) * 1_000_000,
                            requested_streams: None,
                            workflow: WorkflowId(1 + f % 2),
                            cluster: None,
                            priority: None,
                        }
                    })
                    .collect();
                transfers_seen += batch.len() as u64;
                cmds.push(WalCommand::EvaluateTransfers(batch));
            }
            2 => {
                let outcomes = (0..rng.uniform_u64(1, 2))
                    .map(|_| TransferOutcome {
                        id: TransferId(rng.uniform_u64(0, transfers_seen - 1)),
                        success: rng.uniform_u64(0, 3) != 0,
                    })
                    .collect();
                cmds.push(WalCommand::ReportTransfers(outcomes));
            }
            3 => {
                let f = rng.uniform_u64(0, 11);
                cmds.push(WalCommand::EvaluateCleanups(vec![CleanupSpec {
                    file: Url::new("file", "wn", format!("/scratch/f{f}")),
                    workflow: WorkflowId(1),
                }]));
                cleanups_seen += 1;
            }
            _ => {
                if cleanups_seen == 0 || step % 2 == 0 {
                    cmds.push(WalCommand::SetConfig(
                        PolicyConfig::default().with_threshold(30 + (step as u32 % 3) * 10),
                    ));
                } else {
                    cmds.push(WalCommand::ReportCleanups(vec![CleanupOutcome {
                        id: CleanupId(rng.uniform_u64(0, cleanups_seen - 1)),
                        success: true,
                    }]));
                }
            }
        }
    }
    cmds
}

/// Drive one logged command through the public service API (what the WAL
/// replay itself does internally).
fn apply(svc: &mut PolicyService, cmd: &WalCommand) {
    match cmd.clone() {
        WalCommand::EvaluateTransfers(batch) => {
            svc.evaluate_transfers(batch);
        }
        WalCommand::EvaluateTransferGroups(groups) => {
            svc.evaluate_transfer_groups(groups);
        }
        WalCommand::ReportTransfers(outcomes) => svc.report_transfers(outcomes),
        WalCommand::EvaluateCleanups(batch) => {
            svc.evaluate_cleanups(batch);
        }
        WalCommand::ReportCleanups(outcomes) => svc.report_cleanups(outcomes),
        WalCommand::SetConfig(config) => svc.set_config(config),
        WalCommand::ReportHealth(events) => svc.report_health(events),
    }
}

/// How many commands of the script the disk still holds after `fault`,
/// which lands on the log.
fn surviving_prefix(fault: DiskFault) -> usize {
    let n = fault.nth as usize;
    match fault.op {
        // `ENOSPC` lands nothing of the n-th frame, a torn write a part
        // that the torn-tail rule drops: exactly record n is lost.
        DiskOp::Write => n - 1,
        // A failed sync, or a death at it (`AfterAppend`, `MidSnapshot`),
        // leaves the n-th record whole: `SimDisk` holds no unsynced bytes.
        DiskOp::Sync => n,
        DiskOp::Rename | DiskOp::Truncate => unreachable!("{fault:?} is not on the log"),
    }
}

/// Feed all of `cmds` to a durable service on a disk failing on `fault`,
/// compacting every `every` appends — past the failure too, as the
/// golden reference for what was lost — and check that recovery equals
/// an uninterrupted service that applied the documented prefix.
fn recovers_its_prefix(cmds: &[WalCommand], fault: DiskFault, every: u64) {
    let disk = SimDisk::failing(fault);
    let mut durable = PolicyService::new(PolicyConfig::default());
    durable
        .enable_durability(DurabilityConfig::on(disk.clone(), DIR).with_snapshot_every(every))
        .unwrap();
    for cmd in cmds {
        apply(&mut durable, cmd);
    }
    assert!(durable.durability_down(), "{fault:?} never fired");

    let survived = surviving_prefix(fault);
    let mut reference = PolicyService::new(PolicyConfig::default());
    for cmd in &cmds[..survived] {
        apply(&mut reference, cmd);
    }
    let recovered = PolicyService::recover_from(&disk, Path::new(DIR)).unwrap();
    assert_eq!(
        recovered.durable_state(),
        reference.durable_state(),
        "recovery after {fault:?} must equal the uninterrupted {survived}-command prefix"
    );
    assert_eq!(recovered.snapshot(), reference.snapshot());
}

#[test]
fn recovery_equals_uninterrupted_prefix_for_seeded_crash_points() {
    // CI's release run raises the seed count through PWM_PROPTEST_CASES.
    let seeds = option_env!("PWM_PROPTEST_CASES")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10u64);
    for seed in 1..=seeds {
        let mut script_rng = SimRng::for_component(seed, "crash-recovery-script");
        let cmds = command_script(&mut script_rng, 32);
        let len = cmds.len() as u64;
        let crash = CrashPoint::seeded(
            &mut SimRng::for_component(seed, "crash-recovery-point"),
            len,
        );
        let mut fault_rng = SimRng::for_component(seed, "crash-recovery-disk-fault");
        let mut at = || fault_rng.uniform_u64(1, len);
        for fault in [
            DiskFault::from(crash),
            DiskFault::on_log(DiskOp::Write, at(), FaultKind::NoSpace),
            DiskFault::on_log(DiskOp::Sync, at(), FaultKind::IoError),
        ] {
            recovers_its_prefix(&cmds, fault, 5);
        }
    }
}

#[test]
fn every_crash_class_recovers_its_documented_prefix() {
    let torn = |keep| CrashPoint::TornAppend { append: 10, keep };
    let cases = [
        (DiskFault::from(CrashPoint::AfterAppend(10)), 10),
        (DiskFault::from(torn(7)), 9),
        // keep = 0: the torn frame left zero bytes — still only record 10
        // is lost.
        (DiskFault::from(torn(0)), 9),
        (DiskFault::from(CrashPoint::MidSnapshot { append: 10 }), 10),
        (DiskFault::on_log(DiskOp::Write, 10, FaultKind::NoSpace), 9),
        (DiskFault::on_log(DiskOp::Sync, 10, FaultKind::IoError), 10),
    ];
    let mut rng = SimRng::for_component(99, "crash-class-script");
    let cmds = command_script(&mut rng, 16);
    for (fault, survived) in cases {
        assert_eq!(surviving_prefix(fault), survived, "{fault:?}");
        recovers_its_prefix(&cmds, fault, 4);
    }
}

fn stage_spec(n: u64) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", "srcA", format!("/data/g{n}")),
        dest: Url::new("file", "wn", format!("/scratch/g{n}")),
        bytes: 5_000_000,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    }
}

#[test]
fn warm_failover_never_overgrants_and_never_restages() {
    let disk = SimDisk::new();
    let config = PolicyConfig::default()
        .with_default_streams(6)
        .with_threshold(10);

    // Durable primary stages g1 to completion and leaves g2 in flight,
    // holding 6 of the pair's 10 streams; then the process dies.
    let primary = PolicyController::new(config.clone());
    primary
        .create_durable_session(
            DEFAULT_SESSION,
            config.clone(),
            DurabilityConfig::on(disk.clone(), DIR).with_snapshot_every(3),
        )
        .unwrap();
    let mut live = PolicyRestClient::pipe(primary.clone(), DEFAULT_SESSION);
    let staged = live.evaluate_transfers(vec![stage_spec(1)]).unwrap();
    live.report_transfers(vec![TransferOutcome {
        id: staged[0].id,
        success: true,
    }])
    .unwrap();
    let inflight = live.evaluate_transfers(vec![stage_spec(2)]).unwrap();
    assert_eq!(inflight[0].streams, 6);

    // The backup warms itself from the primary's log just before its first
    // request.
    let backup = PolicyController::new(config.clone());
    let hook_backup = backup.clone();
    // The dead primary: a replica with no session refuses every call.
    let dead = PolicyController::new(config.clone());
    let mut chain = FailoverTransport::new(vec![
        Box::new(PolicyRestClient::pipe(dead, "down")),
        Box::new(PolicyRestClient::pipe(backup.clone(), DEFAULT_SESSION)),
    ])
    .with_warm_recovery(move |_ix| {
        hook_backup
            .recover_sharded_session_on(DEFAULT_SESSION, 1, &disk, Path::new(DIR))
            .unwrap();
    });

    // Invariant: the staged g1 is never re-advised.
    let again = chain.evaluate_transfers(vec![stage_spec(1)]).unwrap();
    assert!(
        !again[0].should_execute(),
        "warm backup must remember g1 is AlreadyStaged"
    );

    // Invariant: the surviving g2 allocation still counts against the
    // pair, so new grants never push (srcA, wn) past its threshold.
    let fresh = chain.evaluate_transfers(vec![stage_spec(3)]).unwrap();
    let snap = backup.snapshot(DEFAULT_SESSION).unwrap();
    let pair = snap
        .host_pairs
        .iter()
        .find(|hp| hp.src_host == "srcA" && hp.dst_host == "wn")
        .expect("recovered ledger tracks the pair");
    assert!(
        pair.allocated <= 10,
        "warm failover over-granted: {} streams allocated on a threshold-10 pair",
        pair.allocated
    );
    assert!(inflight[0].streams + fresh[0].streams <= 10);
    assert_eq!(chain.failovers(), 1);
}

/// A compact crash scenario so debug-mode integration runs stay quick.
fn scenario() -> CrashConfig {
    CrashConfig {
        extra_file_bytes: 2_000_000,
        max_crash_append: 20,
        snapshot_every: 8,
    }
}

#[test]
fn crash_failover_scenario_holds_recovery_invariants_end_to_end() {
    let report = run_crash(&scenario(), 21);
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "recovery invariants violated:\n{}",
        violations.join("\n")
    );
    // The warm hook really replayed the primary's log.
    assert!(report.warm.recovered().is_some());
    assert!(report.warm.failovers >= 1);
}

/// The death is the crash point: the call whose append fires it is the last
/// call the primary takes, and it never answers it. So the primary answered
/// only calls its log holds, and a warm backup's replay covers every piece
/// of advice the executor acted on.
fn primary_answers_nothing_past_its_crash_point(seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        let report = run_crash(&scenario(), seed);
        for (label, run) in [("cold", &report.cold), ("warm", &report.warm)] {
            assert!(
                run.primary_calls <= report.crash.append(),
                "seed {seed} {label}: the primary took {} calls, past its {}",
                run.primary_calls,
                report.crash
            );
        }
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "seed {seed}: recovery invariants violated:\n{}",
            violations.join("\n")
        );
    }
}

// Seeds 1..=32, in two halves so the test harness runs them side by side.
#[test]
fn the_primary_answers_nothing_past_its_crash_point_seeds_1_to_16() {
    primary_answers_nothing_past_its_crash_point(1..=16);
}

#[test]
fn the_primary_answers_nothing_past_its_crash_point_seeds_17_to_32() {
    primary_answers_nothing_past_its_crash_point(17..=32);
}

#[test]
fn crash_recovery_outcome_is_a_pure_function_of_the_seed() {
    let cfg = scenario();
    let a = run_crash(&cfg, 33);
    let b = run_crash(&cfg, 33);
    assert_eq!(a.crash, b.crash);
    assert_eq!(a.cold.stats.makespan, b.cold.stats.makespan);
    assert_eq!(a.warm.stats.makespan, b.warm.stats.makespan);
    let recovered =
        |r: &pwm_bench::CrashReport| r.warm.recovered().map(|w| (w.records, w.snapshot.clone()));
    assert_eq!(recovered(&a), recovered(&b));
}

#[test]
fn an_uneventful_durability_sink_does_not_perturb_advice() {
    // Same command script through a plain service and a durable one whose
    // crash point never fires: byte-identical policy memory afterwards.
    let mut rng = SimRng::for_component(55, "no-perturb-script");
    let cmds = command_script(&mut rng, 24);
    let disk = SimDisk::new();
    let mut plain = PolicyService::new(PolicyConfig::default());
    let mut durable = PolicyService::new(PolicyConfig::default());
    durable
        .enable_durability(DurabilityConfig::on(disk.clone(), DIR).with_snapshot_every(6))
        .unwrap();
    for cmd in &cmds {
        apply(&mut plain, cmd);
        apply(&mut durable, cmd);
    }
    assert!(!durable.durability_down());
    assert_eq!(plain.snapshot(), durable.snapshot());
    assert_eq!(plain.stats(), durable.stats());
    // And the disk image round-trips to the same memory.
    let recovered = PolicyService::recover_from(&disk, Path::new(DIR)).unwrap();
    assert_eq!(recovered.durable_state(), plain.durable_state());
}

#[test]
fn the_grant_bound_is_reached_by_a_full_wave_of_stage_ins() {
    // The paper plan's stage-in jobs carry two Apache inputs at most, so 20
    // running jobs hold 40 Apache transfers in flight; the GridFTP extra
    // file is one per job.
    let plan = PaperWorld::testbed().plan_montage(10_000_000, 12, &PlannerConfig::default());
    let limit = ExecutorConfig::default().staging_job_limit;
    let bounds = grant_bounds(&plan, limit);
    let bound = |src: &str| bounds[&(src.to_string(), "obelix-nfs".to_string())];
    assert_eq!(bound("apache-isi"), 77, "40 in flight: 12 x 4 + 2 + 27 x 1");
    assert_eq!(bound("gridftp-vm"), 57, "20 in flight: 12 x 4 + 2 + 7 x 1");

    // The crash scenario's greedy service (threshold 50, 4 streams), asked
    // for the Apache inputs of the 20 heaviest stage-in jobs at once on an
    // empty ledger, allocates exactly the bound.
    let config = PolicyConfig::default()
        .with_default_streams(4)
        .with_threshold(50)
        .with_allocation(AllocationPolicy::Greedy);
    let service = PolicyController::new(config);
    let mut jobs: Vec<Vec<TransferSpec>> = (0..plan.len())
        .filter_map(|i| match &plan.job(i).kind {
            PlanJobKind::StageIn { transfers, .. } => Some(transfers),
            _ => None,
        })
        .map(|transfers| {
            let apache = transfers
                .iter()
                .filter(|t| t.source.host.as_str() == "apache-isi");
            apache
                .map(|t| TransferSpec {
                    source: t.source.clone(),
                    dest: t.dest.clone(),
                    bytes: t.bytes,
                    requested_streams: None,
                    workflow: WorkflowId(1),
                    cluster: None,
                    priority: None,
                })
                .collect()
        })
        .collect();
    jobs.sort_by_key(|job| std::cmp::Reverse(job.len()));
    for job in jobs.into_iter().take(limit) {
        service.evaluate_transfers(DEFAULT_SESSION, job).unwrap();
    }
    let snapshot = service.snapshot(DEFAULT_SESSION).unwrap();
    let apache = snapshot
        .host_pairs
        .iter()
        .find(|p| p.src_host == "apache-isi");
    assert_eq!(apache.map(|p| p.peak_allocated), Some(bound("apache-isi")));
}
