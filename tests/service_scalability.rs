//! Scalability of the incremental rule-matching engine (ISSUE: the Policy
//! Service hot path).
//!
//! Four properties of the agenda + dirty-set design are asserted here:
//!
//! 1. **Sub-quadratic advice latency.** A transfer lifecycle against a
//!    session holding 10× more resident staged files must cost well under
//!    30× the time — the old engine re-matched every rule against the full
//!    cross product once per *firing*, which scales quadratically.
//! 2. **Clean types are not re-evaluated.** Transfer-only traffic never
//!    touches `CleanupFact`, so rules that only watch cleanup-side types
//!    must show zero additional evaluations in the per-rule counters.
//! 3. **A firing re-evaluates the rules that read what it wrote.** One
//!    transfer group's matcher evaluations stay under a pinned count that
//!    type-level watches exceed, and an outcome report evaluates only the
//!    rules of its own agenda group.
//! 4. **Cleanup routing does not scan policy memory.** A sharded session
//!    finds the shard owning a cleanup's file by probing each shard's
//!    resource index; 10× the resident staged files must leave the cost of
//!    a cleanup request about where it was.

use pwm_core::{
    CleanupOutcome, CleanupSpec, PolicyConfig, PolicyService, ShardedPolicyService,
    TransferOutcome, TransferSpec, Url, WorkflowId,
};
use std::time::{Duration, Instant};

fn spec(name: &str, workflow: u64) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", "gridftp-vm", format!("/data/{name}.dat")),
        dest: Url::new("file", "obelix-nfs", format!("/scratch/{name}.dat")),
        bytes: 1,
        requested_streams: None,
        workflow: WorkflowId(workflow),
        cluster: None,
        priority: None,
    }
}

/// A service whose policy memory holds `resident` staged files owned by
/// other workflows (the multi-workflow sharing scenario of Table I).
fn service_with_resident_files(resident: usize) -> PolicyService {
    let mut service = PolicyService::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(1_000_000),
    );
    // Small batches keep the in-flight transfer set (and thus the join
    // cross-product paid while staging) small during setup.
    const CHUNK: usize = 10;
    for chunk in 0..resident.div_ceil(CHUNK) {
        let batch: Vec<TransferSpec> = (0..CHUNK.min(resident - chunk * CHUNK))
            .map(|i| spec(&format!("resident_{chunk}_{i}"), chunk as u64))
            .collect();
        let advice = service.evaluate_transfers(batch);
        service.report_transfers(
            advice
                .iter()
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect(),
        );
    }
    service
}

/// One full advice round-trip (transfer advice → completion → cleanup
/// advice → completion); policy memory returns to its resident baseline.
fn lifecycle(service: &mut PolicyService, tag: u64) {
    let name = format!("q{tag}");
    let advice = service.evaluate_transfers(vec![spec(&name, 9999)]);
    service.report_transfers(vec![TransferOutcome {
        id: advice[0].id,
        success: true,
    }]);
    let cleanups = service.evaluate_cleanups(vec![CleanupSpec {
        file: Url::new("file", "obelix-nfs", format!("/scratch/{name}.dat")),
        workflow: WorkflowId(9999),
    }]);
    service.report_cleanups(vec![CleanupOutcome {
        id: cleanups[0].id,
        success: true,
    }]);
}

/// Best-of-`repeats` time for `iters` lifecycles at a resident-set size.
fn measure(resident: usize, iters: u64, repeats: usize) -> Duration {
    let mut best = Duration::MAX;
    for rep in 0..repeats {
        let mut service = service_with_resident_files(resident);
        lifecycle(&mut service, u64::MAX); // warm the agenda caches
        let start = Instant::now();
        for i in 0..iters {
            lifecycle(&mut service, rep as u64 * iters + i);
        }
        best = best.min(start.elapsed());
    }
    best
}

#[test]
fn advice_latency_grows_subquadratically_with_resident_facts() {
    let iters = 30;
    let small = measure(80, iters, 2);
    let large = measure(800, iters, 2);
    // 10× the resident facts must cost < 30× the time. The pre-agenda
    // engine was ~quadratic here (every firing re-matched the full cross
    // product); linear-ish growth passes with a wide margin.
    let limit = small.saturating_mul(30);
    assert!(
        large < limit,
        "10x resident facts cost {large:?}, more than 30x the baseline {small:?}"
    );
}

#[test]
fn transfer_traffic_does_not_reevaluate_cleanup_only_rules() {
    let mut service = service_with_resident_files(100);
    // Warm-up: every rule is evaluated at least once when the agenda is
    // first computed (and the lifecycle touches the cleanup types too).
    lifecycle(&mut service, 0);

    let evals = |service: &PolicyService, rule: &str| -> u64 {
        service
            .rule_stats()
            .iter()
            .find(|s| s.name == rule)
            .unwrap_or_else(|| panic!("rule {rule:?} missing from stats"))
            .evaluations
    };
    const CLEANUP_RULE: &str = "remove duplicate cleanup requests";
    const TRANSFER_RULE: &str = "remove duplicate transfers from the transfer list";
    let cleanup_before = evals(&service, CLEANUP_RULE);
    let transfer_before = evals(&service, TRANSFER_RULE);

    // Transfer-only churn: inserts/updates/retracts TransferFact,
    // ResourceFact and HostPairFact — never CleanupFact.
    for i in 0..20 {
        let advice = service.evaluate_transfers(vec![spec(&format!("churn{i}"), 7)]);
        service.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
    }

    assert_eq!(
        evals(&service, CLEANUP_RULE),
        cleanup_before,
        "cleanup-only rule was re-evaluated by transfer traffic"
    );
    assert!(
        evals(&service, TRANSFER_RULE) > transfer_before,
        "transfer rule should have been re-evaluated by transfer traffic"
    );
}

/// A file staged between one of eight host pairs, so a 4-shard session
/// spreads the set over its shards.
#[test]
fn a_transfer_group_evaluates_only_the_rules_its_firings_concern() {
    // Two new transfers and one duplicate of a staged file: 11 firings, each
    // writing one or two fields of one fact. Re-evaluating every rule that
    // watches the written fact's type after each firing takes 111 matcher
    // evaluations; field-level watches and `requires` guards take 33, and
    // a pass that visits only its own agenda groups 27.
    let mut service = service_with_resident_files(20);
    let evaluations = |service: &PolicyService| -> u64 {
        service.rule_stats().iter().map(|r| r.evaluations).sum()
    };
    let firings_before = service.stats().rule_firings;
    let before = evaluations(&service);
    let advice = service.evaluate_transfers(vec![
        spec("fresh_a", 7),
        spec("fresh_b", 7),
        spec("resident_0_0", 7),
    ]);
    assert_eq!(advice.iter().filter(|a| a.should_execute()).count(), 2);
    assert_eq!(service.stats().rule_firings - firings_before, 11);
    let spent = evaluations(&service) - before;
    assert!(spent <= 27, "{spent} matcher evaluations for one group");
}

#[test]
fn a_report_pass_evaluates_only_the_rules_of_its_group() {
    // The rules an outcome report can fire: the two completion removals
    // and the two releases. Every batch rule — transfer or cleanup — sits
    // in another agenda group, which a report pass does not visit.
    const REPORT_RULES: [&str; 4] = [
        "remove a transfer that has completed",
        "remove a transfer that has failed",
        "balanced: release the cluster ledger on completion or failure",
        "storage: release the backend charge of a finished transfer",
    ];
    let mut service = service_with_resident_files(20);
    lifecycle(&mut service, 0);
    let advice = service.evaluate_transfers(vec![spec("fresh_a", 7), spec("fresh_b", 7)]);
    // (evaluations of the report rules, of every other rule)
    let split = |service: &PolicyService| -> (u64, u64) {
        let mut sums = (0, 0);
        for rule in service.rule_stats() {
            if REPORT_RULES.contains(&rule.name.as_str()) {
                sums.0 += rule.evaluations;
            } else {
                sums.1 += rule.evaluations;
            }
        }
        sums
    };
    let (report_before, other_before) = split(&service);
    service.report_transfers(vec![
        TransferOutcome {
            id: advice[0].id,
            success: true,
        },
        TransferOutcome {
            id: advice[1].id,
            success: false,
        },
    ]);
    let (report_after, other_after) = split(&service);
    assert_eq!(
        other_after, other_before,
        "a report pass evaluated an evaluate-transfers or cleanup rule"
    );
    assert!(report_after > report_before, "the removals never ran");
}

fn spread_spec(n: usize, workflow: u64) -> TransferSpec {
    let mut s = spec(&format!("spread_{n}"), workflow);
    s.source.host = format_args!("gridftp-{}", n % 8).into();
    s.dest.host = format_args!("scratch-{}", n % 8).into();
    s
}

/// Stage `specs` through `service` and report every approved transfer done.
fn stage(service: &ShardedPolicyService, specs: Vec<TransferSpec>) {
    let advice = service.evaluate_transfers(specs);
    service.report_transfers(
        advice
            .iter()
            .filter(|a| a.should_execute())
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect(),
    );
}

/// Time spent in `evaluate_cleanups` over `iters` shared-file lifecycles
/// against a 4-shard session holding `resident` staged files, best of
/// `repeats`: workflow 1 stages eight files and completes them, workflow 2
/// asks for the same files (suppressed, but now a user), workflow 1's
/// cleanups are refused while workflow 2 still uses the files, workflow 2's —
/// the last user's — execute and are reported done, which returns policy
/// memory to the resident set.
fn cleanup_advice_time(resident: usize, iters: usize, repeats: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..repeats {
        let service = ShardedPolicyService::new(
            PolicyConfig::default()
                .with_default_streams(8)
                .with_threshold(1_000_000),
            4,
        );
        let files: Vec<usize> = (0..resident).collect();
        for chunk in files.chunks(16) {
            stage(&service, chunk.iter().map(|&n| spread_spec(n, 7)).collect());
        }
        let mut spent = Duration::ZERO;
        for i in 0..iters {
            let churn: Vec<usize> = (0..8).map(|k| resident + i * 8 + k).collect();
            stage(&service, churn.iter().map(|&n| spread_spec(n, 1)).collect());
            let shared =
                service.evaluate_transfers(churn.iter().map(|&n| spread_spec(n, 2)).collect());
            assert!(shared.iter().all(|a| !a.should_execute()));
            for (workflow, last_user) in [(1, false), (2, true)] {
                let cleanups: Vec<CleanupSpec> = churn
                    .iter()
                    .map(|&n| CleanupSpec {
                        file: spread_spec(n, workflow).dest,
                        workflow: WorkflowId(workflow),
                    })
                    .collect();
                let start = Instant::now();
                let advice = service.evaluate_cleanups(cleanups);
                spent += start.elapsed();
                assert!(
                    advice.iter().all(|a| a.should_execute() == last_user),
                    "a shared file is deleted by its last user only"
                );
                service.report_cleanups(
                    advice
                        .iter()
                        .filter(|a| a.should_execute())
                        .map(|a| CleanupOutcome {
                            id: a.id,
                            success: true,
                        })
                        .collect(),
                );
            }
        }
        assert_eq!(service.snapshot().staged_files, resident);
        best = best.min(spent);
    }
    best
}

#[test]
fn sharded_cleanup_advice_does_not_scan_resident_files() {
    let iters = 12;
    let small = cleanup_advice_time(500, iters, 3);
    let large = cleanup_advice_time(5_000, iters, 3);
    // Routing by a scan of each shard's resources made a cleanup spec cost
    // O(resident files) — more than 3× here, where the rules pass is the
    // fixed part. Index probes leave it flat; 2× is the noise allowance.
    let limit = small.saturating_mul(2);
    assert!(
        large < limit,
        "cleanup advice with 10x resident files took {large:?}, more than 2x the baseline {small:?}"
    );
}
