//! Integration: the sharded Policy Service.
//!
//! Three acceptance properties of the host-pair sharding layer:
//!
//! 1. **Ring stability** (proptest) — the consistent-hash ring assigns
//!    host pairs deterministically, and growing or shrinking the ring by
//!    one shard moves only the keys the added/removed shard owns (~K/n of
//!    them), never reshuffling the rest.
//! 2. **Equivalence** — a sharded + batched service hands out the same
//!    advice and audit outcomes as the single-domain service for a
//!    same-seed Montage session, with per-shard ordering preserved; a
//!    one-shard sharded service is bit-identical to the unsharded one.
//! 3. **Per-shard crash recovery** — on a `SimDisk` scripted by a
//!    `CrashPoint`, whose ordinals count per log file, each shard's sink
//!    freezes independently at its own N-th append, and
//!    `ShardedPolicyService::recover_from` rebuilds
//!    every shard `PartialEq`-identical to an uninterrupted reference
//!    that applied exactly the commands that shard's disk retained.

use pwm_core::{
    AuditRecord, CrashPoint, DurabilityConfig, HashRing, OrderingPolicy, PolicyConfig, PolicyEvent,
    PolicyService, ShardedPolicyService, SimDisk, TransferAction, TransferAdvice, TransferOutcome,
    TransferSpec, Url, WorkflowId,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::paper_testbed;
use pwm_workflow::{plan, ComputeSite, PlanJobKind, PlannerConfig};
use std::collections::BTreeMap;
use std::path::Path;

// ---------------------------------------------------------------------------
// 1. Consistent-hash ring properties.
// ---------------------------------------------------------------------------

mod ring_props {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic host-pair keys derived from proptest-chosen indices.
    fn pairs(keys: &[(u16, u16)]) -> Vec<(String, String)> {
        keys.iter()
            .map(|&(a, b)| (format!("src-{a}"), format!("dst-{b}")))
            .collect()
    }

    proptest! {
        /// Two independently built rings of the same size agree on every
        /// key: placement is a pure function of (key, shard count).
        #[test]
        fn assignment_is_stable(
            shards in 1u16..9,
            keys in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..256),
        ) {
            let a = HashRing::new(shards);
            let b = HashRing::new(shards);
            for (s, d) in pairs(&keys) {
                let owner = a.shard_for_pair(&s, &d);
                prop_assert_eq!(owner, b.shard_for_pair(&s, &d));
                prop_assert!(owner < shards);
            }
        }

        /// Growing the ring from n to n+1 shards moves only the keys the
        /// new shard captures — every reassigned key lands on shard n, so
        /// at most ~K/(n+1) keys move and nothing else is reshuffled.
        #[test]
        fn growing_moves_only_the_new_shards_keys(
            shards in 1u16..8,
            keys in proptest::collection::vec((any::<u16>(), any::<u16>()), 32..512),
        ) {
            let small = HashRing::new(shards);
            let grown = HashRing::new(shards + 1);
            let mut moved = 0usize;
            for (s, d) in pairs(&keys) {
                let before = small.shard_for_pair(&s, &d);
                let after = grown.shard_for_pair(&s, &d);
                if before != after {
                    prop_assert_eq!(
                        after, shards,
                        "a key moving on growth must move to the new shard"
                    );
                    moved += 1;
                }
            }
            // Expected share is K/(n+1); vnode placement is uneven, so
            // allow a wide margin — the point is "a slice, not a reshuffle".
            let bound = 3 * keys.len() / (shards as usize + 1) + 8;
            prop_assert!(
                moved <= bound,
                "grow {shards}->{} moved {moved} of {} keys (bound {bound})",
                shards + 1,
                keys.len()
            );
        }

        /// Shrinking is the mirror image: only the removed shard's keys
        /// are redistributed.
        #[test]
        fn shrinking_moves_only_the_removed_shards_keys(
            shards in 1u16..8,
            keys in proptest::collection::vec((any::<u16>(), any::<u16>()), 32..512),
        ) {
            let grown = HashRing::new(shards + 1);
            let small = HashRing::new(shards);
            for (s, d) in pairs(&keys) {
                let before = grown.shard_for_pair(&s, &d);
                let after = small.shard_for_pair(&s, &d);
                if before != after {
                    prop_assert_eq!(
                        before, shards,
                        "a key moving on shrink must come from the removed shard"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Sharded + batched ≡ single-domain, on a seeded Montage session.
// ---------------------------------------------------------------------------

/// The stage-in request groups of a seeded Montage plan, in plan order —
/// exactly the specs the workflow executor submits per staging job.
fn montage_stage_in_groups(seed: u64) -> Vec<Vec<TransferSpec>> {
    let (_topo, gridftp, apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let wf = montage_workflow(&MontageConfig {
        extra_file_bytes: 10_000_000,
        seed,
        ..Default::default()
    });
    let rc = montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
    let mut groups = Vec::new();
    for (i, job) in p.jobs().iter().enumerate() {
        if let PlanJobKind::StageIn { transfers, cluster } = &job.kind {
            groups.push(
                transfers
                    .iter()
                    .map(|pt| TransferSpec {
                        source: pt.source.clone(),
                        dest: pt.dest.clone(),
                        bytes: pt.bytes,
                        requested_streams: None,
                        workflow: p.workflow(i).unwrap_or(WorkflowId(1)),
                        cluster: cluster.map(pwm_core::ClusterId),
                        priority: Some(job.priority),
                    })
                    .collect(),
            );
        }
    }
    assert!(groups.len() >= 80, "Montage has ~89 staging jobs");
    groups
}

/// Advice with the service-assigned identifiers masked out: shards mint
/// ids and group ids from disjoint namespaces, so equivalence is about
/// the decision content, not the raw numbers.
fn advice_content(a: &TransferAdvice) -> (Url, Url, TransferAction, u32, u32) {
    (
        a.source.clone(),
        a.dest.clone(),
        a.action,
        a.streams,
        a.order,
    )
}

/// An audit record's content modulo id namespacing.
fn audit_content(r: &AuditRecord) -> String {
    match &r.event {
        PolicyEvent::TransferEvaluated {
            streams, skipped, ..
        } => format!("eval streams={streams} skipped={skipped:?}"),
        PolicyEvent::TransferReported { success, .. } => format!("reported success={success}"),
        other => format!("{other:?}"),
    }
}

#[test]
fn sharded_batched_service_matches_single_domain_on_a_montage_session() {
    sharded_matches_single_domain(OrderingPolicy::ByUrl, montage_stage_in_groups(1));
}

/// The same session under the priority ordering, with priorities that
/// differ inside every request group — the one ordering where the one-shard
/// hand-off (the engine's own sort) and the cross-shard merge (a re-sort by
/// the priorities the router saw) could disagree.
#[test]
fn sharded_batched_service_matches_single_domain_under_priority_ordering() {
    let mut groups = montage_stage_in_groups(1);
    for group in &mut groups {
        for (i, spec) in group.iter_mut().enumerate() {
            spec.priority = Some((i % 3) as i32);
        }
    }
    sharded_matches_single_domain(OrderingPolicy::ByPriority, groups);
}

fn sharded_matches_single_domain(ordering: OrderingPolicy, groups: Vec<Vec<TransferSpec>>) {
    let config = PolicyConfig::default()
        .with_default_streams(8)
        .with_threshold(50)
        .with_ordering(ordering);

    let mut single = PolicyService::new(config.clone());
    let sharded = ShardedPolicyService::new(config.clone(), 4);
    let one_shard = ShardedPolicyService::new(config, 1);

    // id → owning shard, for projecting the single-domain audit per shard.
    let mut single_id_shard: BTreeMap<u64, u16> = BTreeMap::new();

    // Drive the plan's staging jobs in batched windows of four groups —
    // the event loop's pipelined-batch shape — reporting every granted
    // transfer complete between windows, as the PTT does.
    for window in groups.chunks(4) {
        let win: Vec<Vec<TransferSpec>> = window.to_vec();
        let a_single = single.evaluate_transfer_groups(win.clone());
        let a_sharded = sharded.evaluate_transfer_groups(win.clone());
        let a_one = one_shard.evaluate_transfer_groups(win.clone());

        assert_eq!(
            a_single, a_one,
            "a one-shard sharded service must be bit-identical to the \
             unsharded service (same ids, groups, everything)"
        );
        assert_eq!(a_single.len(), a_sharded.len());
        for (gs, gh) in a_single.iter().zip(&a_sharded) {
            let lhs: Vec<_> = gs.iter().map(advice_content).collect();
            let rhs: Vec<_> = gh.iter().map(advice_content).collect();
            assert_eq!(lhs, rhs, "sharded advice content diverged");
        }

        for advice in a_single.iter().flatten() {
            single_id_shard.insert(
                advice.id.0,
                sharded
                    .ring()
                    .shard_for_pair(&advice.source.host, &advice.dest.host),
            );
        }

        // Report completions to each service under its own id namespace.
        let outs = |advice: &[Vec<TransferAdvice>]| -> Vec<TransferOutcome> {
            advice
                .iter()
                .flatten()
                .filter(|a| a.should_execute())
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect()
        };
        single.report_transfers(outs(&a_single));
        sharded.report_transfers(outs(&a_sharded));
        one_shard.report_transfers(outs(&a_one));
    }

    // Per-shard ordering: shard s's own audit trail must equal the
    // single-domain trail filtered to the requests shard s owns — same
    // events, same relative order, numbering aside.
    let single_audit = single.audit_since(0);
    for s in 0..sharded.shard_count() {
        let projected: Vec<String> = single_audit
            .iter()
            .filter(|r| {
                let id = match &r.event {
                    PolicyEvent::TransferEvaluated { id, .. } => id.0,
                    PolicyEvent::TransferReported { id, .. } => id.0,
                    _ => return true,
                };
                single_id_shard.get(&id) == Some(&s)
            })
            .map(audit_content)
            .collect();
        let shard_audit: Vec<String> = sharded
            .with_shard(s, |p| p.audit_since(0))
            .iter()
            .map(audit_content)
            .collect();
        assert_eq!(
            projected, shard_audit,
            "shard {s}: audit trail must be the single-domain trail \
             restricted to this shard's host pairs, in the same order"
        );
    }

    // Aggregate monitoring agrees too: same grant totals per host pair.
    let mut lhs = single.snapshot().host_pairs;
    let mut rhs = sharded.snapshot().host_pairs;
    pwm_core::shard::sort_host_pairs(&mut lhs);
    pwm_core::shard::sort_host_pairs(&mut rhs);
    assert_eq!(lhs, rhs, "host-pair ledgers diverged");
}

/// The batched entry point's "aligns 1:1 with `groups`" contract holds for
/// empty groups wherever they sit: single, one-shard and four-shard
/// services all return one advice list per request group, each as long as
/// its group.
#[test]
fn empty_groups_keep_their_place_in_sharded_and_single_sessions() {
    let spec = |n: u64| TransferSpec {
        source: Url::new("gsiftp", format!("src-{n}"), format!("/d/f{n}.dat")),
        dest: Url::new("file", format!("dst-{n}"), format!("/s/f{n}.dat")),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    };
    let shapes: Vec<Vec<Vec<TransferSpec>>> = vec![
        vec![vec![], vec![spec(1), spec(2)], vec![spec(3)]],
        vec![vec![spec(4)], vec![], vec![spec(5), spec(6)]],
        vec![vec![spec(7)], vec![], vec![]],
        vec![vec![], vec![]],
    ];
    for groups in shapes {
        let want: Vec<usize> = groups.iter().map(Vec::len).collect();
        let counts = |advice: Vec<Vec<TransferAdvice>>| -> Vec<usize> {
            advice.iter().map(Vec::len).collect()
        };
        let config = PolicyConfig::default();
        let mut single = PolicyService::new(config.clone());
        let one_shard = ShardedPolicyService::new(config.clone(), 1);
        let four_shards = ShardedPolicyService::new(config, 4);
        assert_eq!(
            counts(single.evaluate_transfer_groups(groups.clone())),
            want
        );
        assert_eq!(
            counts(one_shard.evaluate_transfer_groups(groups.clone())),
            want,
            "one shard"
        );
        assert_eq!(
            counts(four_shards.evaluate_transfer_groups(groups)),
            want,
            "four shards"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Per-shard WAL crash recovery.
// ---------------------------------------------------------------------------

/// One logged command, replayed against a reference shard's public API.
enum ShardCmd {
    Evaluate(Vec<Vec<TransferSpec>>),
    Report(Vec<TransferOutcome>),
}

#[test]
fn every_shard_recovers_identically_from_its_seeded_crash_point() {
    // Each shard's sink freezes at its own N-th append (TornAppend
    // additionally tears the N-th frame, losing it).
    let cases: [(CrashPoint, u64); 2] = [
        (CrashPoint::AfterAppend(6), 6),
        (CrashPoint::TornAppend { append: 6, keep: 5 }, 5),
    ];
    for (crash, survived) in cases {
        let shards: u16 = 3;
        let config = PolicyConfig::default()
            .with_default_streams(4)
            .with_threshold(50);
        let (disk, dir) = (SimDisk::failing(crash), Path::new("shards"));

        let live = ShardedPolicyService::new(config.clone(), shards);
        live.enable_durability(&DurabilityConfig::on(disk.clone(), dir).with_snapshot_every(4))
            .unwrap();

        // Mirror of what each shard's WAL receives: the sharded dispatcher
        // partitions every call per shard (order preserved), appending one
        // record per involved shard. Traffic spreads over 24 host pairs so
        // every shard sees appends well past the crash point.
        let mut logs: Vec<Vec<ShardCmd>> = (0..shards).map(|_| Vec::new()).collect();
        let spec = |round: usize, pair: usize, file: usize| TransferSpec {
            source: Url::new(
                "gsiftp",
                format!("src-{pair}"),
                format!("/d/r{round}-f{file}"),
            ),
            dest: Url::new(
                "file",
                format!("dst-{pair}"),
                format!("/s/r{round}-f{file}"),
            ),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(1 + (file % 2) as u64),
            cluster: None,
            priority: None,
        };
        for round in 0..10usize {
            let groups: Vec<Vec<TransferSpec>> = (0..24)
                .map(|pair| vec![spec(round, pair, round), spec(round, pair, round + 1)])
                .collect();
            // Partition the window exactly as the dispatcher does.
            let mut per_shard: Vec<Vec<Vec<TransferSpec>>> =
                (0..shards).map(|_| Vec::new()).collect();
            for g in &groups {
                let s = live
                    .ring()
                    .shard_for_pair(&g[0].source.host, &g[0].dest.host);
                per_shard[s as usize].push(g.clone());
            }
            for (s, gs) in per_shard.into_iter().enumerate() {
                if !gs.is_empty() {
                    logs[s].push(ShardCmd::Evaluate(gs));
                }
            }
            let advice = live.evaluate_transfer_groups(groups);

            // Report every grant; outcomes route back by id namespace.
            let outcomes: Vec<TransferOutcome> = advice
                .iter()
                .flatten()
                .filter(|a| a.should_execute())
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: round % 3 != 2,
                })
                .collect();
            let mut per_shard: Vec<Vec<TransferOutcome>> =
                (0..shards).map(|_| Vec::new()).collect();
            for o in &outcomes {
                per_shard[PolicyService::shard_of_transfer(o.id) as usize].push(*o);
            }
            for (s, os) in per_shard.into_iter().enumerate() {
                if !os.is_empty() {
                    logs[s].push(ShardCmd::Report(os));
                }
            }
            live.report_transfers(outcomes);
        }
        assert!(
            live.durability_down(),
            "{crash:?}: every shard got 20 appends, all must have crashed"
        );

        // Recover all shards from disk and compare each against an
        // uninterrupted reference that applied exactly the surviving
        // prefix of that shard's command stream.
        let recovered = ShardedPolicyService::recover_from(&disk, dir, shards).unwrap();
        for s in 0..shards {
            let mut reference = PolicyService::with_shard(config.clone(), s);
            for cmd in logs[s as usize].iter().take(survived as usize) {
                match cmd {
                    ShardCmd::Evaluate(gs) => {
                        reference.evaluate_transfer_groups(gs.clone());
                    }
                    ShardCmd::Report(os) => reference.report_transfers(os.clone()),
                }
            }
            let (rec_state, rec_snap) =
                recovered.with_shard(s, |p| (p.durable_state(), p.snapshot()));
            assert_eq!(
                rec_state,
                reference.durable_state(),
                "shard {s}: recovery after {crash:?} must equal the \
                 uninterrupted {survived}-record prefix"
            );
            assert_eq!(
                rec_snap,
                reference.snapshot(),
                "shard {s}: snapshot diverged"
            );
        }
    }
}
