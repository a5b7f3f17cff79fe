//! The Table III rule set: balanced stream allocation.
//!
//! "The Balanced Allocation Algorithm uses information about the Pegasus
//! clustering factor to allocate streams between a source and destination
//! host. ... Transfers on the cluster are allocated their requested number
//! of parallel streams until the cluster threshold is exceeded. Transfer
//! requests that arrive later from other clusters are therefore not starved
//! because available resources have already been reserved for use by each
//! cluster."

use crate::agenda;
use crate::config::AllocationPolicy;
use crate::ctx::PolicyCtx;
use crate::indexes::PolicyIndexes;
use crate::ledger::balanced_grant;
use crate::model::{ClusterAllocFact, ClusterId, GroupId, HostPairFact, TransferFact};
use pwm_rules::{Fields, Rule, Session};

/// Install the balanced allocation rules.
pub(crate) fn install_balanced_rules(session: &mut Session<PolicyCtx>, ix: PolicyIndexes) {
    // "Retrieve the number of clusters used in the system" + create the
    // per-cluster ledger the first time a cluster appears on a host pair.
    session.add_rule(
        Rule::new("balanced: create the per-cluster ledger")
            .salience(52)
            .agenda_group(agenda::BALANCED)
            .watches_fields::<TransferFact>(
                TransferFact::BATCH | TransferFact::SUPPRESSED | TransferFact::GROUP,
            )
            .watches::<ClusterAllocFact>()
            .when(move |wm, ctx: &PolicyCtx, out| {
                if ctx.config.allocation != AllocationPolicy::Balanced {
                    return;
                }
                let mut pending: Vec<(GroupId, ClusterId)> = Vec::new();
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let (Some(group), cluster) = (t.group, t.cluster_or_default()) else {
                        continue;
                    };
                    let exists = ix.cluster_ledger_for(wm, group, cluster).is_some()
                        || pending.contains(&(group, cluster));
                    if !exists {
                        pending.push((group, cluster));
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                let (group, cluster) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (t.group.expect("grouped"), t.cluster_or_default())
                };
                if ix.cluster_ledger_for(wm, group, cluster).is_none() {
                    wm.insert(ClusterAllocFact {
                        group,
                        cluster,
                        allocated: 0,
                    });
                }
            }),
    );

    // "Retrieve the parallel streams threshold defined for a single cluster
    // between a source and destination host" / "Enforce the max number of
    // parallel streams on a transfer that violates the number of available
    // streams below the threshold on its cluster" / "Record the number of
    // parallel streams used by a transfer against the defined cluster
    // threshold".
    session.add_rule(
        Rule::new("balanced: enforce the per-cluster threshold on a transfer")
            .salience(50)
            .agenda_group(agenda::BALANCED)
            .requires::<ClusterAllocFact>()
            .watches_fields::<TransferFact>(
                TransferFact::BATCH
                    | TransferFact::SUPPRESSED
                    | TransferFact::GROUP
                    | TransferFact::STREAMS,
            )
            .watches::<ClusterAllocFact>()
            .watches_fields::<HostPairFact>(Fields::NONE)
            .when(move |wm, ctx: &PolicyCtx, out| {
                if ctx.config.allocation != AllocationPolicy::Balanced {
                    return;
                }
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() || t.charged_streams > 0 || t.streams.is_none() {
                        continue;
                    }
                    let Some(group) = t.group else { continue };
                    let cluster = t.cluster_or_default();
                    let Some((ch, _)) = ix.cluster_ledger_for(wm, group, cluster) else {
                        continue;
                    };
                    let Some((ph, _)) = wm.find_by(ix.pair_by_group, &group) else {
                        continue;
                    };
                    out.push([h, ch, ph].into());
                }
            })
            .then(move |wm, ctx, m| {
                let (requested, src_host, dst_host) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (
                        t.streams.unwrap_or(1),
                        t.spec.source.host.clone(),
                        t.spec.dest.host.clone(),
                    )
                };
                let share = ctx.config.cluster_share(&src_host, &dst_host);
                let cluster_allocated = wm
                    .get::<ClusterAllocFact>(m[1])
                    .expect("matched cluster ledger")
                    .allocated;
                let grant = balanced_grant(cluster_allocated, requested, share);
                wm.update::<ClusterAllocFact>(m[1], |c| c.allocated += grant);
                // The host-pair ledger still tracks the pair-wide totals for
                // monitoring and release accounting.
                wm.update_fields::<HostPairFact>(m[2], HostPairFact::ALLOCATED, |p| {
                    p.allocated += grant;
                    p.peak_allocated = p.peak_allocated.max(p.allocated);
                });
                wm.update_fields::<TransferFact>(m[0], TransferFact::STREAMS, |t| {
                    t.streams = Some(grant);
                    t.charged_streams = grant;
                });
            }),
    );

    // Release of cluster-ledger streams on completion/failure: the Table I
    // completion rules release the host-pair ledger; this companion releases
    // the per-cluster one before the transfer fact disappears. It does so
    // whichever allocation policy is selected when the outcome arrives: a
    // charge made under balanced is owed to its cluster's ledger after a
    // switch to greedy too. A greedy charge never touched a cluster ledger,
    // and greedy's enforce rule marks it `cluster_released` as it makes it.
    session.add_rule(
        Rule::new("balanced: release the cluster ledger on completion or failure")
            .salience(71) // must run before the Table I removal rules (70)
            .agenda_group(agenda::REPORT_TRANSFERS)
            // Nothing is evaluated in a session that never ran balanced.
            .requires::<ClusterAllocFact>()
            .watches_fields::<TransferFact>(
                TransferFact::STATE
                    | TransferFact::GROUP
                    | TransferFact::STREAMS
                    | TransferFact::RELEASE,
            )
            .watches::<ClusterAllocFact>()
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in wm.iter::<TransferFact>() {
                    use crate::model::TransferState::*;
                    if !matches!(t.state, Completed | Failed)
                        || t.charged_streams == 0
                        || t.cluster_released
                    {
                        continue;
                    }
                    let Some(group) = t.group else { continue };
                    let cluster = t.cluster_or_default();
                    if let Some((ch, _)) = ix.cluster_ledger_for(wm, group, cluster) {
                        out.push([h, ch].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                let charged = wm
                    .get::<TransferFact>(m[0])
                    .expect("matched transfer")
                    .charged_streams;
                wm.update::<ClusterAllocFact>(m[1], |c| {
                    c.allocated = c.allocated.saturating_sub(charged);
                });
                // Prevent double release if rules re-evaluate before the
                // Table I rule retracts the fact; the charge itself must stay
                // visible for the host-pair release in the Table I rules.
                wm.update_fields::<TransferFact>(m[0], TransferFact::RELEASE, |t| {
                    t.cluster_released = true
                });
            }),
    );
}

impl TransferFact {
    /// The cluster this transfer charges under the balanced policy;
    /// transfers without cluster annotation share cluster 0.
    pub fn cluster_or_default(&self) -> ClusterId {
        self.spec.cluster.unwrap_or(ClusterId(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::{TransferAdvice, TransferOutcome};
    use crate::config::PolicyConfig;
    use crate::model::*;
    use crate::rules_base::install_base_rules;

    fn spec(n: u32, cluster: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "tacc", format!("/data/f{n}.dat")),
            dest: Url::new("file", "isi", format!("/scratch/f{n}.dat")),
            bytes: 1,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: Some(ClusterId(cluster)),
            priority: None,
        }
    }

    fn run_batch(cfg: PolicyConfig, specs: Vec<TransferSpec>) -> Vec<(u32, u32)> {
        let mut s: Session<PolicyCtx> = Session::new();
        let ix = crate::indexes::PolicyIndexes::register(&mut s.wm);
        install_base_rules(&mut s, ix);
        install_balanced_rules(&mut s, ix);
        let mut ctx = PolicyCtx::new(cfg);
        for (i, sp) in specs.into_iter().enumerate() {
            s.wm.insert(TransferFact {
                id: TransferId(i as u64),
                spec: sp,
                state: TransferState::Pending,
                streams: None,
                charged_streams: 0,
                group: None,
                in_current_batch: true,
                suppressed: None,
                cluster_released: false,
                backend: None,
                backend_released: false,
            });
        }
        s.fire_all(&mut ctx);
        s.wm.iter::<TransferFact>()
            .map(|(_, t)| (t.cluster_or_default().0, t.charged_streams))
            .collect()
    }

    fn balanced_cfg(threshold: u32, clusters: u32, default: u32) -> PolicyConfig {
        PolicyConfig::default()
            .with_threshold(threshold)
            .with_cluster_factor(clusters)
            .with_default_streams(default)
            .with_allocation(AllocationPolicy::Balanced)
    }

    #[test]
    fn each_cluster_gets_its_share() {
        // Threshold 40, 2 clusters → 20 per cluster; default 8.
        // Cluster 0 submits 4 transfers: 8, 8, 4, 1.
        let grants = run_batch(balanced_cfg(40, 2, 8), (0..4).map(|i| spec(i, 0)).collect());
        let c0: Vec<u32> = grants.iter().map(|&(_, g)| g).collect();
        assert_eq!(c0, vec![8, 8, 4, 1]);
    }

    #[test]
    fn late_cluster_is_not_starved() {
        // Cluster 0 floods first, then cluster 1 arrives: it still gets its
        // full default because its share was reserved.
        let mut specs: Vec<TransferSpec> = (0..6).map(|i| spec(i, 0)).collect();
        specs.push(spec(100, 1));
        let grants = run_batch(balanced_cfg(40, 2, 8), specs);
        let late = grants.iter().find(|&&(c, _)| c == 1).unwrap();
        assert_eq!(late.1, 8, "late cluster receives its reserved share");
        // Cluster 0 totals its own share (+ starvation singles).
        let c0_total: u32 = grants
            .iter()
            .filter(|&&(c, _)| c == 0)
            .map(|&(_, g)| g)
            .sum();
        assert_eq!(c0_total, 8 + 8 + 4 + 1 + 1 + 1);
    }

    #[test]
    fn greedy_would_starve_where_balanced_does_not() {
        // Same arrival pattern under greedy: the late cluster gets 1 stream.
        let mut s: Session<PolicyCtx> = Session::new();
        let ix = crate::indexes::PolicyIndexes::register(&mut s.wm);
        install_base_rules(&mut s, ix);
        crate::greedy::install_greedy_rules(&mut s, ix);
        let cfg = PolicyConfig::default()
            .with_threshold(40)
            .with_default_streams(8)
            .with_allocation(AllocationPolicy::Greedy);
        let mut ctx = PolicyCtx::new(cfg);
        for i in 0..6 {
            s.wm.insert(TransferFact {
                id: TransferId(i),
                spec: spec(i as u32, 0),
                state: TransferState::Pending,
                streams: None,
                charged_streams: 0,
                group: None,
                in_current_batch: true,
                suppressed: None,
                cluster_released: false,
                backend: None,
                backend_released: false,
            });
        }
        s.wm.insert(TransferFact {
            id: TransferId(100),
            spec: spec(100, 1),
            state: TransferState::Pending,
            streams: None,
            charged_streams: 0,
            group: None,
            in_current_batch: true,
            suppressed: None,
            cluster_released: false,
            backend: None,
            backend_released: false,
        });
        s.fire_all(&mut ctx);
        let late =
            s.wm.find::<TransferFact>(|t| t.id == TransferId(100))
                .unwrap()
                .1
                .charged_streams;
        assert_eq!(late, 1, "greedy gives the latecomer a single stream");
    }

    #[test]
    fn cluster_ledger_releases_on_completion() {
        let mut s: Session<PolicyCtx> = Session::new();
        let ix = crate::indexes::PolicyIndexes::register(&mut s.wm);
        install_base_rules(&mut s, ix);
        install_balanced_rules(&mut s, ix);
        let mut ctx = PolicyCtx::new(balanced_cfg(40, 2, 20));
        s.wm.insert(TransferFact {
            id: TransferId(0),
            spec: spec(0, 0),
            state: TransferState::Pending,
            streams: None,
            charged_streams: 0,
            group: None,
            in_current_batch: true,
            suppressed: None,
            cluster_released: false,
            backend: None,
            backend_released: false,
        });
        s.fire_all(&mut ctx);
        let (_, c) = s.wm.find::<ClusterAllocFact>(|_| true).unwrap();
        assert_eq!(c.allocated, 20);

        let h = s.wm.handles::<TransferFact>()[0];
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::Completed;
        });
        s.fire_all(&mut ctx);
        let (_, c) = s.wm.find::<ClusterAllocFact>(|_| true).unwrap();
        assert_eq!(c.allocated, 0);
        let (_, p) = s.wm.find::<HostPairFact>(|_| true).unwrap();
        assert_eq!(p.allocated, 0);
    }

    #[test]
    fn ledger_joins_wake_when_a_reconfigured_service_creates_the_first_ledger() {
        use crate::service::PolicyService;
        // Both joins name `ClusterAllocFact` as required: under greedy no
        // ledger exists and they are never evaluated.
        let greedy = balanced_cfg(40, 2, 8).with_allocation(AllocationPolicy::Greedy);
        let mut svc = PolicyService::new(greedy);
        let advice = svc.evaluate_transfers(vec![spec(100, 0)]);
        svc.report_transfers(vec![crate::advice::TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        let joins = |svc: &PolicyService| -> Vec<u64> {
            svc.rule_stats()
                .iter()
                .filter(|r| r.name.starts_with("balanced:") && !r.name.contains("create"))
                .map(|r| r.evaluations)
                .collect()
        };
        assert_eq!(joins(&svc), vec![0, 0]);
        // Switched to balanced, the very next batch creates a ledger, which
        // lifts the guard in the same rules pass: the grants are Table III's.
        svc.set_config(balanced_cfg(40, 2, 8));
        let advice = svc.evaluate_transfers((0..4).map(|i| spec(i, 0)).collect());
        let streams: Vec<u32> = advice.iter().map(|a| a.streams).collect();
        assert_eq!(streams, vec![8, 8, 4, 1]);
        // And the release join gives the share back. It sits in the report
        // pass's group, so the report is what first evaluates it.
        svc.report_transfers(
            advice
                .iter()
                .map(|a| crate::advice::TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect(),
        );
        assert!(joins(&svc).iter().all(|&evaluations| evaluations > 0));
        let advice = svc.evaluate_transfers(vec![spec(50, 0)]);
        assert_eq!(advice[0].streams, 8);
    }

    #[test]
    fn a_family_is_in_focus_exactly_while_the_config_selects_it() {
        use crate::service::PolicyService;
        let evaluations = |svc: &PolicyService, family: &str| -> u64 {
            svc.rule_stats()
                .iter()
                .filter(|r| r.name.starts_with(family))
                .map(|r| r.evaluations)
                .sum()
        };
        let greedy = balanced_cfg(40, 2, 8).with_allocation(AllocationPolicy::Greedy);
        let mut svc = PolicyService::new(greedy.clone());
        let first = svc.evaluate_transfers((0..3).map(|i| spec(i, 0)).collect());
        assert_eq!(streams(&first), [8, 8, 8]);
        assert_eq!(evaluations(&svc, "balanced:"), 0);
        let greedy_evaluations = evaluations(&svc, "greedy:");
        assert!(greedy_evaluations > 0);
        // Switched mid-session: the next batch is charged per cluster (a
        // share of 20), and greedy's rule is no longer evaluated.
        svc.set_config(balanced_cfg(40, 2, 8));
        let second = svc.evaluate_transfers((10..13).map(|i| spec(i, 1)).collect());
        assert_eq!(streams(&second), [8, 8, 4]);
        assert!(evaluations(&svc, "balanced:") > 0);
        assert_eq!(evaluations(&svc, "greedy:"), greedy_evaluations);
        // And back: the ledger and enforce rules rest again. The release
        // does not: it sits in every report pass, and returns the balanced
        // batch's charges to cluster 1's ledger under greedy too.
        svc.set_config(greedy);
        let release = "balanced: release";
        let batch_rules =
            |svc: &PolicyService| evaluations(svc, "balanced:") - evaluations(svc, release);
        let batch_evaluations = batch_rules(&svc);
        let release_evaluations = evaluations(&svc, release);
        svc.report_transfers([outcomes(&first), outcomes(&second)].concat());
        assert!(evaluations(&svc, release) > release_evaluations);
        let third = svc.evaluate_transfers(vec![spec(20, 0)]);
        assert_eq!(streams(&third), [8]);
        assert_eq!(batch_rules(&svc), batch_evaluations);
        assert!(evaluations(&svc, "greedy:") > greedy_evaluations);
    }

    fn streams(advice: &[TransferAdvice]) -> Vec<u32> {
        advice.iter().map(|a| a.streams).collect()
    }

    /// Every transfer of `advice`, reported complete.
    fn outcomes(advice: &[TransferAdvice]) -> Vec<TransferOutcome> {
        advice
            .iter()
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect()
    }

    #[test]
    fn a_balanced_charge_is_released_after_a_switch_to_greedy() {
        use crate::service::PolicyService;
        let mut svc = PolicyService::new(balanced_cfg(40, 2, 8));
        let first = svc.evaluate_transfers((0..3).map(|i| spec(i, 1)).collect());
        assert_eq!(streams(&first), [8, 8, 4]);
        // The batch completes while greedy is selected: cluster 1's share is
        // still returned, so back under balanced it is whole again.
        svc.set_config(balanced_cfg(40, 2, 8).with_allocation(AllocationPolicy::Greedy));
        svc.report_transfers(outcomes(&first));
        svc.set_config(balanced_cfg(40, 2, 8));
        let second = svc.evaluate_transfers((3..6).map(|i| spec(i, 1)).collect());
        assert_eq!(streams(&second), [8, 8, 4]);
    }

    #[test]
    fn a_greedy_charge_is_never_released_from_a_cluster_ledger() {
        use crate::durable::DurableFact;
        use crate::service::PolicyService;
        let ledgers = |svc: &PolicyService| -> Vec<ClusterAllocFact> {
            let state = svc.durable_state();
            let ledgers = state.facts.into_iter().filter_map(|f| match f {
                DurableFact::ClusterAlloc(c) => Some(c),
                _ => None,
            });
            ledgers.collect()
        };
        let greedy = balanced_cfg(40, 2, 8).with_allocation(AllocationPolicy::Greedy);
        let mut svc = PolicyService::new(greedy);
        let early = svc.evaluate_transfers(vec![spec(0, 1)]);
        assert_eq!(early[0].streams, 8);
        // Under balanced, the same cluster on the same host pair gets a
        // ledger of its own, charged 16.
        svc.set_config(balanced_cfg(40, 2, 8));
        svc.evaluate_transfers((1..3).map(|i| spec(i, 1)).collect());
        let before = ledgers(&svc);
        assert_eq!(before.len(), 1);
        assert_eq!(before[0].allocated, 16);
        // The greedy transfer completes: its 8 streams were never charged to
        // that ledger, so nothing comes off it.
        svc.report_transfers(outcomes(&early));
        assert_eq!(ledgers(&svc), before);
    }

    #[test]
    fn unclustered_transfers_share_cluster_zero() {
        let mut sp = spec(0, 0);
        sp.cluster = None;
        let grants = run_batch(balanced_cfg(40, 4, 8), vec![sp, spec(1, 0)]);
        // Share = 10: first gets 8, second gets 2 (same implicit cluster 0).
        let gs: Vec<u32> = grants.iter().map(|&(_, g)| g).collect();
        assert_eq!(gs, vec![8, 2]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        // The Table III invariants over arbitrary interleaved batches:
        // every transfer is granted at least one stream and never more than
        // it requested, and each cluster's grant sequence equals replaying
        // its own arrivals alone against `balanced_grant` — so the
        // per-cluster share is never exceeded before saturation and traffic
        // from other clusters never steals a cluster's unused share.
        #[test]
        fn balanced_grants_are_cluster_isolated(
            threshold in 1u32..100,
            clusters in 1u32..6,
            default in 1u32..16,
            arrivals in proptest::collection::vec(
                (0u32..5, proptest::option::of(1u32..12)),
                1..32,
            ),
        ) {
            let cfg = balanced_cfg(threshold, clusters, default);
            let share = cfg.cluster_share("tacc", "isi");
            let mut specs = Vec::new();
            for (i, &(cluster, requested)) in arrivals.iter().enumerate() {
                let mut sp = spec(i as u32, cluster % clusters);
                sp.requested_streams = requested;
                specs.push(sp);
            }
            let grants = run_batch(cfg, specs);
            prop_assert_eq!(grants.len(), arrivals.len());
            for (&(_, g), &(_, requested)) in grants.iter().zip(&arrivals) {
                let requested = requested.unwrap_or(default);
                prop_assert!(g >= 1, "no transfer is starved below one stream");
                prop_assert!(g <= requested.max(1), "never granted more than requested");
            }
            for c in 0..clusters {
                let mut allocated = 0u32;
                for (&(gc, g), &(_, requested)) in grants.iter().zip(&arrivals) {
                    if gc != c {
                        continue;
                    }
                    let requested = requested.unwrap_or(default);
                    let expect = crate::ledger::balanced_grant(allocated, requested, share);
                    prop_assert_eq!(g, expect, "cluster {} grant diverges from its isolated replay", c);
                    if allocated < share {
                        prop_assert!(
                            allocated + g <= share,
                            "pre-saturation grants stay within the cluster share"
                        );
                    }
                    allocated += g;
                }
            }
        }
    }
}
