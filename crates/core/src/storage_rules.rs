//! The storage policy family: backend selection for staged data.
//!
//! A site can expose several staging backends (shared NFS, parallel FS,
//! object store) with very different performance and dollar-cost envelopes;
//! *Data Sharing Options for Scientific Workflows on Amazon EC2* shows the
//! choice dominates both makespan and cost. This family extends the paper's
//! Table I/II pattern with three fact types —
//! [`BackendProfileFact`] (what exists, mirrored from configuration),
//! [`BackendLoadFact`] (a running allocation ledger per backend), and
//! [`StagedOnFact`] (where each staged file landed) — and two rules:
//!
//! * **selection** (salience 40, after the stream-allocation families):
//!   every executing batch transfer whose destination site has registered
//!   profiles is assigned a backend per the configured
//!   [`StoragePolicy`] variant, and the pick is charged against the
//!   backend's load ledger;
//! * **release** (salience 72, before the Table I removal rules at 70
//!   retract the fact): a finished transfer releases its load charge and —
//!   on success — records the `StagedOn` fact.
//!
//! With [`StoragePolicy::Off`] (the default) the selection guard returns no
//! matches and, with no profiles configured, neither rule can ever fire:
//! the family is inert and pre-storage behavior is byte-identical.

use crate::agenda;
use crate::config::StoragePolicy;
use crate::ctx::PolicyCtx;
use crate::indexes::PolicyIndexes;
use crate::model::{
    BackendLoadFact, BackendProfileFact, StagedOnFact, TransferFact, TransferState,
};
use pwm_rules::{Fields, Rule, Session};
use pwm_storage::BackendSpec;

/// Residency horizon assumed when estimating a transfer's $/GB·h component
/// before the cleanup time is known (selection needs a forecast; the cost
/// meter later bills actual residency).
const EST_RESIDENT_HOURS: f64 = 1.0;

/// Forecast dollars for staging `bytes` through `spec`: PUT + read-once GET
/// requests, egress for the read-back, and `EST_RESIDENT_HOURS` of
/// residency.
pub fn estimated_dollars(spec: &BackendSpec, bytes: u64) -> f64 {
    let gb = bytes as f64 / 1e9;
    let requests = 2.0 * spec.requests_for(bytes) as f64;
    requests * spec.cost.per_request
        + gb * spec.cost.per_gb_egress
        + gb * spec.cost.per_gb_hour * EST_RESIDENT_HOURS
}

/// Forecast seconds to land `bytes` on `spec` with the envelope to itself:
/// fixed per-request setup plus the bandwidth-limited transfer time.
pub fn estimated_seconds(spec: &BackendSpec, bytes: u64) -> f64 {
    spec.extra_setup(bytes).as_secs_f64() + bytes as f64 / spec.effective_bandwidth().max(1.0)
}

/// Pick a backend from `candidates` (already sorted by name, so every
/// tie-break is deterministic) for a transfer of `bytes`, under `policy`.
/// `committed` is the estimated spend already committed across all backends
/// (the budget-capped variant's running total).
fn select_backend<'a>(
    policy: &StoragePolicy,
    candidates: &'a [BackendSpec],
    bytes: u64,
    committed: f64,
) -> Option<&'a BackendSpec> {
    let cheapest = || {
        candidates.iter().min_by(|a, b| {
            estimated_dollars(a, bytes)
                .total_cmp(&estimated_dollars(b, bytes))
                .then_with(|| a.name.cmp(&b.name))
        })
    };
    let fastest = || {
        candidates.iter().min_by(|a, b| {
            estimated_seconds(a, bytes)
                .total_cmp(&estimated_seconds(b, bytes))
                .then_with(|| a.name.cmp(&b.name))
        })
    };
    match *policy {
        StoragePolicy::Off => None,
        StoragePolicy::GreedyCheapest => cheapest(),
        StoragePolicy::LatencyFloor {
            max_setup_s,
            min_bandwidth_bps,
        } => {
            let qualifying = candidates
                .iter()
                .filter(|s| {
                    s.extra_setup(bytes).as_secs_f64() <= max_setup_s
                        && s.effective_bandwidth() >= min_bandwidth_bps
                })
                .min_by(|a, b| {
                    estimated_dollars(a, bytes)
                        .total_cmp(&estimated_dollars(b, bytes))
                        .then_with(|| a.name.cmp(&b.name))
                });
            qualifying.or_else(fastest)
        }
        StoragePolicy::BudgetCapped { budget_dollars } => candidates
            .iter()
            .filter(|s| committed + estimated_dollars(s, bytes) <= budget_dollars)
            .min_by(|a, b| {
                estimated_seconds(a, bytes)
                    .total_cmp(&estimated_seconds(b, bytes))
                    .then_with(|| a.name.cmp(&b.name))
            })
            .or_else(cheapest),
    }
}

/// Install the storage policy family (selection + release rules and the
/// alpha-memory indexes they probe). Always installed; inert until backend
/// profiles are configured and a [`StoragePolicy`] other than `Off` is set.
pub(crate) fn install_storage_rules(session: &mut Session<PolicyCtx>, ix: PolicyIndexes) {
    // Profiles probed by destination site, ledgers and staged-on records by
    // backend name / file digest: all equality joins, all indexed, all on
    // fields never written after insertion (see `crate::indexes`).

    // Selection: after dedup/grouping/allocation have settled (salience 40 <
    // the allocation families' 50), assign each executing batch transfer a
    // backend and charge the pick against the backend's load ledger.
    session.add_rule(
        Rule::new("storage: pick the staging backend for a transfer")
            .salience(40)
            .agenda_group(agenda::STORAGE)
            .requires::<BackendProfileFact>()
            .watches_fields::<TransferFact>(
                TransferFact::BATCH | TransferFact::SUPPRESSED | TransferFact::RELEASE,
            )
            .watches::<BackendProfileFact>()
            .when(move |wm, ctx: &PolicyCtx, out| {
                if ctx.config.storage == StoragePolicy::Off {
                    return;
                }
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() || t.backend.is_some() {
                        continue;
                    }
                    if wm
                        .iter_by(ix.profile_by_site, &t.spec.dest.host)
                        .next()
                        .is_some()
                    {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, ctx, m| {
                let (site, bytes) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (t.spec.dest.host.clone(), t.spec.bytes)
                };
                let mut candidates: Vec<BackendSpec> = wm
                    .iter_by(ix.profile_by_site, &site)
                    .map(|(_, b)| b.profile.clone())
                    .collect();
                // Recovery family: a backend reported down is not a
                // candidate — placement steers around the outage until a
                // BackendUp health report clears the fact.
                candidates.retain(|s| wm.find_by(ix.backend_down, &s.name).is_none());
                candidates.sort_by(|a, b| a.name.cmp(&b.name));
                let committed: f64 = wm
                    .iter::<BackendLoadFact>()
                    .map(|(_, l)| l.dollars_committed)
                    .sum();
                let Some(pick) = select_backend(&ctx.config.storage, &candidates, bytes, committed)
                else {
                    return;
                };
                let name = pick.name.clone();
                let est = estimated_dollars(pick, bytes);
                if let Some((lh, _)) = wm.find_by(ix.load_by_backend, &name) {
                    wm.update::<BackendLoadFact>(lh, |l| {
                        l.active += 1;
                        l.bytes_assigned += bytes as f64;
                        l.dollars_committed += est;
                    });
                } else {
                    wm.insert(BackendLoadFact {
                        backend: name.clone(),
                        active: 1,
                        bytes_assigned: bytes as f64,
                        dollars_committed: est,
                    });
                }
                wm.update_fields::<TransferFact>(m[0], TransferFact::RELEASE, |t| {
                    t.backend = Some(name)
                });
            }),
    );

    // Release: a finished transfer gives its load charge back (dollars stay
    // committed — the budget cap is a spend total, not a concurrency cap)
    // and, on success, records where the file landed. Salience 72 puts this
    // ahead of the Table I removal rules (70) that retract the fact.
    session.add_rule(
        Rule::new("storage: release the backend charge of a finished transfer")
            .salience(72)
            .agenda_group(agenda::REPORT_TRANSFERS)
            // Only a transfer the pick charged has anything to release, and
            // the pick inserts the backend's ledger before it sets
            // `backend`: nothing is evaluated while storage never ran, and a
            // charge in flight keeps the rule awake after storage is off.
            .requires::<BackendLoadFact>()
            .watches_fields::<BackendLoadFact>(Fields::NONE)
            .when_each_fields::<TransferFact>(
                TransferFact::STATE | TransferFact::RELEASE,
                |t, _: &PolicyCtx| {
                    t.backend.is_some()
                        && !t.backend_released
                        && matches!(t.state, TransferState::Completed | TransferState::Failed)
                },
            )
            .then(move |wm, _, m| {
                let (backend, bytes, file, workflow, completed) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (
                        t.backend.clone().expect("guard: backend set"),
                        t.spec.bytes,
                        t.spec.dest.clone(),
                        t.spec.workflow,
                        t.state == TransferState::Completed,
                    )
                };
                if let Some((lh, _)) = wm.find_by(ix.load_by_backend, &backend) {
                    wm.update::<BackendLoadFact>(lh, |l| {
                        l.active = l.active.saturating_sub(1);
                        l.bytes_assigned = (l.bytes_assigned - bytes as f64).max(0.0);
                    });
                }
                if completed {
                    let staged_on = wm
                        .iter_by(ix.staged_on_by_file, &ix.dest_key(wm, m[0]))
                        .find(|(_, s)| s.file == file)
                        .map(|(sh, _)| sh);
                    if let Some(sh) = staged_on {
                        wm.update::<StagedOnFact>(sh, |s| {
                            s.backend = backend.clone();
                            s.bytes = bytes;
                            s.workflow = workflow;
                        });
                    } else {
                        wm.insert(StagedOnFact {
                            file,
                            backend: backend.clone(),
                            bytes,
                            workflow,
                        });
                    }
                }
                wm.update_fields::<TransferFact>(m[0], TransferFact::RELEASE, |t| {
                    t.backend_released = true
                });
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::TransferOutcome;
    use crate::config::PolicyConfig;
    use crate::model::{TransferSpec, Url, WorkflowId};
    use crate::service::PolicyService;
    use pwm_storage::ec2_trio;

    fn spec_named(n: u32, bytes: u64) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "gridftp-vm", format!("/data/f{n}.dat")),
            dest: Url::new("file", "obelix-nfs", format!("/scratch/f{n}.dat")),
            bytes,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    fn storage_service(policy: StoragePolicy) -> PolicyService {
        let mut cfg = PolicyConfig::default().with_storage(policy);
        for b in ec2_trio() {
            cfg = cfg.with_backend(b, "obelix-nfs");
        }
        PolicyService::new(cfg)
    }

    #[test]
    fn off_policy_assigns_no_backend() {
        let mut svc = storage_service(StoragePolicy::Off);
        let advice = svc.evaluate_transfers(vec![spec_named(0, 1_000_000)]);
        assert_eq!(advice[0].backend, None);
    }

    #[test]
    fn greedy_cheapest_picks_lowest_forecast_cost() {
        let mut svc = storage_service(StoragePolicy::GreedyCheapest);
        let advice = svc.evaluate_transfers(vec![spec_named(0, 100_000_000)]);
        // nfs-std: no request/egress fees and the lowest residency rate
        // after obj-s3 — but obj-s3 pays $0.09/GB egress, so NFS wins.
        assert_eq!(advice[0].backend.as_deref(), Some("nfs-std"));
    }

    #[test]
    fn latency_floor_excludes_slow_backends() {
        // Floor of 100 MB/s effective bandwidth disqualifies nfs-std
        // (60 MB/s); obj-s3 qualifies on bandwidth but its per-request
        // setup exceeds the 10 ms cap, leaving pfs-lustre.
        let mut svc = storage_service(StoragePolicy::LatencyFloor {
            max_setup_s: 0.01,
            min_bandwidth_bps: 100e6,
        });
        let advice = svc.evaluate_transfers(vec![spec_named(0, 100_000_000)]);
        assert_eq!(advice[0].backend.as_deref(), Some("pfs-lustre"));
    }

    #[test]
    fn budget_cap_degrades_from_fastest_to_cheapest() {
        // Forecast cost of one 1 GB transfer on pfs-lustre (fastest) is
        // 1 GB·h * $0.0012 = $0.0012; a $0.002 budget admits one such
        // pick, then forces the cheapest backend.
        let mut svc = storage_service(StoragePolicy::BudgetCapped {
            budget_dollars: 0.002,
        });
        let advice = svc.evaluate_transfers(vec![
            spec_named(0, 1_000_000_000),
            spec_named(1, 1_000_000_000),
        ]);
        let picks: Vec<_> = advice.iter().map(|a| a.backend.clone().unwrap()).collect();
        assert!(picks.contains(&"pfs-lustre".to_string()), "{picks:?}");
        assert!(picks.contains(&"nfs-std".to_string()), "{picks:?}");
    }

    #[test]
    fn no_profiles_for_site_leaves_backend_unset() {
        let mut svc =
            PolicyService::new(PolicyConfig::default().with_storage(StoragePolicy::GreedyCheapest));
        let advice = svc.evaluate_transfers(vec![spec_named(0, 1_000_000)]);
        assert_eq!(advice[0].backend, None);
    }

    #[test]
    fn completion_releases_load_and_records_staged_on() {
        let mut svc = storage_service(StoragePolicy::GreedyCheapest);
        let advice = svc.evaluate_transfers(vec![spec_named(0, 5_000_000)]);
        assert!(advice[0].backend.is_some());
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        let state = svc.durable_state();
        let mut staged_on = 0;
        let mut load_active = u32::MAX;
        for f in &state.facts {
            match f {
                crate::durable::DurableFact::StagedOn(s) => {
                    staged_on += 1;
                    assert_eq!(s.backend, "nfs-std");
                    assert_eq!(s.bytes, 5_000_000);
                }
                crate::durable::DurableFact::BackendLoad(l) => {
                    load_active = l.active;
                    assert_eq!(l.bytes_assigned, 0.0);
                    assert!(l.dollars_committed > 0.0, "commitment is monotone");
                }
                _ => {}
            }
        }
        assert_eq!(staged_on, 1, "one StagedOn fact recorded");
        assert_eq!(load_active, 0, "load released on completion");

        // The storage facts survive a snapshot/restore round trip.
        let restored = PolicyService::from_durable_state(state.clone());
        assert_eq!(restored.durable_state().facts, state.facts);
    }

    /// (active charges on the backend ledgers, `StagedOn` records).
    fn load_and_staged(svc: &PolicyService) -> (u32, usize) {
        let mut out = (0, 0);
        for f in &svc.durable_state().facts {
            match f {
                crate::durable::DurableFact::BackendLoad(l) => out.0 += l.active,
                crate::durable::DurableFact::StagedOn(_) => out.1 += 1,
                _ => {}
            }
        }
        out
    }

    fn evaluations(svc: &PolicyService, rule: &str) -> u64 {
        let stats = svc.rule_stats();
        stats
            .iter()
            .find(|r| r.name.starts_with(rule))
            .unwrap()
            .evaluations
    }

    /// A charged transfer is in flight when the config switches storage
    /// off: the pick leaves focus, the release stays awake on the charge.
    fn charged_then_switched_off() -> (PolicyService, TransferOutcome) {
        let mut svc = storage_service(StoragePolicy::BudgetCapped {
            budget_dollars: 1.0,
        });
        let charged = svc.evaluate_transfers(vec![spec_named(0, 5_000_000)]);
        assert!(charged[0].backend.is_some());
        assert_eq!(load_and_staged(&svc), (1, 0));
        assert_eq!(evaluations(&svc, "storage: release"), 0);
        let off = svc.config().clone().with_storage(StoragePolicy::Off);
        svc.set_config(off);
        let picks = evaluations(&svc, "storage: pick");
        let uncharged = svc.evaluate_transfers(vec![spec_named(1, 5_000_000)]);
        assert_eq!(uncharged[0].backend, None);
        assert_eq!(evaluations(&svc, "storage: pick"), picks);
        let outcome = TransferOutcome {
            id: charged[0].id,
            success: true,
        };
        (svc, outcome)
    }

    #[test]
    fn a_charge_in_flight_is_released_after_storage_is_switched_off() {
        let (mut svc, outcome) = charged_then_switched_off();
        svc.report_transfers(vec![outcome]);
        assert_eq!(load_and_staged(&svc), (0, 1));
        assert!(evaluations(&svc, "storage: release") > 0);
    }

    #[test]
    fn a_session_recovered_with_a_charge_in_flight_releases_it() {
        let (svc, outcome) = charged_then_switched_off();
        let mut restored = PolicyService::from_durable_state(svc.durable_state());
        assert_eq!(restored.config().storage, StoragePolicy::Off);
        restored.report_transfers(vec![outcome]);
        assert_eq!(load_and_staged(&restored), (0, 1));
    }

    #[test]
    fn reconfiguring_backends_replaces_profiles() {
        let mut svc = storage_service(StoragePolicy::GreedyCheapest);
        // Drop every backend: selection can no longer match.
        let cfg = PolicyConfig::default().with_storage(StoragePolicy::GreedyCheapest);
        svc.set_config(cfg);
        let advice = svc.evaluate_transfers(vec![spec_named(7, 1_000_000)]);
        assert_eq!(advice[0].backend, None);
    }
}
