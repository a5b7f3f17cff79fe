//! The recovery policy family: steering around failed infrastructure.
//!
//! Failure avoidance flows through advice like everything else. Execution
//! environments report health observations ([`crate::model::HealthEvent`])
//! via [`crate::service::PolicyService::report_health`]; the service upserts
//! them into three recovery facts — [`HostDownFact`], [`BackendDownFact`](crate::model::BackendDownFact),
//! and [`SuspectReplicaFact`] — and the rules here consult those facts when
//! the next advice batch is evaluated:
//!
//! * **quarantine suppression** (salience 93, after the Table I dedup rules
//!   at 100/95/94 but before resource creation at 90): a batch transfer
//!   whose source replica is quarantined after repeated checksum failures is
//!   suppressed with [`SuppressReason::SourceQuarantined`] — the client must
//!   re-plan from another replica or re-run the producer rather than grind
//!   retries against bytes known to be bad;
//! * **down-host suppression** (salience 92): a batch transfer sourced at a
//!   host currently reported down is suppressed with
//!   [`SuppressReason::SourceHostDown`];
//! * the storage family's selection rule (see [`crate::storage_rules`])
//!   additionally excludes backends with a live [`BackendDownFact`](crate::model::BackendDownFact) from
//!   its candidate set, so placement steers around outages.
//!
//! Always installed; with no health reports the fact population is empty,
//! every guard returns no matches, and behavior is byte-identical to a
//! service without the family.

use crate::agenda;
use crate::ctx::PolicyCtx;
use crate::indexes::PolicyIndexes;
use crate::model::TransferFact;
use crate::model::{HostDownFact, SuppressReason, SuspectReplicaFact};
use pwm_rules::{Rule, Session};

/// Install the recovery policy family (two suppression rules and the
/// alpha-memory indexes the family probes).
pub(crate) fn install_recovery_rules(session: &mut Session<PolicyCtx>, ix: PolicyIndexes) {
    // All equality joins: down hosts by name, suspect replicas by (host,
    // file) (see `crate::indexes`).

    session.add_rule(
        Rule::new("recovery: suppress transfers from a quarantined replica")
            .salience(93)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .requires::<SuspectReplicaFact>()
            .watches_fields::<TransferFact>(TransferFact::BATCH | TransferFact::SUPPRESSED)
            .watches::<SuspectReplicaFact>()
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let key = (t.spec.source.host.clone(), t.spec.source.path.clone());
                    let quarantined = wm
                        .find_by(ix.suspect_replica, &key)
                        .is_some_and(|(_, s)| s.quarantined);
                    if quarantined {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                wm.update_fields::<TransferFact>(m[0], TransferFact::SUPPRESSED, |t| {
                    t.suppressed = Some(SuppressReason::SourceQuarantined);
                });
            }),
    );

    session.add_rule(
        Rule::new("recovery: suppress transfers sourced at a down host")
            .salience(92)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .requires::<HostDownFact>()
            .watches_fields::<TransferFact>(TransferFact::BATCH | TransferFact::SUPPRESSED)
            .watches::<HostDownFact>()
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    if wm.find_by(ix.host_down, &t.spec.source.host).is_some() {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                wm.update_fields::<TransferFact>(m[0], TransferFact::SUPPRESSED, |t| {
                    t.suppressed = Some(SuppressReason::SourceHostDown);
                });
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::TransferAction;
    use crate::config::PolicyConfig;
    use crate::model::{HealthEvent, TransferSpec, Url, WorkflowId};
    use crate::service::PolicyService;

    fn spec(host: &str, path: &str) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", host, path),
            dest: Url::new("file", "obelix-nfs", path),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    #[test]
    fn down_host_suppresses_sourced_transfers_until_host_up() {
        let mut svc = PolicyService::new(PolicyConfig::default());
        svc.report_health(vec![HealthEvent::HostDown {
            host: "apache-isi".into(),
        }]);
        let advice = svc.evaluate_transfers(vec![spec("apache-isi", "/a.fits")]);
        assert_eq!(
            advice[0].action,
            TransferAction::Skip(SuppressReason::SourceHostDown)
        );
        // Other sources are untouched.
        let advice = svc.evaluate_transfers(vec![spec("gridftp-vm", "/b.fits")]);
        assert_eq!(advice[0].action, TransferAction::Execute);
        // HostUp clears the fact and transfers execute again.
        svc.report_health(vec![HealthEvent::HostUp {
            host: "apache-isi".into(),
        }]);
        let advice = svc.evaluate_transfers(vec![spec("apache-isi", "/c.fits")]);
        assert_eq!(advice[0].action, TransferAction::Execute);
    }

    #[test]
    fn quarantined_replica_suppresses_only_that_file() {
        let mut svc = PolicyService::new(PolicyConfig::default());
        // A strike without quarantine does not suppress.
        svc.report_health(vec![HealthEvent::SuspectReplica {
            host: "apache-isi".into(),
            file: "/bad.fits".into(),
            quarantine: false,
        }]);
        let advice = svc.evaluate_transfers(vec![spec("apache-isi", "/bad.fits")]);
        assert_eq!(advice[0].action, TransferAction::Execute);
        svc.report_transfers(vec![crate::advice::TransferOutcome {
            id: advice[0].id,
            success: false,
        }]);
        // The quarantining strike flips it.
        svc.report_health(vec![HealthEvent::SuspectReplica {
            host: "apache-isi".into(),
            file: "/bad.fits".into(),
            quarantine: true,
        }]);
        let advice = svc.evaluate_transfers(vec![
            spec("apache-isi", "/bad2.fits"),
            spec("apache-isi", "/bad.fits"),
        ]);
        assert_eq!(
            advice[0].action,
            TransferAction::Execute,
            "other replicas fine"
        );
        assert_eq!(
            advice[1].action,
            TransferAction::Skip(SuppressReason::SourceQuarantined)
        );
        // Regeneration clears the suspicion.
        svc.report_health(vec![HealthEvent::ReplicaCleared {
            host: "apache-isi".into(),
            file: "/bad.fits".into(),
        }]);
        let advice = svc.evaluate_transfers(vec![spec("apache-isi", "/bad.fits")]);
        assert_eq!(advice[0].action, TransferAction::Execute);
    }

    /// Evaluations so far of the two recovery rules.
    fn recovery_evaluations(svc: &PolicyService) -> u64 {
        let rules = svc.rule_stats();
        let recovery: Vec<_> = rules
            .iter()
            .filter(|r| r.name.starts_with("recovery:"))
            .collect();
        assert_eq!(recovery.len(), 2);
        recovery.iter().map(|r| r.evaluations).sum()
    }

    #[test]
    fn recovery_rules_cost_nothing_until_a_health_fact_arms_them() {
        use crate::advice::{CleanupOutcome, TransferOutcome};
        use crate::model::CleanupSpec;
        let mut svc = PolicyService::new(PolicyConfig::default());
        // A whole lifecycle with no health fact in memory.
        let advice = svc.evaluate_transfers(vec![
            spec("apache-isi", "/a.fits"),
            spec("apache-isi", "/b.fits"),
        ]);
        svc.report_transfers(
            advice
                .iter()
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect(),
        );
        let cleanups = svc.evaluate_cleanups(vec![CleanupSpec {
            file: advice[0].dest.clone(),
            workflow: WorkflowId(1),
        }]);
        svc.report_cleanups(vec![CleanupOutcome {
            id: cleanups[0].id,
            success: true,
        }]);
        assert_eq!(recovery_evaluations(&svc), 0);

        // Each kind of health fact arms its rule for the very next batch...
        svc.report_health(vec![HealthEvent::SuspectReplica {
            host: "apache-isi".into(),
            file: "/bad.fits".into(),
            quarantine: true,
        }]);
        let advice = svc.evaluate_transfers(vec![spec("apache-isi", "/bad.fits")]);
        assert_eq!(
            advice[0].action,
            TransferAction::Skip(SuppressReason::SourceQuarantined)
        );
        svc.report_health(vec![HealthEvent::HostDown {
            host: "gridftp-vm".into(),
        }]);
        let advice = svc.evaluate_transfers(vec![spec("gridftp-vm", "/c.fits")]);
        assert_eq!(
            advice[0].action,
            TransferAction::Skip(SuppressReason::SourceHostDown)
        );

        // ...and clearing the last one disarms it again.
        svc.report_health(vec![
            HealthEvent::ReplicaCleared {
                host: "apache-isi".into(),
                file: "/bad.fits".into(),
            },
            HealthEvent::HostUp {
                host: "gridftp-vm".into(),
            },
        ]);
        let armed = recovery_evaluations(&svc);
        assert!(armed > 0);
        let advice = svc.evaluate_transfers(vec![spec("gridftp-vm", "/c.fits")]);
        assert_eq!(advice[0].action, TransferAction::Execute);
        assert_eq!(recovery_evaluations(&svc), armed);
    }

    #[test]
    fn health_reports_are_idempotent_upserts() {
        let mut svc = PolicyService::new(PolicyConfig::default());
        for _ in 0..3 {
            svc.report_health(vec![HealthEvent::HostDown {
                host: "apache-isi".into(),
            }]);
        }
        svc.report_health(vec![HealthEvent::SuspectReplica {
            host: "apache-isi".into(),
            file: "/f".into(),
            quarantine: false,
        }]);
        svc.report_health(vec![HealthEvent::SuspectReplica {
            host: "apache-isi".into(),
            file: "/f".into(),
            quarantine: true,
        }]);
        let state = svc.durable_state();
        let hosts = state
            .facts
            .iter()
            .filter(|f| matches!(f, crate::durable::DurableFact::HostDown(_)))
            .count();
        assert_eq!(hosts, 1, "repeat reports collapse into one fact");
        let suspect = state
            .facts
            .iter()
            .find_map(|f| match f {
                crate::durable::DurableFact::SuspectReplica(s) => Some(s.clone()),
                _ => None,
            })
            .expect("suspect fact recorded");
        assert_eq!(suspect.strikes, 2);
        assert!(suspect.quarantined);
        // Unknown clears are harmless no-ops.
        svc.report_health(vec![
            HealthEvent::HostUp {
                host: "never-seen".into(),
            },
            HealthEvent::BackendUp {
                backend: "never-seen".into(),
            },
            HealthEvent::ReplicaCleared {
                host: "never-seen".into(),
                file: "/x".into(),
            },
        ]);
    }
}
