//! The Table I rule set: "Policies enforced for all transfers".
//!
//! Each rule below corresponds to one row of Table I in the paper (quoted in
//! the rule names). They run at high salience so that bookkeeping (dedup,
//! resource tracking, grouping, defaults) settles before the allocation
//! policies (Tables II/III, salience 50) charge streams.

use crate::agenda;
use crate::ctx::PolicyCtx;
use crate::indexes::PolicyIndexes;
use crate::model::{
    CleanupFact, CleanupState, HostPairFact, ResourceFact, ResourceState, SuppressReason,
    TransferFact, TransferId, TransferState, WorkflowSet,
};
use pwm_rules::{FactHandle, Fields, Rule, Session, WorkingMemory};

/// Install the Table I rules into a session.
///
/// Every rule declares the field groups its matcher reads and every action
/// the groups it writes (see [`pwm_rules::Fields`]): a batch of transfers is
/// walked by a dozen rules that each care about one or two fields of it, and
/// a write to `group` or `streams` should not re-run the dedup matchers.
pub(crate) fn install_base_rules(session: &mut Session<PolicyCtx>, ix: PolicyIndexes) {
    // Rules probe resources by destination and ledgers by host pair instead
    // of scanning the full fact population on every re-evaluation; the
    // dedup rules compare against the handful of transfers sharing a
    // destination (and reuse its key for the destination's resource),
    // cleanups by file likewise, and every batch-scoped rule walks its
    // type's batch index, O(batch) facts (see `crate::indexes`).

    // "Remove duplicate transfers from the transfer list": a batch transfer
    // whose (source, dest) already appears earlier in the same batch is
    // suppressed.
    session.add_rule(
        Rule::new("remove duplicate transfers from the transfer list")
            .salience(100)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(TransferFact::BATCH | TransferFact::SUPPRESSED)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let key = ix.dest_key(wm, h);
                    let earlier_dup = wm.iter_by(ix.transfer_by_dest, &key).any(|(uh, u)| {
                        uh < h
                            && u.in_current_batch
                            && u.suppressed.is_none()
                            && u.spec.source == t.spec.source
                            && u.spec.dest == t.spec.dest
                    });
                    if earlier_dup {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, ctx, m| {
                if ctx.config.dedup {
                    wm.update_fields::<TransferFact>(m[0], TransferFact::SUPPRESSED, |t| {
                        t.suppressed = Some(SuppressReason::DuplicateInBatch);
                    });
                }
            }),
    );

    // "Remove transfers from the transfer list that are already in
    // progress": a matching transfer from an earlier batch is still running.
    session.add_rule(
        Rule::new("remove transfers that are already in progress")
            .salience(95)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(
                TransferFact::BATCH | TransferFact::SUPPRESSED | TransferFact::STATE,
            )
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let key = ix.dest_key(wm, h);
                    let in_progress = wm.iter_by(ix.transfer_by_dest, &key).any(|(uh, u)| {
                        uh != h
                            && !u.in_current_batch
                            && u.state == TransferState::InProgress
                            && u.spec.source == t.spec.source
                            && u.spec.dest == t.spec.dest
                    });
                    if in_progress {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, ctx, m| {
                if ctx.config.dedup {
                    wm.update_fields::<TransferFact>(m[0], TransferFact::SUPPRESSED, |t| {
                        t.suppressed = Some(SuppressReason::AlreadyInProgress);
                    });
                }
            }),
    );

    // Dedup against files already staged: "the Policy Service maintains
    // information about the location of staged files so that it can prevent
    // subsequent staging operations from restaging the same files".
    session.add_rule(
        Rule::new("remove transfers whose file is already staged")
            .salience(94)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(TransferFact::BATCH | TransferFact::SUPPRESSED)
            .watches_fields::<ResourceFact>(ResourceFact::STATE)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let staged = ix
                        .resource_for(wm, ix.dest_key(wm, h), &t.spec.dest)
                        .is_some_and(|(_, r)| r.state == ResourceState::Staged);
                    if staged {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, ctx, m| {
                if ctx.config.dedup {
                    wm.update_fields::<TransferFact>(m[0], TransferFact::SUPPRESSED, |t| {
                        t.suppressed = Some(SuppressReason::AlreadyStaged);
                    });
                }
            }),
    );

    // "Create a resource for a new transfer to track the resulting staged
    // file".
    session.add_rule(
        Rule::new("create a resource for a new transfer")
            .salience(90)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(TransferFact::BATCH | TransferFact::SUPPRESSED)
            .watches_fields::<ResourceFact>(Fields::NONE)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let exists = ix
                        .resource_for(wm, ix.dest_key(wm, h), &t.spec.dest)
                        .is_some();
                    if !exists {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                let (id, source, dest, workflow) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (
                        t.id,
                        t.spec.source.clone(),
                        t.spec.dest.clone(),
                        t.spec.workflow,
                    )
                };
                let mut users = WorkflowSet::new();
                users.insert(workflow);
                wm.insert(ResourceFact {
                    dest,
                    source,
                    users,
                    state: ResourceState::Staging,
                    producer: Some(id),
                });
            }),
    );

    // "Associate a transfer with a resource to track the number of workflows
    // using the staged file" — also for suppressed (duplicate) requests, so
    // a second workflow sharing a staged file protects it from cleanup.
    session.add_rule(
        Rule::new("associate a transfer with a resource")
            .salience(89)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(TransferFact::BATCH)
            .watches_fields::<ResourceFact>(ResourceFact::USERS)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if let Some((rh, r)) = ix.resource_for(wm, ix.dest_key(wm, h), &t.spec.dest) {
                        if !r.users.contains(&t.spec.workflow) {
                            out.push([h, rh].into());
                        }
                    }
                }
            })
            .then(move |wm, _, m| {
                let workflow = wm
                    .get::<TransferFact>(m[0])
                    .expect("matched transfer")
                    .spec
                    .workflow;
                wm.update_fields::<ResourceFact>(m[1], ResourceFact::USERS, |r| {
                    r.users.insert(workflow);
                });
            }),
    );

    // "Generate a unique group ID for a source and destination host pair".
    session.add_rule(
        Rule::new("generate a unique group ID for a host pair")
            .salience(85)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(TransferFact::BATCH | TransferFact::SUPPRESSED)
            .watches_fields::<HostPairFact>(Fields::NONE)
            .when(move |wm, _: &PolicyCtx, out| {
                let mut seen: Vec<(&str, &str)> = Vec::new();
                for (h, t) in ix.batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let pair = (t.spec.source.host.as_str(), t.spec.dest.host.as_str());
                    if ix.host_pair_for(wm, pair.0, pair.1).is_none() && !seen.contains(&pair) {
                        seen.push(pair);
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, ctx, m| {
                let (src_host, dst_host) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (t.spec.source.host.clone(), t.spec.dest.host.clone())
                };
                // Guard against a pair created by an earlier firing in the
                // same cascade.
                if ix.host_pair_for(wm, &src_host, &dst_host).is_none() {
                    let group = ctx.fresh_group();
                    wm.insert(HostPairFact {
                        src_host,
                        dst_host,
                        group,
                        allocated: 0,
                        peak_allocated: 0,
                    });
                }
            }),
    );

    // "Assign the group ID to a transfer based on its source and destination
    // host pair".
    session.add_rule(
        Rule::new("assign the group ID to a transfer")
            .salience(84)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .watches_fields::<TransferFact>(
                TransferFact::BATCH | TransferFact::SUPPRESSED | TransferFact::GROUP,
            )
            .watches_fields::<HostPairFact>(Fields::NONE)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, t) in ix.batch_transfers(wm) {
                    if t.group.is_some() || t.suppressed.is_some() {
                        continue;
                    }
                    if let Some((ph, _)) =
                        ix.host_pair_for(wm, &t.spec.source.host, &t.spec.dest.host)
                    {
                        out.push([h, ph].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                let group = wm.get::<HostPairFact>(m[1]).expect("matched pair").group;
                wm.update_fields::<TransferFact>(m[0], TransferFact::GROUP, |t| {
                    t.group = Some(group)
                });
            }),
    );

    // "Assign a default level of parallel streams to a transfer".
    session.add_rule(
        Rule::new("assign a default level of parallel streams")
            .salience(80)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .when_each_fields::<TransferFact>(
                TransferFact::BATCH | TransferFact::STREAMS,
                |t, _: &PolicyCtx| t.in_current_batch && t.streams.is_none(),
            )
            .then(move |wm, ctx, m| {
                let default = ctx.config.default_streams;
                wm.update_fields::<TransferFact>(m[0], TransferFact::STREAMS, |t| {
                    t.streams = Some(t.spec.requested_streams.unwrap_or(default));
                });
            }),
    );

    // "Ensure each transfer has at least one parallel stream assigned".
    session.add_rule(
        Rule::new("ensure each transfer has at least one parallel stream")
            .salience(20)
            .agenda_group(agenda::EVALUATE_TRANSFERS)
            .when_each_fields::<TransferFact>(TransferFact::STREAMS, |t, _: &PolicyCtx| {
                t.streams == Some(0)
            })
            .then(move |wm, _, m| {
                wm.update_fields::<TransferFact>(m[0], TransferFact::STREAMS, |t| {
                    t.streams = Some(1)
                });
            }),
    );

    // "Remove a transfer that has completed": release its charged streams,
    // mark the resource staged, and retract the fact. "The detailed state
    // about successfully completed transfers is removed from the Policy
    // Memory; however, the Policy Service maintains information about the
    // location of staged files."
    session.add_rule(
        Rule::new("remove a transfer that has completed")
            .salience(70)
            .agenda_group(agenda::REPORT_TRANSFERS)
            .when_each_fields::<TransferFact>(TransferFact::STATE, |t, _: &PolicyCtx| {
                t.state == TransferState::Completed
            })
            .then(move |wm, _, m| {
                let done = Finished::of(wm, ix, m[0]);
                done.release_streams(wm);
                if let Some(rh) = done.resource {
                    wm.update_fields::<ResourceFact>(rh, ResourceFact::STATE, |r| {
                        if r.producer == Some(done.id) {
                            r.state = ResourceState::Staged;
                            r.producer = None;
                        }
                    });
                }
                wm.retract(m[0]);
            }),
    );

    // "Remove a transfer that has failed": release streams; drop the
    // half-made resource so a retry is not treated as a duplicate.
    session.add_rule(
        Rule::new("remove a transfer that has failed")
            .salience(70)
            .agenda_group(agenda::REPORT_TRANSFERS)
            .when_each_fields::<TransferFact>(TransferFact::STATE, |t, _: &PolicyCtx| {
                t.state == TransferState::Failed
            })
            .then(move |wm, _, m| {
                let done = Finished::of(wm, ix, m[0]);
                done.release_streams(wm);
                if let Some(rh) = done.resource {
                    let r = wm.get::<ResourceFact>(rh).expect("probed resource");
                    if r.producer == Some(done.id) && r.state == ResourceState::Staging {
                        wm.retract(rh);
                    }
                }
                wm.retract(m[0]);
            }),
    );

    install_cleanup_rules(session, ix);
}

/// What settling a finished (completed or failed) transfer writes, probed
/// before anything is written so nothing of the fact has to be cloned.
struct Finished {
    id: TransferId,
    charged: u32,
    /// The host pair's ledger, when streams were charged to it.
    ledger: Option<FactHandle>,
    /// The resource tracking the transfer's destination.
    resource: Option<FactHandle>,
}

impl Finished {
    fn of(wm: &WorkingMemory, ix: PolicyIndexes, transfer: FactHandle) -> Finished {
        let t = wm.get::<TransferFact>(transfer).expect("matched transfer");
        let ledger = (t.charged_streams != 0)
            .then(|| ix.host_pair_for(wm, &t.spec.source.host, &t.spec.dest.host))
            .flatten()
            .map(|(ph, _)| ph);
        let resource = ix
            .resource_for(wm, ix.dest_key(wm, transfer), &t.spec.dest)
            .map(|(rh, _)| rh);
        Finished {
            id: t.id,
            charged: t.charged_streams,
            ledger,
            resource,
        }
    }

    /// Give the charged streams back to the host pair's ledger.
    fn release_streams(&self, wm: &mut WorkingMemory) {
        if let Some(ph) = self.ledger {
            let charged = self.charged;
            wm.update_fields::<HostPairFact>(ph, HostPairFact::ALLOCATED, |p| {
                p.allocated = p.allocated.saturating_sub(charged);
            });
        }
    }
}

/// The cleanup-related rows of Table I.
fn install_cleanup_rules(session: &mut Session<PolicyCtx>, ix: PolicyIndexes) {
    // Duplicate cleanup: "If there is a duplicate cleanup request and the
    // cleanup operation is in progress or completed, the Policy Service
    // removes the current operation from the cleanup list."
    session.add_rule(
        Rule::new("remove duplicate cleanup requests")
            .salience(60)
            .agenda_group(agenda::EVALUATE_CLEANUPS)
            .watches::<CleanupFact>()
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, c) in ix.batch_cleanups(wm) {
                    if c.suppressed.is_some() {
                        continue;
                    }
                    let key = ix.file_key(wm, h);
                    let dup = wm.iter_by(ix.cleanup_by_file, &key).any(|(uh, u)| {
                        uh != h
                            && u.spec.file == c.spec.file
                            && u.suppressed.is_none()
                            && (uh < h || !u.in_current_batch)
                            && matches!(u.state, CleanupState::Pending | CleanupState::InProgress)
                    });
                    if dup {
                        out.push([h].into());
                    }
                }
            })
            .then(move |wm, _, m| {
                wm.update_fields::<CleanupFact>(m[0], CleanupFact::SUPPRESSED, |c| {
                    c.suppressed = Some(SuppressReason::DuplicateCleanup);
                });
            }),
    );

    // "Detach a transfer from the resource when it requests to cleanup the
    // resource's staged file".
    session.add_rule(
        Rule::new("detach a transfer from the resource on cleanup request")
            .salience(58)
            .agenda_group(agenda::EVALUATE_CLEANUPS)
            .watches::<CleanupFact>()
            .watches_fields::<ResourceFact>(ResourceFact::USERS)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, c) in ix.batch_cleanups(wm) {
                    if c.suppressed.is_some() {
                        continue;
                    }
                    if let Some((rh, r)) = ix.resource_for(wm, ix.file_key(wm, h), &c.spec.file) {
                        if r.users.contains(&c.spec.workflow) {
                            out.push([h, rh].into());
                        }
                    }
                }
            })
            .then(move |wm, _, m| {
                let workflow = wm
                    .get::<CleanupFact>(m[0])
                    .expect("matched cleanup")
                    .spec
                    .workflow;
                wm.update_fields::<ResourceFact>(m[1], ResourceFact::USERS, |r| {
                    r.users.remove(&workflow);
                });
            }),
    );

    // "Remove cleanups from the cleanup list that specify resources that
    // have other transfers using the staged files" — i.e. "if the Policy
    // Service receives a cleanup request for a file that is in use by other
    // workflows, then it removes the cleanup operation from the list".
    session.add_rule(
        Rule::new("remove cleanups for resources still in use")
            .salience(55)
            .agenda_group(agenda::EVALUATE_CLEANUPS)
            .watches::<CleanupFact>()
            .watches_fields::<ResourceFact>(ResourceFact::USERS)
            .when(move |wm, _: &PolicyCtx, out| {
                for (h, c) in ix.batch_cleanups(wm) {
                    if c.suppressed.is_some() {
                        continue;
                    }
                    if let Some((_, r)) = ix.resource_for(wm, ix.file_key(wm, h), &c.spec.file) {
                        if !r.users.is_empty() {
                            out.push([h].into());
                        }
                    }
                }
            })
            .then(move |wm, _, m| {
                wm.update_fields::<CleanupFact>(m[0], CleanupFact::SUPPRESSED, |c| {
                    c.suppressed = Some(SuppressReason::ResourceInUse);
                });
            }),
    );

    // Completed cleanups leave policy memory, along with the resource whose
    // file no longer exists.
    session.add_rule(
        Rule::new("remove a cleanup that has completed")
            .salience(54)
            .agenda_group(agenda::REPORT_CLEANUPS)
            .when_each::<CleanupFact>(|c, _: &PolicyCtx| c.state == CleanupState::Completed)
            .then(move |wm, _, m| {
                let c = wm.get::<CleanupFact>(m[0]).expect("matched cleanup");
                let unused = ix
                    .resource_for(wm, ix.file_key(wm, m[0]), &c.spec.file)
                    .filter(|(_, r)| r.users.is_empty())
                    .map(|(rh, _)| rh);
                if let Some(rh) = unused {
                    wm.retract(rh);
                }
                wm.retract(m[0]);
            }),
    );
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are tweaked per-test
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::ctx::PolicyCtx;
    use crate::model::*;
    use pwm_rules::Session;

    fn session() -> (Session<PolicyCtx>, PolicyCtx) {
        let mut s = Session::new();
        let ix = PolicyIndexes::register(&mut s.wm);
        install_base_rules(&mut s, ix);
        (s, PolicyCtx::new(PolicyConfig::default()))
    }

    fn fact(id: u64, src_path: &str, dst_path: &str, wf: u64) -> TransferFact {
        TransferFact {
            id: TransferId(id),
            spec: TransferSpec {
                source: Url::new("gsiftp", "src-host", src_path),
                dest: Url::new("file", "dst-host", dst_path),
                bytes: 1,
                requested_streams: None,
                workflow: WorkflowId(wf),
                cluster: None,
                priority: None,
            },
            state: TransferState::Pending,
            streams: None,
            charged_streams: 0,
            group: None,
            in_current_batch: true,
            suppressed: None,
            cluster_released: false,
            backend: None,
            backend_released: false,
        }
    }

    #[test]
    fn rule_insert_new_transfers_creates_resources() {
        // Table I: "Create a resource for a new transfer to track the
        // resulting staged file."
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<ResourceFact>(), 1);
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert_eq!(r.state, ResourceState::Staging);
        assert_eq!(r.producer, Some(TransferId(1)));
        assert!(r.users.contains(&WorkflowId(1)));
    }

    #[test]
    fn rule_duplicate_removal_keeps_the_first() {
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.wm.insert(fact(2, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        let suppressed: Vec<_> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| (t.id, t.suppressed))
                .collect();
        assert_eq!(suppressed[0], (TransferId(1), None));
        assert_eq!(
            suppressed[1],
            (TransferId(2), Some(SuppressReason::DuplicateInBatch))
        );
        // Only one resource despite two requests.
        assert_eq!(s.wm.count::<ResourceFact>(), 1);
    }

    #[test]
    fn rule_dedup_disabled_by_config() {
        let mut s = Session::new();
        let ix = PolicyIndexes::register(&mut s.wm);
        install_base_rules(&mut s, ix);
        let mut cfg = PolicyConfig::default();
        cfg.dedup = false;
        let mut ctx = PolicyCtx::new(cfg);
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.wm.insert(fact(2, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        assert!(s
            .wm
            .iter::<TransferFact>()
            .all(|(_, t)| t.suppressed.is_none()));
    }

    #[test]
    fn rule_group_id_per_host_pair() {
        // Table I: "Generate a unique group ID for a source and destination
        // host pair" + "Assign the group ID to a transfer".
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.wm.insert(fact(2, "/b", "/b", 1));
        let mut other = fact(3, "/c", "/c", 1);
        other.spec.source.host = "other-host".into();
        s.wm.insert(other);
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<HostPairFact>(), 2);
        let groups: Vec<Option<GroupId>> =
            s.wm.iter::<TransferFact>().map(|(_, t)| t.group).collect();
        assert_eq!(groups[0], groups[1], "same pair, same group");
        assert_ne!(groups[0], groups[2], "different pair, different group");
        assert!(groups.iter().all(|g| g.is_some()));
    }

    #[test]
    fn rule_default_streams_and_floor() {
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        let mut zero = fact(2, "/b", "/b", 1);
        zero.spec.requested_streams = Some(0);
        s.wm.insert(zero);
        s.fire_all(&mut ctx);
        let streams: Vec<Option<u32>> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| t.streams)
                .collect();
        assert_eq!(streams[0], Some(4), "default assigned");
        assert_eq!(streams[1], Some(1), "zero request floored to one");
    }

    #[test]
    fn rule_completed_transfer_removed_resource_staged() {
        let (mut s, mut ctx) = session();
        let h = s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::Completed;
        });
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<TransferFact>(), 0, "transfer fact removed");
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert_eq!(r.state, ResourceState::Staged, "staged-file location kept");
        assert_eq!(r.producer, None);
    }

    #[test]
    fn rule_failed_transfer_removed_with_its_resource() {
        let (mut s, mut ctx) = session();
        let h = s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::Failed;
        });
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<TransferFact>(), 0);
        assert_eq!(
            s.wm.count::<ResourceFact>(),
            0,
            "half-staged resource dropped"
        );
    }

    fn cleanup_fact(id: u64, path: &str, wf: u64) -> CleanupFact {
        CleanupFact {
            id: CleanupId(id),
            spec: CleanupSpec {
                file: Url::new("file", "dst-host", path),
                workflow: WorkflowId(wf),
            },
            state: CleanupState::Pending,
            in_current_batch: true,
            suppressed: None,
        }
    }

    fn staged_resource(s: &mut Session<PolicyCtx>, path: &str, users: &[u64]) {
        s.wm.insert(ResourceFact {
            dest: Url::new("file", "dst-host", path),
            source: Url::new("gsiftp", "src-host", path),
            users: users.iter().map(|&u| WorkflowId(u)).collect(),
            state: ResourceState::Staged,
            producer: None,
        });
    }

    #[test]
    fn rule_detach_then_in_use_suppression() {
        // Table I: "Detach a transfer from the resource when it requests to
        // cleanup" + "Remove cleanups ... that have other transfers using
        // the staged files".
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1, 2]);
        s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        let (_, c) = s.wm.find::<CleanupFact>(|_| true).unwrap();
        assert_eq!(c.suppressed, Some(SuppressReason::ResourceInUse));
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert!(!r.users.contains(&WorkflowId(1)), "requester detached");
        assert!(r.users.contains(&WorkflowId(2)), "other user kept");
    }

    #[test]
    fn rule_last_user_cleanup_proceeds() {
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1]);
        s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        let (_, c) = s.wm.find::<CleanupFact>(|_| true).unwrap();
        assert_eq!(c.suppressed, None, "no other users: cleanup proceeds");
    }

    #[test]
    fn rule_duplicate_cleanup_suppressed() {
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1]);
        let h1 = s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        // First cleanup handed out (in progress).
        s.wm.update::<CleanupFact>(h1, |c| {
            c.in_current_batch = false;
            c.state = CleanupState::InProgress;
        });
        s.wm.insert(cleanup_fact(2, "/a", 1));
        s.fire_all(&mut ctx);
        let (_, dup) = s.wm.find::<CleanupFact>(|c| c.id == CleanupId(2)).unwrap();
        assert_eq!(dup.suppressed, Some(SuppressReason::DuplicateCleanup));
    }

    #[test]
    fn rule_completed_cleanup_removes_resource() {
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1]);
        let h = s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<CleanupFact>(h, |c| {
            c.in_current_batch = false;
            c.state = CleanupState::Completed;
        });
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<CleanupFact>(), 0);
        assert_eq!(s.wm.count::<ResourceFact>(), 0);
    }

    #[test]
    fn rule_in_progress_dedup_attaches_workflow() {
        // A transfer already in progress suppresses the new request AND the
        // new workflow becomes a user of the staged file.
        let (mut s, mut ctx) = session();
        let h = s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::InProgress;
        });
        s.wm.insert(fact(2, "/a", "/a", 2));
        s.fire_all(&mut ctx);
        let (_, second) =
            s.wm.find::<TransferFact>(|t| t.id == TransferId(2))
                .unwrap();
        assert_eq!(second.suppressed, Some(SuppressReason::AlreadyInProgress));
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert!(r.users.contains(&WorkflowId(2)));
    }
}
