//! Replicated policy logic — the paper's reliability future work.
//!
//! "Finally, we will study the scalability of the centralized policy
//! service when planning multiple complex workflows and explore strategies
//! for distribution and replication of policy logic to improve reliability."
//!
//! [`FailoverTransport`] chains several [`PolicyTransport`] replicas: each
//! request is sent to the active replica, and on transport failure the next
//! replica takes over (sticky failover — the new primary stays active).
//!
//! Semantics: the Policy Service is *advisory*, so replica state need not be
//! identical — after a failover the new primary may lack the old one's
//! dedup/allocation memory, which degrades optimization (files may be
//! restaged, thresholds start empty) but never correctness. That is exactly
//! the failure philosophy of the original system, where a dead policy
//! service must not stop science (see the executor's fail-safe fallback).
//!
//! With [`FailoverTransport::with_warm_recovery`] the transport upgrades to
//! *warm* failover by log shipping: just before a replica serves its first
//! request, a caller-supplied hook replays the failed primary's durability
//! log into it (typically `controller.recover_sharded_session_on(session,
//! shards, disk, dir)` over the primary's WAL directory, or
//! `recover_sharded_session(session, shards, dir)` when that directory is
//! on the real filesystem). Each replica is warmed at most once —
//! re-replaying a stale log over a replica that has since served requests
//! of its own would clobber newer state. A warmed successor inherits the
//! primary's allocation ledgers and dedup memory, so it never grants past
//! the per-host-pair threshold on top of surviving allocations and never
//! re-advises a transfer the ledger already marked staged.
//!
//! A replica can also be held down from outside: the chain's
//! [`FailoverProbe`] marks replica `ix` down for a [`ServiceFault`] and up
//! again (the workflow executor's recovery plane does so for each
//! policy-replica window of its fault plan). While any fault holds a replica down, the chain answers
//! its calls with [`TransportError::Io`] without invoking it, exactly what
//! a crashed or unresponsive replica looks like to the client, and fails
//! over past it. Faults on one replica nest: it is up again only when the
//! last of them is lifted.

use crate::advice::{CleanupAdvice, CleanupOutcome, TransferAdvice, TransferOutcome};
use crate::model::{CleanupSpec, TransferSpec};
use crate::transport::{PolicyTransport, TransportError};
use parking_lot::Mutex;
use std::sync::Arc;

/// How a replica that a fault holds down fails its callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The replica is down: connections are refused outright.
    Outage,
    /// The replica accepts the connection but advice never arrives in
    /// time; the client sees a timeout. Indistinguishable from `Outage`
    /// in effect, but labelled separately in fault plans and errors.
    Timeout,
}

impl ServiceFault {
    /// The error a call to replica `ix` meets while this fault holds it.
    fn error(self, ix: usize) -> TransportError {
        TransportError::Io(match self {
            ServiceFault::Outage => format!("replica {ix} is down: connection refused"),
            ServiceFault::Timeout => format!("replica {ix}: advice timeout"),
        })
    }
}

/// What a chain shares with its probes.
#[derive(Debug, Default)]
struct Health {
    failovers: u64,
    refused: u64,
    /// Per replica: calls that reached it.
    calls: Vec<u64>,
    /// Per replica: the faults holding it down, in the order they came.
    down: Vec<Vec<ServiceFault>>,
}

impl Health {
    /// A call for replica `ix`: the fault that refuses it, or `None` after
    /// counting that it reaches the replica.
    fn admit(&mut self, ix: usize) -> Option<ServiceFault> {
        let fault = self.down[ix].first().copied();
        match fault {
            Some(_) => self.refused += 1,
            None => self.calls[ix] += 1,
        }
        fault
    }
}

/// A transport that fails over across policy-service replicas.
pub struct FailoverTransport {
    replicas: Vec<Box<dyn PolicyTransport>>,
    active: usize,
    health: Arc<Mutex<Health>>,
    /// Which replicas have already been warmed (or started warm, like the
    /// initial primary).
    warmed: Vec<bool>,
    /// Warm-recovery hook: called with a replica index once, just before
    /// that replica's first request.
    warm_hook: Option<Box<dyn FnMut(usize) + Send>>,
}

/// A cloneable handle onto a [`FailoverTransport`]: its counters, and the
/// switch that holds a replica down.
///
/// The transport itself is typically moved into an executor; the probe
/// keeps working after the move, so a fault plan can take replicas down
/// and a harness can read the counts after the run.
#[derive(Debug, Clone)]
pub struct FailoverProbe {
    health: Arc<Mutex<Health>>,
}

impl FailoverProbe {
    /// How many failovers have occurred so far.
    pub fn failovers(&self) -> u64 {
        self.health.lock().failovers
    }

    /// Calls refused because a fault held their replica down.
    pub fn refused(&self) -> u64 {
        self.health.lock().refused
    }

    /// Calls that reached replica `ix`, whatever it answered.
    pub fn calls(&self, ix: usize) -> u64 {
        self.health.lock().calls[ix]
    }

    /// Hold replica `ix` down for `fault` until [`FailoverProbe::mark_up`]
    /// lifts it.
    pub fn mark_down(&self, ix: usize, fault: ServiceFault) {
        self.health.lock().down[ix].push(fault);
    }

    /// Lift one `fault` from replica `ix`. The replica serves again once no
    /// fault holds it.
    pub fn mark_up(&self, ix: usize, fault: ServiceFault) {
        let down = &mut self.health.lock().down[ix];
        if let Some(pos) = down.iter().position(|&f| f == fault) {
            down.remove(pos);
        }
    }
}

impl FailoverTransport {
    /// Build from an ordered replica list (first = preferred primary).
    ///
    /// # Panics
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<Box<dyn PolicyTransport>>) -> Self {
        assert!(!replicas.is_empty(), "failover needs at least one replica");
        let n = replicas.len();
        let mut warmed = vec![false; n];
        warmed[0] = true; // the initial primary is authoritative by definition
        FailoverTransport {
            replicas,
            active: 0,
            health: Arc::new(Mutex::new(Health {
                calls: vec![0; n],
                down: vec![Vec::new(); n],
                ..Health::default()
            })),
            warmed,
            warm_hook: None,
        }
    }

    /// Upgrade to warm failover by log shipping: `hook(ix)` runs once per
    /// replica, just before its first request, and is expected to replay
    /// the primary's durability log into replica `ix` (e.g. via
    /// [`crate::PolicyController::recover_sharded_session_on`] over the
    /// primary's WAL directory). See the module docs for the warm-failover
    /// invariants.
    pub fn with_warm_recovery(mut self, hook: impl FnMut(usize) + Send + 'static) -> Self {
        self.warm_hook = Some(Box::new(hook));
        self
    }

    /// How many failovers have occurred.
    pub fn failovers(&self) -> u64 {
        self.health.lock().failovers
    }

    /// A probe that keeps working after the transport is moved elsewhere.
    pub fn probe(&self) -> FailoverProbe {
        FailoverProbe {
            health: Arc::clone(&self.health),
        }
    }

    /// Try the active replica, then fail over through the rest. `op` is
    /// retried at most once per replica, and never on a replica a fault
    /// holds down.
    fn with_failover<R>(
        &mut self,
        mut op: impl FnMut(&mut dyn PolicyTransport) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let n = self.replicas.len();
        let mut last_err = None;
        for attempt in 0..n {
            let ix = (self.active + attempt) % n;
            if !self.warmed[ix] {
                // Warm exactly once, even if this attempt then fails — a
                // later re-replay could overwrite state the replica built
                // up serving its own requests.
                self.warmed[ix] = true;
                if let Some(hook) = &mut self.warm_hook {
                    hook(ix);
                }
            }
            let refused = self.health.lock().admit(ix);
            let result = match refused {
                Some(fault) => Err(fault.error(ix)),
                None => op(self.replicas[ix].as_mut()),
            };
            match result {
                Ok(r) => {
                    if ix != self.active {
                        self.health.lock().failovers += 1;
                        self.active = ix;
                    }
                    return Ok(r);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one replica was tried"))
    }
}

impl PolicyTransport for FailoverTransport {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        self.with_failover(|t| t.evaluate_transfers(batch.clone()))
    }

    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        self.with_failover(|t| t.report_transfers(outcomes.clone()))
    }

    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        self.with_failover(|t| t.evaluate_cleanups(batch.clone()))
    }

    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        self.with_failover(|t| t.report_cleanups(outcomes.clone()))
    }

    fn report_health(
        &mut self,
        events: Vec<crate::model::HealthEvent>,
    ) -> Result<(), TransportError> {
        self.with_failover(|t| t.report_health(events.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::controller::{PolicyController, DEFAULT_SESSION};
    use crate::model::{Url, WorkflowId};
    use crate::transport::InProcessTransport;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spec(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "s", format!("/f{n}")),
            dest: Url::new("file", "d", format!("/f{n}")),
            bytes: 1,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    fn live() -> (Box<dyn PolicyTransport>, PolicyController) {
        let c = PolicyController::new(PolicyConfig::default());
        (
            Box::new(InProcessTransport::new(c.clone(), DEFAULT_SESSION)),
            c,
        )
    }

    /// A chain over `replicas` whose first `dead` an outage holds down.
    fn chain(replicas: Vec<Box<dyn PolicyTransport>>, dead: usize) -> FailoverTransport {
        let t = FailoverTransport::new(replicas);
        for ix in 0..dead {
            t.probe().mark_down(ix, ServiceFault::Outage);
        }
        t
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_replica_list_rejected() {
        FailoverTransport::new(vec![]);
    }

    #[test]
    fn primary_serves_when_healthy() {
        let (primary, c) = live();
        let (backup, c2) = live();
        let mut t = FailoverTransport::new(vec![primary, backup]);
        let probe = t.probe();
        t.evaluate_transfers(vec![spec(1)]).unwrap();
        assert_eq!((probe.calls(0), probe.calls(1)), (1, 0));
        assert_eq!(t.failovers(), 0);
        assert_eq!(c.stats(DEFAULT_SESSION).unwrap().transfer_requests, 1);
        assert_eq!(c2.stats(DEFAULT_SESSION).unwrap().transfer_requests, 0);
    }

    #[test]
    fn fails_over_to_backup_and_sticks() {
        let (backup, c2) = live();
        let mut t = chain(vec![live().0, backup], 1);
        let probe = t.probe();
        let advice = t.evaluate_transfers(vec![spec(1)]).unwrap();
        assert_eq!(advice.len(), 1);
        assert_eq!((probe.refused(), probe.calls(1)), (1, 1));
        assert_eq!(t.failovers(), 1);
        // Next request goes straight to the backup (sticky).
        t.evaluate_transfers(vec![spec(2)]).unwrap();
        assert_eq!((probe.refused(), probe.calls(1)), (1, 2));
        assert_eq!(t.failovers(), 1, "no second failover");
        assert_eq!(c2.stats(DEFAULT_SESSION).unwrap().transfer_requests, 2);
    }

    #[test]
    fn probe_observes_failovers_after_the_transport_moves() {
        let (backup, _c) = live();
        let t = chain(vec![live().0, backup], 1);
        let probe = t.probe();
        // Move the transport behind a trait object, as the executor does.
        let mut boxed: Box<dyn PolicyTransport> = Box::new(t);
        boxed.evaluate_transfers(vec![spec(1)]).unwrap();
        assert_eq!(probe.failovers(), 1);
    }

    #[test]
    fn all_replicas_dead_surfaces_the_error() {
        let mut t = chain(vec![live().0, live().0], 2);
        let err = t.evaluate_transfers(vec![spec(1)]).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }

    #[test]
    fn backup_state_is_fresh_after_failover() {
        // Stage a file via the primary, then fail over: the backup does not
        // know about it, so a re-request is executed (degraded dedup, never
        // wrong).
        let (primary, _c1) = live();
        let (backup, _c2) = live();
        let mut healthy = FailoverTransport::new(vec![primary, backup]);
        let a = healthy.evaluate_transfers(vec![spec(1)]).unwrap();
        healthy
            .report_transfers(vec![TransferOutcome {
                id: a[0].id,
                success: true,
            }])
            .unwrap();
        // Same request through the backup directly (simulating a failover):
        let (backup2, _c3) = live();
        let mut after = chain(vec![live().0, backup2], 1);
        let again = after.evaluate_transfers(vec![spec(1)]).unwrap();
        assert!(again[0].should_execute(), "fresh backup re-stages safely");
    }

    #[test]
    fn warm_hook_fires_once_per_replica() {
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let (backup, _c) = live();
        let mut t = chain(vec![live().0, backup], 1).with_warm_recovery(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        t.evaluate_transfers(vec![spec(1)]).unwrap();
        t.evaluate_transfers(vec![spec(2)]).unwrap();
        // The initial primary starts warm, so only the backup triggered the
        // hook — and only before its first request.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn warm_failover_restores_primary_memory_from_its_log() {
        let disk = crate::SimDisk::new();
        let config = PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(10);
        let primary = PolicyController::new(config.clone());
        primary
            .create_durable_session(
                DEFAULT_SESSION,
                config.clone(),
                crate::durable::DurabilityConfig::on(disk.clone(), "warm"),
            )
            .unwrap();
        let mut live = InProcessTransport::new(primary.clone(), DEFAULT_SESSION);
        // Stage f1 to completion and leave f2 in flight, holding 8 of the
        // 10 streams allowed between the hosts.
        let a = live.evaluate_transfers(vec![spec(1)]).unwrap();
        live.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }])
        .unwrap();
        let b = live.evaluate_transfers(vec![spec(2)]).unwrap();
        assert_eq!(b[0].streams, 8);

        // The primary dies; the backup warms itself from the primary's log
        // just before serving its first request.
        let backup = PolicyController::new(config.clone());
        let hook_backup = backup.clone();
        let backup_replica = Box::new(InProcessTransport::new(backup.clone(), DEFAULT_SESSION));
        let mut t = chain(vec![Box::new(live), backup_replica], 1).with_warm_recovery(move |_ix| {
            let dir = std::path::Path::new("warm");
            hook_backup
                .recover_sharded_session_on(DEFAULT_SESSION, 1, &disk, dir)
                .unwrap();
        });

        // Dedup memory survived: the staged f1 is not re-advised.
        let again = t.evaluate_transfers(vec![spec(1)]).unwrap();
        assert!(
            !again[0].should_execute(),
            "warm backup skips a staged file"
        );
        // The allocation ledger survived: f2 still holds 8 streams, so a
        // new transfer on the same host pair never pushes the pair past
        // the threshold.
        let c = t.evaluate_transfers(vec![spec(3)]).unwrap();
        assert!(
            c[0].streams + b[0].streams <= 10,
            "threshold continuity across failover: {} + {} > 10",
            c[0].streams,
            b[0].streams
        );
        assert_eq!(t.failovers(), 1);
    }

    #[test]
    fn cleanup_path_fails_over_too() {
        let (backup, _c) = live();
        let mut t = chain(vec![live().0, backup], 1);
        let probe = t.probe();
        let advice = t
            .evaluate_cleanups(vec![crate::model::CleanupSpec {
                file: Url::new("file", "d", "/f1"),
                workflow: WorkflowId(1),
            }])
            .unwrap();
        assert_eq!(advice.len(), 1);
        t.report_cleanups(vec![]).unwrap();
        assert_eq!((probe.refused(), probe.calls(1)), (1, 2));
    }

    #[test]
    fn faults_on_one_replica_nest() {
        // An outage with a timeout inside it: lifting the timeout leaves
        // the replica down, and no refused call reaches it.
        let (primary, c) = live();
        let t = FailoverTransport::new(vec![primary]);
        let probe = t.probe();
        let mut boxed: Box<dyn PolicyTransport> = Box::new(t);
        probe.mark_down(0, ServiceFault::Outage);
        probe.mark_down(0, ServiceFault::Timeout);
        probe.mark_up(0, ServiceFault::Timeout);
        let err = boxed.evaluate_transfers(vec![spec(1)]).unwrap_err();
        assert!(err.to_string().contains("connection refused"), "{err}");
        assert_eq!((probe.refused(), probe.calls(0)), (1, 0));
        assert_eq!(c.stats(DEFAULT_SESSION).unwrap().transfer_requests, 0);
        probe.mark_up(0, ServiceFault::Outage);
        boxed.evaluate_transfers(vec![spec(2)]).unwrap();
        assert_eq!((probe.refused(), probe.calls(0)), (1, 1));
        assert_eq!(probe.failovers(), 0, "a one-replica chain has no backup");
    }
}
