//! The executor's side of the executor ↔ Policy Service conversation.
//!
//! A [`PolicyPort`] owns the [`PolicyTransport`] and is the only code that
//! invokes it. Everything the executor says to the service goes through one
//! of its methods, and every transport invocation — advice request, report,
//! resync attempt, health report — is counted once, as one wire call.
//!
//! Completion reports do not go out one by one. They enter the **report
//! window**: runs of same-kind outcomes in arrival order, sent as one
//! `report_transfers` / `report_cleanups` per run when the window closes.
//! The window is closed
//!
//! 1. before any other policy interaction (every evaluate and every health
//!    report closes it first), so the service has seen every earlier outcome
//!    when it answers;
//! 2. by the run loop before simulated time moves to a later instant, so no
//!    report crosses an instant and a policy-replica fault window refuses
//!    or passes it as the windows stand at the instant it was produced;
//! 3. when the run returns (completion or `halt_at`).
//!
//! A report the transport fails to deliver is queued whole for **resync**:
//! the queue is retried ahead of everything else each time the window
//! closes, so outcomes from an outage reach a recovered (or successor)
//! service before it answers the next request. Resync is synchronous and
//! adds no simulated latency.

use pwm_core::transport::PolicyTransport;
use pwm_core::{
    CleanupAction, CleanupAdvice, CleanupId, CleanupOutcome, CleanupSpec, GroupId, HealthEvent,
    TransferAction, TransferAdvice, TransferId, TransferOutcome, TransferSpec, TransportError,
};
use pwm_obs::{Counter, Obs};

/// One run of same-kind completion outcomes in the report window.
enum Report {
    Transfers(Vec<TransferOutcome>),
    Cleanups(Vec<CleanupOutcome>),
}

/// Owner of the executor's policy traffic (see the module docs).
pub(crate) struct PolicyPort {
    transport: Box<dyn PolicyTransport>,
    /// Streams per transfer in fail-safe advice.
    fallback_streams: u32,
    /// `pwm_workflow_policy_calls_total`, when the run is observed.
    calls_total: Option<Counter>,
    /// Outcomes reported since the window last closed, in arrival order.
    window: Vec<Report>,
    /// Transfer reports the transport failed to deliver, awaiting resync.
    pending_transfer_reports: Vec<TransferOutcome>,
    /// Cleanup reports queued the same way.
    pending_cleanup_reports: Vec<CleanupOutcome>,
    calls: u64,
}

impl PolicyPort {
    pub(crate) fn new(
        transport: Box<dyn PolicyTransport>,
        fallback_streams: u32,
        obs: Option<Obs>,
    ) -> Self {
        let calls_total = obs.map(|obs| {
            obs.registry.counter(
                "pwm_workflow_policy_calls_total",
                "Wire calls the executor made to the policy service: advice requests, \
                 report windows, resync attempts, health reports",
                &[],
            )
        });
        PolicyPort {
            transport,
            fallback_streams: fallback_streams.max(1),
            calls_total,
            window: Vec::new(),
            pending_transfer_reports: Vec::new(),
            pending_cleanup_reports: Vec::new(),
            calls: 0,
        }
    }

    /// Wire calls made so far: one per transport invocation.
    pub(crate) fn calls(&self) -> u64 {
        self.calls
    }

    /// Invoke the transport, counting the wire call. Every transport
    /// invocation of the port goes through here.
    fn call<R>(
        &mut self,
        invoke: impl FnOnce(&mut dyn PolicyTransport) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        self.calls += 1;
        if let Some(counter) = &self.calls_total {
            counter.inc();
        }
        invoke(self.transport.as_mut())
    }

    /// Ask for advice on a staging job's transfer list. When the service is
    /// unreachable the answer is the fail-safe — the submitted list as-is
    /// with the configured stream count (fail-safe, not fail-stop) — and
    /// the flag is true.
    pub(crate) fn evaluate_transfers(
        &mut self,
        specs: &[TransferSpec],
    ) -> (Vec<TransferAdvice>, bool) {
        self.close_window();
        match self.call(|t| t.evaluate_transfers(specs.to_vec())) {
            Ok(advice) => (advice, false),
            Err(_) => {
                let fallback = specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| TransferAdvice {
                        id: TransferId(u64::MAX - i as u64),
                        source: s.source.clone(),
                        dest: s.dest.clone(),
                        action: TransferAction::Execute,
                        streams: self.fallback_streams,
                        group: GroupId(0),
                        order: i as u32,
                        backend: None,
                    })
                    .collect();
                (fallback, true)
            }
        }
    }

    /// Re-ask about one failed transfer. `None` — service unreachable or an
    /// empty answer — means the caller keeps the advice it has.
    pub(crate) fn reevaluate_transfer(&mut self, spec: TransferSpec) -> Option<TransferAdvice> {
        self.close_window();
        self.call(|t| t.evaluate_transfers(vec![spec]))
            .ok()
            .and_then(|advice| advice.into_iter().next())
    }

    /// Ask for advice on a cleanup job's file list. The fail-safe deletes
    /// the submitted list as-is: scratch must drain even during an outage,
    /// and the worst case is deleting a file another workflow could have
    /// reused (a lost optimization, never a correctness issue).
    pub(crate) fn evaluate_cleanups(
        &mut self,
        specs: &[CleanupSpec],
    ) -> (Vec<CleanupAdvice>, bool) {
        self.close_window();
        match self.call(|t| t.evaluate_cleanups(specs.to_vec())) {
            Ok(advice) => (advice, false),
            Err(_) => {
                let fallback = specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| CleanupAdvice {
                        id: CleanupId(u64::MAX - i as u64),
                        file: s.file.clone(),
                        action: CleanupAction::Execute,
                    })
                    .collect();
                (fallback, true)
            }
        }
    }

    /// Add transfer outcomes to the report window.
    pub(crate) fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) {
        match self.window.last_mut() {
            Some(Report::Transfers(run)) => run.extend(outcomes),
            _ => self.window.push(Report::Transfers(outcomes)),
        }
    }

    /// Add cleanup outcomes to the report window.
    pub(crate) fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) {
        match self.window.last_mut() {
            Some(Report::Cleanups(run)) => run.extend(outcomes),
            _ => self.window.push(Report::Cleanups(outcomes)),
        }
    }

    /// Deliver health observations. Transport errors are swallowed — health
    /// reporting is advisory, never load-bearing — but like every other
    /// interaction it goes out behind the reports that preceded it.
    pub(crate) fn report_health(&mut self, events: Vec<HealthEvent>) {
        self.close_window();
        let _ = self.call(|t| t.report_health(events));
    }

    /// Close the report window: the resync queue first, then one report per
    /// run in arrival order.
    pub(crate) fn close_window(&mut self) {
        self.resync();
        for report in std::mem::take(&mut self.window) {
            match report {
                Report::Transfers(outcomes) => self.send_transfers(outcomes),
                Report::Cleanups(outcomes) => self.send_cleanups(outcomes),
            }
        }
    }

    /// Resend queued reports. Without this, outcomes from an outage window
    /// are lost forever: a service that recovers (or a warm successor) would
    /// never learn which files finished staging and would re-advise them.
    fn resync(&mut self) {
        if !self.pending_transfer_reports.is_empty() {
            let queued = std::mem::take(&mut self.pending_transfer_reports);
            self.send_transfers(queued);
        }
        if !self.pending_cleanup_reports.is_empty() {
            let queued = std::mem::take(&mut self.pending_cleanup_reports);
            self.send_cleanups(queued);
        }
    }

    /// One `report_transfers` call; a report that fails is queued whole.
    fn send_transfers(&mut self, outcomes: Vec<TransferOutcome>) {
        if self.call(|t| t.report_transfers(outcomes.clone())).is_err() {
            self.pending_transfer_reports.extend(outcomes);
        }
    }

    /// One `report_cleanups` call; a report that fails is queued whole.
    fn send_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) {
        if self.call(|t| t.report_cleanups(outcomes.clone())).is_err() {
            self.pending_cleanup_reports.extend(outcomes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwm_core::transport::InProcessTransport;
    use pwm_core::{PolicyConfig, PolicyController, Url, WorkflowId, DEFAULT_SESSION};
    use std::sync::{Arc, Mutex};

    fn transfer(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "gridftp-vm", format!("/data/in_{n}")),
            dest: Url::new("file", "obelix-nfs", format!("/scratch/in_{n}")),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(0),
            cluster: None,
            priority: None,
        }
    }

    fn cleanup(n: u32) -> CleanupSpec {
        CleanupSpec {
            file: Url::new("file", "obelix-nfs", format!("/scratch/in_{n}")),
            workflow: WorkflowId(0),
        }
    }

    fn down() -> TransportError {
        TransportError::Io("down".into())
    }

    /// What reached the service, in arrival order.
    #[derive(Debug, Clone, PartialEq)]
    enum Arrival {
        EvaluateTransfers(usize),
        Transfers(Vec<u64>),
        EvaluateCleanups(usize),
        Cleanups(Vec<u64>),
        Health(usize),
    }

    /// Forwards to an in-process service, failing the next `failures_left`
    /// report calls, and records every call that arrives.
    struct FlakyReports {
        inner: InProcessTransport,
        failures_left: usize,
        arrivals: Arc<Mutex<Vec<Arrival>>>,
    }

    impl FlakyReports {
        fn report_fails(&mut self) -> bool {
            let fails = self.failures_left > 0;
            self.failures_left -= fails as usize;
            fails
        }
        fn arrived(&self, arrival: Arrival) {
            self.arrivals.lock().unwrap().push(arrival);
        }
    }

    impl PolicyTransport for FlakyReports {
        fn evaluate_transfers(
            &mut self,
            b: Vec<TransferSpec>,
        ) -> Result<Vec<TransferAdvice>, TransportError> {
            self.arrived(Arrival::EvaluateTransfers(b.len()));
            self.inner.evaluate_transfers(b)
        }
        fn report_transfers(&mut self, o: Vec<TransferOutcome>) -> Result<(), TransportError> {
            if self.report_fails() {
                return Err(down());
            }
            self.arrived(Arrival::Transfers(o.iter().map(|o| o.id.0).collect()));
            self.inner.report_transfers(o)
        }
        fn evaluate_cleanups(
            &mut self,
            b: Vec<CleanupSpec>,
        ) -> Result<Vec<CleanupAdvice>, TransportError> {
            self.arrived(Arrival::EvaluateCleanups(b.len()));
            self.inner.evaluate_cleanups(b)
        }
        fn report_cleanups(&mut self, o: Vec<CleanupOutcome>) -> Result<(), TransportError> {
            if self.report_fails() {
                return Err(down());
            }
            self.arrived(Arrival::Cleanups(o.iter().map(|o| o.id.0).collect()));
            self.inner.report_cleanups(o)
        }
        fn report_health(&mut self, e: Vec<HealthEvent>) -> Result<(), TransportError> {
            self.arrived(Arrival::Health(e.len()));
            self.inner.report_health(e)
        }
    }

    fn flaky_port(failures: usize) -> (PolicyPort, PolicyController, Arc<Mutex<Vec<Arrival>>>) {
        let controller = PolicyController::new(PolicyConfig::default());
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let transport = FlakyReports {
            inner: InProcessTransport::new(controller.clone(), DEFAULT_SESSION),
            failures_left: failures,
            arrivals: arrivals.clone(),
        };
        (
            PolicyPort::new(Box::new(transport), 1, None),
            controller,
            arrivals,
        )
    }

    fn done(advice: &[TransferAdvice]) -> Vec<TransferOutcome> {
        advice
            .iter()
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect()
    }

    fn deleted(advice: &[CleanupAdvice]) -> Vec<CleanupOutcome> {
        advice
            .iter()
            .map(|a| CleanupOutcome {
                id: a.id,
                success: true,
            })
            .collect()
    }

    #[test]
    fn fallback_streams_are_configurable() {
        struct Dead;
        impl PolicyTransport for Dead {
            fn evaluate_transfers(
                &mut self,
                _b: Vec<TransferSpec>,
            ) -> Result<Vec<TransferAdvice>, TransportError> {
                Err(down())
            }
            fn report_transfers(&mut self, _o: Vec<TransferOutcome>) -> Result<(), TransportError> {
                Err(down())
            }
            fn evaluate_cleanups(
                &mut self,
                _b: Vec<CleanupSpec>,
            ) -> Result<Vec<CleanupAdvice>, TransportError> {
                Err(down())
            }
            fn report_cleanups(&mut self, _o: Vec<CleanupOutcome>) -> Result<(), TransportError> {
                Err(down())
            }
        }
        let mut port = PolicyPort::new(Box::new(Dead), 4, None);
        let specs = [transfer(0), transfer(1), transfer(2)];
        let (advice, fell_back) = port.evaluate_transfers(&specs);
        assert!(fell_back, "a dead service is answered by the fail-safe");
        assert_eq!(advice.len(), 3, "the submitted list runs as-is");
        for (i, (a, s)) in advice.iter().zip(&specs).enumerate() {
            assert!(a.should_execute());
            assert_eq!(a.streams, 4, "the configured fallback stream count");
            assert_eq!(
                (&a.source, &a.dest, a.order),
                (&s.source, &s.dest, i as u32)
            );
        }
        assert!(port.reevaluate_transfer(transfer(0)).is_none());
        // The cleanup fail-safe deletes what was submitted, so scratch
        // drains even with the service down.
        let (advice, fell_back) = port.evaluate_cleanups(&[cleanup(0), cleanup(1)]);
        assert!(fell_back);
        assert!(advice.len() == 2 && advice.iter().all(|a| a.should_execute()));
        assert_eq!(port.calls(), 3, "failed calls are wire calls too");
    }

    #[test]
    fn a_window_is_one_report_per_run_in_arrival_order() {
        let (mut port, controller, arrivals) = flaky_port(0);
        let (staged, _) = port.evaluate_transfers(&[transfer(0), transfer(1), transfer(2)]);
        port.report_transfers(done(&staged));
        port.close_window();
        let (cleanups, _) = port.evaluate_cleanups(&[cleanup(0), cleanup(1), cleanup(2)]);
        let (more, _) = port.evaluate_transfers(&[transfer(3)]);
        arrivals.lock().unwrap().clear();
        let calls_before = port.calls();

        // Three cleanup jobs and one staging job finish at one instant.
        port.report_cleanups(deleted(&cleanups[..1]));
        port.report_cleanups(deleted(&cleanups[1..2]));
        port.report_transfers(done(&more));
        port.report_cleanups(deleted(&cleanups[2..]));
        assert!(
            arrivals.lock().unwrap().is_empty(),
            "nothing leaves before the close"
        );
        port.close_window();

        assert_eq!(
            *arrivals.lock().unwrap(),
            vec![
                Arrival::Cleanups(vec![cleanups[0].id.0, cleanups[1].id.0]),
                Arrival::Transfers(vec![more[0].id.0]),
                Arrival::Cleanups(vec![cleanups[2].id.0]),
            ],
            "same-kind neighbours share a call; a kind change keeps its place"
        );
        assert_eq!(port.calls() - calls_before, 3);
        port.close_window();
        assert_eq!(
            port.calls() - calls_before,
            3,
            "an empty window costs nothing"
        );
        let snap = controller.snapshot(DEFAULT_SESSION).unwrap();
        assert_eq!(
            (snap.in_progress_transfers, snap.in_progress_cleanups),
            (0, 0)
        );
    }

    #[test]
    fn every_evaluate_closes_the_window_first() {
        let (mut port, _controller, arrivals) = flaky_port(0);
        let (staged, _) = port.evaluate_transfers(&[transfer(0), transfer(1)]);
        port.report_transfers(done(&staged[..1]));
        let _ = port.evaluate_cleanups(&[cleanup(0)]);
        port.report_transfers(done(&staged[1..]));
        let _ = port.reevaluate_transfer(transfer(2));
        assert_eq!(
            *arrivals.lock().unwrap(),
            vec![
                Arrival::EvaluateTransfers(2),
                Arrival::Transfers(vec![staged[0].id.0]),
                Arrival::EvaluateCleanups(1),
                Arrival::Transfers(vec![staged[1].id.0]),
                Arrival::EvaluateTransfers(1),
            ]
        );
        assert_eq!(port.calls(), 5);
    }

    #[test]
    fn failed_completion_reports_are_resynced_on_reconnect() {
        // The transport drops the next two report calls (a policy outage),
        // then recovers. A dropped window is queued whole — every outcome
        // in it — and resent ahead of the next interaction, so the
        // service's memory converges anyway.
        let (mut port, controller, arrivals) = flaky_port(2);
        let (staged, _) = port.evaluate_transfers(&[transfer(0), transfer(1), transfer(2)]);
        assert_eq!(staged.len(), 3);
        port.report_transfers(done(&staged[..1]));
        port.report_transfers(done(&staged[1..]));
        port.close_window(); // dropped: all three outcomes queue
        let in_progress =
            |c: &PolicyController| c.snapshot(DEFAULT_SESSION).unwrap().in_progress_transfers;
        assert_eq!(in_progress(&controller), 3);
        port.close_window(); // the resync attempt is dropped too
        assert_eq!(in_progress(&controller), 3);
        assert_eq!(port.calls(), 3, "resync attempts are wire calls");

        let (cleanups, _) = port.evaluate_cleanups(&[cleanup(0)]);
        assert_eq!(
            arrivals.lock().unwrap()[1..],
            [
                Arrival::Transfers(staged.iter().map(|a| a.id.0).collect()),
                Arrival::EvaluateCleanups(1),
            ],
            "the whole window arrives, in order, before the evaluate is answered"
        );
        assert_eq!(
            in_progress(&controller),
            0,
            "resynced reports must close every transfer the outage orphaned"
        );
        assert!(
            cleanups.iter().all(|a| a.should_execute()),
            "the service knew the file was staged when it answered"
        );
        assert_eq!(port.calls(), 5);
    }

    #[test]
    fn a_health_report_does_not_overtake_queued_completion_reports() {
        let (mut port, _controller, arrivals) = flaky_port(1);
        let (staged, _) = port.evaluate_transfers(&[transfer(0)]);
        port.report_transfers(done(&staged));
        port.close_window(); // dropped and queued
        port.report_health(vec![HealthEvent::HostDown {
            host: "gridftp-vm".into(),
        }]);
        assert_eq!(
            arrivals.lock().unwrap()[1..],
            [Arrival::Transfers(vec![staged[0].id.0]), Arrival::Health(1)],
            "the queue is flushed ahead of a health report like any other interaction"
        );
        assert_eq!(port.calls(), 4);
    }
}
