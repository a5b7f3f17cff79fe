//! Transport abstraction between the Pegasus Transfer Tool and the Policy
//! Service.
//!
//! The paper's PTT talks to the service "via HTTP using its RESTful Web
//! Interface". Clients program against [`PolicyTransport`]:
//!
//! * `PolicyRestClient` in `pwm-rest` — JSON or XML over HTTP, through a
//!   loopback socket or, in every simulated run, a socket-free pipe (the
//!   simulator models the round trip's latency separately, as the paper
//!   notes the callout overhead explicitly);
//! * [`NoPolicyTransport`] — the paper's "default Pegasus with no policy"
//!   comparator: every transfer is approved unchanged with a fixed number
//!   of streams and nothing is tracked;
//! * [`InProcessTransport`] — direct calls into a [`PolicyController`],
//!   for this crate's tests, which cannot reach `pwm-rest`.

use crate::advice::{
    CleanupAction, CleanupAdvice, CleanupOutcome, TransferAction, TransferAdvice, TransferOutcome,
};
use crate::controller::{ControllerError, PolicyController};
use crate::model::{CleanupId, CleanupSpec, GroupId, HealthEvent, TransferId, TransferSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors a transport can surface to the transfer tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The policy service rejected or could not route the request.
    Service(String),
    /// The transport itself failed (connection refused, bad payload...).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Service(m) => write!(f, "policy service error: {m}"),
            TransportError::Io(m) => write!(f, "policy transport error: {m}"),
        }
    }
}
impl std::error::Error for TransportError {}

impl From<ControllerError> for TransportError {
    fn from(e: ControllerError) -> Self {
        TransportError::Service(e.to_string())
    }
}

/// The client-side interface to the Policy Service.
pub trait PolicyTransport: Send {
    /// Submit a list of transfers; receive the modified, advised list.
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError>;

    /// Report transfer outcomes.
    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError>;

    /// Submit a list of cleanups; receive the modified list.
    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError>;

    /// Report cleanup outcomes.
    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError>;

    /// Report infrastructure health observations (recovery family). The
    /// default discards them, so stateless transports — and the no-policy
    /// comparator, which deliberately ignores health — need no code.
    fn report_health(&mut self, _events: Vec<HealthEvent>) -> Result<(), TransportError> {
        Ok(())
    }
}

/// Direct in-process calls into a [`PolicyController`] session.
pub struct InProcessTransport {
    controller: PolicyController,
    session: String,
}

impl InProcessTransport {
    /// Talk to `session` on `controller`.
    pub fn new(controller: PolicyController, session: impl Into<String>) -> Self {
        InProcessTransport {
            controller,
            session: session.into(),
        }
    }
}

impl PolicyTransport for InProcessTransport {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        Ok(self.controller.evaluate_transfers(&self.session, batch)?)
    }

    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        Ok(self.controller.report_transfers(&self.session, outcomes)?)
    }

    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        Ok(self.controller.evaluate_cleanups(&self.session, batch)?)
    }

    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        Ok(self.controller.report_cleanups(&self.session, outcomes)?)
    }

    fn report_health(&mut self, events: Vec<HealthEvent>) -> Result<(), TransportError> {
        Ok(self.controller.report_health(&self.session, events)?)
    }
}

/// The "no policy" comparator: approves everything with a fixed stream
/// count, performs no dedup, keeps no state.
pub struct NoPolicyTransport {
    streams: u32,
    next_id: Arc<AtomicU64>,
}

impl NoPolicyTransport {
    /// Every transfer is approved with `streams` parallel streams (the
    /// paper's no-policy runs used default Pegasus with 4).
    pub fn new(streams: u32) -> Self {
        NoPolicyTransport {
            streams: streams.max(1),
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl PolicyTransport for NoPolicyTransport {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        Ok(batch
            .into_iter()
            .enumerate()
            .map(|(i, spec)| TransferAdvice {
                id: TransferId(self.next_id.fetch_add(1, Ordering::Relaxed)),
                source: spec.source,
                dest: spec.dest,
                action: TransferAction::Execute,
                streams: spec.requested_streams.unwrap_or(self.streams).max(1),
                group: GroupId(0),
                order: i as u32,
                backend: None,
            })
            .collect())
    }

    fn report_transfers(&mut self, _outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        Ok(())
    }

    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        Ok(batch
            .into_iter()
            .map(|spec| CleanupAdvice {
                id: CleanupId(self.next_id.fetch_add(1, Ordering::Relaxed)),
                file: spec.file,
                action: CleanupAction::Execute,
            })
            .collect())
    }

    fn report_cleanups(&mut self, _outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::model::{Url, WorkflowId};
    use crate::DEFAULT_SESSION;

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

    #[test]
    fn in_process_transport_round_trips() {
        let controller = PolicyController::new(PolicyConfig::default());
        let mut t = InProcessTransport::new(controller.clone(), DEFAULT_SESSION);
        let advice = t.evaluate_transfers(vec![spec(1)]).unwrap();
        assert_eq!(advice.len(), 1);
        assert!(advice[0].should_execute());
        t.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }])
        .unwrap();
        assert_eq!(
            controller
                .stats(DEFAULT_SESSION)
                .unwrap()
                .transfers_completed,
            1
        );
    }

    #[test]
    fn in_process_transport_surfaces_session_errors() {
        let controller = PolicyController::new(PolicyConfig::default());
        let mut t = InProcessTransport::new(controller, "missing");
        let err = t.evaluate_transfers(vec![spec(1)]).unwrap_err();
        assert!(matches!(err, TransportError::Service(_)));
    }

    #[test]
    fn no_policy_approves_everything_with_fixed_streams() {
        let mut t = NoPolicyTransport::new(4);
        // Submit the same transfer twice: no dedup in the comparator.
        let advice = t.evaluate_transfers(vec![spec(1), spec(1)]).unwrap();
        assert_eq!(advice.len(), 2);
        assert!(advice.iter().all(|a| a.should_execute()));
        assert!(advice.iter().all(|a| a.streams == 4));
        // Ids are unique.
        assert_ne!(advice[0].id, advice[1].id);
    }

    #[test]
    fn no_policy_respects_explicit_requests() {
        let mut t = NoPolicyTransport::new(4);
        let mut s = spec(1);
        s.requested_streams = Some(9);
        let advice = t.evaluate_transfers(vec![s]).unwrap();
        assert_eq!(advice[0].streams, 9);
    }

    #[test]
    fn no_policy_cleanups_always_execute() {
        let mut t = NoPolicyTransport::new(4);
        let advice = t
            .evaluate_cleanups(vec![CleanupSpec {
                file: Url::new("file", "d", "/f1"),
                workflow: WorkflowId(1),
            }])
            .unwrap();
        assert!(advice[0].should_execute());
        t.report_cleanups(vec![]).unwrap();
    }
}
