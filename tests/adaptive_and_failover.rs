//! Integration: the replicated-policy failover transport (a future-work
//! extension) driving a whole workflow through a mid-run primary crash.

use pwm_core::transport::{InProcessTransport, PolicyTransport, TransportError};
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, FailoverTransport, PolicyConfig, PolicyController,
    TransferAdvice, TransferOutcome, TransferSpec, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{paper_testbed, Network, StreamModel};
use pwm_workflow::{plan, ComputeSite, ExecutorConfig, PlannerConfig, WorkflowExecutor};

/// A transport that fails after `live_calls` successful calls, simulating a
/// policy-service crash mid-workflow.
struct DiesAfter {
    inner: InProcessTransport,
    live_calls: u32,
}

impl DiesAfter {
    fn dead(&mut self) -> bool {
        if self.live_calls == 0 {
            return true;
        }
        self.live_calls -= 1;
        false
    }
}

impl PolicyTransport for DiesAfter {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        if self.dead() {
            return Err(TransportError::Io("crashed".into()));
        }
        self.inner.evaluate_transfers(batch)
    }
    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        if self.dead() {
            return Err(TransportError::Io("crashed".into()));
        }
        self.inner.report_transfers(outcomes)
    }
    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        if self.dead() {
            return Err(TransportError::Io("crashed".into()));
        }
        self.inner.evaluate_cleanups(batch)
    }
    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        if self.dead() {
            return Err(TransportError::Io("crashed".into()));
        }
        self.inner.report_cleanups(outcomes)
    }
}

/// A mid-run primary crash fails over to the backup replica and the whole
/// Montage workflow still completes with policy service involvement.
#[test]
fn workflow_survives_policy_primary_crash_via_failover() {
    let (topo, gridftp, apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let wf = montage_workflow(&MontageConfig {
        rows: 3,
        cols: 3,
        extra_file_bytes: 2_000_000,
        seed: 8,
    });
    let rc = montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();

    let primary_ctl = PolicyController::new(PolicyConfig::default());
    let backup_ctl = PolicyController::new(PolicyConfig::default());
    let primary = DiesAfter {
        inner: InProcessTransport::new(primary_ctl, DEFAULT_SESSION),
        live_calls: 25, // crash mid-workflow
    };
    let backup = InProcessTransport::new(backup_ctl.clone(), DEFAULT_SESSION);
    let transport = FailoverTransport::new(vec![Box::new(primary), Box::new(backup)]);

    let network = Network::with_seed(topo, StreamModel::default(), 8);
    let exec = WorkflowExecutor::new(
        &p,
        &site,
        network,
        Box::new(transport),
        ExecutorConfig {
            seed: 8,
            ..Default::default()
        },
    );
    let (stats, _) = exec.run();
    assert!(stats.success, "failover must keep the workflow alive");
    // The backup served the post-crash traffic.
    let backup_stats = backup_ctl.stats(DEFAULT_SESSION).unwrap();
    assert!(
        backup_stats.transfer_requests > 0,
        "backup replica never saw traffic"
    );
}
