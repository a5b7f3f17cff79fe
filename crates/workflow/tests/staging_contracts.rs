//! What a staging job does with its advice, checked on whole runs: each
//! advice entry starts the flow of the planned transfer it names, whatever
//! order the entries come in, and each transfer span ends once, with the
//! result whose counter counts it.

use pwm_core::transport::{NoPolicyTransport, PolicyTransport};
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, PolicyConfig, PolicyController, SuppressReason,
    TransferAction, TransferAdvice, TransferOutcome, TransferSpec, TransportError, Url,
    DEFAULT_SESSION,
};
use pwm_net::{paper_testbed, HostId, Network, StreamModel};
use pwm_obs::Obs;
use pwm_rest::PolicyRestClient;
use pwm_sim::{SimDuration, SimTime};
use pwm_workflow::{
    plan, AbstractJob, AbstractWorkflow, ComputeSite, CrashTarget, ExecutablePlan, ExecutorConfig,
    PlanJob, PlanJobKind, PlannedTransfer, PlannerConfig, RecoveryConfig, ReplicaCatalog,
    WorkflowExecutor,
};
use std::collections::BTreeMap;

/// The paper's Obelix site with `nodes` × 6 cores.
fn obelix(nodes: u32, nfs: HostId) -> ComputeSite {
    ComputeSite {
        name: "obelix".into(),
        nodes,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    }
}

/// Answers every staging callout out of order: the advice the no-policy
/// comparator gives, with the first submitted transfer skipped as a
/// duplicate, one more entry for a transfer nobody submitted, and the whole
/// list reversed.
struct Scrambled(NoPolicyTransport);

impl PolicyTransport for Scrambled {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        let mut advice = self.0.evaluate_transfers(batch)?;
        let mut stray = advice[0].clone();
        stray.source = Url::new("gsiftp", "gridftp-vm", "/data/never-submitted");
        advice[0].action = TransferAction::Skip(SuppressReason::DuplicateInBatch);
        advice.push(stray);
        advice.reverse();
        Ok(advice)
    }
    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        self.0.report_transfers(outcomes)
    }
    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        self.0.evaluate_cleanups(batch)
    }
    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        self.0.report_cleanups(outcomes)
    }
}

#[test]
fn advice_resolves_to_its_own_planned_transfer() {
    // Two stage-in jobs of three transfers each, every one a different size,
    // their sources alternating between the two data hosts.
    let (topo, gridftp, apache, nfs) = paper_testbed();
    let planned = |job: u64, i: u64| {
        let f = job * 3 + i;
        let (host, src_host) = [("gridftp-vm", gridftp), ("apache-isi", apache)][f as usize % 2];
        PlannedTransfer {
            file: format!("f{f}").into(),
            bytes: (f + 1) * 1_000_000,
            source: Url::new("gsiftp", host, format!("/d/f{f}")),
            dest: Url::new("file", "obelix-nfs", format!("/s/f{f}")),
            src_host,
            dst_host: nfs,
        }
    };
    let jobs: Vec<PlanJob> = (0..2)
        .map(|job| PlanJob {
            name: format!("stage_{job}").into(),
            kind: PlanJobKind::StageIn {
                transfers: (0..3).map(|i| planned(job, i)).collect(),
                cluster: None,
            },
            priority: 0,
            level: 0,
        })
        .collect();
    let plan = ExecutablePlan::from_jobs("scrambled", jobs, &[]).unwrap();
    let transport = Box::new(Scrambled(NoPolicyTransport::new(4)));
    let network = Network::new(topo, StreamModel::default());
    let cfg = ExecutorConfig::default();
    let (stats, _) = WorkflowExecutor::new(&plan, &obelix(1, nfs), network, transport, cfg).run();
    assert!(stats.success);
    assert_eq!(stats.transfers_skipped, 2, "each job's first transfer");
    // Every flow carries the bytes and source host of its own planned
    // transfer, and the stray entries started nothing.
    let mut started: Vec<(u64, HostId)> = (stats.transfers.iter())
        .map(|t| (t.bytes as u64, t.src))
        .collect();
    started.sort_by_key(|&(bytes, _)| bytes);
    let expected: Vec<(u64, HostId)> = [(0, 1), (0, 2), (1, 1), (1, 2)]
        .map(|(job, i)| planned(job, i))
        .iter()
        .map(|pt| (pt.bytes, pt.src_host))
        .collect();
    assert_eq!(started, expected);
}

/// `n` independent 5 s jobs: job i stages `in_i` (`bytes`) from the GridFTP
/// host, and the replica catalog also holds a mirror of it on the Apache
/// host.
fn mirrored_wide_plan(
    n: usize,
    bytes: u64,
    site: &ComputeSite,
    gridftp: HostId,
    apache: HostId,
) -> (ExecutablePlan, ReplicaCatalog) {
    let mut wf = AbstractWorkflow::new("wide");
    let (mut planned, mut mirrored) = (ReplicaCatalog::new(), ReplicaCatalog::new());
    for i in 0..n {
        wf.add_job(AbstractJob {
            name: format!("work_{i}").into(),
            transformation: "work".into(),
            runtime_s: 5.0,
            inputs: vec![format!("in_{i}").into()],
            outputs: vec![format!("out_{i}").into()],
        });
        wf.set_file_size(format!("in_{i}"), bytes);
        wf.set_file_size(format!("out_{i}"), 1_000);
        let source = Url::new("gsiftp", "gridftp-vm", format!("/data/in_{i}"));
        planned.insert(format!("in_{i}"), source.clone(), gridftp);
        mirrored.insert(format!("in_{i}"), source, gridftp);
        let mirror = Url::new("http", "apache-isi", format!("/mirror/in_{i}"));
        mirrored.insert(format!("in_{i}"), mirror, apache);
    }
    let cfg = PlannerConfig {
        cleanup: true,
        ..Default::default()
    };
    (plan(&wf, site, &planned, &cfg).unwrap(), mirrored)
}

#[test]
fn every_transfer_span_ends_once_with_the_result_its_counter_counts() {
    // Injected failures, a crash of the mirrored source mid-staging and
    // corrupt reads of the mirror in one traced run: each transfer span
    // ends with one result, and each result's count is the counter of its
    // path.
    let (topo, gridftp, apache, nfs) = paper_testbed();
    let site = obelix(9, nfs);
    let (plan, replicas) = mirrored_wide_plan(8, 40_000_000, &site, gridftp, apache);
    let mut rec = RecoveryConfig::default();
    let crash = CrashTarget::Host {
        host: gridftp,
        name: "gridftp-vm".into(),
    };
    (rec.faults).add(SimTime::from_secs(4), SimDuration::from_secs(120), crash);
    rec.replicas = replicas;
    rec.corruption.set_host_prob("apache-isi", 0.3);
    let obs = Obs::new();
    let cfg = ExecutorConfig {
        seed: 3,
        transfer_failure_prob: 0.2,
        obs: Some(obs.clone()),
        recovery: Some(rec),
        ..ExecutorConfig::default()
    };
    let controller = PolicyController::new(PolicyConfig::default());
    let transport = Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION));
    let network = Network::new(topo, StreamModel::default());
    let (stats, _) = WorkflowExecutor::new(&plan, &site, network, transport, cfg).run();
    assert!(stats.success);
    let report = stats.recovery.as_ref().expect("recovery report");
    let mut results = BTreeMap::<String, u64>::new();
    for span in obs
        .tracer
        .events()
        .iter()
        .filter(|e| e.name.starts_with("xfer "))
    {
        let ends: Vec<&String> = (span.args.iter())
            .filter(|(k, _)| k == "result")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(ends.len(), 1, "{span:?} ends once");
        *results.entry(ends[0].clone()).or_default() += 1;
    }
    let counters = [
        ("corrupt", report.corrupt_reads.into()),
        ("failed", stats.transfer_retries),
        ("killed", report.flows_killed.into()),
        ("ok", stats.transfers.len() as u64),
    ];
    let taken = counters.iter().all(|&(_, n)| n > 0);
    assert!(taken, "every path taken: {counters:?}");
    let counted = counters.map(|(result, n)| (result.to_string(), n));
    assert_eq!(results, counted.into_iter().collect());
}
