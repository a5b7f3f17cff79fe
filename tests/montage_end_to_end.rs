//! End-to-end integration: plan and execute the paper's Montage workflow
//! with the Policy Service in the loop, reached through the REST client's
//! pipe and over real loopback HTTP.

use pwm_core::{PolicyConfig, PolicyController, DEFAULT_SESSION};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{paper_testbed, Network, StreamModel, Topology};
use pwm_rest::{PolicyRestClient, PolicyRestServer, StatusEnvelope, WireFormat};
use pwm_sim::SimDuration;
use pwm_workflow::{
    plan, ComputeSite, ExecutablePlan, ExecutorConfig, PlanJobKind, PlannerConfig, RunStats,
    WorkflowExecutor,
};

/// The paper's testbed, its `obelix` site, and the plan of the Montage
/// workflow `montage` for that site.
fn montage_plan(
    montage: MontageConfig,
    planner: PlannerConfig,
) -> (Topology, ComputeSite, ExecutablePlan) {
    let (topo, gridftp, apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let wf = montage_workflow(&montage);
    let rc = montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &planner).unwrap();
    (topo, site, p)
}

/// The paper's Montage run: 10 MB extra per file, seed 1.
fn paper_montage() -> MontageConfig {
    MontageConfig {
        extra_file_bytes: 10_000_000,
        seed: 1,
        ..Default::default()
    }
}

#[test]
fn the_plan_has_the_papers_89_staging_jobs() {
    let (_topo, _site, p) = montage_plan(paper_montage(), PlannerConfig::default());
    assert_eq!(p.stage_in_count(), 89, "paper: 89 data staging jobs");
    assert_eq!(
        p.count_jobs(|j| matches!(j.kind, PlanJobKind::Compute { .. })),
        89
    );
    // Cleanup enabled: one cleanup per scratch file.
    assert!(p.count_jobs(|j| matches!(j.kind, PlanJobKind::Cleanup { .. })) > 100);
    p.validate().unwrap();
}

#[test]
fn montage_runs_to_completion_with_the_policy_service() {
    let (topo, site, p) = montage_plan(paper_montage(), PlannerConfig::default());
    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50),
    );
    let wan = topo
        .links()
        .find(|(_, l)| l.name == "wan-tacc-isi")
        .map(|(id, _)| id);
    let network = Network::with_seed(topo, StreamModel::default(), 1);
    let transport = Box::new(PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION));
    let exec = WorkflowExecutor::new(
        &p,
        &site,
        network,
        transport,
        ExecutorConfig {
            seed: 1,
            policy_call_latency: SimDuration::from_millis(75),
            watch_link: wan,
            ..Default::default()
        },
    );
    let (stats, _net) = exec.run();
    assert!(stats.success, "workflow must complete");
    assert_eq!(stats.staging_jobs, 89);
    // All 89 extra files (10 MB each) crossed the WAN.
    assert!(stats.bytes_staged >= 89.0 * 10.0e6);
    // Policy memory is fully cleaned up afterwards (cleanup jobs ran).
    let snap = controller.snapshot(DEFAULT_SESSION).unwrap();
    assert_eq!(snap.in_progress_transfers, 0);
    assert_eq!(
        snap.staged_files, 0,
        "cleanup should have removed all resources"
    );
    // The greedy ledger peaked within the Table IV bound for (50, 8): 63.
    assert!(stats.peak_wan_streams.unwrap() <= 63);
}

/// A small Montage through `client`: the run's stats and the service's final
/// status, with each rule's evaluation time (the one wall-clock figure of a
/// status) zeroed so that two runs compare.
fn small_montage_run(client: PolicyRestClient) -> (RunStats, StatusEnvelope) {
    let small = MontageConfig {
        rows: 2,
        cols: 2,
        extra_file_bytes: 5_000_000,
        seed: 3,
    };
    let (topo, site, p) = montage_plan(small, PlannerConfig::default());
    let network = Network::with_seed(topo, StreamModel::default(), 3);
    let config = ExecutorConfig {
        seed: 3,
        ..Default::default()
    };
    let exec = WorkflowExecutor::new(&p, &site, network, Box::new(client.clone()), config);
    let (stats, _net) = exec.run();
    let mut status = client.status().unwrap();
    status.rules.iter_mut().for_each(|rule| rule.eval_nanos = 0);
    (stats, status)
}

fn small_montage_controller() -> PolicyController {
    PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(4)
            .with_threshold(50),
    )
}

/// The small Montage through a JSON pipe, the deployment every simulated
/// run uses.
fn small_montage_over_a_json_pipe() -> (RunStats, StatusEnvelope) {
    small_montage_run(PolicyRestClient::pipe(
        small_montage_controller(),
        DEFAULT_SESSION,
    ))
}

/// One batch of advice is the same through the pipe, where the service runs
/// on the caller's thread, and over loopback HTTP.
#[test]
fn rest_transport_equals_in_process_transport() {
    use pwm_core::transport::PolicyTransport;
    use pwm_core::{TransferSpec, Url, WorkflowId};

    let make_batch = || {
        (0..6)
            .map(|i| TransferSpec {
                source: Url::new("gsiftp", "gridftp-vm", format!("/data/f{i}.dat")),
                dest: Url::new("file", "obelix-nfs", format!("/scratch/f{i}.dat")),
                bytes: 1_000_000,
                requested_streams: None,
                workflow: WorkflowId(1),
                cluster: None,
                priority: None,
            })
            .collect::<Vec<_>>()
    };
    let config = PolicyConfig::default()
        .with_default_streams(8)
        .with_threshold(20);

    let mut piped = PolicyRestClient::pipe(PolicyController::new(config.clone()), DEFAULT_SESSION);
    let a1 = piped.evaluate_transfers(make_batch()).unwrap();

    let server = PolicyRestServer::start(PolicyController::new(config)).unwrap();
    let mut socket = PolicyRestClient::new(server.addr(), DEFAULT_SESSION);
    let a2 = socket.evaluate_transfers(make_batch()).unwrap();

    assert_eq!(a1.len(), a2.len());
    for (x, y) in a1.iter().zip(a2.iter()) {
        assert_eq!(x.streams, y.streams);
        assert_eq!(x.action, y.action);
        assert_eq!(x.order, y.order);
        assert_eq!(x.source, y.source);
    }
    // Threshold 20 with default 8: grants 8, 8, 4, 1, 1, 1.
    let mut grants: Vec<u32> = a1.iter().map(|a| a.streams).collect();
    grants.sort_unstable();
    assert_eq!(grants, vec![1, 1, 1, 4, 8, 8]);
}

/// The small Montage driven by a JSON client over loopback HTTP: real
/// sockets, and the same run and final status as through the pipe, with
/// nothing left in progress.
#[test]
fn small_montage_over_loopback_http() {
    let server = PolicyRestServer::start(small_montage_controller()).unwrap();
    let socket = small_montage_run(PolicyRestClient::new(server.addr(), DEFAULT_SESSION));

    let (stats, status) = &socket;
    assert!(stats.success && stats.policy_calls > 0);
    assert!(status.stats.transfer_requests > 0 && status.stats.cleanup_requests > 0);
    assert_eq!(status.snapshot.in_progress_transfers, 0);
    assert_eq!(status.snapshot.in_progress_cleanups, 0);
    assert!(
        socket == small_montage_over_a_json_pipe(),
        "the socket's run differs from the pipe's"
    );
}

/// The small Montage with the client speaking XML, the paper's other wire
/// format: the same run and final status as in JSON, with nothing left in
/// progress.
#[test]
fn small_montage_over_xml_rest() {
    let client = PolicyRestClient::pipe(small_montage_controller(), DEFAULT_SESSION)
        .with_format(WireFormat::Xml);
    let xml = small_montage_run(client);

    let (stats, status) = &xml;
    assert!(stats.success, "XML transport must drive the workflow");
    assert!(status.stats.transfer_requests > 0 && status.stats.cleanup_requests > 0);
    assert_eq!(status.snapshot.in_progress_transfers, 0);
    assert_eq!(status.snapshot.in_progress_cleanups, 0);
    assert!(
        xml == small_montage_over_a_json_pipe(),
        "the XML pipe's run differs from the JSON pipe's"
    );
}

#[test]
fn clustered_plan_runs_and_groups_transfers() {
    let montage = MontageConfig {
        extra_file_bytes: 5_000_000,
        seed: 2,
        ..Default::default()
    };
    let planner = PlannerConfig {
        clustering_factor: Some(4),
        ..Default::default()
    };
    let (topo, site, p) = montage_plan(montage, planner);
    assert!(p.stage_in_count() < 89, "clustering merges staging jobs");

    let controller = PolicyController::new(PolicyConfig::default());
    let network = Network::with_seed(topo, StreamModel::default(), 2);
    let transport = Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION));
    let config = ExecutorConfig {
        seed: 2,
        ..Default::default()
    };
    let (stats, _net) = WorkflowExecutor::new(&p, &site, network, transport, config).run();
    assert!(stats.success);
}
