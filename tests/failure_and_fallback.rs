//! Integration: failure injection through the full stack (transfer retries
//! against the live Policy Service) and fail-safe behaviour when the policy
//! service is unreachable.

use pwm_bench::{mb, MontageExperiment, PolicyMode};
use pwm_core::{PolicyConfig, PolicyController};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{paper_testbed, Network, StreamModel};
use pwm_rest::PolicyRestClient;
use pwm_workflow::{plan, ComputeSite, ExecutorConfig, PlannerConfig, WorkflowExecutor};

#[test]
fn injected_failures_are_retried_and_absorbed() {
    let mut exp = MontageExperiment::paper_setup(mb(10), 4, PolicyMode::Greedy { threshold: 50 });
    exp.transfer_failure_prob = 0.15;
    let stats = exp.run_once(11);
    assert!(stats.transfer_retries > 0, "15% failure rate must retry");
    assert!(
        stats.success,
        "retries (budget 5/job) should absorb 15% failures"
    );
    // Retried bytes were eventually delivered.
    assert!(stats.bytes_staged >= 89.0 * 10.0e6);
}

#[test]
fn persistent_failures_fail_the_workflow_without_hanging() {
    let mut exp = MontageExperiment::paper_setup(mb(10), 4, PolicyMode::Greedy { threshold: 50 });
    exp.transfer_failure_prob = 1.0;
    let stats = exp.run_once(1);
    assert!(!stats.success);
    assert!(stats.failed_jobs > 0);
    // The run still terminates with a finite makespan.
    assert!(stats.makespan_secs() > 0.0);
}

#[test]
fn unreachable_policy_service_degrades_to_one_stream_execution() {
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
        rows: 2,
        cols: 2,
        extra_file_bytes: 2_000_000,
        seed: 5,
    });
    let rc = montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
    let network = Network::with_seed(topo, StreamModel::default(), 5);
    // A service that is down: the session asked for does not exist, so
    // every call errors. The PTT must fall back to executing its submitted
    // list (fail-safe, not fail-stop).
    let dead = PolicyRestClient::pipe(PolicyController::new(PolicyConfig::default()), "down");
    let exec = WorkflowExecutor::new(
        &p,
        &site,
        network,
        Box::new(dead),
        ExecutorConfig {
            seed: 5,
            ..Default::default()
        },
    );
    let (stats, _net) = exec.run();
    assert!(
        stats.success,
        "the workflow must survive a dead policy service"
    );
    assert!(stats.bytes_staged > 0.0);
}
