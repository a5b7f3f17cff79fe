//! Compare all three policy families on a synthetic data-intensive
//! fork-join workload: no policy, greedy allocation, balanced allocation,
//! and the four structure-based priority orderings.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use pwm_core::transport::{NoPolicyTransport, PolicyTransport};
use pwm_core::{
    AllocationPolicy, PolicyConfig, PolicyController, PriorityAlgorithm, DEFAULT_SESSION,
};
use pwm_montage::{fork_join, single_source_replicas};
use pwm_net::{paper_testbed, Network, StreamModel};
use pwm_rest::PolicyRestClient;
use pwm_workflow::{plan, ComputeSite, ExecutorConfig, PlannerConfig, WorkflowExecutor};

fn main() {
    let (topo, gridftp, _apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    // 32 workers each pulling a 100 MB input over the WAN.
    let wf = fork_join(32, 100_000_000);
    let rc = single_source_replicas(&wf, "gridftp-vm", gridftp);

    println!("fork-join(32 workers × 100 MB WAN input) on the paper testbed\n");
    println!(
        "{:<26}{:>13}{:>10}",
        "configuration", "makespan(s)", "skipped"
    );

    let run = |label: &str, planner: PlannerConfig, transport: Box<dyn PolicyTransport>| {
        let p = plan(&wf, &site, &rc, &planner).expect("plan");
        let network = Network::with_seed(topo.clone(), StreamModel::default(), 9);
        let exec = WorkflowExecutor::new(
            &p,
            &site,
            network,
            transport,
            ExecutorConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let (stats, _) = exec.run();
        assert!(stats.success, "{label} failed");
        println!(
            "{:<26}{:>13.0}{:>10}",
            label,
            stats.makespan_secs(),
            stats.transfers_skipped
        );
    };

    // 1. No policy: fixed 4 streams per transfer.
    run(
        "no-policy (4 streams)",
        PlannerConfig::default(),
        Box::new(NoPolicyTransport::new(4)),
    );

    // 2. Greedy at two thresholds.
    for threshold in [50, 200] {
        let controller = PolicyController::new(
            PolicyConfig::default()
                .with_default_streams(8)
                .with_threshold(threshold)
                .with_allocation(AllocationPolicy::Greedy),
        );
        run(
            &format!("greedy threshold {threshold}"),
            PlannerConfig::default(),
            Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION)),
        );
    }

    // 3. Balanced with 4 clusters (clustered staging).
    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(48)
            .with_cluster_factor(4)
            .with_allocation(AllocationPolicy::Balanced),
    );
    run(
        "balanced 48 / 4 clusters",
        PlannerConfig {
            clustering_factor: Some(4),
            ..Default::default()
        },
        Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION)),
    );

    // 4. Structure-based priorities (greedy 50 underneath).
    for algo in [
        PriorityAlgorithm::BreadthFirst,
        PriorityAlgorithm::DepthFirst,
        PriorityAlgorithm::DirectDependent,
        PriorityAlgorithm::Dependent,
    ] {
        let controller = PolicyController::new(
            PolicyConfig::default()
                .with_default_streams(8)
                .with_threshold(50)
                .with_allocation(AllocationPolicy::Greedy)
                .with_ordering(pwm_core::OrderingPolicy::ByPriority),
        );
        run(
            &format!("greedy 50 + {algo:?}"),
            PlannerConfig {
                priority: Some(algo),
                ..Default::default()
            },
            Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION)),
        );
    }
}
