//! Concurrent multi-workflow execution.
//!
//! The Policy Service's stated goal is to balance "the data movement within
//! a workflow and across multiple concurrently executing workflows".
//! [`merge_plans`] composes several executable plans into one — each keeping
//! its own [`WorkflowId`] for policy purposes — so a single
//! [`crate::WorkflowExecutor`] runs them *interleaved* against one network
//! and one policy session: staging jobs from different workflows compete for
//! the same staging-slot window, host-pair thresholds, and staged-file
//! resources, exactly as in the paper's deployment.
//!
//! Note on in-flight sharing: as in the paper, a duplicate request that
//! arrives while the first copy is still transferring is skipped
//! ("transfers ... that are already in progress" are removed from the list).
//! The skipping workflow proceeds without waiting for the in-flight copy to
//! land — the original system has the same advisory semantics.

use crate::planner::{ExecutablePlan, PlanJob, PlanJobId};
use pwm_core::WorkflowId;

/// Merge several plans into one combined plan. Job `j` of input plan `i`
/// becomes job `offset_i + j`; names are prefixed with the plan's workflow
/// tag to stay unique; each job carries its originating [`WorkflowId`]
/// (`WorkflowId(base + i)`), which the executor presents to the Policy
/// Service instead of its own configured id.
pub fn merge_plans(plans: &[&ExecutablePlan], base_workflow_id: u64) -> ExecutablePlan {
    let mut jobs: Vec<PlanJob> = Vec::with_capacity(plans.iter().map(|p| p.len()).sum());
    let mut offset = 0usize;
    for (i, plan) in plans.iter().enumerate() {
        let wf = WorkflowId(base_workflow_id + i as u64);
        let shifted = |ids: &[PlanJobId]| ids.iter().map(|id| PlanJobId(id.0 + offset)).collect();
        for job in plan.jobs() {
            jobs.push(PlanJob {
                name: format_args!("wf{}:{}", wf.0, job.name).into(),
                kind: job.kind.clone(),
                parents: shifted(&job.parents),
                children: shifted(&job.children),
                priority: job.priority,
                level: job.level,
                workflow: Some(wf),
            });
        }
        offset += plan.len();
    }
    let name = plans
        .iter()
        .map(|p| p.name.as_str())
        .collect::<Vec<_>>()
        .join("+");
    ExecutablePlan::from_jobs(name, jobs).expect("merging DAGs preserves acyclicity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ComputeSite, ReplicaCatalog};
    use crate::dag::{AbstractJob, AbstractWorkflow};
    use crate::executor::{ExecutorConfig, WorkflowExecutor};
    use crate::planner::{plan, PlanJobKind, PlannerConfig};
    use pwm_core::transport::InProcessTransport;
    use pwm_core::{PolicyConfig, PolicyController, DEFAULT_SESSION};
    use pwm_net::{paper_testbed, HostId, Network, StreamModel};

    fn site(nfs: HostId) -> ComputeSite {
        ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        }
    }

    /// A workflow whose external inputs are SHARED across instances (same
    /// logical names, same scratch destination).
    fn shared_input_workflow(tag: &str) -> AbstractWorkflow {
        // Same workflow *name* → same scratch namespace → shareable files;
        // job names differ per instance via `tag` only in outputs.
        let mut wf = AbstractWorkflow::new("shared-campaign");
        for i in 0..6 {
            wf.add_job(AbstractJob {
                name: format!("work_{tag}_{i}").into(),
                transformation: "work".into(),
                runtime_s: 3.0,
                inputs: vec![format!("common_{i}.dat").into()],
                outputs: vec![format!("out_{tag}_{i}").into()],
            });
            wf.set_file_size(format!("common_{i}.dat"), 30_000_000);
            wf.set_file_size(format!("out_{tag}_{i}"), 1_000);
        }
        wf
    }

    #[test]
    fn merge_remaps_dependencies_and_ids() {
        let (_topo, gridftp, _apache, nfs) = paper_testbed();
        let wf = shared_input_workflow("a");
        let mut rc = ReplicaCatalog::new();
        for i in 0..6 {
            rc.insert(
                format!("common_{i}.dat"),
                pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/d/common_{i}.dat")),
                gridftp,
            );
        }
        let p = plan(&wf, &site(nfs), &rc, &PlannerConfig::default()).unwrap();
        let merged = merge_plans(&[&p, &p], 100);
        assert_eq!(merged.len(), p.len() * 2);
        merged.validate().unwrap();
        // Workflow ids assigned per sub-plan.
        let wf_ids: std::collections::BTreeSet<_> = merged
            .jobs()
            .iter()
            .filter_map(|j| j.workflow)
            .map(|w| w.0)
            .collect();
        assert_eq!(wf_ids, [100u64, 101].into_iter().collect());
        // Second copy's parents point into the second copy's range.
        for job in &merged.jobs()[p.len()..] {
            for parent in &job.parents {
                assert!(parent.0 >= p.len());
            }
        }
    }

    /// Two identical workflows running CONCURRENTLY against one policy
    /// session: the common input files cross the WAN once (the other
    /// workflow's duplicates are suppressed, in-flight or staged), and
    /// cleanup happens only after the last user.
    #[test]
    fn concurrent_workflows_share_in_flight_staging() {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = site(nfs);
        let wf_a = shared_input_workflow("a");
        let wf_b = shared_input_workflow("b");
        let mut rc = ReplicaCatalog::new();
        for i in 0..6 {
            rc.insert(
                format!("common_{i}.dat"),
                pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/d/common_{i}.dat")),
                gridftp,
            );
        }
        // Disable per-file cleanup jobs in A's plan so B can share even when
        // it trails far behind; keep them in B (last user cleans up).
        let no_cleanup = PlannerConfig {
            cleanup: false,
            ..Default::default()
        };
        let pa = plan(&wf_a, &site, &rc, &no_cleanup).unwrap();
        let pb = plan(&wf_b, &site, &rc, &no_cleanup).unwrap();
        let merged = merge_plans(&[&pa, &pb], 500);

        let controller = PolicyController::new(
            PolicyConfig::default()
                .with_default_streams(8)
                .with_threshold(50),
        );
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let network = Network::with_seed(topo, StreamModel::default(), 7);
        let exec = WorkflowExecutor::new(
            &merged,
            &site,
            network,
            transport,
            ExecutorConfig::default(),
        );
        let (stats, _net) = exec.run();
        assert!(stats.success);
        // 12 stage-in jobs submitted 12 transfers for 6 distinct files: six
        // crossed the WAN, six were suppressed (in flight or staged).
        assert_eq!(stats.transfers_skipped, 6, "one skip per shared file");
        assert!(
            stats.bytes_staged < 6.5 * 30.0e6,
            "shared files staged once ({} bytes)",
            stats.bytes_staged
        );
        let service_stats = controller.stats(DEFAULT_SESSION).unwrap();
        assert_eq!(service_stats.transfers_executed, 6);
        assert_eq!(service_stats.transfers_suppressed, 6);
    }

    #[test]
    fn merged_plans_respect_the_shared_staging_limit() {
        // Two workflows × 15 staging jobs, limit 20: the combined run must
        // never exceed 20 concurrent staging jobs → WAN peak ≤ 20 × 4.
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = site(nfs);
        let make = |tag: &str| {
            let mut wf = AbstractWorkflow::new(format!("limit-{tag}"));
            for i in 0..15 {
                wf.add_job(AbstractJob {
                    name: format!("w_{tag}_{i}").into(),
                    transformation: "w".into(),
                    runtime_s: 1.0,
                    inputs: vec![format!("in_{tag}_{i}").into()],
                    outputs: vec![format!("out_{tag}_{i}").into()],
                });
                wf.set_file_size(format!("in_{tag}_{i}"), 20_000_000);
                wf.set_file_size(format!("out_{tag}_{i}"), 1);
            }
            let mut rc = ReplicaCatalog::new();
            for i in 0..15 {
                rc.insert(
                    format!("in_{tag}_{i}"),
                    pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/d/in_{tag}_{i}")),
                    gridftp,
                );
            }
            plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap()
        };
        let pa = make("a");
        let pb = make("b");
        let merged = merge_plans(&[&pa, &pb], 0);
        assert_eq!(
            merged.count_jobs(|j| matches!(j.kind, PlanJobKind::StageIn { .. })),
            30
        );
        let controller = PolicyController::new(
            PolicyConfig::default()
                .with_default_streams(4)
                .with_threshold(1_000_000),
        );
        let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
        let (topo2, _, _, _) = paper_testbed();
        let wan = topo2
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id);
        drop(topo);
        let network = Network::with_seed(topo2, StreamModel::default(), 7);
        let cfg = ExecutorConfig {
            watch_link: wan,
            ..Default::default()
        };
        let exec = WorkflowExecutor::new(&merged, &site, network, transport, cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);
        let peak = stats.peak_wan_streams.unwrap();
        assert!(peak <= 80, "peak {peak} exceeds 20 jobs × 4 streams");
    }
}
