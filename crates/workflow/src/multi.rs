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

use crate::planner::{ExecutablePlan, Part};
use pwm_core::WorkflowId;

/// Merge several plans into one combined plan. Job `j` of input plan `i`
/// becomes job `offset_i + j`, shown as `wf{id}:{name}` to stay unique; each
/// job carries its originating [`WorkflowId`] (`WorkflowId(base + i)`),
/// which the executor presents to the Policy Service instead of its own
/// configured id.
///
/// The merged plan is a view: it shares every input plan's jobs and edges
/// and adds one part per plan plus a part index per job, so a campaign's
/// plan memory is its workflows', not twice that. The prefixed names are
/// rendered only where a name is shown ([`ExecutablePlan::job_name`]).
///
/// # Panics
///
/// When an input plan is itself merged: its jobs already carry workflow ids
/// and prefixes. Merge the plans it was made from in one call instead. Also
/// past 65 536 plans, the most a `u16` part index tells apart.
pub fn merge_plans(plans: &[&ExecutablePlan], base_workflow_id: u64) -> ExecutablePlan {
    let mut parts = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let workflow = WorkflowId(base_workflow_id + i as u64);
        for part in plan.parts() {
            assert!(
                part.workflow.is_none(),
                "merge_plans: `{}` is already a merged plan; merge the plans it was made from in one call",
                plan.name
            );
            parts.push(Part::new(part.body.clone(), Some(workflow)));
        }
    }
    let name = plans
        .iter()
        .map(|p| p.name.as_str())
        .collect::<Vec<_>>()
        .join("+");
    ExecutablePlan::from_parts(name, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ComputeSite, ReplicaCatalog};
    use crate::dag::{AbstractJob, AbstractWorkflow};
    use crate::executor::{ExecutorConfig, WorkflowExecutor};
    use crate::planner::proptests::random_plan;
    use crate::planner::{plan, PlanJobKind, PlannerConfig};
    use pwm_core::{PolicyConfig, PolicyController, DEFAULT_SESSION};
    use pwm_net::{paper_testbed, HostId, Network, StreamModel};
    use pwm_rest::PolicyRestClient;
    use pwm_sim::SimTime;

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
        let wf_ids: std::collections::BTreeSet<_> = (0..merged.len())
            .filter_map(|i| merged.workflow(i))
            .map(|w| w.0)
            .collect();
        assert_eq!(wf_ids, [100u64, 101].into_iter().collect());
        // Second copy's parents point into the second copy's range.
        for i in p.len()..merged.len() {
            assert!(merged.parents(i).all(|parent| parent >= p.len()));
        }
        // Names keep their plan's spelling; the prefix appears where shown.
        assert_eq!(merged.job(p.len()).name, p.job(0).name);
        assert_eq!(p.job_name(0).to_string(), p.job(0).name.as_str());
        let shown = format!("wf101:{}", p.job(0).name);
        assert_eq!(merged.job_name(p.len()).to_string(), shown);
        assert_eq!(merged.job_name(p.len()).to_name(), shown.as_str());
    }

    #[test]
    #[should_panic(expected = "merge_plans: `a+a` is already a merged plan")]
    fn merging_a_merged_plan_panics() {
        let (_, mut p) = random_plan(2, 2, 0.5, 1, None);
        p.name = "a".into();
        let merged = merge_plans(&[&p, &p], 0);
        merge_plans(&[&p, &merged], 10);
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
        let transport = Box::new(PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION));
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

    /// A checkpoint of a merged run names jobs as the run showed them,
    /// `wf{id}:{name}`, and a resume from it matches those names back.
    #[test]
    fn a_merged_checkpoint_uses_prefixed_names_and_resumes() {
        let (_topo, gridftp, _apache, nfs) = paper_testbed();
        let site = site(nfs);
        let mut rc = ReplicaCatalog::new();
        for i in 0..6 {
            rc.insert(
                format!("common_{i}.dat"),
                pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/d/common_{i}.dat")),
                gridftp,
            );
        }
        let plans: Vec<_> = ["a", "b"]
            .map(|tag| {
                let wf = shared_input_workflow(tag);
                plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap()
            })
            .into();
        let merged = merge_plans(&[&plans[0], &plans[1]], 3);
        let controller = PolicyController::new(PolicyConfig::default());
        let run = |config: ExecutorConfig| {
            let transport = Box::new(PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION));
            let network = Network::with_seed(paper_testbed().0, StreamModel::default(), 7);
            WorkflowExecutor::new(&merged, &site, network, transport, config).run_checkpointed()
        };
        let (full, _, all) = run(ExecutorConfig::default());
        assert!(full.success);
        assert_eq!(all.completed_jobs.len(), merged.len());
        let shown: Vec<String> = (0..merged.len())
            .map(|i| merged.job_name(i).to_string())
            .collect();
        assert!(all
            .completed_jobs
            .iter()
            .all(|n| shown.contains(&n.to_string())));
        assert!(all.completed_jobs.iter().any(|n| n.starts_with("wf3:")));
        assert!(all.completed_jobs.iter().any(|n| n.starts_with("wf4:")));

        let halt = SimTime::from_secs_f64(full.makespan_secs() * 0.5);
        let (halted, _, cp) = run(ExecutorConfig {
            halt_at: Some(halt),
            ..ExecutorConfig::default()
        });
        assert!(!halted.success && !cp.is_empty());
        let (resumed, _, _) = run(ExecutorConfig {
            resume_from: Some(cp.clone()),
            ..ExecutorConfig::default()
        });
        assert!(resumed.success);
        let finished_stage_ins = cp
            .completed_jobs
            .iter()
            .filter(|n| n.contains(":stage_in_"))
            .count();
        assert!(finished_stage_ins > 0, "the halt left finished stage-ins");
        assert_eq!(
            resumed.staging_jobs,
            full.staging_jobs - finished_stage_ins,
            "finished stage-ins do not run again"
        );
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
        let transport = Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION));
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

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::planner::proptests::random_plan;
    use proptest::prelude::*;

    /// Everything the executor reads of one merged job.
    #[derive(Debug, PartialEq)]
    struct Row {
        name: String,
        kind: String,
        parents: Vec<usize>,
        children: Vec<usize>,
        level: usize,
        priority: i32,
        workflow: Option<WorkflowId>,
    }

    /// The merge as a deep copy: every job renamed `wf{id}:{name}`, its
    /// edges shifted past the jobs of the plans before it.
    fn deep_copy(plans: &[&ExecutablePlan], base: u64) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut offset = 0;
        for (i, plan) in plans.iter().enumerate() {
            let wf = WorkflowId(base + i as u64);
            for j in 0..plan.len() {
                let job = plan.job(j);
                rows.push(Row {
                    name: format!("wf{}:{}", wf.0, job.name),
                    kind: format!("{:?}", job.kind),
                    parents: plan.parents(j).map(|p| p + offset).collect(),
                    children: plan.children(j).map(|c| c + offset).collect(),
                    level: job.level,
                    priority: job.priority,
                    workflow: Some(wf),
                });
            }
            offset += plan.len();
        }
        rows
    }

    /// The same rows read through the merged view.
    fn view(merged: &ExecutablePlan) -> Vec<Row> {
        let rows = merged.jobs().iter().enumerate().map(|(i, job)| Row {
            name: merged.job_name(i).to_string(),
            kind: format!("{:?}", job.kind),
            parents: merged.parents(i).collect(),
            children: merged.children(i).collect(),
            level: merged.job(i).level,
            priority: merged.job(i).priority,
            workflow: merged.workflow(i),
        });
        rows.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The merged view shows exactly the deep copy `merge_plans` used
        /// to build, over random layered DAGs with and without clustering.
        #[test]
        fn merged_view_matches_a_deep_copy(
            shapes in proptest::collection::vec(
                (
                    1usize..4,
                    1usize..6,
                    0.0f64..1.0,
                    0u64..500,
                    proptest::option::of(1u32..5),
                ),
                0..4,
            ),
            base in 0u64..1_000,
        ) {
            let plans: Vec<ExecutablePlan> = shapes
                .iter()
                .map(|&(levels, width, p, seed, k)| random_plan(levels, width, p, seed, k).1)
                .collect();
            let plans: Vec<&ExecutablePlan> = plans.iter().collect();
            let merged = merge_plans(&plans, base);
            prop_assert!(merged.validate().is_ok());
            prop_assert_eq!(merged.len(), plans.iter().map(|p| p.len()).sum::<usize>());
            prop_assert_eq!(merged.jobs().iter().count(), merged.len());
            prop_assert_eq!(view(&merged), deep_copy(&plans, base));
        }
    }
}
