//! The workflow planner.
//!
//! Turns an [`AbstractWorkflow`] into an [`ExecutablePlan`]: "during its
//! planning phase, Pegasus adds to the workflow data staging tasks that move
//! input data sets to resources where compute jobs will execute ... Since
//! storage, especially at computational sites, is finite, the workflow
//! management system also needs to remove data that are no longer needed for
//! upcoming computations" — i.e. stage-in jobs, stage-out jobs, and cleanup
//! jobs, with optional horizontal task clustering of the staging operations.

use crate::catalog::{ComputeSite, ReplicaCatalog};
use crate::dag::{AbstractWorkflow, JobIx, WorkflowError};
use pwm_core::{assign_priorities, Name, PriorityAlgorithm, Url, WorkflowGraph};
use pwm_net::HostId;
use std::collections::BTreeMap;

/// Index of a job within an [`ExecutablePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanJobId(pub usize);

/// One file movement a staging job must perform.
#[derive(Debug, Clone)]
pub struct PlannedTransfer {
    /// Logical file name.
    pub file: Name,
    /// Size in bytes.
    pub bytes: u64,
    /// Source URL.
    pub source: Url,
    /// Destination URL.
    pub dest: Url,
    /// Source host in the network simulator.
    pub src_host: HostId,
    /// Destination host in the network simulator.
    pub dst_host: HostId,
}

/// What kind of work a plan job performs.
#[derive(Debug, Clone)]
pub enum PlanJobKind {
    /// Move input files to the compute site before a compute job runs.
    StageIn {
        /// Files to move, in catalog order.
        transfers: Vec<PlannedTransfer>,
        /// Cluster index at this job's level (clustering enabled only).
        cluster: Option<u32>,
    },
    /// Run an application executable.
    Compute {
        /// Transformation name.
        transformation: Name,
        /// Mean runtime (seconds).
        runtime_s: f64,
        /// Total bytes of the files this job writes to site scratch.
        output_bytes: u64,
    },
    /// Move final outputs to permanent storage.
    StageOut {
        /// Files to move.
        transfers: Vec<PlannedTransfer>,
    },
    /// Delete files no longer needed from site scratch.
    Cleanup {
        /// Scratch URLs to delete, with their sizes (for the executor's
        /// scratch-space accounting).
        files: Vec<(Url, u64)>,
    },
}

impl PlanJobKind {
    /// True for stage-in/stage-out jobs (they occupy staging-job slots).
    pub fn is_staging(&self) -> bool {
        matches!(
            self,
            PlanJobKind::StageIn { .. } | PlanJobKind::StageOut { .. }
        )
    }
}

/// One node of the executable plan.
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Unique name ("stage_in_mProjectPP_0007").
    pub name: Name,
    /// The work.
    pub kind: PlanJobKind,
    /// Jobs that must finish first.
    pub parents: Vec<PlanJobId>,
    /// Jobs waiting on this one.
    pub children: Vec<PlanJobId>,
    /// Structure-based priority (higher runs earlier among ready jobs).
    pub priority: i32,
    /// Topological level of the originating compute job (0 for roots).
    pub level: usize,
    /// Workflow identity presented to the policy service; `None` = use the
    /// executor's configured id (set by `merge_plans` for concurrent
    /// multi-workflow runs).
    pub workflow: Option<pwm_core::WorkflowId>,
}

/// The executable workflow produced by planning.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    /// Workflow name.
    pub name: String,
    jobs: Vec<PlanJob>,
}

impl ExecutablePlan {
    /// Build a plan directly from a job list (programmatic construction and
    /// tests; `plan` is the normal entry point). Validates the DAG.
    pub fn from_jobs(name: impl Into<String>, jobs: Vec<PlanJob>) -> Result<Self, WorkflowError> {
        let plan = ExecutablePlan {
            name: name.into(),
            jobs,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// All jobs.
    pub fn jobs(&self) -> &[PlanJob] {
        &self.jobs
    }

    /// One job.
    pub fn job(&self, id: PlanJobId) -> &PlanJob {
        &self.jobs[id.0]
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the plan has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Count of jobs matching a predicate.
    pub fn count_jobs(&self, pred: impl Fn(&PlanJob) -> bool) -> usize {
        self.jobs.iter().filter(|j| pred(j)).count()
    }

    /// Number of stage-in jobs (the paper's "data staging jobs").
    pub fn stage_in_count(&self) -> usize {
        self.count_jobs(|j| matches!(j.kind, PlanJobKind::StageIn { .. }))
    }

    /// Verify the plan is a DAG with consistent parent/child lists.
    pub fn validate(&self) -> Result<(), WorkflowError> {
        let n = self.jobs.len();
        let mut indegree = vec![0usize; n];
        for (i, job) in self.jobs.iter().enumerate() {
            // O(edges × degree): checked where tests run, not per plan of a
            // release campaign.
            debug_assert!(
                job.parents
                    .iter()
                    .all(|p| self.jobs[p.0].children.contains(&PlanJobId(i))),
                "parent/child lists inconsistent"
            );
            indegree[i] = job.parents.len();
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(j) = queue.pop() {
            seen += 1;
            for c in &self.jobs[j].children {
                indegree[c.0] -= 1;
                if indegree[c.0] == 0 {
                    queue.push(c.0);
                }
            }
        }
        if seen == n {
            Ok(())
        } else {
            Err(WorkflowError::Cycle)
        }
    }
}

/// Planner options.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// `None` → one stage-in job per compute job (the paper's experimental
    /// configuration: "no clustering (one stage-in job per compute job)").
    /// `Some(k)` → at most `k` stage-in jobs per workflow level, each
    /// serving a cluster of compute jobs.
    pub clustering_factor: Option<u32>,
    /// Insert cleanup jobs ("cleanup enabled" in the paper's setup).
    pub cleanup: bool,
    /// Insert stage-out jobs for final outputs.
    pub stage_out: bool,
    /// Where final outputs go (host name, network host, base path).
    pub output_site: Option<(String, HostId, String)>,
    /// Structure-based priority algorithm to annotate jobs with.
    pub priority: Option<PriorityAlgorithm>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            clustering_factor: None,
            cleanup: true,
            stage_out: false,
            output_site: None,
            priority: None,
        }
    }
}

/// Errors during planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The abstract workflow failed validation.
    Workflow(WorkflowError),
    /// An external input has no replica-catalog entry.
    NoReplica(String),
    /// Stage-out requested but no output site configured.
    NoOutputSite,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Workflow(e) => write!(f, "invalid workflow: {e}"),
            PlanError::NoReplica(file) => write!(f, "no replica for external input {file:?}"),
            PlanError::NoOutputSite => write!(f, "stage-out enabled but no output site"),
        }
    }
}
impl std::error::Error for PlanError {}

impl From<WorkflowError> for PlanError {
    fn from(e: WorkflowError) -> Self {
        PlanError::Workflow(e)
    }
}

/// Plan `workflow` to run on `site`, staging inputs per `replicas`.
pub fn plan(
    workflow: &AbstractWorkflow,
    site: &ComputeSite,
    replicas: &ReplicaCatalog,
    config: &PlannerConfig,
) -> Result<ExecutablePlan, PlanError> {
    let edges = workflow.checked_edges()?;
    let levels = workflow.levels_over(&edges)?;
    let files = &workflow.files;
    let size = |f: usize| files[f].size.unwrap_or(0);
    // A file's scratch URL is built once, however many jobs stage or clean it.
    let mut scratch_urls: Vec<Option<Url>> = vec![None; files.len()];
    let mut scratch_url = |f: usize| {
        let build = || site.scratch_url(&workflow.name, &files[f].name);
        scratch_urls[f].get_or_insert_with(build).clone()
    };

    let mut jobs: Vec<PlanJob> = Vec::new();
    let add_job = |jobs: &mut Vec<PlanJob>, name: Name, kind, priority, level| -> PlanJobId {
        jobs.push(PlanJob {
            name,
            kind,
            parents: Vec::new(),
            children: Vec::new(),
            priority,
            level,
            workflow: None,
        });
        PlanJobId(jobs.len() - 1)
    };
    // Every edge below is unique by construction: `edges` is deduplicated, a
    // file lists each consumer once, and every other edge has a new job at
    // one end.
    let link = |jobs: &mut Vec<PlanJob>, parent: PlanJobId, child: PlanJobId| {
        debug_assert!(!jobs[parent.0].children.contains(&child));
        jobs[parent.0].children.push(child);
        jobs[child.0].parents.push(parent);
    };

    // Optional structure-based priorities over the compute-job graph.
    let priorities: Vec<i32> = match config.priority {
        Some(algo) => {
            let mut g = WorkflowGraph::new(workflow.len());
            for (a, b) in &edges {
                g.add_edge(a.0, b.0);
            }
            assign_priorities(&g, algo)
        }
        None => vec![0; workflow.len()],
    };

    // 1. Compute jobs.
    let mut compute_ids: Vec<PlanJobId> = Vec::with_capacity(workflow.len());
    for (ix, a) in workflow.jobs().iter().enumerate() {
        let kind = PlanJobKind::Compute {
            transformation: a.transformation.clone(),
            runtime_s: a.runtime_s,
            output_bytes: workflow.job_files(ix).1.iter().map(|&f| size(f)).sum(),
        };
        let id = add_job(&mut jobs, a.name.clone(), kind, priorities[ix], levels[ix]);
        compute_ids.push(id);
    }
    for (a, b) in &edges {
        link(&mut jobs, compute_ids[a.0], compute_ids[b.0]);
    }

    // 2. Stage-in jobs. Build each compute job's external-input transfer
    // list, then either emit one stage-in job per compute job (no
    // clustering) or merge them per (level, cluster slot).
    let mut per_job_transfers: Vec<Vec<PlannedTransfer>> = vec![Vec::new(); workflow.len()];
    for (ix, transfers) in per_job_transfers.iter_mut().enumerate() {
        for &f in workflow.job_files(ix).0 {
            let file = &files[f];
            if file.producer.is_some() {
                continue; // intermediate file: lives on shared scratch
            }
            let replica = replicas
                .lookup(&file.name)
                .ok_or_else(|| PlanError::NoReplica(file.name.to_string()))?;
            transfers.push(PlannedTransfer {
                file: file.name.clone(),
                bytes: size(f),
                source: replica.url.clone(),
                dest: scratch_url(f),
                src_host: replica.host,
                dst_host: site.storage_host,
            });
        }
    }

    match config.clustering_factor {
        None => {
            for (ix, transfers) in per_job_transfers.into_iter().enumerate() {
                if transfers.is_empty() {
                    continue;
                }
                let name = format_args!("stage_in_{}", workflow.job(JobIx(ix)).name).into();
                let kind = PlanJobKind::StageIn {
                    transfers,
                    cluster: None,
                };
                let id = add_job(&mut jobs, name, kind, priorities[ix], levels[ix]);
                link(&mut jobs, id, compute_ids[ix]);
            }
        }
        Some(k) => {
            let k = k.max(1);
            // Group compute jobs by level, then round-robin into k clusters.
            let mut by_level: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (ix, transfers) in per_job_transfers.iter().enumerate() {
                if !transfers.is_empty() {
                    by_level.entry(levels[ix]).or_default().push(ix);
                }
            }
            for (level, members) in by_level {
                let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k as usize];
                for (slot, ix) in members.into_iter().enumerate() {
                    clusters[slot % k as usize].push(ix);
                }
                for (c, member_jobs) in clusters.into_iter().enumerate() {
                    if member_jobs.is_empty() {
                        continue;
                    }
                    let transfers: Vec<PlannedTransfer> = member_jobs
                        .iter()
                        .flat_map(|&ix| std::mem::take(&mut per_job_transfers[ix]))
                        .collect();
                    let priority = member_jobs
                        .iter()
                        .map(|&ix| priorities[ix])
                        .max()
                        .unwrap_or(0);
                    let name = format_args!("stage_in_l{level}_c{c}").into();
                    let kind = PlanJobKind::StageIn {
                        transfers,
                        cluster: Some(c as u32),
                    };
                    let id = add_job(&mut jobs, name, kind, priority, level);
                    for &ix in &member_jobs {
                        link(&mut jobs, id, compute_ids[ix]);
                    }
                }
            }
        }
    }

    // The files on scratch — external inputs (staged in) and produced files
    // — in name order: the order stage-out and cleanup jobs are emitted in.
    let scratch_files = if config.stage_out || config.cleanup {
        workflow.job_files_by_name()
    } else {
        Vec::new()
    };

    // 3. Stage-out jobs for final outputs.
    let mut stage_out_of: Vec<Option<PlanJobId>> = vec![None; files.len()];
    if config.stage_out {
        let (out_host_name, out_host, out_base) =
            config.output_site.clone().ok_or(PlanError::NoOutputSite)?;
        for &f in &scratch_files {
            let file = &files[f];
            let Some(producer) = file.producer.filter(|_| file.consumers.is_empty()) else {
                continue;
            };
            let name = &file.name;
            let transfer = PlannedTransfer {
                file: name.clone(),
                bytes: size(f),
                source: scratch_url(f),
                dest: Url::new(
                    "gsiftp",
                    out_host_name.as_str(),
                    format_args!("{out_base}/{name}"),
                ),
                src_host: site.storage_host,
                dst_host: out_host,
            };
            let kind = PlanJobKind::StageOut {
                transfers: vec![transfer],
            };
            let job_name = format_args!("stage_out_{name}").into();
            let id = add_job(&mut jobs, job_name, kind, 0, levels[producer.0] + 1);
            link(&mut jobs, compute_ids[producer.0], id);
            stage_out_of[f] = Some(id);
        }
    }

    // 4. Cleanup jobs: one per scratch file, dependent on every job that
    // reads the file (and on its producer when nothing reads it), so the
    // file is deleted as soon as "data are no longer needed for upcoming
    // computations".
    if config.cleanup {
        for &f in &scratch_files {
            let file = &files[f];
            let mut parents: Vec<PlanJobId> =
                file.consumers.iter().map(|ix| compute_ids[ix.0]).collect();
            if parents.is_empty() {
                parents.extend(file.producer.map(|p| compute_ids[p.0]));
            }
            parents.extend(stage_out_of[f]);
            let level = parents.iter().map(|p| jobs[p.0].level).max().unwrap_or(0) + 1;
            let kind = PlanJobKind::Cleanup {
                files: vec![(scratch_url(f), size(f))],
            };
            let name = format_args!("cleanup_{}", file.name).into();
            // Cleanups yield to real work.
            let id = add_job(&mut jobs, name, kind, i32::MIN / 2, level);
            for p in parents {
                link(&mut jobs, p, id);
            }
        }
    }

    let plan = ExecutablePlan {
        name: workflow.name.clone(),
        jobs,
    };
    plan.validate()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::AbstractJob;

    fn site() -> ComputeSite {
        ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: HostId(2),
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        }
    }

    fn job(name: &str, rt: f64, inputs: &[&str], outputs: &[&str]) -> AbstractJob {
        AbstractJob {
            name: name.into(),
            transformation: name.split('_').next().unwrap().into(),
            runtime_s: rt,
            inputs: inputs.iter().map(|&s| s.into()).collect(),
            outputs: outputs.iter().map(|&s| s.into()).collect(),
        }
    }

    /// Two projections feeding one add: raw_0/raw_1 external, mosaic final.
    fn small_workflow() -> (AbstractWorkflow, ReplicaCatalog) {
        let mut wf = AbstractWorkflow::new("small");
        wf.add_job(job("proj_0", 5.0, &["raw_0"], &["p_0"]));
        wf.add_job(job("proj_1", 5.0, &["raw_1"], &["p_1"]));
        wf.add_job(job("add_0", 10.0, &["p_0", "p_1"], &["mosaic"]));
        for f in ["raw_0", "raw_1", "p_0", "p_1", "mosaic"] {
            wf.set_file_size(f, 2_000_000);
        }
        let mut rc = ReplicaCatalog::new();
        rc.insert_bulk(
            ["raw_0", "raw_1"],
            "http",
            "apache-isi",
            "/montage",
            HostId(1),
        );
        (wf, rc)
    }

    #[test]
    fn no_clustering_one_stage_in_per_compute_job_with_externals() {
        let (wf, rc) = small_workflow();
        let plan = plan(&wf, &site(), &rc, &PlannerConfig::default()).unwrap();
        // proj_0 and proj_1 have external inputs; add_0 does not.
        assert_eq!(plan.stage_in_count(), 2);
        // 3 compute + 2 stage-in + cleanups for raw_0, raw_1, p_0, p_1, mosaic.
        assert_eq!(
            plan.count_jobs(|j| matches!(j.kind, PlanJobKind::Cleanup { .. })),
            5
        );
        plan.validate().unwrap();
    }

    #[test]
    fn stage_in_precedes_its_compute_job() {
        let (wf, rc) = small_workflow();
        let plan = plan(&wf, &site(), &rc, &PlannerConfig::default()).unwrap();
        let si = plan
            .jobs()
            .iter()
            .position(|j| j.name == "stage_in_proj_0")
            .unwrap();
        let compute = plan.jobs().iter().position(|j| j.name == "proj_0").unwrap();
        assert!(plan
            .job(PlanJobId(si))
            .children
            .contains(&PlanJobId(compute)));
        assert!(plan
            .job(PlanJobId(compute))
            .parents
            .contains(&PlanJobId(si)));
    }

    #[test]
    fn cleanup_waits_for_all_consumers() {
        let (wf, rc) = small_workflow();
        let plan = plan(&wf, &site(), &rc, &PlannerConfig::default()).unwrap();
        let cleanup_p0 = plan
            .jobs()
            .iter()
            .find(|j| j.name == "cleanup_p_0")
            .unwrap();
        // p_0 is consumed only by add_0.
        assert_eq!(cleanup_p0.parents.len(), 1);
        let parent = &plan.job(cleanup_p0.parents[0]);
        assert_eq!(parent.name, "add_0");
    }

    #[test]
    fn cleanup_disabled_omits_cleanup_jobs() {
        let (wf, rc) = small_workflow();
        let cfg = PlannerConfig {
            cleanup: false,
            ..Default::default()
        };
        let plan = plan(&wf, &site(), &rc, &cfg).unwrap();
        assert_eq!(
            plan.count_jobs(|j| matches!(j.kind, PlanJobKind::Cleanup { .. })),
            0
        );
    }

    #[test]
    fn stage_out_added_for_final_outputs() {
        let (wf, rc) = small_workflow();
        let cfg = PlannerConfig {
            stage_out: true,
            output_site: Some(("archive".into(), HostId(0), "/results".into())),
            ..Default::default()
        };
        let plan = plan(&wf, &site(), &rc, &cfg).unwrap();
        let so = plan
            .jobs()
            .iter()
            .find(|j| matches!(j.kind, PlanJobKind::StageOut { .. }))
            .expect("stage-out job present");
        assert_eq!(so.name, "stage_out_mosaic");
        // The mosaic cleanup must wait for the stage-out.
        let cm = plan
            .jobs()
            .iter()
            .find(|j| j.name == "cleanup_mosaic")
            .unwrap();
        let parent_names: Vec<&str> = cm
            .parents
            .iter()
            .map(|p| plan.job(*p).name.as_str())
            .collect();
        assert!(parent_names.contains(&"stage_out_mosaic"));
    }

    #[test]
    fn stage_out_without_site_errors() {
        let (wf, rc) = small_workflow();
        let cfg = PlannerConfig {
            stage_out: true,
            output_site: None,
            ..Default::default()
        };
        assert_eq!(
            plan(&wf, &site(), &rc, &cfg).unwrap_err(),
            PlanError::NoOutputSite
        );
    }

    #[test]
    fn missing_replica_errors() {
        let (wf, _) = small_workflow();
        let empty = ReplicaCatalog::new();
        let err = plan(&wf, &site(), &empty, &PlannerConfig::default()).unwrap_err();
        assert_eq!(err, PlanError::NoReplica("raw_0".into()));
    }

    #[test]
    fn clustering_merges_stage_ins_per_level() {
        // 6 parallel compute jobs at level 0, clustering factor 2 → 2
        // stage-in jobs, each staging 3 files.
        let mut wf = AbstractWorkflow::new("wide");
        for i in 0..6 {
            wf.add_job(job(&format!("proj_{i}"), 5.0, &[&format!("raw_{i}")], &[]));
            wf.set_file_size(format!("raw_{i}"), 1_000);
        }
        let mut rc = ReplicaCatalog::new();
        let names: Vec<String> = (0..6).map(|i| format!("raw_{i}")).collect();
        rc.insert_bulk(
            names.iter().map(|s| s.as_str()),
            "gsiftp",
            "gridftp-vm",
            "/data",
            HostId(0),
        );
        let cfg = PlannerConfig {
            clustering_factor: Some(2),
            cleanup: false,
            ..Default::default()
        };
        let p = plan(&wf, &site(), &rc, &cfg).unwrap();
        assert_eq!(p.stage_in_count(), 2);
        for j in p.jobs() {
            if let PlanJobKind::StageIn { transfers, cluster } = &j.kind {
                assert_eq!(transfers.len(), 3);
                assert!(cluster.is_some());
            }
        }
    }

    #[test]
    fn clustering_factor_larger_than_level_width_degenerates() {
        let (wf, rc) = small_workflow();
        let cfg = PlannerConfig {
            clustering_factor: Some(50),
            cleanup: false,
            ..Default::default()
        };
        let p = plan(&wf, &site(), &rc, &cfg).unwrap();
        // Only 2 jobs with externals at level 0 → 2 stage-ins, not 50.
        assert_eq!(p.stage_in_count(), 2);
    }

    #[test]
    fn priorities_propagate_to_stage_in_jobs() {
        let (wf, rc) = small_workflow();
        let cfg = PlannerConfig {
            priority: Some(PriorityAlgorithm::Dependent),
            ..Default::default()
        };
        let p = plan(&wf, &site(), &rc, &cfg).unwrap();
        let si = p
            .jobs()
            .iter()
            .find(|j| j.name == "stage_in_proj_0")
            .unwrap();
        let add = p.jobs().iter().find(|j| j.name == "add_0").unwrap();
        // proj_0 has one descendant (add_0); add_0 has none: the stage-in of
        // a root job outranks the sink compute job.
        assert!(si.priority > add.priority);
    }

    #[test]
    fn intermediate_files_are_not_staged() {
        let (wf, rc) = small_workflow();
        let p = plan(&wf, &site(), &rc, &PlannerConfig::default()).unwrap();
        for j in p.jobs() {
            if let PlanJobKind::StageIn { transfers, .. } = &j.kind {
                for t in transfers {
                    assert!(t.file.starts_with("raw_"), "staged intermediate {}", t.file);
                }
            }
        }
    }

    #[test]
    fn plan_destinations_are_on_site_scratch() {
        let (wf, rc) = small_workflow();
        let p = plan(&wf, &site(), &rc, &PlannerConfig::default()).unwrap();
        for j in p.jobs() {
            if let PlanJobKind::StageIn { transfers, .. } = &j.kind {
                for t in transfers {
                    assert_eq!(t.dest.host, "obelix-nfs");
                    assert!(t.dest.path.starts_with("/scratch/small/"));
                    assert_eq!(t.dst_host, HostId(2));
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::catalog::{ComputeSite, ReplicaCatalog};
    use proptest::prelude::*;

    fn site() -> ComputeSite {
        ComputeSite {
            name: "s".into(),
            nodes: 2,
            cores_per_node: 2,
            storage_host: HostId(1),
            storage_host_name: "store".into(),
            scratch_dir: "/scratch".into(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Planning any random layered workflow yields a valid DAG in which
        /// every external input is staged exactly once per consuming job
        /// (no clustering) and every scratch file has exactly one cleanup.
        #[test]
        fn random_workflows_plan_consistently(
            levels in 1usize..4,
            width in 1usize..6,
            edge_prob in 0.0f64..1.0,
            seed in 0u64..500,
            clustering in proptest::option::of(1u32..5),
        ) {
            let wf = pwm_montage_free_random(levels, width, edge_prob, seed);
            let mut rc = ReplicaCatalog::new();
            for f in wf.external_inputs().unwrap() {
                rc.insert(
                    &f,
                    pwm_core::Url::new("gsiftp", "src", format!("/d/{f}")),
                    HostId(0),
                );
            }
            let cfg = PlannerConfig {
                clustering_factor: clustering,
                ..Default::default()
            };
            let p = plan(&wf, &site(), &rc, &cfg).unwrap();
            prop_assert!(p.validate().is_ok());

            // Every compute job appears exactly once.
            let compute = p.count_jobs(|j| matches!(j.kind, PlanJobKind::Compute { .. }));
            prop_assert_eq!(compute, wf.len());

            // Total planned transfers cover each (job, external input) pair
            // exactly once regardless of clustering.
            let expected_transfers: usize = wf
                .jobs()
                .iter()
                .map(|j| j.inputs.iter().filter(|f| wf.producer(f).is_none()).count())
                .sum();
            let planned: usize = p
                .jobs()
                .iter()
                .map(|j| match &j.kind {
                    PlanJobKind::StageIn { transfers, .. } => transfers.len(),
                    _ => 0,
                })
                .sum();
            prop_assert_eq!(planned, expected_transfers);

            // One cleanup per scratch file (external inputs + produced).
            let scratch_files = {
                let mut set = wf.external_inputs().unwrap();
                set.extend(wf.jobs().iter().flat_map(|j| j.outputs.iter().cloned()));
                set.len()
            };
            let cleanups = p.count_jobs(|j| matches!(j.kind, PlanJobKind::Cleanup { .. }));
            prop_assert_eq!(cleanups, scratch_files);
        }
    }

    /// Local random layered workflow builder (avoids a dev-dependency cycle
    /// with pwm-montage).
    fn pwm_montage_free_random(
        levels: usize,
        width: usize,
        edge_prob: f64,
        seed: u64,
    ) -> crate::dag::AbstractWorkflow {
        use crate::dag::{AbstractJob, AbstractWorkflow};
        use pwm_sim::SimRng;
        let mut rng = SimRng::for_component(seed, "planner-proptest");
        let mut wf = AbstractWorkflow::new(format!("rand-{levels}x{width}-{seed}"));
        for level in 0..levels {
            for slot in 0..width {
                let out = Name::from(format!("out_{level}_{slot}"));
                wf.set_file_size(&out, 1_000);
                let mut inputs = Vec::new();
                if level == 0 {
                    let ext = Name::from(format!("ext_{slot}"));
                    wf.set_file_size(&ext, 1_000_000);
                    inputs.push(ext);
                } else {
                    for ps in 0..width {
                        if rng.chance(edge_prob) {
                            inputs.push(format!("out_{}_{ps}", level - 1).into());
                        }
                    }
                    if inputs.is_empty() {
                        inputs.push(format!("out_{}_0", level - 1).into());
                    }
                }
                wf.add_job(AbstractJob {
                    name: format!("j_{level}_{slot}").into(),
                    transformation: "t".into(),
                    runtime_s: 1.0,
                    inputs,
                    outputs: vec![out],
                });
            }
        }
        wf
    }
}
