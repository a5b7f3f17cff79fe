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
use pwm_core::{assign_priorities, Name, PriorityAlgorithm, Url, WorkflowGraph, WorkflowId};
use pwm_net::HostId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
        transfers: Box<[PlannedTransfer]>,
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
        transfers: Box<[PlannedTransfer]>,
    },
    /// Delete files no longer needed from site scratch.
    Cleanup {
        /// Scratch URLs to delete, with their sizes (for the executor's
        /// scratch-space accounting).
        files: Box<[(Url, u64)]>,
    },
}

/// One node of the executable plan. Its edges and its workflow belong to
/// the plan: [`ExecutablePlan::parents`], [`ExecutablePlan::children`],
/// [`ExecutablePlan::workflow`].
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Unique name within the plan it was planned in
    /// ("stage_in_mProjectPP_0007"); a merged plan shows it with its
    /// workflow's prefix through [`ExecutablePlan::job_name`].
    pub name: Name,
    /// The work.
    pub kind: PlanJobKind,
    /// Structure-based priority (higher runs earlier among ready jobs).
    pub priority: i32,
    /// Topological level of the originating compute job (0 for roots).
    pub level: usize,
}

/// One direction of a plan's edges as compressed sparse rows: row `j` is
/// `ix[at[j]..at[j + 1]]`, in the order the edges were added.
#[derive(Debug)]
struct Csr {
    at: Box<[u32]>,
    ix: Box<[u32]>,
}

impl Csr {
    /// Rows over `n` jobs from `(row, entry)` pairs, stable in pair order.
    fn build(n: usize, pairs: impl DoubleEndedIterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut at = vec![0u32; n + 1];
        for (row, _) in pairs.clone() {
            at[row as usize] += 1;
        }
        // Each `at[j]` becomes the end of row j; filling back to front then
        // walks it down to the row's start, leaving `at[n]` the edge count.
        let mut end = 0;
        for a in at.iter_mut() {
            end += *a;
            *a = end;
        }
        let mut ix = vec![0u32; end as usize];
        for (row, entry) in pairs.rev() {
            let slot = &mut at[row as usize];
            *slot -= 1;
            ix[*slot as usize] = entry;
        }
        Csr {
            at: at.into_boxed_slice(),
            ix: ix.into_boxed_slice(),
        }
    }

    fn row(&self, j: usize) -> &[u32] {
        &self.ix[self.at[j] as usize..self.at[j + 1] as usize]
    }
}

/// What one planning run produced: job rows and their edges. Plans share it
/// behind an `Arc`, so a merge adds no copy of it.
#[derive(Debug)]
pub(crate) struct PlanBody {
    jobs: Box<[PlanJob]>,
    parents: Csr,
    children: Csr,
}

/// One body's place in a plan.
#[derive(Debug, Clone)]
pub(crate) struct Part {
    pub(crate) body: Arc<PlanBody>,
    /// Plan index of the body's first job (set by `from_parts`).
    first: usize,
    /// Set by `merge_plans`: the identity presented to the policy service
    /// for the part's jobs, and their `wf{id}:` name prefix.
    pub(crate) workflow: Option<WorkflowId>,
}

impl Part {
    /// `body`, shown as `workflow`.
    pub(crate) fn new(body: Arc<PlanBody>, workflow: Option<WorkflowId>) -> Part {
        Part {
            body,
            first: 0,
            workflow,
        }
    }
}

/// The executable workflow produced by planning: one body, or — after
/// [`crate::merge_plans`] — a view over several, each shown with its own
/// workflow id.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    /// Workflow name.
    pub name: String,
    parts: Box<[Part]>,
    /// Index into `parts` of every job.
    part_of: Box<[u16]>,
}

impl ExecutablePlan {
    /// Build a plan from its job list and its `(parent, child)` edges
    /// (programmatic construction and tests; `plan` is the normal entry
    /// point). Each job's parents and children keep the order of `edges`.
    /// Validates the DAG; an edge naming a job past the end panics.
    pub fn from_jobs(
        name: impl Into<String>,
        jobs: Vec<PlanJob>,
        edges: &[(u32, u32)],
    ) -> Result<Self, WorkflowError> {
        let n = jobs.len();
        assert!(
            u32::try_from(n.max(edges.len())).is_ok(),
            "a plan holds fewer than 2^32 jobs and edges"
        );
        assert!(
            edges
                .iter()
                .all(|&(p, c)| (p as usize) < n && (c as usize) < n),
            "a plan edge names a job past the end"
        );
        let body = PlanBody {
            jobs: jobs.into_boxed_slice(),
            parents: Csr::build(n, edges.iter().map(|&(p, c)| (c, p))),
            children: Csr::build(n, edges.iter().copied()),
        };
        debug_assert!(
            (0..n).all(|j| {
                let row = body.children.row(j);
                row.iter().enumerate().all(|(k, c)| !row[..k].contains(c))
            }),
            "a plan edge is listed twice"
        );
        let part = Part::new(Arc::new(body), None);
        let plan = ExecutablePlan::from_parts(name.into(), vec![part]);
        plan.validate()?;
        Ok(plan)
    }

    /// A plan over `parts`, in order.
    pub(crate) fn from_parts(name: String, mut parts: Vec<Part>) -> Self {
        let n = parts.iter().map(|p| p.body.jobs.len()).sum();
        let mut part_of = Vec::with_capacity(n);
        for (i, part) in parts.iter_mut().enumerate() {
            part.first = part_of.len();
            let i = u16::try_from(i).expect("a plan holds at most 65 536 parts");
            part_of.resize(part_of.len() + part.body.jobs.len(), i);
        }
        ExecutablePlan {
            name,
            parts: parts.into_boxed_slice(),
            part_of: part_of.into_boxed_slice(),
        }
    }

    /// The plan's parts, in job order.
    pub(crate) fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// Job `i`'s part and its index within the part's body.
    fn locate(&self, i: usize) -> (&Part, usize) {
        let part = &self.parts[usize::from(self.part_of[i])];
        (part, i - part.first)
    }

    /// Every job, in plan order.
    pub fn jobs(&self) -> Jobs<'_> {
        Jobs { plan: self }
    }

    /// Job `i`.
    pub fn job(&self, i: usize) -> &PlanJob {
        let (part, local) = self.locate(i);
        &part.body.jobs[local]
    }

    /// The jobs that must finish before job `i`, in the order they were
    /// linked.
    pub fn parents(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let (part, local) = self.locate(i);
        let first = part.first;
        let row = part.body.parents.row(local);
        row.iter().map(move |&p| first + p as usize)
    }

    /// The jobs waiting on job `i`, in the order they were linked.
    pub fn children(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let (part, local) = self.locate(i);
        let first = part.first;
        let row = part.body.children.row(local);
        row.iter().map(move |&c| first + c as usize)
    }

    /// Workflow identity job `i` presents to the policy service; `None` =
    /// use the executor's configured id (a plan that was not merged).
    pub fn workflow(&self, i: usize) -> Option<WorkflowId> {
        self.locate(i).0.workflow
    }

    /// Job `i`'s name as traces, reports and checkpoints show it:
    /// `wf{id}:{name}` in a merged plan, the bare name otherwise.
    pub fn job_name(&self, i: usize) -> JobName<'_> {
        let (part, local) = self.locate(i);
        JobName {
            workflow: part.workflow,
            name: &part.body.jobs[local].name,
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.part_of.len()
    }

    /// True when the plan has no jobs.
    pub fn is_empty(&self) -> bool {
        self.part_of.is_empty()
    }

    /// Count of jobs matching a predicate.
    pub fn count_jobs(&self, pred: impl Fn(&PlanJob) -> bool) -> usize {
        self.jobs().iter().filter(|j| pred(j)).count()
    }

    /// Number of stage-in jobs (the paper's "data staging jobs").
    pub fn stage_in_count(&self) -> usize {
        self.count_jobs(|j| matches!(j.kind, PlanJobKind::StageIn { .. }))
    }

    /// Verify the plan is a DAG.
    pub fn validate(&self) -> Result<(), WorkflowError> {
        let n = self.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.parents(i).len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(j) = queue.pop() {
            seen += 1;
            for c in self.children(j) {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
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

/// A job's name as shown (see [`ExecutablePlan::job_name`]); rendered only
/// when displayed.
#[derive(Debug, Clone, Copy)]
pub struct JobName<'a> {
    workflow: Option<WorkflowId>,
    name: &'a Name,
}

impl JobName<'_> {
    /// The name as an owned [`Name`]: a bare name is shared, a prefixed one
    /// is rendered.
    pub fn to_name(self) -> Name {
        match self.workflow {
            None => self.name.clone(),
            Some(wf) => format_args!("wf{}:{}", wf.0, self.name).into(),
        }
    }
}

impl fmt::Display for JobName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(wf) = self.workflow {
            write!(f, "wf{}:", wf.0)?;
        }
        f.write_str(self.name.as_str())
    }
}

/// Every job of a plan, in plan order (see [`ExecutablePlan::jobs`]).
#[derive(Debug, Clone, Copy)]
pub struct Jobs<'a> {
    plan: &'a ExecutablePlan,
}

impl<'a> Jobs<'a> {
    /// Iterate the jobs.
    pub fn iter(self) -> JobsIter<'a> {
        JobsIter {
            parts: self.plan.parts.iter(),
            jobs: [].iter(),
        }
    }
}

impl<'a> IntoIterator for Jobs<'a> {
    type Item = &'a PlanJob;
    type IntoIter = JobsIter<'a>;
    fn into_iter(self) -> JobsIter<'a> {
        self.iter()
    }
}

/// Iterator over a plan's jobs, part by part.
#[derive(Debug, Clone)]
pub struct JobsIter<'a> {
    parts: std::slice::Iter<'a, Part>,
    jobs: std::slice::Iter<'a, PlanJob>,
}

impl<'a> Iterator for JobsIter<'a> {
    type Item = &'a PlanJob;
    fn next(&mut self) -> Option<&'a PlanJob> {
        loop {
            if let Some(job) = self.jobs.next() {
                return Some(job);
            }
            self.jobs = self.parts.next()?.body.jobs.iter();
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
    let add_job = |jobs: &mut Vec<PlanJob>, name: Name, kind, priority, level| -> u32 {
        jobs.push(PlanJob {
            name,
            kind,
            priority,
            level,
        });
        (jobs.len() - 1) as u32
    };
    // `(parent, child)` in link order, the order each job's parents and
    // children keep. Every edge is unique by construction: `edges` is
    // deduplicated, a file lists each consumer once, and every other edge
    // has a new job at one end.
    let mut links: Vec<(u32, u32)> = Vec::new();

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

    // 1. Compute jobs, first: compute job `ix` is plan job `ix`.
    for (ix, a) in workflow.jobs().iter().enumerate() {
        let kind = PlanJobKind::Compute {
            transformation: a.transformation.clone(),
            runtime_s: a.runtime_s,
            output_bytes: workflow.job_files(ix).1.iter().map(|&f| size(f)).sum(),
        };
        add_job(&mut jobs, a.name.clone(), kind, priorities[ix], levels[ix]);
    }
    links.extend(edges.iter().map(|(a, b)| (a.0 as u32, b.0 as u32)));

    // 2. Stage-in jobs. Build each compute job's external-input transfer
    // list, then either emit one stage-in job per compute job (no
    // clustering) or merge them per (level, cluster slot).
    let mut per_job_transfers: Vec<Vec<PlannedTransfer>> = Vec::with_capacity(workflow.len());
    for ix in 0..workflow.len() {
        let inputs = workflow.job_files(ix).0;
        // Intermediate files live on shared scratch: only external inputs
        // are staged.
        let external = |f: &&usize| files[**f].producer.is_none();
        let mut transfers = Vec::with_capacity(inputs.iter().filter(external).count());
        for &f in inputs.iter().filter(external) {
            let file = &files[f];
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
        per_job_transfers.push(transfers);
    }

    match config.clustering_factor {
        None => {
            for (ix, transfers) in per_job_transfers.into_iter().enumerate() {
                if transfers.is_empty() {
                    continue;
                }
                let name = format_args!("stage_in_{}", workflow.job(JobIx(ix)).name).into();
                let kind = PlanJobKind::StageIn {
                    transfers: transfers.into_boxed_slice(),
                    cluster: None,
                };
                let id = add_job(&mut jobs, name, kind, priorities[ix], levels[ix]);
                links.push((id, ix as u32));
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
                    let count = member_jobs.iter().map(|&ix| per_job_transfers[ix].len());
                    let mut transfers = Vec::with_capacity(count.sum());
                    for &ix in &member_jobs {
                        transfers.append(&mut per_job_transfers[ix]);
                    }
                    let priority = member_jobs
                        .iter()
                        .map(|&ix| priorities[ix])
                        .max()
                        .unwrap_or(0);
                    let name = format_args!("stage_in_l{level}_c{c}").into();
                    let kind = PlanJobKind::StageIn {
                        transfers: transfers.into_boxed_slice(),
                        cluster: Some(c as u32),
                    };
                    let id = add_job(&mut jobs, name, kind, priority, level);
                    links.extend(member_jobs.iter().map(|&ix| (id, ix as u32)));
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
    let mut stage_out_of: Vec<Option<u32>> = vec![None; files.len()];
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
                transfers: Box::new([transfer]),
            };
            let job_name = format_args!("stage_out_{name}").into();
            let id = add_job(&mut jobs, job_name, kind, 0, levels[producer.0] + 1);
            links.push((producer.0 as u32, id));
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
            let mut parents: Vec<u32> = file.consumers.iter().map(|ix| ix.0 as u32).collect();
            if parents.is_empty() {
                parents.extend(file.producer.map(|p| p.0 as u32));
            }
            parents.extend(stage_out_of[f]);
            let level = parents
                .iter()
                .map(|&p| jobs[p as usize].level)
                .max()
                .unwrap_or(0)
                + 1;
            let kind = PlanJobKind::Cleanup {
                files: Box::new([(scratch_url(f), size(f))]),
            };
            let name = format_args!("cleanup_{}", file.name).into();
            // Cleanups yield to real work.
            let id = add_job(&mut jobs, name, kind, i32::MIN / 2, level);
            links.extend(parents.into_iter().map(|p| (p, id)));
        }
    }

    Ok(ExecutablePlan::from_jobs(
        workflow.name.clone(),
        jobs,
        &links,
    )?)
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

    /// Index of the job named `name`.
    fn find(plan: &ExecutablePlan, name: &str) -> usize {
        let found = plan.jobs().iter().position(|j| j.name == name);
        found.unwrap_or_else(|| panic!("no job {name}"))
    }

    #[test]
    fn from_jobs_keeps_edge_order_and_rejects_cycles() {
        let jobs = || {
            (0..3)
                .map(|i| PlanJob {
                    name: format!("j{i}").into(),
                    kind: PlanJobKind::Cleanup {
                        files: Box::new([]),
                    },
                    priority: 0,
                    level: 0,
                })
                .collect::<Vec<_>>()
        };
        let p = ExecutablePlan::from_jobs("dag", jobs(), &[(0, 2), (1, 2), (0, 1)]).unwrap();
        assert_eq!(p.children(0).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(p.parents(2).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(p.parents(0).len(), 0);
        let cycle = ExecutablePlan::from_jobs("cycle", jobs(), &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(cycle.unwrap_err(), WorkflowError::Cycle);
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
        let si = find(&plan, "stage_in_proj_0");
        let compute = find(&plan, "proj_0");
        assert!(plan.children(si).any(|c| c == compute));
        assert!(plan.parents(compute).any(|p| p == si));
    }

    #[test]
    fn cleanup_waits_for_all_consumers() {
        let (wf, rc) = small_workflow();
        let plan = plan(&wf, &site(), &rc, &PlannerConfig::default()).unwrap();
        let cleanup_p0 = find(&plan, "cleanup_p_0");
        // p_0 is consumed only by add_0.
        let parents: Vec<usize> = plan.parents(cleanup_p0).collect();
        assert_eq!(parents, [find(&plan, "add_0")]);
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
        let cm = find(&plan, "cleanup_mosaic");
        let parent_names: Vec<&str> = plan
            .parents(cm)
            .map(|p| plan.job(p).name.as_str())
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
pub(crate) mod proptests {
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

    /// `pwm_montage_free_random(levels, width, edge_prob, seed)`, planned
    /// with every external input on one source host.
    pub(crate) fn random_plan(
        levels: usize,
        width: usize,
        edge_prob: f64,
        seed: u64,
        clustering: Option<u32>,
    ) -> (AbstractWorkflow, ExecutablePlan) {
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
        (wf, p)
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
            let (wf, p) = random_plan(levels, width, edge_prob, seed, clustering);
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
