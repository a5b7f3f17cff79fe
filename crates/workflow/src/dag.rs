//! Abstract workflow DAGs.
//!
//! The scientist-facing representation (Pegasus' DAX): compute jobs that
//! consume and produce logical files, with data dependencies derived from
//! producer/consumer relations. The planner (see [`crate::planner`]) turns
//! this into an executable plan with staging and cleanup jobs.

use pwm_core::Name;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Index of a job within an [`AbstractWorkflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobIx(pub usize);

/// One compute job in the abstract workflow.
#[derive(Debug, Clone)]
pub struct AbstractJob {
    /// Unique job name ("mProjectPP_0007").
    pub name: Name,
    /// Transformation (executable) name ("mProjectPP").
    pub transformation: Name,
    /// Mean runtime in seconds on one core; the executor adds jitter.
    pub runtime_s: f64,
    /// Logical files read.
    pub inputs: Vec<Name>,
    /// Logical files written.
    pub outputs: Vec<Name>,
}

/// Validation failures for an abstract workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// Two jobs claim to produce the same file.
    DuplicateProducer(String),
    /// Dependencies form a cycle.
    Cycle,
    /// A file has no recorded size.
    MissingSize(String),
    /// Two jobs share a name.
    DuplicateJobName(String),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DuplicateProducer(file) => {
                write!(f, "file {file:?} has more than one producer")
            }
            WorkflowError::Cycle => write!(f, "workflow dependencies form a cycle"),
            WorkflowError::MissingSize(file) => write!(f, "file {file:?} has no size"),
            WorkflowError::DuplicateJobName(name) => write!(f, "duplicate job name {name:?}"),
        }
    }
}
impl std::error::Error for WorkflowError {}

/// An abstract (resource-independent) workflow.
#[derive(Debug, Clone, Default)]
pub struct AbstractWorkflow {
    /// Workflow name ("montage-1deg").
    pub name: String,
    jobs: Vec<AbstractJob>,
    file_sizes: BTreeMap<Name, u64>,
}

impl AbstractWorkflow {
    /// An empty workflow with a name.
    pub fn new(name: impl Into<String>) -> Self {
        AbstractWorkflow {
            name: name.into(),
            jobs: Vec::new(),
            file_sizes: BTreeMap::new(),
        }
    }

    /// Add a job; returns its index.
    pub fn add_job(&mut self, job: AbstractJob) -> JobIx {
        self.jobs.push(job);
        JobIx(self.jobs.len() - 1)
    }

    /// Record a logical file's size in bytes.
    pub fn set_file_size(&mut self, file: impl Into<Name>, bytes: u64) {
        self.file_sizes.insert(file.into(), bytes);
    }

    /// Size of a file, if known.
    pub fn file_size(&self, file: &str) -> Option<u64> {
        self.file_sizes.get(file).copied()
    }

    /// All jobs in index order.
    pub fn jobs(&self) -> &[AbstractJob] {
        &self.jobs
    }

    /// One job.
    pub fn job(&self, ix: JobIx) -> &AbstractJob {
        &self.jobs[ix.0]
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True for the empty workflow.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Map from file name to the job producing it.
    pub fn producers(&self) -> Result<HashMap<&str, JobIx>, WorkflowError> {
        let mut map: HashMap<&str, JobIx> = HashMap::new();
        for (ix, job) in self.jobs.iter().enumerate() {
            for out in &job.outputs {
                if map.insert(out.as_str(), JobIx(ix)).is_some() {
                    return Err(WorkflowError::DuplicateProducer(out.to_string()));
                }
            }
        }
        Ok(map)
    }

    /// Map from file name to the jobs consuming it, in job order.
    pub fn consumers(&self) -> HashMap<&str, Vec<JobIx>> {
        let mut map: HashMap<&str, Vec<JobIx>> = HashMap::new();
        for (ix, job) in self.jobs.iter().enumerate() {
            for input in &job.inputs {
                map.entry(input.as_str()).or_default().push(JobIx(ix));
            }
        }
        map
    }

    /// Files consumed by some job but produced by none — these must be
    /// staged in from external storage.
    pub fn external_inputs(&self) -> Result<BTreeSet<Name>, WorkflowError> {
        let producers = self.producers()?;
        let mut externals = BTreeSet::new();
        for job in &self.jobs {
            for input in &job.inputs {
                if !producers.contains_key(input.as_str()) {
                    externals.insert(input.clone());
                }
            }
        }
        Ok(externals)
    }

    /// Files produced by some job and consumed by none — workflow outputs
    /// to be staged out.
    pub fn final_outputs(&self) -> Result<BTreeSet<Name>, WorkflowError> {
        let producers = self.producers()?;
        let consumers = self.consumers();
        Ok(producers
            .keys()
            .filter(|f| !consumers.contains_key(**f))
            .map(|f| Name::from(*f))
            .collect())
    }

    /// Data-dependency edges `(producer, consumer)` derived from files.
    pub fn edges(&self) -> Result<Vec<(JobIx, JobIx)>, WorkflowError> {
        let producers = self.producers()?;
        let mut edges = Vec::new();
        for (ix, job) in self.jobs.iter().enumerate() {
            for input in &job.inputs {
                if let Some(&producer) = producers.get(input.as_str()) {
                    if producer != JobIx(ix) {
                        edges.push((producer, JobIx(ix)));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(edges)
    }

    /// Validate: unique job names, unique producers, sizes for every file,
    /// and acyclic dependencies. Returns the topological level of each job
    /// (roots at level 0) on success.
    pub fn validate(&self) -> Result<Vec<usize>, WorkflowError> {
        let mut names = BTreeSet::new();
        for job in &self.jobs {
            if !names.insert(job.name.as_str()) {
                return Err(WorkflowError::DuplicateJobName(job.name.to_string()));
            }
            for f in job.inputs.iter().chain(&job.outputs) {
                if !self.file_sizes.contains_key(f) {
                    return Err(WorkflowError::MissingSize(f.to_string()));
                }
            }
        }
        self.levels()
    }

    /// Topological levels (longest path from any root). `Err(Cycle)` if the
    /// dependency graph is cyclic.
    pub fn levels(&self) -> Result<Vec<usize>, WorkflowError> {
        let edges = self.edges()?;
        let n = self.jobs.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for (a, b) in &edges {
            children[a.0].push(b.0);
            indegree[b.0] += 1;
        }
        let mut level = vec![0usize; n];
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(j) = queue.pop_front() {
            visited += 1;
            for &c in &children[j] {
                level[c] = level[c].max(level[j] + 1);
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if visited == n {
            Ok(level)
        } else {
            Err(WorkflowError::Cycle)
        }
    }

    /// Total bytes of external input files.
    pub fn external_input_bytes(&self) -> Result<u64, WorkflowError> {
        Ok(self
            .external_inputs()?
            .iter()
            .map(|f| self.file_size(f).unwrap_or(0))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, inputs: &[&str], outputs: &[&str]) -> AbstractJob {
        AbstractJob {
            name: name.into(),
            transformation: name.split('_').next().unwrap_or(name).into(),
            runtime_s: 5.0,
            inputs: inputs.iter().map(|&s| s.into()).collect(),
            outputs: outputs.iter().map(|&s| s.into()).collect(),
        }
    }

    /// raw.fits → project → proj.fits → add → mosaic.fits
    fn pipeline() -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("pipeline");
        wf.add_job(job("project_1", &["raw.fits"], &["proj.fits"]));
        wf.add_job(job("add_1", &["proj.fits"], &["mosaic.fits"]));
        for f in ["raw.fits", "proj.fits", "mosaic.fits"] {
            wf.set_file_size(f, 2_000_000);
        }
        wf
    }

    #[test]
    fn external_inputs_and_final_outputs() {
        let wf = pipeline();
        let ext: Vec<Name> = wf.external_inputs().unwrap().into_iter().collect();
        assert_eq!(ext, vec!["raw.fits"]);
        let fin: Vec<Name> = wf.final_outputs().unwrap().into_iter().collect();
        assert_eq!(fin, vec!["mosaic.fits"]);
    }

    #[test]
    fn edges_follow_files() {
        let wf = pipeline();
        assert_eq!(wf.edges().unwrap(), vec![(JobIx(0), JobIx(1))]);
    }

    #[test]
    fn levels_are_longest_paths() {
        let mut wf = pipeline();
        // A second root that feeds add_1 directly: add_1 stays at level 1...
        wf.add_job(job("fit_1", &["raw2.fits"], &["fit.tbl"]));
        wf.set_file_size("raw2.fits", 1);
        wf.set_file_size("fit.tbl", 1);
        let levels = wf.validate().unwrap();
        assert_eq!(levels[0], 0);
        assert_eq!(levels[1], 1);
        assert_eq!(levels[2], 0);
    }

    #[test]
    fn diamond_levels() {
        let mut wf = AbstractWorkflow::new("diamond");
        wf.add_job(job("a", &["in"], &["x"]));
        wf.add_job(job("b", &["x"], &["y1"]));
        wf.add_job(job("c", &["x"], &["y2"]));
        wf.add_job(job("d", &["y1", "y2"], &["out"]));
        for f in ["in", "x", "y1", "y2", "out"] {
            wf.set_file_size(f, 1);
        }
        let levels = wf.validate().unwrap();
        assert_eq!(levels, vec![0, 1, 1, 2]);
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut wf = AbstractWorkflow::new("bad");
        wf.add_job(job("a", &[], &["f"]));
        wf.add_job(job("b", &[], &["f"]));
        wf.set_file_size("f", 1);
        assert_eq!(
            wf.validate().unwrap_err(),
            WorkflowError::DuplicateProducer("f".into())
        );
    }

    #[test]
    fn duplicate_job_name_rejected() {
        let mut wf = AbstractWorkflow::new("bad");
        wf.add_job(job("a", &[], &["f"]));
        wf.add_job(job("a", &["f"], &[]));
        wf.set_file_size("f", 1);
        assert_eq!(
            wf.validate().unwrap_err(),
            WorkflowError::DuplicateJobName("a".into())
        );
    }

    #[test]
    fn missing_size_rejected() {
        let mut wf = AbstractWorkflow::new("bad");
        wf.add_job(job("a", &["ghost"], &[]));
        assert_eq!(
            wf.validate().unwrap_err(),
            WorkflowError::MissingSize("ghost".into())
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut wf = AbstractWorkflow::new("bad");
        wf.add_job(job("a", &["y"], &["x"]));
        wf.add_job(job("b", &["x"], &["y"]));
        wf.set_file_size("x", 1);
        wf.set_file_size("y", 1);
        assert_eq!(wf.levels().unwrap_err(), WorkflowError::Cycle);
    }

    #[test]
    fn consumers_lists_all_users() {
        let mut wf = AbstractWorkflow::new("shared");
        wf.add_job(job("a", &[], &["x"]));
        wf.add_job(job("b", &["x"], &[]));
        wf.add_job(job("c", &["x"], &[]));
        wf.set_file_size("x", 1);
        let consumers = wf.consumers();
        assert_eq!(consumers["x"], vec![JobIx(1), JobIx(2)]);
    }

    #[test]
    fn external_input_bytes_sums_sizes() {
        let mut wf = pipeline();
        wf.add_job(job("extra", &["big.dat"], &[]));
        wf.set_file_size("big.dat", 500_000_000);
        assert_eq!(wf.external_input_bytes().unwrap(), 502_000_000);
    }

    #[test]
    fn self_loop_file_does_not_create_edge() {
        // A job that reads and writes the same file (in-place update) must
        // not self-depend... the producer map sees it, edges() filters it.
        let mut wf = AbstractWorkflow::new("inplace");
        wf.add_job(job("a", &["f"], &["f"]));
        wf.set_file_size("f", 1);
        assert!(wf.edges().unwrap().is_empty());
    }
}
