//! Abstract workflow DAGs.
//!
//! The scientist-facing representation (Pegasus' DAX): compute jobs that
//! consume and produce logical files, with data dependencies derived from
//! producer/consumer relations. The planner (see [`crate::planner`]) turns
//! this into an executable plan with staging and cleanup jobs.

use pwm_core::Name;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

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

/// What the workflow knows about one logical file. Files are numbered in the
/// order they are first mentioned (by a job or by a size), so who makes one,
/// who reads it and how big it is are `Vec` lookups.
#[derive(Debug, Clone)]
pub(crate) struct FileEntry {
    pub(crate) name: Name,
    pub(crate) size: Option<u64>,
    /// The first job listing the file as an output.
    pub(crate) producer: Option<JobIx>,
    /// Jobs listing the file as an input, in job order, each once.
    pub(crate) consumers: Vec<JobIx>,
}

/// An abstract (resource-independent) workflow.
#[derive(Debug, Clone, Default)]
pub struct AbstractWorkflow {
    /// Workflow name ("montage-1deg").
    pub name: String,
    jobs: Vec<AbstractJob>,
    pub(crate) files: Vec<FileEntry>,
    file_ix: HashMap<Name, usize>,
    /// File indices of every job's inputs, then outputs, as listed; job `j`
    /// owns `mentions[mention_end[j - 1]..mention_end[j]]`.
    mentions: Vec<usize>,
    mention_end: Vec<usize>,
    /// The first file a second job (or a second mention) claimed to produce.
    duplicate_producer: Option<WorkflowError>,
}

impl AbstractWorkflow {
    /// An empty workflow with a name.
    pub fn new(name: impl Into<String>) -> Self {
        AbstractWorkflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The file's index, allotted now if this is its first mention.
    fn intern(&mut self, file: &Name) -> usize {
        let next = self.files.len();
        let ix = *self.file_ix.entry(file.clone()).or_insert(next);
        if ix == next {
            self.files.push(FileEntry {
                name: file.clone(),
                size: None,
                producer: None,
                consumers: Vec::new(),
            });
        }
        ix
    }

    /// Add a job; returns its index.
    pub fn add_job(&mut self, job: AbstractJob) -> JobIx {
        let ix = JobIx(self.jobs.len());
        for input in &job.inputs {
            let f = self.intern(input);
            self.mentions.push(f);
            if self.files[f].consumers.last() != Some(&ix) {
                self.files[f].consumers.push(ix);
            }
        }
        for output in &job.outputs {
            let f = self.intern(output);
            self.mentions.push(f);
            if self.files[f].producer.is_some() {
                let twice = WorkflowError::DuplicateProducer(output.to_string());
                self.duplicate_producer.get_or_insert(twice);
            }
            self.files[f].producer.get_or_insert(ix);
        }
        self.mention_end.push(self.mentions.len());
        self.jobs.push(job);
        ix
    }

    /// Record a logical file's size in bytes.
    pub fn set_file_size(&mut self, file: impl Into<Name>, bytes: u64) {
        let f = self.intern(&file.into());
        self.files[f].size = Some(bytes);
    }

    /// Size of a file, if known.
    pub fn file_size(&self, file: &str) -> Option<u64> {
        self.file(file)?.size
    }

    fn file(&self, file: &str) -> Option<&FileEntry> {
        Some(&self.files[*self.file_ix.get(file)?])
    }

    /// File indices of a job's inputs and of its outputs, as listed.
    pub(crate) fn job_files(&self, ix: usize) -> (&[usize], &[usize]) {
        let start = ix.checked_sub(1).map_or(0, |prev| self.mention_end[prev]);
        self.mentions[start..self.mention_end[ix]].split_at(self.jobs[ix].inputs.len())
    }

    /// Indices of the files some job reads or writes, sorted by file name.
    pub(crate) fn job_files_by_name(&self) -> Vec<usize> {
        let used =
            |f: &usize| self.files[*f].producer.is_some() || !self.files[*f].consumers.is_empty();
        let mut ixs: Vec<usize> = (0..self.files.len()).filter(used).collect();
        ixs.sort_unstable_by_key(|&f| &self.files[f].name);
        ixs
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

    /// The job producing a file; `None` for external inputs and unknown
    /// files.
    pub fn producer(&self, file: &str) -> Option<JobIx> {
        self.file(file)?.producer
    }

    /// The jobs consuming a file, in job order.
    pub fn consumers(&self, file: &str) -> &[JobIx] {
        self.file(file).map_or(&[], |f| &f.consumers)
    }

    /// `Err` when two jobs claim to produce the same file.
    fn unique_producers(&self) -> Result<(), WorkflowError> {
        self.duplicate_producer.clone().map_or(Ok(()), Err)
    }

    /// Files consumed by some job but produced by none, in index order.
    fn externals(&self) -> Result<impl Iterator<Item = &FileEntry>, WorkflowError> {
        self.unique_producers()?;
        let external = |f: &&FileEntry| f.producer.is_none() && !f.consumers.is_empty();
        Ok(self.files.iter().filter(external))
    }

    /// Files consumed by some job but produced by none — these must be
    /// staged in from external storage.
    pub fn external_inputs(&self) -> Result<BTreeSet<Name>, WorkflowError> {
        Ok(self.externals()?.map(|f| f.name.clone()).collect())
    }

    /// Data-dependency edges `(producer, consumer)` derived from files.
    pub fn edges(&self) -> Result<Vec<(JobIx, JobIx)>, WorkflowError> {
        self.unique_producers()?;
        let mut edges = Vec::new();
        for ix in 0..self.jobs.len() {
            let made_elsewhere = |p: &JobIx| *p != JobIx(ix);
            let inputs = self.job_files(ix).0.iter();
            let producers = inputs.filter_map(|&f| self.files[f].producer.filter(made_elsewhere));
            edges.extend(producers.map(|p| (p, JobIx(ix))));
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(edges)
    }

    /// Validate: unique job names, unique producers, sizes for every file,
    /// and acyclic dependencies. Returns the topological level of each job
    /// (roots at level 0) on success.
    pub fn validate(&self) -> Result<Vec<usize>, WorkflowError> {
        self.levels_over(&self.checked_edges()?)
    }

    /// Everything [`Self::validate`] checks short of acyclicity, returning
    /// the edge list the check derived.
    pub(crate) fn checked_edges(&self) -> Result<Vec<(JobIx, JobIx)>, WorkflowError> {
        let mut names = HashSet::with_capacity(self.jobs.len());
        for (ix, job) in self.jobs.iter().enumerate() {
            if !names.insert(job.name.as_str()) {
                return Err(WorkflowError::DuplicateJobName(job.name.to_string()));
            }
            let (inputs, outputs) = self.job_files(ix);
            if let Some(&f) = inputs
                .iter()
                .chain(outputs)
                .find(|&&f| self.files[f].size.is_none())
            {
                return Err(WorkflowError::MissingSize(self.files[f].name.to_string()));
            }
        }
        self.edges()
    }

    /// Topological levels (longest path from any root). `Err(Cycle)` if the
    /// dependency graph is cyclic.
    pub fn levels(&self) -> Result<Vec<usize>, WorkflowError> {
        self.levels_over(&self.edges()?)
    }

    /// [`Self::levels`] over the edge list [`Self::edges`] derived (sorted,
    /// so a job's children are one run of it).
    pub(crate) fn levels_over(
        &self,
        edges: &[(JobIx, JobIx)],
    ) -> Result<Vec<usize>, WorkflowError> {
        let n = self.jobs.len();
        let mut first_child = vec![0usize; n + 1];
        let mut indegree = vec![0usize; n];
        for (a, b) in edges {
            first_child[a.0 + 1] += 1;
            indegree[b.0] += 1;
        }
        for j in 0..n {
            first_child[j + 1] += first_child[j];
        }
        let mut level = vec![0usize; n];
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(j) = queue.pop_front() {
            visited += 1;
            for &(_, JobIx(c)) in &edges[first_child[j]..first_child[j + 1]] {
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
        Ok(self.externals()?.map(|f| f.size.unwrap_or(0)).sum())
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
    fn external_inputs_are_consumed_and_never_produced() {
        let wf = pipeline();
        let ext: Vec<Name> = wf.external_inputs().unwrap().into_iter().collect();
        assert_eq!(ext, vec!["raw.fits"]);
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
        assert_eq!(wf.consumers("x"), [JobIx(1), JobIx(2)]);
        assert_eq!(wf.producer("x"), Some(JobIx(0)));
        assert!(wf.consumers("y").is_empty() && wf.producer("y").is_none());
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
