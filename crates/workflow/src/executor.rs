//! The workflow execution engine.
//!
//! A DAGMan-like scheduler running an [`ExecutablePlan`] against the
//! `pwm-net` network simulator, with the paper's experimental controls:
//!
//! * a **staging-job limit** ("a local job limit of 20, so that at most 20
//!   data staging jobs will be released at once"),
//! * **retries** ("five retries on failure per job") driven by injected
//!   transfer failures,
//! * compute slots from the site catalog (Obelix: 9 nodes × 6 cores),
//! * the **Pegasus Transfer Tool** behaviour: each staging job sends its
//!   transfer list to the Policy Service, receives a modified list, executes
//!   the approved transfers *serially* in the advised order, and reports
//!   completions — paying a modeled callout latency per round-trip, since
//!   "having Pegasus call out to an external service ... incurs overheads
//!   for the service calls",
//! * cleanup jobs that consult the service the same way.
//!
//! The core keeps job states, the three ready queues and their limits, the
//! event pump, and the staging and cleanup state machines, keyed by plan job,
//! advice entry and live flow. Three planes ride along, attached only when
//! configured and called at fixed points: recovery ([`crate::recovery`]),
//! storage metering ([`StorageRuntime`]) and tracing (`JobTrace`).

use crate::catalog::ComputeSite;
use crate::planner::{ExecutablePlan, PlanJobKind, PlannedTransfer};
use crate::policy_port::PolicyPort;
use crate::recovery::{
    Checkpoint, CrashTarget, FaultResponse, Read, RecoveryConfig, RecoveryPlane,
};
use crate::stats::RunStats;
use crate::storage::{StagedFlow, StorageRuntime};
use crate::trace::JobTrace;
use pwm_core::transport::PolicyTransport;
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, ClusterId, Name, SharedSimClock, SuppressReason,
    TransferAction, TransferAdvice, TransferOutcome, TransferSpec, WorkflowId,
};
use pwm_net::fault::{LinkFault, LinkFaultKind};
use pwm_net::{FlowSpec, HostId, LinkId, Network};
use pwm_obs::{Obs, SpanId};
use pwm_sim::{LadderQueue, SimDuration, SimRng, SimTime};
use std::collections::BinaryHeap;

/// First retry's extra delay (beyond the policy round-trip).
pub(crate) const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Multiplier applied to the backoff per additional attempt.
const RETRY_BACKOFF_FACTOR: f64 = 2.0;
/// Upper bound on the exponential backoff delay.
const RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_secs(30);
/// Multiplicative seeded jitter (±fraction) on each transient-failure
/// backoff, so retry storms decorrelate without losing determinism.
const RETRY_JITTER: f64 = 0.1;
/// Multiplicative seeded jitter (±fraction) on each compute runtime.
const RUNTIME_JITTER: f64 = 0.15;

/// Staging-job startup overhead (scheduling + transfer-tool init); this is
/// the per-job overhead that task clustering amortizes (paper Fig. 2).
const JOB_INIT_OVERHEAD: SimDuration = SimDuration::from_secs(2);
/// Gap between serial transfers within one staging job.
const INTER_TRANSFER_GAP: SimDuration = SimDuration::from_millis(100);
/// Duration of a cleanup job's file deletions.
pub const CLEANUP_DURATION: SimDuration = SimDuration::from_millis(500);

/// Un-jittered delay before retry number `attempt` (1-based): the base,
/// multiplied by the factor per further attempt, capped.
fn retry_backoff(attempt: u32) -> SimDuration {
    RETRY_BACKOFF_BASE
        .mul_f64(RETRY_BACKOFF_FACTOR.powi(attempt.saturating_sub(1) as i32))
        .min(RETRY_BACKOFF_CAP)
}

/// Executor tunables.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Master seed for runtime jitter and failure injection.
    pub seed: u64,
    /// Max staging (stage-in/stage-out) jobs in flight — the paper's local
    /// job limit of 20.
    pub staging_job_limit: usize,
    /// Transfer retry budget per staging job — the paper's 5.
    pub retries: u32,
    /// One policy-service REST round-trip.
    pub policy_call_latency: SimDuration,
    /// Probability an executed transfer fails (failure injection).
    pub transfer_failure_prob: f64,
    /// Streams per transfer when the executor falls back to executing its
    /// submitted list because the policy service is unreachable. The
    /// paper's fail-safe used 1; chaos scenarios set this to the site's
    /// default streams so an outage degrades to default-stream advice.
    pub fallback_streams: u32,
    /// When set, the executor publishes its virtual clock here each
    /// scheduling step, so a policy service given the same clock
    /// (`PolicyController::set_sim_clock`) stamps its trace instants in
    /// simulation time. Faults never read it: they are windows of
    /// [`RecoveryConfig::faults`].
    pub clock: Option<SharedSimClock>,
    /// Workflow identity presented to the policy service.
    pub workflow_id: WorkflowId,
    /// Link whose peak concurrent streams are reported in the run stats
    /// (the WAN bottleneck for the Table IV cross-check).
    pub watch_link: Option<LinkId>,
    /// Also record a utilization timeline on `watch_link` (retrieve it from
    /// the returned [`Network`] after the run).
    pub watch_timeline: bool,
    /// Policy-aware storage staging (see [`StorageRuntime`]): advised
    /// backends receive the staged flows and the run's dollars are metered
    /// into [`RunStats::storage`]. `None` leaves every flow as planned.
    pub storage: Option<StorageRuntime>,
    /// Observability sinks: sim-time job / advice-RPC / transfer /
    /// retry-backoff spans (flow spans nest under them) and job lifecycle
    /// counters. Same-seed runs export identical traces.
    pub obs: Option<Obs>,
    /// The recovery plane's config (see [`crate::recovery`]); `None` or an
    /// inert config attaches no plane.
    pub recovery: Option<RecoveryConfig>,
    /// Stop the run loop once virtual time would pass this instant and
    /// return a [`Checkpoint`] of the completed-job frontier (crash-resume
    /// experiments drive this; `None` runs to completion).
    pub halt_at: Option<SimTime>,
    /// Resume from a prior run's [`Checkpoint`]: jobs named there start as
    /// `Done` (their children's dependencies count them satisfied) instead
    /// of re-running. Partially staged files are deduplicated by the Policy
    /// Service's `AlreadyStaged` advice when the same controller is reused.
    pub resume_from: Option<Checkpoint>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            seed: 0,
            staging_job_limit: 20,
            retries: 5,
            policy_call_latency: SimDuration::from_millis(150),
            transfer_failure_prob: 0.0,
            fallback_streams: 1,
            clock: None,
            workflow_id: WorkflowId(0),
            watch_link: None,
            watch_timeline: false,
            storage: None,
            obs: None,
            recovery: None,
            halt_at: None,
            resume_from: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Waiting,
    Ready,
    Running,
    Done,
    Failed,
    /// A (transitive) parent failed; the job will never run.
    Abandoned,
}

#[derive(Debug)]
enum Ev {
    /// Staging job finished its init overhead → issue the policy callout.
    StagingInit(usize),
    /// Policy advice arrives → begin executing transfers.
    StagingAdvice(usize),
    /// Inter-transfer gap elapsed → start the next approved transfer.
    TransferStart(usize),
    /// Re-evaluate a failed transfer with the policy service.
    RetryEvaluate(usize),
    /// Compute job finishes. The epoch invalidates completions of attempts
    /// killed by a node crash: a stale epoch means the attempt died and its
    /// completion must be ignored.
    ComputeDone(usize, u32),
    /// Fault window `.0` (its index in the plan) opens (`.1` true) or
    /// closes.
    Fault(usize, bool),
    /// Cleanup advice arrives → perform deletions.
    CleanupAdvice(usize),
    /// Cleanup deletions done → report the advice `.1` executed; finish.
    CleanupWorkDone(usize, Vec<CleanupAdvice>),
    /// Final callout (completion report) done → job complete.
    JobFinish(usize),
}

/// A staging job from its callout until it leaves the staging limit.
#[derive(Default)]
struct StagingRun {
    /// Specs submitted, aligned with the planned transfer list.
    specs: Vec<TransferSpec>,
    advice: Vec<TransferAdvice>,
    /// Aligned with `advice`.
    entries: Vec<Entry>,
    next_advice: usize,
    outcomes: Vec<TransferOutcome>,
    attempts_left: u32,
    /// Advice index awaiting re-evaluation after a failure.
    retrying: Option<usize>,
}

/// What the executor knows of one advice entry.
struct Entry {
    /// The planned transfer (spec) the entry answers, matched when the
    /// advice arrives or a retry replaces it; `None` if never submitted.
    spec: Option<usize>,
    /// Executions so far: the integrity model's attempt number.
    runs: u32,
    /// The alternate replica's host after a replica failover.
    src: Option<HostId>,
}

impl StagingRun {
    /// Empty the run for the next staging job, keeping its buffers.
    fn clear(&mut self) {
        self.specs.clear();
        self.advice.clear();
        self.entries.clear();
        self.next_advice = 0;
        self.outcomes.clear();
        self.retrying = None;
    }
}

/// The spec `advice` answers: the first with its source and destination
/// (a clustered stage-in job may list one file for several consumers).
fn answered(specs: &[TransferSpec], advice: &TransferAdvice) -> Option<usize> {
    (specs.iter()).position(|s| s.dest == advice.dest && s.source == advice.source)
}

/// A flow in the network, from its start until it lands or is lost.
struct LiveFlow {
    tag: u64,
    job: usize,
    advice_ix: usize,
    /// Set when its advice named an installed backend.
    staged: Option<StagedFlow>,
    /// Set when the run is traced.
    span: Option<SpanId>,
}

/// Priority-ordered ready queue: (priority desc, id asc).
#[derive(Default)]
struct ReadyQueue {
    heap: BinaryHeap<(i32, std::cmp::Reverse<usize>)>,
}

impl ReadyQueue {
    fn push(&mut self, priority: i32, id: usize) {
        self.heap.push((priority, std::cmp::Reverse(id)));
    }
    fn pop(&mut self) -> Option<usize> {
        self.heap.pop().map(|(_, std::cmp::Reverse(id))| id)
    }
}

/// A staging job's planned transfers.
fn planned_transfers(plan: &ExecutablePlan, job: usize) -> &[PlannedTransfer] {
    match &plan.job(job).kind {
        PlanJobKind::StageIn { transfers, .. } | PlanJobKind::StageOut { transfers } => transfers,
        _ => unreachable!("job {job} is not a staging job"),
    }
}

/// The engine. Construct with [`WorkflowExecutor::new`], then call
/// [`WorkflowExecutor::run`].
pub struct WorkflowExecutor<'p> {
    plan: &'p ExecutablePlan,
    config: ExecutorConfig,
    /// Every policy interaction goes through the port; completion reports
    /// wait in its report window until the window closes.
    policy: PolicyPort,
    network: Network,
    events: LadderQueue<Ev>,
    now: SimTime,
    rng: SimRng,

    state: Vec<JobState>,
    pending_parents: Vec<usize>,
    ready_compute: ReadyQueue,
    ready_staging: ReadyQueue,
    ready_cleanup: ReadyQueue,
    compute_slots_free: u32,
    cores_per_node: u32,
    staging_in_flight: usize,
    /// Per plan job: its staging run, while it stages.
    staging: Vec<Option<Box<StagingRun>>>,
    /// Finished runs, kept for their buffers: each box goes back into a
    /// job's slot as it is.
    #[allow(clippy::vec_box)]
    spare_runs: Vec<Box<StagingRun>>,
    /// At most one per staging job, which runs its transfers serially.
    flows: Vec<LiveFlow>,
    next_tag: u64,
    /// Set when `halt_at` stopped the loop before the DAG finished.
    halted: bool,

    // The planes: `None` when not attached.
    recovery: Option<RecoveryPlane>,
    storage: Option<StorageRuntime>,
    trace: Option<JobTrace<'p>>,

    jobs_done: usize,
    jobs_abandoned: usize,
    /// The run's counters, accumulated in place.
    stats: RunStats,
}

impl<'p> WorkflowExecutor<'p> {
    /// Build an executor for `plan` on `site`, moving data over `network`
    /// and consulting the policy service via `transport`.
    pub fn new(
        plan: &'p ExecutablePlan,
        site: &ComputeSite,
        mut network: Network,
        transport: Box<dyn PolicyTransport>,
        mut config: ExecutorConfig,
    ) -> Self {
        let n = plan.len();
        let rng = SimRng::for_component(config.seed, "executor");
        if let (true, Some(link)) = (config.watch_timeline, config.watch_link) {
            network.watch_link(link);
        }
        let obs = config.obs.take();
        let mut storage = config.storage.take();
        if let Some(obs) = &obs {
            // Share the tracer with the network so flow spans can nest
            // under the executor's transfer spans.
            network.set_obs(obs.clone());
            if let Some(storage) = &mut storage {
                storage.attach_obs(obs);
            }
        }
        let mut exec = WorkflowExecutor {
            plan,
            policy: PolicyPort::new(transport, config.fallback_streams, obs.clone()),
            network,
            events: LadderQueue::new(),
            now: SimTime::ZERO,
            rng,
            state: vec![JobState::Waiting; n],
            pending_parents: (0..n).map(|i| plan.parents(i).len()).collect(),
            ready_compute: ReadyQueue::default(),
            ready_staging: ReadyQueue::default(),
            ready_cleanup: ReadyQueue::default(),
            compute_slots_free: site.slots(),
            cores_per_node: site.cores_per_node,
            staging_in_flight: 0,
            staging: (0..n).map(|_| None).collect(),
            spare_runs: Vec::new(),
            flows: Vec::new(),
            next_tag: 0,
            halted: false,
            recovery: RecoveryPlane::attach(config.recovery.take(), n),
            storage,
            trace: obs.map(|obs| JobTrace::new(plan, obs)),
            jobs_done: 0,
            jobs_abandoned: 0,
            stats: RunStats::default(),
            config,
        };
        if let Some(clock) = &exec.config.clock {
            clock.set(SimTime::ZERO);
        }
        // Fault windows become plain events: the run loop delivers them
        // in time order with everything else, so two same-seed runs see
        // identical interleavings. A crashed host, or a backend's store
        // host, is unreachable: its access link is down for the window.
        if let Some(rec) = &exec.recovery {
            for (fault, ev) in rec.scheduled_faults() {
                let window = ev.window;
                exec.events
                    .schedule_at(window.start, Ev::Fault(fault, true));
                exec.events
                    .schedule_at(window.end(), Ev::Fault(fault, false));
                if let CrashTarget::Host { host, .. } | CrashTarget::Backend { host, .. } = ev.kind
                {
                    let link = exec.network.topology().host(host).access_link;
                    let down = LinkFault {
                        link,
                        kind: LinkFaultKind::Down,
                    };
                    exec.network
                        .inject_link_fault(window.start, window.duration, down);
                }
            }
        }
        // Resume: jobs completed before the halt start as Done, so only the
        // unfinished frontier re-runs.
        if let Some(cp) = exec.config.resume_from.take() {
            let done: std::collections::HashSet<&str> =
                cp.completed_jobs.iter().map(Name::as_str).collect();
            for i in 0..n {
                if done.contains(plan.job_name(i).to_name().as_str()) {
                    exec.state[i] = JobState::Done;
                    exec.jobs_done += 1;
                    for child in plan.children(i) {
                        exec.pending_parents[child] -= 1;
                    }
                }
            }
        }
        for i in 0..n {
            if exec.pending_parents[i] == 0 && exec.state[i] == JobState::Waiting {
                exec.mark_ready(i);
            }
        }
        exec
    }

    /// Run to completion; returns the statistics and the network (for
    /// post-run inspection of link peaks and ledgers).
    pub fn run(mut self) -> (RunStats, Network) {
        self.drive();
        self.finish()
    }

    /// Like [`WorkflowExecutor::run`], additionally returning the
    /// [`Checkpoint`] of the completed-job frontier — the resume token when
    /// [`ExecutorConfig::halt_at`] stopped the run mid-DAG (and simply the
    /// full job list when it ran to completion).
    pub fn run_checkpointed(mut self) -> (RunStats, Network, Checkpoint) {
        self.drive();
        let checkpoint = Checkpoint {
            completed_jobs: (0..self.plan.len())
                .filter(|&i| self.state[i] == JobState::Done)
                .map(|i| self.plan.job_name(i).to_name())
                .collect(),
            taken_at: self.now,
        };
        let (stats, network) = self.finish();
        (stats, network, checkpoint)
    }

    /// The event loop: runs until the DAG finishes or `halt_at` stops it.
    fn drive(&mut self) {
        let total = self.plan.len();
        loop {
            // With fault events scheduled past the DAG's completion, the
            // loop must not sit out a dangling restart window: once every
            // job is terminal nothing can change.
            if self.recovery.is_some()
                && self.jobs_done + self.stats.failed_jobs + self.jobs_abandoned == total
            {
                break;
            }
            self.schedule_ready();
            let next = [self.events.peek_time(), self.network.next_wakeup()];
            let Some(t) = next.into_iter().flatten().min() else {
                break;
            };
            if let Some(halt) = self.config.halt_at.filter(|&halt| t > halt) {
                self.now = halt;
                self.halted = true;
                break;
            }
            // No report crosses a simulated instant: the window closes
            // while the clock still reads the instant that produced it.
            if t > self.now {
                self.policy.close_window();
            }
            self.now = t;
            if let Some(clock) = &self.config.clock {
                clock.set(t);
            }
            if let Some(rec) = &mut self.recovery {
                rec.replicas_at(t);
            }
            self.network.advance(t);
            self.drain_network_completions();
            if let Some((_, ev)) = self.events.pop_until(t) {
                self.handle_event(ev);
            }
        }

        self.policy.close_window();
    }

    /// The run's statistics and its network, once `drive` returned.
    fn finish(mut self) -> (RunStats, Network) {
        let total = self.plan.len();
        let finished = self.jobs_done + self.stats.failed_jobs + self.jobs_abandoned;
        debug_assert!(
            finished == total || self.halted,
            "executor stalled with jobs outstanding"
        );
        let stats = RunStats {
            makespan: self.now.since(SimTime::ZERO),
            success: self.stats.failed_jobs == 0 && self.jobs_abandoned == 0 && finished == total,
            compute_jobs: self
                .plan
                .count_jobs(|j| matches!(j.kind, PlanJobKind::Compute { .. })),
            policy_calls: self.policy.calls(),
            peak_wan_streams: self.config.watch_link.map(|l| self.network.peak_streams(l)),
            finished_at: self.now,
            storage: self.storage.as_mut().map(|s| s.report(self.now)),
            recovery: self.recovery.take().map(|r| r.report),
            ..self.stats
        };
        (stats, self.network)
    }

    fn mark_ready(&mut self, job: usize) {
        debug_assert_eq!(self.state[job], JobState::Waiting);
        self.state[job] = JobState::Ready;
        let pj = self.plan.job(job);
        let priority = pj.priority;
        match pj.kind {
            PlanJobKind::Compute { .. } => self.ready_compute.push(priority, job),
            PlanJobKind::StageIn { .. } | PlanJobKind::StageOut { .. } => {
                self.ready_staging.push(priority, job)
            }
            PlanJobKind::Cleanup { .. } => self.ready_cleanup.push(priority, job),
        }
    }

    fn start_job(&mut self, job: usize) {
        self.state[job] = JobState::Running;
        if let Some(trace) = &mut self.trace {
            trace.start_job(job, self.now);
        }
    }

    /// The attempt epoch a compute job's completion must carry.
    fn epoch(&self, job: usize) -> u32 {
        self.recovery.as_ref().map_or(0, |r| r.epoch(job))
    }

    /// A compute job's (runtime, output bytes).
    fn compute_work(&self, job: usize) -> (f64, u64) {
        match &self.plan.job(job).kind {
            PlanJobKind::Compute {
                runtime_s,
                output_bytes,
                ..
            } => (*runtime_s, *output_bytes),
            _ => unreachable!("job {job} is not a compute job"),
        }
    }

    fn schedule_ready(&mut self) {
        // Compute jobs take cores.
        while self.compute_slots_free > 0 {
            let Some(job) = self.ready_compute.pop() else {
                break;
            };
            self.compute_slots_free -= 1;
            self.start_job(job);
            let (runtime_s, output_bytes) = self.compute_work(job);
            // Outputs land on scratch while the job runs; account at start
            // (conservative for peak usage).
            self.move_scratch(output_bytes as f64);
            let actual = runtime_s * self.rng.jitter(RUNTIME_JITTER);
            self.stats.compute_core_seconds += actual;
            self.events.schedule_at(
                self.now + SimDuration::from_secs_f64(actual),
                Ev::ComputeDone(job, self.epoch(job)),
            );
        }
        // Staging jobs respect the local job limit.
        while self.staging_in_flight < self.config.staging_job_limit {
            let Some(job) = self.ready_staging.pop() else {
                break;
            };
            self.staging_in_flight += 1;
            self.start_job(job);
            self.stats.staging_jobs += 1;
            self.events
                .schedule_at(self.now + JOB_INIT_OVERHEAD, Ev::StagingInit(job));
        }
        // Cleanup jobs are lightweight local jobs, unthrottled like Pegasus'
        // default cleanup category.
        while let Some(job) = self.ready_cleanup.pop() {
            self.start_job(job);
            self.stats.cleanup_jobs += 1;
            if let Some(trace) = &mut self.trace {
                trace.rpc_issued(job, self.now);
            }
            self.events.schedule_at(
                self.now + self.config.policy_call_latency,
                Ev::CleanupAdvice(job),
            );
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::StagingInit(job) => {
                let plan = self.plan;
                let transfers = planned_transfers(plan, job);
                let pj = plan.job(job);
                let cluster = match &pj.kind {
                    PlanJobKind::StageIn { cluster, .. } => *cluster,
                    _ => None,
                };
                let workflow = plan.workflow(job).unwrap_or(self.config.workflow_id);
                let mut run = self.spare_runs.pop().unwrap_or_default();
                run.specs.extend(transfers.iter().map(|pt| TransferSpec {
                    source: pt.source.clone(),
                    dest: pt.dest.clone(),
                    bytes: pt.bytes,
                    requested_streams: None,
                    workflow,
                    cluster: cluster.map(ClusterId),
                    priority: Some(pj.priority),
                }));
                run.attempts_left = self.config.retries;
                self.staging[job] = Some(run);
                // The callout happens now; the advice lands after a
                // round-trip.
                if let Some(trace) = &mut self.trace {
                    trace.rpc_issued(job, self.now);
                }
                self.events.schedule_at(
                    self.now + self.config.policy_call_latency,
                    Ev::StagingAdvice(job),
                );
            }
            Ev::StagingAdvice(job) => {
                if let Some(trace) = &mut self.trace {
                    trace.rpc_landed(job, "advice_rpc", self.now);
                }
                let run = self.staging[job].as_mut().expect("staging run state");
                let (advice, fell_back) = self.policy.evaluate_transfers(&run.specs);
                run.entries.extend(advice.iter().map(|a| Entry {
                    spec: answered(&run.specs, a),
                    runs: 0,
                    src: None,
                }));
                run.advice = advice;
                self.note_fallback(job, fell_back);
                self.start_next_transfer(job);
            }
            Ev::TransferStart(job) => self.start_next_transfer(job),
            Ev::RetryEvaluate(job) => {
                // The job may have failed while this retry was in flight; its
                // run state is gone and there is nothing to do.
                let Some(run) = self.staging[job].as_mut() else {
                    return;
                };
                let Some(advice_ix) = run.retrying.take() else {
                    return;
                };
                let spec_ix = run.entries[advice_ix]
                    .spec
                    .expect("retried advice resolves");
                let spec = run.specs[spec_ix].clone();
                // Without a fresh answer the old advice is re-executed as-is.
                if let Some(fresh) = self.policy.reevaluate_transfer(spec) {
                    run.entries[advice_ix].spec = answered(&run.specs, &fresh);
                    run.advice[advice_ix] = fresh;
                }
                run.next_advice = advice_ix;
                self.start_next_transfer(job);
            }
            Ev::ComputeDone(job, epoch) => {
                // A stale epoch means a node crash killed this attempt; the
                // job re-queues when the node restarts.
                if epoch != self.epoch(job) {
                    return;
                }
                self.compute_slots_free += 1;
                self.finish_job(job);
            }
            Ev::Fault(fault, down) => self.on_fault_edge(fault, down),
            Ev::CleanupAdvice(job) => {
                if let Some(trace) = &mut self.trace {
                    trace.rpc_landed(job, "cleanup_rpc", self.now);
                }
                let PlanJobKind::Cleanup { files } = &self.plan.job(job).kind else {
                    unreachable!("cleanup event for non-cleanup job")
                };
                let workflow = self.plan.workflow(job).unwrap_or(self.config.workflow_id);
                let specs: Vec<CleanupSpec> = files
                    .iter()
                    .map(|(file, _bytes)| CleanupSpec {
                        file: file.clone(),
                        workflow,
                    })
                    .collect();
                let (advice, fell_back) = self.policy.evaluate_cleanups(&specs);
                self.note_fallback(job, fell_back);
                let delay = if advice.iter().any(|a| a.should_execute()) {
                    CLEANUP_DURATION
                } else {
                    SimDuration::ZERO
                };
                self.events
                    .schedule_at(self.now + delay, Ev::CleanupWorkDone(job, advice));
            }
            Ev::CleanupWorkDone(job, advice) => {
                let PlanJobKind::Cleanup { files } = &self.plan.job(job).kind else {
                    unreachable!("cleanup event for non-cleanup job")
                };
                // Free scratch space for the files actually deleted; deleted
                // files stop accruing residency dollars.
                let mut freed = 0.0;
                let mut outcomes = Vec::new();
                for a in advice.iter().filter(|a| a.should_execute()) {
                    if let Some((_, bytes)) = files.iter().find(|(f, _)| *f == a.file) {
                        freed += *bytes as f64;
                    }
                    if let Some(storage) = &mut self.storage {
                        storage.deleted(&a.file, self.now);
                    }
                    outcomes.push(CleanupOutcome {
                        id: a.id,
                        success: true,
                    });
                }
                self.move_scratch(-freed);
                if !outcomes.is_empty() {
                    self.policy.report_cleanups(outcomes);
                }
                self.events.schedule_at(
                    self.now + self.config.policy_call_latency,
                    Ev::JobFinish(job),
                );
            }
            Ev::JobFinish(job) => {
                self.release_staging(job);
                self.finish_job(job);
            }
        }
    }

    /// Mark a fail-safe answer (policy service unreachable) on the trace.
    fn note_fallback(&self, job: usize, fell_back: bool) {
        if let (true, Some(trace)) = (fell_back, &self.trace) {
            trace.fallback(job, self.now);
        }
    }

    fn on_fault_edge(&mut self, fault: usize, down: bool) {
        let rec = self.recovery.as_mut().expect("fault edges need the plane");
        match rec.on_fault_edge(fault, down) {
            FaultResponse::Hosts {
                kill_flows_at,
                health,
            } => {
                if let Some(host) = kill_flows_at {
                    self.kill_flows_at(host);
                }
                if let Some(event) = health {
                    self.policy.report_health(vec![event]);
                }
            }
            FaultResponse::NodeDown(crash) => {
                // The node's cores die with whatever was running on them:
                // victims go deterministically (lowest job id first), and
                // the node's idle cores leave the pool with them.
                let cores = self.cores_per_node as usize;
                let victims: Vec<usize> = (0..self.plan.len())
                    .filter(|&j| {
                        self.state[j] == JobState::Running
                            && matches!(self.plan.job(j).kind, PlanJobKind::Compute { .. })
                    })
                    .take(cores)
                    .collect();
                let idle = ((cores - victims.len()) as u32).min(self.compute_slots_free);
                self.compute_slots_free -= idle;
                for &j in &victims {
                    // The attempt is gone, and so is what it wrote.
                    self.state[j] = JobState::Ready;
                    let (_, output_bytes) = self.compute_work(j);
                    self.move_scratch(-(output_bytes as f64));
                    if let Some(trace) = &mut self.trace {
                        trace.end_attempt(j, "killed", self.now);
                    }
                }
                let cores_down = victims.len() as u32 + idle;
                let rec = self.recovery.as_mut().expect("plane attached");
                rec.park(crash, victims, cores_down);
            }
            FaultResponse::NodeUp { requeue, cores } => {
                self.compute_slots_free += cores;
                for j in requeue {
                    self.ready_compute.push(self.plan.job(j).priority, j);
                }
            }
        }
    }

    /// Kill every flow endpointed at `host` and re-ask about each victim
    /// (no retry budget consumed and no randomness drawn — infrastructure
    /// faults are not the transfer's fault).
    fn kill_flows_at(&mut self, host: pwm_net::HostId) {
        let killed = self.network.kill_flows_touching(self.now, host);
        if let Some(rec) = &mut self.recovery {
            rec.report.flows_killed += killed.len() as u32;
        }
        for k in killed {
            let Some(flow) = self.take_flow(k.tag) else {
                continue;
            };
            self.end_transfer(&flow, "killed");
            self.report_failure(flow.job, flow.advice_ix);
            self.retry_after(flow.job, flow.advice_ix, RETRY_BACKOFF_BASE);
        }
    }

    /// The row of flow `tag`, out of the live flows.
    fn take_flow(&mut self, tag: u64) -> Option<LiveFlow> {
        let row = self.flows.iter().position(|f| f.tag == tag)?;
        Some(self.flows.swap_remove(row))
    }

    /// Close the flow's transfer span with `result`.
    fn end_transfer(&self, flow: &LiveFlow, result: &str) {
        if let (Some(trace), Some(span)) = (&self.trace, flow.span) {
            trace.end_transfer(span, result, self.now);
        }
    }

    /// A staging job's run.
    fn staging_run(&mut self, job: usize) -> &mut StagingRun {
        self.staging[job].as_mut().expect("staging run state")
    }

    /// Report the transfer behind `advice_ix` failed, so the service clears
    /// its in-progress entry and dedup cannot mask re-advice.
    fn report_failure(&mut self, job: usize, advice_ix: usize) {
        let id = self.staging_run(job).advice[advice_ix].id;
        self.policy
            .report_transfers(vec![TransferOutcome { id, success: false }]);
    }

    /// Park `advice_ix` and re-ask the policy about it after `wait` plus one
    /// round trip.
    fn retry_after(&mut self, job: usize, advice_ix: usize, wait: SimDuration) {
        self.staging_run(job).retrying = Some(advice_ix);
        self.events.schedule_at(
            self.now + self.config.policy_call_latency + wait,
            Ev::RetryEvaluate(job),
        );
    }

    /// The policy suppressed this transfer's source (quarantined replica or
    /// down host): the recovery plane re-plans instead of skipping.
    fn handle_blocked_source(&mut self, job: usize, advice_ix: usize, quarantined: bool) {
        let run = self.staging[job].as_mut().expect("staging run state");
        let Some(spec_ix) = run.entries[advice_ix].spec else {
            // Unresolvable advice — count it as skipped.
            self.stats.transfers_skipped += 1;
            self.start_next_transfer(job);
            return;
        };
        let file = &planned_transfers(self.plan, job)[spec_ix].file;
        let rec = self
            .recovery
            .as_mut()
            .expect("blocked sources need the plane");
        let source = &run.advice[advice_ix].source;
        let replan = rec.replan_blocked(file, source, quarantined, self.now);
        if let Some(alt) = replan.failover {
            // Re-stage from the alternate replica: the spec re-asked about,
            // the advice kept if no answer comes, and the source host.
            run.specs[spec_ix].source = alt.url.clone();
            run.advice[advice_ix].source = alt.url;
            run.entries[advice_ix].src = Some(alt.host);
        }
        if let Some(event) = replan.health {
            self.policy.report_health(vec![event]);
        }
        self.retry_after(job, advice_ix, replan.wait);
    }

    /// Checksum the landed transfer against the integrity model. Returns
    /// true when the read was corrupt and the failure path was taken.
    fn read_corrupt(&mut self, flow: &LiveFlow) -> bool {
        let (job, advice_ix) = (flow.job, flow.advice_ix);
        let run = self.staging[job].as_ref().expect("staging run state");
        let entry = &run.entries[advice_ix];
        let spec_ix = entry.spec.expect("a started flow answers a spec");
        let file = &planned_transfers(self.plan, job)[spec_ix].file;
        let (source, attempt) = (&run.advice[advice_ix].source, entry.runs);
        let rec = self.recovery.as_mut().expect("checksums need the plane");
        let Read::Corrupt(health) = rec.checksum(file, source, attempt) else {
            return false;
        };
        // The bytes arrived but the checksum does not match: discard them,
        // report the suspicion, and retry. Integrity retries back off
        // exponentially on the *execution* attempt count but never consume
        // the transient-failure budget.
        self.end_transfer(flow, "corrupt");
        if let Some(event) = health {
            self.policy.report_health(vec![event]);
        }
        self.report_failure(job, advice_ix);
        self.retry_after(job, advice_ix, retry_backoff(attempt));
        true
    }

    /// Begin the next approved transfer of a staging job, skipping advice
    /// entries the policy suppressed; when the list is exhausted, report and
    /// schedule completion.
    fn start_next_transfer(&mut self, job: usize) {
        let plan = self.plan;
        loop {
            let run = self.staging[job].as_mut().expect("staging run state");
            if run.next_advice >= run.advice.len() {
                // All advice processed → completion callout (if we executed
                // anything) and job finish.
                let outcomes = std::mem::take(&mut run.outcomes);
                let delay = if outcomes.is_empty() {
                    SimDuration::ZERO
                } else {
                    self.policy.report_transfers(outcomes);
                    self.config.policy_call_latency
                };
                self.events
                    .schedule_at(self.now + delay, Ev::JobFinish(job));
                return;
            }
            let ix = run.next_advice;
            run.next_advice += 1;
            let advice = &run.advice[ix];
            if !advice.should_execute() {
                // A recovery suppression is a re-planning signal, not a
                // dedup: the file still has to arrive from somewhere.
                if let (
                    Some(_),
                    TransferAction::Skip(
                        reason @ (SuppressReason::SourceQuarantined
                        | SuppressReason::SourceHostDown),
                    ),
                ) = (&self.recovery, advice.action)
                {
                    let quarantined = reason == SuppressReason::SourceQuarantined;
                    self.handle_blocked_source(job, ix, quarantined);
                    return;
                }
                self.stats.transfers_skipped += 1;
                continue;
            }
            let entry = &mut run.entries[ix];
            let Some(spec_ix) = entry.spec else {
                // Advice for a transfer we did not submit: ignore it.
                continue;
            };
            entry.runs += 1;
            let pt = &planned_transfers(plan, job)[spec_ix];
            let src = entry.src.unwrap_or(pt.src_host);
            let advice = &run.advice[ix];
            let tag = self.next_tag;
            self.next_tag += 1;
            // A policy-advised backend redirects the flow to its store host
            // and pays its per-request overhead as extra setup.
            let redirect = (self.storage.as_ref())
                .and_then(|s| s.redirect(advice.backend.as_ref(), pt.bytes, &pt.dest));
            let (dst, extra_setup, staged) = match redirect {
                Some((host, setup, staged)) => (host, setup, Some(staged)),
                None => (pt.dst_host, SimDuration::ZERO, None),
            };
            let spec = FlowSpec {
                src,
                dst,
                bytes: pt.bytes as f64,
                streams: advice.streams,
                tag,
            };
            let flow_id = self
                .network
                .start_flow_with_setup(self.now, spec, extra_setup);
            let span = self.trace.as_ref().map(|trace| {
                let span = trace.start_transfer(job, &pt.file, advice.streams, pt.bytes, self.now);
                self.network.set_flow_span_parent(flow_id, span);
                span
            });
            self.flows.push(LiveFlow {
                tag,
                job,
                advice_ix: ix,
                staged,
                span,
            });
            return;
        }
    }

    fn drain_network_completions(&mut self) {
        for record in self.network.take_completed() {
            let Some(mut flow) = self.take_flow(record.tag) else {
                continue;
            };
            if self.rng.chance(self.config.transfer_failure_prob) {
                self.transfer_failed(&flow);
                continue;
            }
            // The transfer tool checksums what landed before declaring
            // victory; a mismatch takes the integrity-failure path.
            if self.recovery.is_some() && self.read_corrupt(&flow) {
                continue;
            }
            self.stats.bytes_staged += record.bytes;
            self.move_scratch(record.bytes);
            if let (Some(storage), Some(staged)) = (&mut self.storage, flow.staged.take()) {
                storage.landed(staged, self.now);
            }
            self.end_transfer(&flow, "ok");
            self.stats.transfers.push(record);
            let run = self.staging_run(flow.job);
            run.outcomes.push(TransferOutcome {
                id: run.advice[flow.advice_ix].id,
                success: true,
            });
            self.events
                .schedule_at(self.now + INTER_TRANSFER_GAP, Ev::TransferStart(flow.job));
        }
    }

    /// An injected failure: a transient one (lost connection, timeout),
    /// retried after an exponential backoff with seeded jitter until the
    /// job's budget runs out.
    fn transfer_failed(&mut self, flow: &LiveFlow) {
        let (job, advice_ix) = (flow.job, flow.advice_ix);
        self.stats.transfer_retries += 1;
        if let Some(trace) = &self.trace {
            trace.count_failure();
        }
        self.end_transfer(flow, "failed");
        self.report_failure(job, advice_ix);
        let run = self.staging[job].as_mut().expect("staging run state");
        if run.attempts_left == 0 {
            self.fail_job(job);
            return;
        }
        run.attempts_left -= 1;
        let attempt = self.config.retries.saturating_sub(run.attempts_left);
        let wait = retry_backoff(attempt).mul_f64(self.rng.jitter(RETRY_JITTER));
        if let Some(trace) = &self.trace {
            let until = self.now + self.config.policy_call_latency + wait;
            trace.retry_scheduled(job, attempt, self.now, until);
        }
        self.retry_after(job, advice_ix, wait);
    }

    /// Scratch gains (or loses, when negative) `bytes`.
    fn move_scratch(&mut self, bytes: f64) {
        let scratch = &mut self.stats.final_scratch_bytes;
        *scratch = (*scratch + bytes).max(0.0);
        self.stats.peak_scratch_bytes = self.stats.peak_scratch_bytes.max(*scratch);
    }

    /// A staging job leaves the staging limit, and its run's buffers serve
    /// the next one. Other jobs hold no run.
    fn release_staging(&mut self, job: usize) {
        if let Some(mut run) = self.staging[job].take() {
            self.staging_in_flight -= 1;
            run.clear();
            self.spare_runs.push(run);
        }
    }

    fn finish_job(&mut self, job: usize) {
        if self.state[job] != JobState::Running {
            return;
        }
        self.state[job] = JobState::Done;
        self.jobs_done += 1;
        if let Some(trace) = &mut self.trace {
            trace.end_job(job, "done", self.now);
        }
        let plan = self.plan;
        for child in plan.children(job) {
            self.pending_parents[child] -= 1;
            if self.pending_parents[child] == 0 && self.state[child] == JobState::Waiting {
                self.mark_ready(child);
            }
        }
    }

    fn fail_job(&mut self, job: usize) {
        self.release_staging(job);
        self.state[job] = JobState::Failed;
        self.stats.failed_jobs += 1;
        if let Some(trace) = &mut self.trace {
            trace.end_job(job, "failed", self.now);
        }
        // Abandon every transitive descendant that can no longer run.
        let mut stack: Vec<usize> = self.plan.children(job).collect();
        while let Some(j) = stack.pop() {
            if matches!(self.state[j], JobState::Waiting | JobState::Ready) {
                self.state[j] = JobState::Abandoned;
                self.jobs_abandoned += 1;
                if let Some(trace) = &mut self.trace {
                    trace.end_job(j, "abandoned", self.now);
                }
                stack.extend(self.plan.children(j));
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are tweaked per-test
mod tests {
    use super::*;
    use crate::catalog::{ComputeSite, ReplicaCatalog};
    use crate::dag::{AbstractJob, AbstractWorkflow};
    use crate::planner::{plan, PlannerConfig};
    use pwm_core::transport::NoPolicyTransport;
    use pwm_core::{PolicyConfig, PolicyController, Url, DEFAULT_SESSION};
    use pwm_net::{paper_testbed, HostId, StreamModel};
    use pwm_obs::TraceEvent;
    use pwm_rest::PolicyRestClient;
    use pwm_storage::StorageLayer;

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

    /// `n` independent 5 s jobs on `site`: job i stages `in_i` (`bytes`)
    /// from the GridFTP host and writes `out_i`.
    fn wide_plan(
        n: usize,
        bytes: u64,
        site: &ComputeSite,
        gridftp: HostId,
        cleanup: bool,
    ) -> ExecutablePlan {
        let mut wf = AbstractWorkflow::new("wide");
        let mut rc = ReplicaCatalog::new();
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
            let url = Url::new("gsiftp", "gridftp-vm", format!("/data/in_{i}"));
            rc.insert(format!("in_{i}"), url, gridftp);
        }
        let cfg = PlannerConfig {
            cleanup,
            ..Default::default()
        };
        plan(&wf, site, &rc, &cfg).unwrap()
    }

    /// The paper testbed, its 9-node Obelix, and `wide_plan(n, bytes)`.
    fn testbed(n: usize, bytes: u64) -> (Network, ComputeSite, ExecutablePlan) {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = obelix(9, nfs);
        let p = wide_plan(n, bytes, &site, gridftp, true);
        (Network::new(topo, StreamModel::default()), site, p)
    }

    fn piped(controller: &PolicyController) -> Box<dyn PolicyTransport> {
        Box::new(PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION))
    }

    fn wan_link() -> Option<LinkId> {
        let (topo, ..) = paper_testbed();
        let wan = topo.links().find(|(_, l)| l.name == "wan-tacc-isi");
        wan.map(|(id, _)| id)
    }

    fn run_with_policy(
        n: usize,
        bytes: u64,
        policy: PolicyConfig,
        exec_cfg: ExecutorConfig,
    ) -> (RunStats, Network, PolicyController) {
        let (network, site, p) = testbed(n, bytes);
        let controller = PolicyController::new(policy);
        let transport = piped(&controller);
        let (stats, net) = WorkflowExecutor::new(&p, &site, network, transport, exec_cfg).run();
        (stats, net, controller)
    }

    fn run_default(n: usize, bytes: u64) -> RunStats {
        let cfg = ExecutorConfig::default();
        run_with_policy(n, bytes, PolicyConfig::default(), cfg).0
    }

    #[test]
    fn small_workflow_completes() {
        let stats = run_default(4, 1_000_000);
        assert!(stats.success);
        assert_eq!(stats.compute_jobs, 4);
        assert_eq!(stats.staging_jobs, 4);
        assert!(stats.makespan_secs() > 0.0);
        assert!((stats.bytes_staged - 4_000_000.0).abs() < 1.0);
    }

    #[test]
    fn cleanups_run_and_clear_policy_memory() {
        let cfg = ExecutorConfig::default();
        let (stats, _net, controller) = run_with_policy(3, 1_000_000, PolicyConfig::default(), cfg);
        assert!(stats.success);
        assert!(stats.cleanup_jobs > 0);
        let snap = controller.snapshot(DEFAULT_SESSION).unwrap();
        assert_eq!(snap.staged_files, 0, "cleanup jobs removed every resource");
        assert_eq!(snap.in_progress_transfers, 0);
    }

    #[test]
    fn staging_job_limit_is_respected() {
        // 40 jobs, limit 20: the WAN peak must reflect ≤ 20 concurrent
        // staging jobs × granted streams.
        let policy = PolicyConfig::default()
            .with_default_streams(4)
            .with_threshold(1_000_000); // effectively unlimited
        let mut cfg = ExecutorConfig::default();
        cfg.staging_job_limit = 20;
        cfg.watch_link = wan_link();
        let (stats, _net, _c) = run_with_policy(40, 20_000_000, policy, cfg);
        assert!(stats.success);
        let peak = stats.peak_wan_streams.unwrap();
        assert!(
            peak <= 80,
            "peak {peak} streams exceeds 20 jobs × 4 streams"
        );
        assert!(peak > 0);
    }

    #[test]
    fn greedy_threshold_caps_wan_streams() {
        let policy = PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50);
        let mut cfg = ExecutorConfig::default();
        cfg.watch_link = wan_link();
        cfg.watch_timeline = true;
        let (stats, net, controller) = run_with_policy(40, 20_000_000, policy, cfg);
        assert!(stats.success);
        // Table IV bound: threshold 50, default 8, 20 concurrent jobs →
        // at most 63 allocated at any instant.
        let peak = stats.peak_wan_streams.unwrap();
        assert!(peak <= 63, "peak {peak} > Table IV bound 63");
        let timeline = net.timeline(wan_link().unwrap()).expect("watched");
        assert!((1..=peak).contains(&timeline.peak_streams()));
        let snap = controller.snapshot(DEFAULT_SESSION).unwrap();
        let policy_peak = snap.host_pairs.iter().map(|p| p.peak_allocated).max();
        assert!(policy_peak.unwrap() <= 63);
    }

    #[test]
    fn no_policy_comparator_runs() {
        let (network, site, p) = testbed(6, 5_000_000);
        let transport = Box::new(NoPolicyTransport::new(4));
        let cfg = ExecutorConfig::default();
        let (stats, _net) = WorkflowExecutor::new(&p, &site, network, transport, cfg).run();
        assert!(stats.success);
        assert_eq!(stats.transfers_skipped, 0, "no-policy never skips");
    }

    #[test]
    fn failure_injection_triggers_retries_and_still_succeeds() {
        let mut cfg = ExecutorConfig::default();
        cfg.transfer_failure_prob = 0.3;
        cfg.seed = 7;
        let (stats, _net, _c) = run_with_policy(8, 2_000_000, PolicyConfig::default(), cfg);
        assert!(stats.transfer_retries > 0, "30% failure rate must retry");
        assert!(stats.success, "retries should absorb the failures");
    }

    #[test]
    fn certain_failure_exhausts_retries_and_fails_the_job() {
        let mut cfg = ExecutorConfig::default();
        cfg.transfer_failure_prob = 1.0;
        cfg.retries = 2;
        let (stats, _net, _c) = run_with_policy(2, 1_000_000, PolicyConfig::default(), cfg);
        assert!(!stats.success);
        assert!(stats.failed_jobs > 0);
        // Each job makes retries+1 attempts, every one failing: 2 jobs × 3.
        assert_eq!(stats.transfer_retries, 2 * 3);
    }

    fn seeded(seed: u64) -> ExecutorConfig {
        ExecutorConfig {
            seed,
            ..ExecutorConfig::default()
        }
    }

    /// A traced run of `n` wide jobs under `cfg`.
    fn traced(n: usize, bytes: u64, mut cfg: ExecutorConfig) -> (RunStats, Obs) {
        let obs = Obs::new();
        cfg.obs = Some(obs.clone());
        let (stats, _net, _c) = run_with_policy(n, bytes, PolicyConfig::default(), cfg);
        (stats, obs)
    }

    #[test]
    fn retry_backoff_delays_grow_the_makespan() {
        // Every attempt fails: each retry waits one round trip plus the
        // exponential backoff of its attempt (±jitter), and the job's next
        // transfer starts only once that wait is over.
        let mut cfg = ExecutorConfig::default();
        cfg.transfer_failure_prob = 1.0;
        cfg.retries = 3;
        cfg.seed = 9;
        let latency = cfg.policy_call_latency.as_micros() as f64;
        let events = traced(2, 1_000_000, cfg).1.tracer.events();
        let waits: Vec<_> = events
            .iter()
            .filter(|e| e.name == "retry_backoff")
            .collect();
        assert_eq!(waits.len(), 2 * 3, "three retries per job");
        for w in waits {
            let attempt: u32 = w.args[0].1.parse().unwrap();
            let backoff = retry_backoff(attempt).as_micros() as f64;
            let waited = w.dur.unwrap().as_micros() as f64 - latency;
            assert!(
                (waited - backoff).abs() <= backoff * RETRY_JITTER + 1.0,
                "attempt {attempt} waited {waited} µs for a {backoff} µs backoff"
            );
            let end = w.start + w.dur.unwrap();
            let next = events
                .iter()
                .filter(|e| e.cat == "transfer" && e.parent == w.parent && e.start > w.start)
                .map(|e| e.start)
                .min();
            assert!(next >= Some(end), "retried before its backoff ended");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let (stats, _, _) =
                run_with_policy(10, 10_000_000, PolicyConfig::default(), seeded(42));
            let bytes = stats.bytes_staged as u64;
            (stats.makespan, stats.policy_calls, bytes)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn obs_traces_jobs_transfers_and_rpcs() {
        let (stats, obs) = traced(4, 10_000_000, seeded(7));
        assert!(stats.success);
        let trace = obs.tracer.chrome_trace_json();
        pwm_obs::validate_chrome_trace(&trace).expect("exported trace is valid");
        for cat in "stage_in compute cleanup transfer net policy_rpc".split(' ') {
            let needle = format!("\"cat\":\"{cat}\"");
            assert!(trace.contains(&needle), "missing {needle} in:\n{trace}");
        }
        let metrics = obs.registry.render_prometheus();
        assert!(
            metrics.contains("pwm_workflow_jobs_total{kind=\"compute\",state=\"done\"} 4"),
            "job counters missing:\n{metrics}"
        );
        assert!(metrics.contains("pwm_workflow_policy_calls_total"));
        assert!(metrics.contains("pwm_net_link_streams"));
    }

    #[test]
    fn obs_trace_is_deterministic_given_seed() {
        let mk = || {
            let (stats, obs) = traced(6, 10_000_000, seeded(42));
            assert!(stats.success);
            obs.tracer.chrome_trace_json()
        };
        assert_eq!(mk(), mk(), "same seed must export an identical trace");
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let (stats, _, _) =
                run_with_policy(10, 10_000_000, PolicyConfig::default(), seeded(seed));
            stats.makespan
        };
        assert_ne!(mk(1), mk(2), "jitter should differentiate seeds");
    }

    #[test]
    fn shared_input_is_staged_once_under_policy() {
        // Two compute jobs consuming the same external file: policy dedup
        // means one WAN transfer, the second stage-in is advised to skip.
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = obelix(9, nfs);
        let mut wf = AbstractWorkflow::new("shared");
        for i in 0..2 {
            wf.add_job(AbstractJob {
                name: format!("work_{i}").into(),
                transformation: "work".into(),
                runtime_s: 2.0,
                inputs: vec!["common.dat".into()],
                outputs: vec![format!("out_{i}").into()],
            });
            wf.set_file_size(format!("out_{i}"), 1);
        }
        wf.set_file_size("common.dat", 50_000_000);
        let mut rc = ReplicaCatalog::new();
        let url = Url::new("gsiftp", "gridftp-vm", "/data/common.dat");
        rc.insert("common.dat", url, gridftp);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        assert_eq!(p.stage_in_count(), 2);
        let controller = PolicyController::new(PolicyConfig::default());
        let network = Network::new(topo, StreamModel::default());
        let cfg = ExecutorConfig::default();
        let exec = WorkflowExecutor::new(&p, &site, network, piped(&controller), cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);
        // One of the two staging attempts was suppressed...
        let skipped = stats.transfers_skipped;
        assert!(skipped >= 1, "dedup should skip the duplicate ({skipped})");
        // ...so only ~50 MB crossed the network, not 100.
        let staged = stats.bytes_staged;
        assert!(staged < 60_000_000.0, "bytes staged {staged}");
    }

    #[test]
    fn trace_records_job_and_transfer_lifecycle() {
        let (stats, obs) = traced(3, 1_000_000, ExecutorConfig::default());
        let events = obs.tracer.events();
        assert!(stats.success);
        let has = |cat: &str, key: &str, value: Option<&str>| {
            events.iter().any(|e| {
                e.cat == cat
                    && e.args
                        .iter()
                        .any(|(k, v)| k == key && value.is_none_or(|want| v == want))
            })
        };
        assert!(has("stage_in", "state", Some("done")), "staging job ran");
        assert!(has("compute", "state", Some("done")), "compute job ran");
        assert!(has("transfer", "streams", None), "transfers carry streams");
        // The export is sim-time ordered, and no span starts before the
        // span that caused it.
        for w in events.windows(2) {
            assert!(w[0].start <= w[1].start, "{:?} after {:?}", w[1], w[0]);
        }
        for e in &events {
            if let Some(parent) = events.iter().find(|p| Some(p.id) == e.parent) {
                assert!(parent.start <= e.start, "{e:?} before {parent:?}");
            }
        }
    }

    #[test]
    fn ready_queue_pops_by_priority_then_id() {
        let mut q = ReadyQueue::default();
        q.push(1, 10);
        q.push(9, 11);
        q.push(5, 12);
        q.push(9, 3); // same priority as 11, lower id wins
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(12));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn priority_orders_staging_release() {
        // Three independent staging jobs with priorities 1, 9, 5 and a
        // staging-job limit of 1: they must run in priority order (9, 5, 1),
        // not id order. Job i stages i + 1 MB, so the sizes name the jobs.
        use crate::planner::PlanJob;
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let jobs: Vec<PlanJob> = [1, 9, 5]
            .iter()
            .enumerate()
            .map(|(i, &priority)| PlanJob {
                name: format!("stage_{i}").into(),
                kind: PlanJobKind::StageIn {
                    transfers: Box::new([PlannedTransfer {
                        file: format!("f{i}").into(),
                        bytes: (i as u64 + 1) * 1_000_000,
                        source: Url::new("gsiftp", "gridftp-vm", format!("/d/f{i}")),
                        dest: Url::new("file", "obelix-nfs", format!("/s/f{i}")),
                        src_host: gridftp,
                        dst_host: nfs,
                    }]),
                    cluster: None,
                },
                priority,
                level: 0,
            })
            .collect();
        let plan = ExecutablePlan::from_jobs("prio", jobs, &[]).unwrap();
        let controller = PolicyController::new(PolicyConfig::default());
        let network = Network::with_seed(topo, StreamModel::default(), 1);
        let mut cfg = ExecutorConfig::default();
        cfg.staging_job_limit = 1;
        let transport = piped(&controller);
        let (stats, _) =
            WorkflowExecutor::new(&plan, &obelix(1, nfs), network, transport, cfg).run();
        assert!(stats.success);
        let mut done = stats.transfers;
        done.sort_by_key(|t| t.completed_at);
        let sizes: Vec<f64> = done.iter().map(|t| t.bytes).collect();
        assert_eq!(sizes, [2e6, 3e6, 1e6], "stage_1, stage_2, stage_0");
    }

    #[test]
    fn cleanup_reduces_the_scratch_footprint() {
        // With cleanup, staged files are deleted after their consumers run,
        // so the final footprint is zero and the peak is below the total
        // bytes ever written; without cleanup everything accumulates.
        let run = |cleanup: bool| {
            let (topo, gridftp, _apache, nfs) = paper_testbed();
            let site = obelix(9, nfs);
            let p = wide_plan(12, 20_000_000, &site, gridftp, cleanup);
            let controller = PolicyController::new(PolicyConfig::default());
            let network = Network::new(topo, StreamModel::default());
            let cfg = ExecutorConfig::default();
            let exec = WorkflowExecutor::new(&p, &site, network, piped(&controller), cfg);
            let (stats, _) = exec.run();
            assert!(stats.success);
            stats
        };
        let with_cleanup = run(true);
        let without = run(false);
        assert_eq!(
            with_cleanup.final_scratch_bytes, 0.0,
            "cleanup empties scratch"
        );
        let kept = without.final_scratch_bytes;
        assert!(
            kept > 200.0e6,
            "no cleanup: everything stays ({kept} bytes)"
        );
        assert!(with_cleanup.peak_scratch_bytes <= without.peak_scratch_bytes);
        assert!(with_cleanup.peak_scratch_bytes > 0.0);
    }

    /// A run of `n` wide jobs whose policy places files on the EC2 trio
    /// installed beside the NFS host (GreedyCheapest), metered; `tweak`
    /// sees the installed layer.
    fn storage_run(
        n: usize,
        bytes: u64,
        tweak: impl FnOnce(&StorageLayer, &mut ExecutorConfig),
    ) -> (RunStats, StorageLayer) {
        let (mut topo, gridftp, _apache, nfs) = paper_testbed();
        let trio = pwm_storage::ec2_trio();
        let layer = StorageLayer::install(&mut topo, nfs, &trio);
        let site = obelix(9, nfs);
        let p = wide_plan(n, bytes, &site, gridftp, true);
        let mut policy =
            PolicyConfig::default().with_storage(pwm_core::StoragePolicy::GreedyCheapest);
        for spec in &trio {
            policy = policy.with_backend(spec.clone(), "obelix-nfs");
        }
        let controller = PolicyController::new(policy);
        let mut cfg = ExecutorConfig::default();
        cfg.storage = Some(StorageRuntime::new(layer.clone()));
        tweak(&layer, &mut cfg);
        let network = Network::new(topo, StreamModel::default());
        let exec = WorkflowExecutor::new(&p, &site, network, piped(&controller), cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);
        (stats, layer)
    }

    #[test]
    fn policy_chosen_backend_redirects_flows_and_meters_dollars() {
        // Full stack: ec2 backends installed on the paper testbed, the
        // policy service running GreedyCheapest storage selection, and the
        // executor redirecting staged flows to the advised store host while
        // the meter accumulates dollars that cleanup later caps.
        let (stats, layer) = storage_run(6, 10_000_000, |_, _| {});
        let store_hosts: Vec<HostId> = layer.backends().map(|b| b.host).collect();
        // Every staged flow landed on a store host, not the planned NFS.
        assert!(!stats.transfers.is_empty());
        for t in &stats.transfers {
            assert!(store_hosts.contains(&t.dst), "flow went to {:?}", t.dst);
        }
        // The meter saw the bytes and priced them.
        let report = stats.storage.as_ref().expect("storage metering attached");
        let total_put: f64 = report.backends.iter().map(|b| b.bytes_put).sum();
        let staged = stats.bytes_staged;
        assert!(
            (total_put - staged).abs() < 1.0,
            "metered {total_put} vs staged {staged}"
        );
        assert!(report.dollars_total > 0.0);
        // GreedyCheapest concentrates these small files on the cheapest
        // forecast backend (shared NFS: no request or egress fees).
        let nfs_row = report.backend("nfs-std").unwrap();
        assert!(nfs_row.bytes_put > 0.0, "cheapest backend should win");
        assert_eq!(report.backend("obj-s3").unwrap().bytes_put, 0.0);
    }

    #[test]
    fn storage_disabled_runs_are_not_metered() {
        let stats = run_default(3, 1_000_000);
        assert!(stats.success);
        assert!(stats.storage.is_none(), "no layer, no cost report");
    }

    // --------------------------------------------------------------
    // Recovery plane
    // --------------------------------------------------------------

    /// Replica catalog with the planned gridftp source plus an apache
    /// mirror for every input file.
    fn mirrored_replicas(n: usize, gridftp: HostId, apache: HostId) -> ReplicaCatalog {
        let mut rc = ReplicaCatalog::new();
        for i in 0..n {
            let source = Url::new("gsiftp", "gridftp-vm", format!("/data/in_{i}"));
            rc.insert(format!("in_{i}"), source, gridftp);
            let mirror = Url::new("http", "apache-isi", format!("/mirror/in_{i}"));
            rc.insert(format!("in_{i}"), mirror, apache);
        }
        rc
    }

    fn run_with_recovery(
        n: usize,
        bytes: u64,
        recovery: RecoveryConfig,
        tweak: impl FnOnce(&mut ExecutorConfig),
    ) -> (RunStats, PolicyController) {
        let mut cfg = ExecutorConfig::default();
        cfg.recovery = Some(recovery);
        tweak(&mut cfg);
        let (stats, _net, controller) = run_with_policy(n, bytes, PolicyConfig::default(), cfg);
        (stats, controller)
    }

    /// `rec` with `target` down at `at` seconds for `secs`.
    fn crash(rec: &mut RecoveryConfig, target: CrashTarget, at: u64, secs: u64) {
        let (at, restart_after) = (SimTime::from_secs(at), SimDuration::from_secs(secs));
        rec.faults.add(at, restart_after, target);
    }

    fn gridftp_down(rec: &mut RecoveryConfig, gridftp: HostId, at: u64, secs: u64) {
        let name = "gridftp-vm".into();
        let target = CrashTarget::Host {
            host: gridftp,
            name,
        };
        crash(rec, target, at, secs);
    }

    #[test]
    fn idle_planes_change_nothing() {
        // A tracer and an inert recovery config must leave the run
        // bit-identical to one with no plane at all.
        let (bare, _net, _c) = run_with_policy(5, 5_000_000, PolicyConfig::default(), seeded(11));
        let (idle, _c) = run_with_recovery(5, 5_000_000, RecoveryConfig::default(), |cfg| {
            cfg.seed = 11;
            cfg.obs = Some(Obs::new());
        });
        assert_eq!(bare, idle);
        assert!(idle.recovery.is_none(), "inert plane reports nothing");
    }

    #[test]
    fn host_crash_kills_flows_and_fails_over_to_mirror() {
        let (_topo, gridftp, apache, _nfs) = paper_testbed();
        let mut rec = RecoveryConfig::default();
        gridftp_down(&mut rec, gridftp, 4, 120);
        rec.replicas = mirrored_replicas(8, gridftp, apache);
        let (stats, _c) = run_with_recovery(8, 40_000_000, rec, |cfg| cfg.seed = 3);
        assert!(stats.success, "failover must keep the workflow alive");
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.host_crashes, 1);
        assert!(report.flows_killed > 0, "the crash lands mid-staging");
        let failovers = report.replica_failovers;
        assert!(failovers > 0, "killed transfers re-plan onto the mirror");
        // The run finished well before the crashed host's restart: recovery
        // did not wait out the 120 s downtime.
        let makespan = stats.makespan_secs();
        assert!(
            makespan < 120.0,
            "makespan {makespan} should beat the restart"
        );
        // Failed-over flows really came from the mirror host.
        assert!(stats.transfers.iter().any(|t| t.src == apache));
    }

    #[test]
    fn host_crash_with_no_mirror_waits_for_restart() {
        let (_t, gridftp, _a, _n) = paper_testbed();
        let mut rec = RecoveryConfig::default();
        gridftp_down(&mut rec, gridftp, 4, 60);
        // No alternates: the only copy lives on the crashed host.
        let (stats, _c) = run_with_recovery(6, 40_000_000, rec, |cfg| cfg.seed = 5);
        assert!(stats.success, "parked retries resume after restart");
        let report = stats.recovery.as_ref().expect("recovery report");
        assert!(report.flows_killed > 0);
        assert!(report.waits_for_restart > 0, "no mirror: retries must park");
        let makespan = stats.makespan_secs();
        assert!(
            makespan > 64.0,
            "makespan {makespan} must include the downtime"
        );
    }

    #[test]
    fn naive_retries_stall_on_a_crashed_host_until_its_restart() {
        // No health reports and no link fault from the caller: the crash
        // window alone takes the host's access link down, so six 4 MB
        // inputs, seconds of WAN time, land only after the restart at 64 s.
        let (_t, gridftp, _a, _n) = paper_testbed();
        let mut rec = RecoveryConfig::default();
        rec.report_health = false;
        gridftp_down(&mut rec, gridftp, 4, 60);
        let (stats, _c) = run_with_recovery(6, 4_000_000, rec, |cfg| cfg.seed = 5);
        assert!(stats.success);
        assert!(
            stats.recovery.unwrap().flows_killed > 0,
            "the crash lands mid-staging"
        );
        let (down, up) = (SimTime::from_secs(4), SimTime::from_secs(64));
        let crossed = |t: &&pwm_net::TransferRecord| t.completed_at > down && t.completed_at < up;
        assert_eq!(stats.transfers.iter().filter(crossed).count(), 0);
    }

    #[test]
    fn node_crash_requeues_running_compute_jobs() {
        let mut rec = RecoveryConfig::default();
        // Staging of 12 x 1 MB finishes around t=7 s and the 5 s computes
        // run from there; crash a node mid-compute.
        crash(&mut rec, CrashTarget::ComputeNode(0), 9, 15);
        let (stats, _c) = run_with_recovery(12, 1_000_000, rec, |cfg| cfg.seed = 7);
        assert!(stats.success);
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.host_crashes, 1);
        assert!(report.compute_reruns > 0, "jobs ran at the crash instant");
        // Victims re-queue only at restart, so the makespan covers it.
        assert!(stats.makespan_secs() > 20.0);
    }

    /// A traced run of 24 one-megabyte jobs on two 6-core nodes. With
    /// `crashes`, node 0 goes down at 3 s (before any compute starts) and
    /// node 1 at 9 s (mid-compute), each for 20 s.
    fn two_node_run(crashes: bool) -> (RunStats, Vec<TraceEvent>) {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = obelix(2, nfs);
        let p = wide_plan(24, 1_000_000, &site, gridftp, true);
        let controller = PolicyController::new(PolicyConfig::default());
        let obs = Obs::new();
        let mut cfg = seeded(7);
        cfg.obs = Some(obs.clone());
        let mut rec = RecoveryConfig::default();
        for (node, at) in [(0, 3), (1, 9)].into_iter().filter(|_| crashes) {
            crash(&mut rec, CrashTarget::ComputeNode(node), at, 20);
        }
        cfg.recovery = Some(rec);
        let network = Network::new(topo, StreamModel::default());
        let exec = WorkflowExecutor::new(&p, &site, network, piped(&controller), cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);
        (stats, obs.tracer.events())
    }

    #[test]
    fn node_crash_withholds_the_whole_node() {
        // While node 0 is down only node 1's six cores run compute, even
        // though node 0 was idle when it crashed.
        let (stats, events) = two_node_run(true);
        assert!(stats.recovery.unwrap().compute_reruns > 0);
        let spans: Vec<(SimTime, SimTime)> = events
            .iter()
            .filter(|e| e.cat == "compute")
            .map(|e| (e.start, e.start + e.dur.unwrap()))
            .collect();
        let (from, to) = (SimTime::from_secs(3), SimTime::from_secs(23));
        let peak = spans
            .iter()
            .map(|&(start, _)| start.max(from))
            .filter(|&t| t < to)
            .map(|t| spans.iter().filter(|&&(s, e)| s <= t && t < e).count())
            .max();
        assert_eq!(peak, Some(6), "12 slots − 6 cores of the crashed node");
    }

    #[test]
    fn node_crash_ends_killed_attempt_spans() {
        let (_stats, events) = two_node_run(true);
        let job_cats = ["compute", "stage_in", "stage_out", "cleanup"];
        let jobs = events.iter().filter(|e| job_cats.contains(&e.cat.as_str()));
        for e in jobs {
            assert!(
                e.args.iter().any(|(k, _)| k == "state"),
                "{e:?} has no state"
            );
        }
        let killed = ("state".to_string(), "killed".to_string());
        assert!(events.iter().any(|e| e.args.contains(&killed)));
    }

    #[test]
    fn node_crash_frees_killed_outputs() {
        // A killed attempt's outputs leave scratch; the re-run writes them
        // once more.
        let (crashed, _) = two_node_run(true);
        let (calm, _) = two_node_run(false);
        assert_eq!(crashed.final_scratch_bytes, calm.final_scratch_bytes);
        assert!(crashed.makespan > calm.makespan);
    }

    #[test]
    fn corruption_strikes_quarantine_and_fail_over() {
        let (_t, gridftp, apache, _n) = paper_testbed();
        let mut rec = RecoveryConfig::default();
        rec.corruption.set_host_prob("gridftp-vm", 1.0);
        rec.quarantine_strikes = 2;
        rec.replicas = mirrored_replicas(4, gridftp, apache);
        let (stats, _c) = run_with_recovery(4, 2_000_000, rec, |cfg| cfg.seed = 13);
        assert!(stats.success);
        let report = stats.recovery.as_ref().expect("recovery report");
        // Every file: 2 corrupt reads → quarantine → mirror.
        assert_eq!(report.corrupt_reads, 8, "two strikes per file");
        assert_eq!(report.quarantines, 4);
        assert_eq!(report.replica_failovers, 4);
        assert_eq!(report.producer_reruns, 0, "the mirror is clean");
        // Exactly one clean copy of each file was counted.
        assert!((stats.bytes_staged - 8_000_000.0).abs() < 1.0);
    }

    #[test]
    fn corruption_with_no_mirror_heals_via_producer_rerun() {
        let mut rec = RecoveryConfig::default();
        rec.corruption.set_host_prob("gridftp-vm", 1.0);
        rec.quarantine_strikes = 1;
        let (stats, _c) = run_with_recovery(3, 1_000_000, rec, |cfg| cfg.seed = 17);
        assert!(stats.success, "regenerated files read clean");
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.producer_reruns, 3, "one regeneration per file");
        assert_eq!(report.replica_failovers, 0, "nowhere to fail over to");
        assert!((stats.bytes_staged - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn naive_retry_grinds_through_transient_corruption() {
        let mut rec = RecoveryConfig::default();
        rec.corruption.set_host_prob("gridftp-vm", 0.5);
        rec.report_health = false; // naive: no health reports, no re-planning
        let (stats, _c) = run_with_recovery(6, 1_000_000, rec, |cfg| cfg.seed = 19);
        assert!(
            stats.success,
            "per-attempt independence guarantees progress"
        );
        let report = stats.recovery.as_ref().expect("recovery report");
        assert!(report.corrupt_reads > 0, "p=0.5 must corrupt something");
        assert_eq!(report.health_reports, 0, "naive mode stays silent");
        assert_eq!(report.replica_failovers, 0);
        assert_eq!(report.producer_reruns, 0);
    }

    #[test]
    fn backend_outage_steers_placement_away() {
        // The cheapest backend goes down before the run starts; policy
        // placement must route every staged byte elsewhere.
        let (stats, layer) = storage_run(5, 5_000_000, |layer, cfg| {
            let mut rec = RecoveryConfig::default();
            let target = CrashTarget::Backend {
                backend: "nfs-std".into(),
                host: layer.backend("nfs-std").expect("trio has nfs-std").host,
            };
            rec.faults
                .add(SimTime::ZERO, SimDuration::from_secs(10_000), target);
            cfg.recovery = Some(rec);
        });
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.backend_outages, 1);
        // The run finishes inside the outage window, so only the "down"
        // report is guaranteed to have fired.
        assert!(report.health_reports >= 1, "BackendDown reported");
        // Not a byte landed on the downed backend.
        let storage = stats.storage.as_ref().expect("metered");
        assert_eq!(storage.backend("nfs-std").unwrap().bytes_put, 0.0);
        let nfs_std_host = layer.backend("nfs-std").unwrap().host;
        assert!(stats.transfers.iter().all(|t| t.dst != nfs_std_host));
    }

    #[test]
    fn halt_checkpoint_resume_skips_finished_work() {
        let mut cfg = seeded(23);
        let (full, _net, _c) = run_with_policy(8, 20_000_000, PolicyConfig::default(), cfg.clone());
        assert!(full.success);

        // Same setup, but the site "crashes" mid-run: halt, checkpoint,
        // then resume against the same policy controller.
        let (network, site, p) = testbed(8, 20_000_000);
        let controller = PolicyController::new(PolicyConfig::default());
        let mut halting = cfg.clone();
        // The 8 WAN flows fair-share the bottleneck and all finish around
        // 85% of the makespan; halt just after, mid-compute, so the
        // checkpoint holds the stage-in frontier.
        halting.halt_at = Some(SimTime::from_secs_f64(full.makespan_secs() * 0.92));
        let exec = WorkflowExecutor::new(&p, &site, network, piped(&controller), halting);
        let (halted, _net, cp) = exec.run_checkpointed();
        assert!(!halted.success, "halted mid-DAG");
        assert!(!cp.is_empty(), "something completed before the halt");
        assert!(cp.completed_jobs.len() < p.len());

        let network = Network::new(paper_testbed().0, StreamModel::default());
        cfg.resume_from = Some(cp);
        let exec = WorkflowExecutor::new(&p, &site, network, piped(&controller), cfg);
        let (resumed, _net) = exec.run();
        assert!(resumed.success, "resume completes the remaining frontier");
        // Finished jobs did not re-run and already-staged files were
        // deduplicated by the shared policy memory.
        let (after, before) = (resumed.bytes_staged, full.bytes_staged);
        assert!(after < before, "resumed {after} vs full {before}");
        assert!(resumed.staging_jobs <= full.staging_jobs);
    }

    #[test]
    fn recovery_runs_are_deterministic_per_seed() {
        let (_t, gridftp, apache, _n) = paper_testbed();
        let mk = |seed| {
            let mut rec = RecoveryConfig::default();
            rec.corruption.set_host_prob("gridftp-vm", 0.4);
            gridftp_down(&mut rec, gridftp, 5, 30);
            rec.replicas = mirrored_replicas(6, gridftp, apache);
            run_with_recovery(6, 10_000_000, rec, |cfg| cfg.seed = seed).0
        };
        let a = mk(31);
        let b = mk(31);
        assert_eq!(a, b, "same seed, same faults, same run — bit for bit");
        assert!(a.success);
        assert_ne!(mk(32), a, "a different seed perturbs the run");
    }

    #[test]
    fn compute_slots_bound_parallelism() {
        // 1 node × 1 core: 4 compute jobs of 5 s, each jittered by at most
        // 15 %, must serialize ≥ 4 × 5 × 0.85 = 17 s.
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let mut site = obelix(1, nfs);
        site.cores_per_node = 1;
        let p = wide_plan(4, 1_000, &site, gridftp, true);
        let transport = Box::new(NoPolicyTransport::new(4));
        let cfg = ExecutorConfig::default();
        let network = Network::new(topo, StreamModel::default());
        let (stats, _net) = WorkflowExecutor::new(&p, &site, network, transport, cfg).run();
        assert!(stats.success);
        let makespan = stats.makespan_secs();
        let floor = 4.0 * 5.0 * (1.0 - RUNTIME_JITTER);
        assert!(
            makespan >= floor,
            "makespan {makespan} < serialized compute"
        );
    }
}
