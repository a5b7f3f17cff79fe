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

use crate::catalog::ComputeSite;
use crate::planner::{ExecutablePlan, PlanJobKind, PlannedTransfer};
use crate::policy_port::PolicyPort;
use crate::recovery::{Checkpoint, CrashTarget, RecoveryConfig, RecoveryReport};
use crate::stats::RunStats;
use pwm_core::chaos::SharedSimClock;
use pwm_core::transport::PolicyTransport;
use pwm_core::{
    CleanupOutcome, CleanupSpec, ClusterId, HealthEvent, Name, SuppressReason, TransferAction,
    TransferAdvice, TransferOutcome, TransferSpec, Url, WorkflowId,
};
use pwm_net::{FlowSpec, LinkId, Network};
use pwm_obs::{Obs, SpanId};
use pwm_sim::{LadderQueue, SimDuration, SimRng, SimTime};
use pwm_storage::{BackendSpec, CostMeter, StorageLayer};
use std::collections::{BinaryHeap, HashMap};

/// Wiring between policy backend advice and an installed [`StorageLayer`]:
/// resolves advised backend names to store hosts, charges each backend's
/// per-request setup on the flow, and meters the run in dollars.
///
/// Build the layer with [`StorageLayer::install`] on the topology *before*
/// constructing the [`Network`], then hand the layer here.
#[derive(Debug, Clone)]
pub struct StorageRuntime {
    layer: StorageLayer,
    meter: CostMeter,
}

impl StorageRuntime {
    /// Meter the backends of `layer`, starting the residency clock at zero.
    pub fn new(layer: StorageLayer) -> Self {
        let specs: Vec<BackendSpec> = layer.backends().map(|b| b.spec.clone()).collect();
        let meter = CostMeter::new(&specs);
        StorageRuntime { layer, meter }
    }

    /// The installed layer (host/link/spec per backend).
    pub fn layer(&self) -> &StorageLayer {
        &self.layer
    }
}

/// A staged flow redirected to a storage backend, keyed by flow tag until
/// the network reports completion.
#[derive(Debug, Clone)]
struct StagedFlow {
    backend: String,
    bytes: u64,
    /// Destination URL — the key cleanup jobs will delete by.
    dest: Url,
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
    /// Multiplicative jitter applied to compute runtimes (±fraction).
    pub runtime_jitter: f64,
    /// One policy-service REST round-trip.
    pub policy_call_latency: SimDuration,
    /// Staging-job startup overhead (scheduling + transfer-tool init); this
    /// is the per-job overhead that task clustering amortizes (paper Fig. 2).
    pub job_init_overhead: SimDuration,
    /// Gap between serial transfers within one staging job.
    pub inter_transfer_gap: SimDuration,
    /// Duration of a cleanup job's file deletions.
    pub cleanup_duration: SimDuration,
    /// Probability an executed transfer fails (failure injection).
    pub transfer_failure_prob: f64,
    /// Probability a *failed* transfer is fatal (non-transient: a missing
    /// source file, a permission error). Fatal failures are not retried —
    /// the staging job reports `Failed` immediately.
    pub fatal_failure_prob: f64,
    /// Streams per transfer when the executor falls back to executing its
    /// submitted list because the policy service is unreachable. The
    /// paper's fail-safe used 1; chaos scenarios set this to the site's
    /// default streams so an outage degrades to default-stream advice.
    pub fallback_streams: u32,
    /// First retry's extra delay (beyond the policy round-trip).
    pub retry_backoff_base: SimDuration,
    /// Multiplier applied to the backoff per additional attempt.
    pub retry_backoff_factor: f64,
    /// Upper bound on the exponential backoff delay.
    pub retry_backoff_cap: SimDuration,
    /// Multiplicative seeded jitter (±fraction) on each backoff delay, so
    /// retry storms decorrelate without losing determinism.
    pub retry_jitter: f64,
    /// When set, the executor publishes its virtual clock here each
    /// scheduling step, so time-windowed fault injectors (e.g.
    /// `pwm_core::chaos::ChaosTransport`) deep in the transport chain see
    /// the current simulation time.
    pub clock: Option<SharedSimClock>,
    /// Workflow identity presented to the policy service.
    pub workflow_id: WorkflowId,
    /// Link whose peak concurrent streams are reported in the run stats
    /// (the WAN bottleneck for the Table IV cross-check).
    pub watch_link: Option<LinkId>,
    /// Also record a utilization timeline on `watch_link` (retrieve it from
    /// the returned [`Network`] after the run).
    pub watch_timeline: bool,
    /// Max concurrent cleanup jobs (DAGMan category throttle); `None` =
    /// unlimited, matching Pegasus' default cleanup category.
    pub cleanup_job_limit: Option<usize>,
    /// Policy-aware storage staging. When set, transfer advice carrying a
    /// backend name redirects the staged flow to that backend's store host
    /// (paying its per-request overhead as extra connection setup) and the
    /// run's storage dollars are metered into [`RunStats::storage`]. `None`
    /// leaves every flow byte-identical to the pre-storage-layer executor.
    pub storage: Option<StorageRuntime>,
    /// Observability sinks. When set, the executor emits job / advice-RPC /
    /// transfer / retry-backoff spans onto the tracer (all timestamps are
    /// sim time, so same-seed runs export identical traces), publishes job
    /// lifecycle counters, and attaches the same handle to the network so
    /// flow spans nest under their transfer spans.
    pub obs: Option<Obs>,
    /// The recovery plane: fault schedules, the integrity model, and the
    /// re-planning knobs (see [`crate::recovery`]). `None` — or an inert
    /// config — leaves the event stream byte-identical to a build without
    /// the plane.
    pub recovery: Option<RecoveryConfig>,
    /// Modeled wall time for a producer re-run when corruption survives
    /// with no clean replica (the regenerated file's next read is clean).
    pub producer_rerun_delay: SimDuration,
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
            runtime_jitter: 0.15,
            policy_call_latency: SimDuration::from_millis(150),
            job_init_overhead: SimDuration::from_secs(2),
            inter_transfer_gap: SimDuration::from_millis(100),
            cleanup_duration: SimDuration::from_millis(500),
            transfer_failure_prob: 0.0,
            fatal_failure_prob: 0.0,
            fallback_streams: 1,
            retry_backoff_base: SimDuration::from_millis(500),
            retry_backoff_factor: 2.0,
            retry_backoff_cap: SimDuration::from_secs(30),
            retry_jitter: 0.1,
            clock: None,
            workflow_id: WorkflowId(0),
            watch_link: None,
            watch_timeline: false,
            cleanup_job_limit: None,
            storage: None,
            obs: None,
            recovery: None,
            producer_rerun_delay: SimDuration::from_secs(30),
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
    /// A scheduled crash fires (index into `RecoveryConfig::crashes`).
    CrashStart(usize),
    /// The crashed target restarts.
    CrashEnd(usize),
    /// A storage-backend outage begins (index into
    /// `RecoveryConfig::backend_outages`).
    OutageStart(usize),
    /// The backend recovers.
    OutageEnd(usize),
    /// Cleanup advice arrives → perform deletions.
    CleanupAdvice(usize),
    /// Cleanup deletions done → report and finish.
    CleanupWorkDone(usize),
    /// Final callout (completion report) done → job complete.
    JobFinish(usize),
}

struct StagingRun {
    /// Specs submitted, aligned with the planned transfer list.
    specs: Vec<TransferSpec>,
    /// Map (source, dest) → planned transfer index, for advice → flow
    /// resolution.
    by_urls: HashMap<(Url, Url), usize>,
    advice: Vec<TransferAdvice>,
    next_advice: usize,
    outcomes: Vec<TransferOutcome>,
    attempts_left: u32,
    skipped: usize,
    /// Advice index awaiting re-evaluation after a failure.
    retrying: Option<usize>,
    /// Times each advice entry's transfer was actually executed (drives the
    /// integrity model's per-attempt independence and corruption backoff).
    exec_attempts: HashMap<usize, u32>,
    /// Replica-failover source overrides: spec index → network host of the
    /// alternate replica (the spec's URL is rewritten alongside).
    src_hosts: HashMap<usize, pwm_net::HostId>,
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
    staging_in_flight: usize,
    cleanup_in_flight: usize,
    staging_runs: HashMap<usize, StagingRun>,
    cleanup_advice: HashMap<usize, Vec<pwm_core::CleanupAdvice>>,
    /// flow tag → (job, advice index)
    flow_owner: HashMap<u64, (usize, usize)>,
    next_tag: u64,
    /// flow tag → backend redirection in flight.
    storage_flows: HashMap<u64, StagedFlow>,
    /// dest URL → (backend, bytes) for files resident on a backend, so
    /// cleanup jobs can end their residency in the cost meter.
    staged_on_backend: HashMap<Url, (String, u64)>,

    // recovery plane (all empty/untouched when `rec_active` is false)
    /// True when `config.recovery` is present and not inert — the single
    /// gate on every recovery branch, so inert configs cost nothing.
    rec_active: bool,
    recovery: RecoveryReport,
    /// Per-compute-job attempt epoch; bumped when a node crash kills the
    /// running attempt so the stale `ComputeDone` is ignored.
    compute_epoch: Vec<u32>,
    /// Compute jobs killed by crash `i`, re-queued when the node restarts.
    crash_requeue: HashMap<usize, Vec<usize>>,
    /// Host name → scheduled restart instant, while the host is down.
    down_hosts: HashMap<Name, SimTime>,
    /// Checksum strikes per (source host, source path).
    strikes: HashMap<(Name, Name), u32>,
    /// Producer-re-run generation per logical file (generation > 0 reads
    /// clean).
    file_generation: HashMap<Name, u32>,
    cores_per_node: u32,
    /// Set when `halt_at` stopped the loop before the DAG finished.
    halted: bool,

    // observability bookkeeping (all None/empty without config.obs)
    job_spans: Vec<Option<SpanId>>,
    /// flow tag → transfer span.
    transfer_spans: HashMap<u64, SpanId>,
    /// job → when its in-flight policy callout was issued.
    rpc_started: HashMap<usize, SimTime>,

    // stats accumulation
    stats_transfers: Vec<pwm_net::TransferRecord>,
    bytes_staged: f64,
    transfers_skipped: usize,
    transfer_retries: u64,
    compute_core_seconds: f64,
    jobs_done: usize,
    jobs_failed: usize,
    jobs_abandoned: usize,
    staging_jobs_run: usize,
    cleanup_jobs_run: usize,
    scratch_bytes: f64,
    peak_scratch_bytes: f64,
}

impl<'p> WorkflowExecutor<'p> {
    /// Build an executor for `plan` on `site`, moving data over `network`
    /// and consulting the policy service via `transport`.
    pub fn new(
        plan: &'p ExecutablePlan,
        site: &ComputeSite,
        network: Network,
        transport: Box<dyn PolicyTransport>,
        config: ExecutorConfig,
    ) -> Self {
        let n = plan.len();
        let rng = SimRng::for_component(config.seed, "executor");
        let mut network = network;
        if config.watch_timeline {
            if let Some(link) = config.watch_link {
                network.watch_link(link);
            }
        }
        let mut config = config;
        if let Some(obs) = &config.obs {
            // Share the tracer with the network so flow spans can nest
            // under the executor's transfer spans.
            network.set_obs(obs.clone());
            if let Some(storage) = &mut config.storage {
                storage.meter.attach_obs(obs);
            }
        }
        let mut exec = WorkflowExecutor {
            plan,
            policy: PolicyPort::new(transport, config.fallback_streams, config.obs.clone()),
            network,
            events: LadderQueue::new(),
            now: SimTime::ZERO,
            rng,
            state: vec![JobState::Waiting; n],
            pending_parents: plan.jobs().iter().map(|j| j.parents.len()).collect(),
            ready_compute: ReadyQueue::default(),
            ready_staging: ReadyQueue::default(),
            ready_cleanup: ReadyQueue::default(),
            compute_slots_free: site.slots(),
            staging_in_flight: 0,
            cleanup_in_flight: 0,
            staging_runs: HashMap::new(),
            cleanup_advice: HashMap::new(),
            flow_owner: HashMap::new(),
            next_tag: 0,
            storage_flows: HashMap::new(),
            staged_on_backend: HashMap::new(),
            rec_active: false,
            recovery: RecoveryReport::default(),
            compute_epoch: vec![0; n],
            crash_requeue: HashMap::new(),
            down_hosts: HashMap::new(),
            strikes: HashMap::new(),
            file_generation: HashMap::new(),
            cores_per_node: site.cores_per_node,
            halted: false,
            job_spans: vec![None; n],
            transfer_spans: HashMap::new(),
            rpc_started: HashMap::new(),
            stats_transfers: Vec::new(),
            bytes_staged: 0.0,
            transfers_skipped: 0,
            transfer_retries: 0,
            compute_core_seconds: 0.0,
            jobs_done: 0,
            jobs_failed: 0,
            jobs_abandoned: 0,
            staging_jobs_run: 0,
            cleanup_jobs_run: 0,
            scratch_bytes: 0.0,
            peak_scratch_bytes: 0.0,
            config,
        };
        if let Some(clock) = &exec.config.clock {
            clock.set(SimTime::ZERO);
        }
        exec.rec_active = exec.config.recovery.as_ref().is_some_and(|r| !r.is_inert());
        if exec.rec_active {
            // Fault windows become plain events: the loop's time driver
            // delivers them in order with everything else, so two same-seed
            // runs see identical interleavings.
            let rec = exec.config.recovery.as_ref().expect("recovery config");
            let crash_times: Vec<(SimTime, SimTime)> =
                rec.crashes.iter().map(|c| (c.at, c.up_at())).collect();
            let outage_times: Vec<(SimTime, SimTime)> = rec
                .backend_outages
                .iter()
                .map(|o| (o.from, o.up_at()))
                .collect();
            for (i, (start, end)) in crash_times.into_iter().enumerate() {
                exec.events.schedule_at(start, Ev::CrashStart(i));
                exec.events.schedule_at(end, Ev::CrashEnd(i));
            }
            for (i, (start, end)) in outage_times.into_iter().enumerate() {
                exec.events.schedule_at(start, Ev::OutageStart(i));
                exec.events.schedule_at(end, Ev::OutageEnd(i));
            }
        }
        // Resume: jobs completed before the halt start as Done, so only the
        // unfinished frontier re-runs.
        if let Some(cp) = exec.config.resume_from.clone() {
            let done: std::collections::HashSet<&str> =
                cp.completed_jobs.iter().map(Name::as_str).collect();
            for i in 0..n {
                if done.contains(exec.plan.jobs()[i].name.as_str()) {
                    exec.state[i] = JobState::Done;
                    exec.jobs_done += 1;
                    for child in &plan.jobs()[i].children {
                        exec.pending_parents[child.0] -= 1;
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
    pub fn run(self) -> (RunStats, Network) {
        let (stats, network, _cp) = self.run_checkpointed();
        (stats, network)
    }

    /// Like [`WorkflowExecutor::run`], additionally returning the
    /// [`Checkpoint`] of the completed-job frontier — the resume token when
    /// [`ExecutorConfig::halt_at`] stopped the run mid-DAG (and simply the
    /// full job list when it ran to completion).
    pub fn run_checkpointed(mut self) -> (RunStats, Network, Checkpoint) {
        let total = self.plan.len();
        loop {
            // With fault events scheduled past the DAG's completion, the
            // loop must not sit out a dangling restart window: once every
            // job is terminal nothing can change.
            if self.rec_active && self.jobs_done + self.jobs_failed + self.jobs_abandoned == total {
                break;
            }
            self.schedule_ready();
            let tq = self.events.peek_time();
            let tn = self.network.next_wakeup();
            let t = match (tq, tn) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if let Some(halt) = self.config.halt_at {
                if t > halt {
                    self.now = halt;
                    self.halted = true;
                    break;
                }
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
            self.network.advance(t);
            self.drain_network_completions();
            if let Some((_, ev)) = self.events.pop_until(t) {
                self.handle_event(ev);
            }
        }

        self.policy.close_window();
        let finished = self.jobs_done + self.jobs_failed + self.jobs_abandoned;
        debug_assert!(
            finished == total || self.halted,
            "executor stalled with jobs outstanding"
        );
        let checkpoint = Checkpoint {
            completed_jobs: (0..total)
                .filter(|&i| self.state[i] == JobState::Done)
                .map(|i| self.plan.jobs()[i].name.clone())
                .collect(),
            taken_at: self.now,
        };
        let storage = self
            .config
            .storage
            .as_mut()
            .map(|rt| rt.meter.report(self.now));
        let stats = RunStats {
            makespan: self.now.since(SimTime::ZERO),
            success: self.jobs_failed == 0 && self.jobs_abandoned == 0 && finished == total,
            compute_jobs: self
                .plan
                .count_jobs(|j| matches!(j.kind, PlanJobKind::Compute { .. })),
            staging_jobs: self.staging_jobs_run,
            cleanup_jobs: self.cleanup_jobs_run,
            bytes_staged: self.bytes_staged,
            transfers: std::mem::take(&mut self.stats_transfers),
            transfers_skipped: self.transfers_skipped,
            transfer_retries: self.transfer_retries,
            failed_jobs: self.jobs_failed,
            policy_calls: self.policy.calls(),
            compute_core_seconds: self.compute_core_seconds,
            peak_wan_streams: self.config.watch_link.map(|l| self.network.peak_streams(l)),
            peak_scratch_bytes: self.peak_scratch_bytes,
            final_scratch_bytes: self.scratch_bytes,
            finished_at: self.now,
            storage,
            recovery: self.rec_active.then(|| std::mem::take(&mut self.recovery)),
        };
        (stats, self.network, checkpoint)
    }

    /// The job's kind as a metric label / trace category value.
    fn job_kind(&self, job: usize) -> &'static str {
        match self.plan.jobs()[job].kind {
            PlanJobKind::Compute { .. } => "compute",
            PlanJobKind::StageIn { .. } => "stage_in",
            PlanJobKind::StageOut { .. } => "stage_out",
            PlanJobKind::Cleanup { .. } => "cleanup",
        }
    }

    /// Open the job's lifecycle trace span (no-op without observability).
    fn open_job_span(&mut self, job: usize) {
        let Some(obs) = &self.config.obs else { return };
        let id = obs.tracer.start_span(
            self.plan.jobs()[job].name.as_str(),
            self.job_kind(job),
            None,
            self.now,
        );
        self.job_spans[job] = Some(id);
    }

    /// Close the job's span and count its terminal state.
    fn close_job_span(&mut self, job: usize, state: &str) {
        let Some(obs) = &self.config.obs else { return };
        if let Some(id) = self.job_spans[job].take() {
            obs.tracer.span_arg(id, "state", state);
            obs.tracer.end_span(id, self.now);
        }
        obs.registry
            .counter(
                "pwm_workflow_jobs_total",
                "Jobs reaching a terminal state, by kind and state",
                &[("kind", self.job_kind(job)), ("state", state)],
            )
            .inc();
    }

    /// Record the advice round-trip that just landed as a span under the
    /// job's span (no-op without observability or a recorded callout start).
    fn close_rpc_span(&mut self, job: usize, name: &'static str) {
        let Some(obs) = &self.config.obs else { return };
        if let Some(started) = self.rpc_started.remove(&job) {
            obs.tracer.complete_span(
                name,
                "policy_rpc",
                self.job_spans[job],
                started,
                self.now,
                &[("job", self.plan.jobs()[job].name.to_string())],
            );
        }
    }

    /// Count a fail-safe fallback (policy service unreachable) and mark it
    /// on the trace.
    fn note_fallback(&mut self, job: usize) {
        let Some(obs) = &self.config.obs else { return };
        obs.registry
            .counter(
                "pwm_workflow_policy_fallbacks_total",
                "Callouts answered by the fail-safe fallback because the service was unreachable",
                &[],
            )
            .inc();
        obs.tracer.instant(
            "policy_fallback",
            "policy_rpc",
            self.now,
            &[("job", self.plan.jobs()[job].name.to_string())],
        );
    }

    /// Un-jittered delay before retry number `attempt` (1-based): the base,
    /// multiplied by the factor per further attempt, capped.
    fn retry_backoff(&self, attempt: u32) -> SimDuration {
        self.config
            .retry_backoff_base
            .mul_f64(
                self.config
                    .retry_backoff_factor
                    .max(1.0)
                    .powi(attempt.saturating_sub(1) as i32),
            )
            .min(self.config.retry_backoff_cap)
    }

    fn mark_ready(&mut self, job: usize) {
        debug_assert_eq!(self.state[job], JobState::Waiting);
        self.state[job] = JobState::Ready;
        let priority = self.plan.job(crate::planner::PlanJobId(job)).priority;
        match self.plan.jobs()[job].kind {
            PlanJobKind::Compute { .. } => self.ready_compute.push(priority, job),
            PlanJobKind::StageIn { .. } | PlanJobKind::StageOut { .. } => {
                self.ready_staging.push(priority, job)
            }
            PlanJobKind::Cleanup { .. } => self.ready_cleanup.push(priority, job),
        }
    }

    fn schedule_ready(&mut self) {
        // Compute jobs take cores.
        while self.compute_slots_free > 0 {
            let Some(job) = self.ready_compute.pop() else {
                break;
            };
            self.compute_slots_free -= 1;
            self.state[job] = JobState::Running;
            self.open_job_span(job);
            let (runtime_s, output_bytes) = match &self.plan.jobs()[job].kind {
                PlanJobKind::Compute {
                    runtime_s,
                    output_bytes,
                    ..
                } => (*runtime_s, *output_bytes),
                _ => unreachable!("compute queue held a non-compute job"),
            };
            // Outputs land on scratch while the job runs; account at start
            // (conservative for peak usage).
            self.grow_scratch(output_bytes as f64);
            let actual = runtime_s * self.rng.jitter(self.config.runtime_jitter);
            self.compute_core_seconds += actual;
            self.events.schedule_at(
                self.now + SimDuration::from_secs_f64(actual),
                Ev::ComputeDone(job, self.compute_epoch[job]),
            );
        }
        // Staging jobs respect the local job limit.
        while self.staging_in_flight < self.config.staging_job_limit {
            let Some(job) = self.ready_staging.pop() else {
                break;
            };
            self.staging_in_flight += 1;
            self.state[job] = JobState::Running;
            self.open_job_span(job);
            self.staging_jobs_run += 1;
            self.events.schedule_at(
                self.now + self.config.job_init_overhead,
                Ev::StagingInit(job),
            );
        }
        // Cleanup jobs are lightweight local jobs, optionally throttled by a
        // DAGMan-style category limit.
        loop {
            if let Some(limit) = self.config.cleanup_job_limit {
                if self.cleanup_in_flight >= limit {
                    break;
                }
            }
            let Some(job) = self.ready_cleanup.pop() else {
                break;
            };
            self.cleanup_in_flight += 1;
            self.state[job] = JobState::Running;
            self.open_job_span(job);
            self.cleanup_jobs_run += 1;
            self.rpc_started.insert(job, self.now);
            self.events.schedule_at(
                self.now + self.config.policy_call_latency,
                Ev::CleanupAdvice(job),
            );
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::StagingInit(job) => {
                let transfers = self.planned_transfers(job);
                let cluster = match &self.plan.jobs()[job].kind {
                    PlanJobKind::StageIn { cluster, .. } => *cluster,
                    _ => None,
                };
                let priority = self.plan.jobs()[job].priority;
                let workflow = self.plan.jobs()[job]
                    .workflow
                    .unwrap_or(self.config.workflow_id);
                let specs: Vec<TransferSpec> = transfers
                    .iter()
                    .map(|pt| TransferSpec {
                        source: pt.source.clone(),
                        dest: pt.dest.clone(),
                        bytes: pt.bytes,
                        requested_streams: None,
                        workflow,
                        cluster: cluster.map(ClusterId),
                        priority: Some(priority),
                    })
                    .collect();
                let by_urls: HashMap<(Url, Url), usize> = transfers
                    .iter()
                    .enumerate()
                    .map(|(i, pt)| ((pt.source.clone(), pt.dest.clone()), i))
                    .collect();
                self.staging_runs.insert(
                    job,
                    StagingRun {
                        specs,
                        by_urls,
                        advice: Vec::new(),
                        next_advice: 0,
                        outcomes: Vec::new(),
                        attempts_left: self.config.retries,
                        skipped: 0,
                        retrying: None,
                        exec_attempts: HashMap::new(),
                        src_hosts: HashMap::new(),
                    },
                );
                // The callout happens now; the advice lands after a
                // round-trip.
                self.rpc_started.insert(job, self.now);
                self.events.schedule_at(
                    self.now + self.config.policy_call_latency,
                    Ev::StagingAdvice(job),
                );
            }
            Ev::StagingAdvice(job) => {
                self.close_rpc_span(job, "advice_rpc");
                let run = self.staging_runs.get_mut(&job).expect("staging run state");
                let (advice, fell_back) = self.policy.evaluate_transfers(&run.specs);
                run.advice = advice;
                if fell_back {
                    self.note_fallback(job);
                }
                self.start_next_transfer(job);
            }
            Ev::TransferStart(job) => self.start_next_transfer(job),
            Ev::RetryEvaluate(job) => {
                // The job may have failed fatally while this retry was in
                // flight; its run state is gone and there is nothing to do.
                let Some(run) = self.staging_runs.get_mut(&job) else {
                    return;
                };
                let Some(advice_ix) = run.retrying.take() else {
                    return;
                };
                let prior = &run.advice[advice_ix];
                let spec_ix = run.by_urls[&(prior.source.clone(), prior.dest.clone())];
                let spec = run.specs[spec_ix].clone();
                // Without a fresh answer the old advice is re-executed as-is.
                if let Some(fresh) = self.policy.reevaluate_transfer(spec) {
                    run.advice[advice_ix] = fresh;
                }
                run.next_advice = advice_ix;
                self.start_next_transfer(job);
            }
            Ev::ComputeDone(job, epoch) => {
                // A stale epoch means a node crash killed this attempt; the
                // job re-queues when the node restarts.
                if epoch != self.compute_epoch[job] {
                    return;
                }
                self.compute_slots_free += 1;
                self.finish_job(job);
            }
            Ev::CrashStart(i) => self.on_crash_start(i),
            Ev::CrashEnd(i) => self.on_crash_end(i),
            Ev::OutageStart(i) => self.on_outage_start(i),
            Ev::OutageEnd(i) => self.on_outage_end(i),
            Ev::CleanupAdvice(job) => {
                self.close_rpc_span(job, "cleanup_rpc");
                let PlanJobKind::Cleanup { files } = &self.plan.jobs()[job].kind else {
                    unreachable!("cleanup event for non-cleanup job")
                };
                let workflow = self.plan.jobs()[job]
                    .workflow
                    .unwrap_or(self.config.workflow_id);
                let specs: Vec<CleanupSpec> = files
                    .iter()
                    .map(|(file, _bytes)| CleanupSpec {
                        file: file.clone(),
                        workflow,
                    })
                    .collect();
                let (advice, fell_back) = self.policy.evaluate_cleanups(&specs);
                if fell_back {
                    self.note_fallback(job);
                }
                let any_work = advice.iter().any(|a| a.should_execute());
                self.cleanup_advice.insert(job, advice);
                let delay = if any_work {
                    self.config.cleanup_duration
                } else {
                    SimDuration::ZERO
                };
                self.events
                    .schedule_at(self.now + delay, Ev::CleanupWorkDone(job));
            }
            Ev::CleanupWorkDone(job) => {
                let advice = self.cleanup_advice.remove(&job).unwrap_or_default();
                // Free scratch space for the files actually deleted.
                if let PlanJobKind::Cleanup { files } = &self.plan.jobs()[job].kind {
                    let mut freed = 0.0;
                    for a in advice.iter().filter(|a| a.should_execute()) {
                        if let Some((_, bytes)) = files.iter().find(|(f, _)| *f == a.file) {
                            freed += *bytes as f64;
                        }
                    }
                    self.scratch_bytes = (self.scratch_bytes - freed).max(0.0);
                }
                // Deleted files stop accruing residency dollars.
                for a in advice.iter().filter(|a| a.should_execute()) {
                    if let Some((backend, bytes)) = self.staged_on_backend.remove(&a.file) {
                        if let Some(storage) = self.config.storage.as_mut() {
                            storage.meter.on_delete(&backend, bytes, self.now);
                        }
                    }
                }
                let outcomes: Vec<CleanupOutcome> = advice
                    .iter()
                    .filter(|a| a.should_execute())
                    .map(|a| CleanupOutcome {
                        id: a.id,
                        success: true,
                    })
                    .collect();
                if !outcomes.is_empty() {
                    self.policy.report_cleanups(outcomes);
                }
                self.events.schedule_at(
                    self.now + self.config.policy_call_latency,
                    Ev::JobFinish(job),
                );
            }
            Ev::JobFinish(job) => {
                match self.plan.jobs()[job].kind {
                    PlanJobKind::StageIn { .. } | PlanJobKind::StageOut { .. } => {
                        self.staging_in_flight -= 1;
                        self.staging_runs.remove(&job);
                    }
                    PlanJobKind::Cleanup { .. } => {
                        self.cleanup_in_flight -= 1;
                    }
                    PlanJobKind::Compute { .. } => {}
                }
                self.finish_job(job);
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery plane
    // ------------------------------------------------------------------

    /// Deliver health observations to the Policy Service (policy-guided
    /// mode only; naive-retry runs never report).
    fn report_health_events(&mut self, events: Vec<HealthEvent>) {
        let guided = self
            .config
            .recovery
            .as_ref()
            .is_some_and(|r| r.report_health);
        if !guided {
            return;
        }
        self.recovery.health_reports += 1;
        self.policy.report_health(events);
    }

    fn on_crash_start(&mut self, i: usize) {
        let crash = self
            .config
            .recovery
            .as_ref()
            .expect("recovery config")
            .crashes[i]
            .clone();
        self.recovery.host_crashes += 1;
        match crash.target {
            CrashTarget::ComputeNode(_) => {
                // The node's cores die with whatever was running on them:
                // pick victims deterministically (lowest job id first).
                let cores = self.cores_per_node as usize;
                let victims: Vec<usize> = (0..self.plan.len())
                    .filter(|&j| {
                        self.state[j] == JobState::Running
                            && matches!(self.plan.jobs()[j].kind, PlanJobKind::Compute { .. })
                    })
                    .take(cores)
                    .collect();
                for &j in &victims {
                    self.compute_epoch[j] += 1;
                    // The attempt is gone but its core stays dead (slot not
                    // freed) until the node restarts.
                    self.state[j] = JobState::Ready;
                    self.recovery.compute_reruns += 1;
                }
                self.crash_requeue.insert(i, victims);
            }
            CrashTarget::Host { host, name } => {
                let up_at = crash.at + crash.restart_after;
                self.down_hosts.insert(name.clone(), up_at);
                self.kill_flows_at(host);
                self.report_health_events(vec![HealthEvent::HostDown { host: name }]);
            }
        }
    }

    fn on_crash_end(&mut self, i: usize) {
        let crash = self
            .config
            .recovery
            .as_ref()
            .expect("recovery config")
            .crashes[i]
            .clone();
        match crash.target {
            CrashTarget::ComputeNode(_) => {
                for j in self.crash_requeue.remove(&i).unwrap_or_default() {
                    self.compute_slots_free += 1;
                    let priority = self.plan.jobs()[j].priority;
                    self.ready_compute.push(priority, j);
                }
            }
            CrashTarget::Host { name, .. } => {
                self.down_hosts.remove(&name);
                self.report_health_events(vec![HealthEvent::HostUp { host: name }]);
            }
        }
    }

    fn on_outage_start(&mut self, i: usize) {
        let outage = self
            .config
            .recovery
            .as_ref()
            .expect("recovery config")
            .backend_outages[i]
            .clone();
        self.recovery.backend_outages += 1;
        // Policy-guided: kill the doomed flows now and let re-planning
        // steer them to a live backend; the BackendDown fact removes the
        // backend from the selection candidates. Naive: flows stall on the
        // downed access link until the window ends.
        let guided = self
            .config
            .recovery
            .as_ref()
            .is_some_and(|r| r.report_health);
        if guided {
            self.kill_flows_at(outage.host);
            self.report_health_events(vec![HealthEvent::BackendDown {
                backend: outage.backend,
            }]);
        }
    }

    fn on_outage_end(&mut self, i: usize) {
        let outage = self
            .config
            .recovery
            .as_ref()
            .expect("recovery config")
            .backend_outages[i]
            .clone();
        self.report_health_events(vec![HealthEvent::BackendUp {
            backend: outage.backend,
        }]);
    }

    /// Kill every flow endpointed at `host` and route each victim into the
    /// transfer-failure path (no retry budget consumed — infrastructure
    /// faults are not the transfer's fault).
    fn kill_flows_at(&mut self, host: pwm_net::HostId) {
        let killed = self.network.kill_flows_touching(self.now, host);
        for k in killed {
            self.recovery.flows_killed += 1;
            let Some((job, advice_ix)) = self.flow_owner.remove(&k.tag) else {
                continue;
            };
            self.storage_flows.remove(&k.tag);
            if let Some(obs) = &self.config.obs {
                if let Some(span) = self.transfer_spans.remove(&k.tag) {
                    obs.tracer.span_arg(span, "result", "killed");
                    obs.tracer.end_span(span, self.now);
                }
            }
            self.infra_transfer_failure(job, advice_ix);
        }
    }

    /// A transfer died to infrastructure (killed flow / corrupt read):
    /// report the failure so the service clears its in-progress entry, then
    /// schedule a re-evaluation. Unlike injected transient failures this
    /// consumes no retry budget and draws no randomness.
    fn infra_transfer_failure(&mut self, job: usize, advice_ix: usize) {
        let Some(run) = self.staging_runs.get(&job) else {
            return;
        };
        let advice_id = run.advice[advice_ix].id;
        self.policy.report_transfers(vec![TransferOutcome {
            id: advice_id,
            success: false,
        }]);
        let run = self.staging_runs.get_mut(&job).expect("staging run state");
        run.retrying = Some(advice_ix);
        let delay = self.config.policy_call_latency + self.config.retry_backoff_base;
        self.events
            .schedule_at(self.now + delay, Ev::RetryEvaluate(job));
    }

    /// True when `(host, path)` has accumulated enough checksum strikes to
    /// be quarantined locally.
    fn is_quarantined(&self, host: &str, path: &str) -> bool {
        let threshold = self
            .config
            .recovery
            .as_ref()
            .map(|r| r.quarantine_strikes.max(1))
            .unwrap_or(u32::MAX);
        self.strikes
            .get(&(host.into(), path.into()))
            .is_some_and(|&s| s >= threshold)
    }

    /// The policy suppressed this transfer's source (quarantined replica or
    /// down host): re-plan instead of skipping. In order of preference —
    /// fail over to a live alternate replica, re-run the producer
    /// (quarantine with no clean copy), or park the retry until the down
    /// host's scheduled restart.
    fn handle_blocked_source(&mut self, job: usize, advice_ix: usize, quarantined: bool) {
        let run = self.staging_runs.get(&job).expect("staging run state");
        let advice = run.advice[advice_ix].clone();
        let key = (advice.source.clone(), advice.dest.clone());
        let Some(&spec_ix) = run.by_urls.get(&key) else {
            // Unresolvable advice — count it as skipped like before.
            let run = self.staging_runs.get_mut(&job).expect("staging run state");
            run.skipped += 1;
            self.transfers_skipped += 1;
            self.start_next_transfer(job);
            return;
        };
        let file = self.planned_transfers(job)[spec_ix].file.clone();
        let cur_host = advice.source.host.clone();
        let cur_path = advice.source.path.clone();
        // A live, un-quarantined replica that is not the current source.
        let alternates: Vec<crate::catalog::Replica> = self
            .config
            .recovery
            .as_ref()
            .map(|r| r.replicas.replicas(&file).to_vec())
            .unwrap_or_default();
        let alt = alternates.into_iter().find(|r| {
            r.url != advice.source
                && !self.down_hosts.contains_key(&r.url.host)
                && !self.is_quarantined(&r.url.host, &r.url.path)
        });
        let run = self.staging_runs.get_mut(&job).expect("staging run state");
        if let Some(alt) = alt {
            // Re-stage from the alternate replica: rewrite the spec and the
            // advice→spec resolution, then re-ask the policy.
            run.specs[spec_ix].source = alt.url.clone();
            // Keep the stale advice slot resolvable: RetryEvaluate keys
            // the spec lookup off the advice URLs.
            run.advice[advice_ix].source = alt.url.clone();
            run.by_urls.remove(&key);
            run.by_urls
                .insert((alt.url.clone(), advice.dest.clone()), spec_ix);
            run.src_hosts.insert(spec_ix, alt.host);
            run.retrying = Some(advice_ix);
            self.recovery.replica_failovers += 1;
            self.events.schedule_at(
                self.now + self.config.policy_call_latency,
                Ev::RetryEvaluate(job),
            );
        } else if quarantined {
            // No clean replica left: re-run the producer. Modeled as a
            // fixed delay after which the regenerated file (generation + 1)
            // reads clean; the quarantine is lifted so advice flows again.
            *self.file_generation.entry(file.clone()).or_insert(0) += 1;
            self.strikes.remove(&(cur_host.clone(), cur_path.clone()));
            run.retrying = Some(advice_ix);
            self.recovery.producer_reruns += 1;
            self.report_health_events(vec![HealthEvent::ReplicaCleared {
                host: cur_host,
                file: cur_path,
            }]);
            let delay = self.config.producer_rerun_delay + self.config.policy_call_latency;
            self.events
                .schedule_at(self.now + delay, Ev::RetryEvaluate(job));
        } else {
            // Down host, nowhere else to go: wait for its scheduled
            // restart (plus a round-trip so the HostUp report lands first).
            run.retrying = Some(advice_ix);
            self.recovery.waits_for_restart += 1;
            let up_at = self
                .down_hosts
                .get(&cur_host)
                .copied()
                .unwrap_or(self.now + self.config.retry_backoff_base);
            let at = up_at.max(self.now) + self.config.policy_call_latency;
            self.events.schedule_at(at, Ev::RetryEvaluate(job));
        }
    }

    /// Checksum the completed transfer against the integrity model. Returns
    /// true when the read was corrupt and the failure path was taken.
    fn checksum_failed(&mut self, job: usize, advice_ix: usize, tag: u64) -> bool {
        let corruption = match self.config.recovery.as_ref() {
            Some(r) if !r.corruption.is_clean() => r.corruption.clone(),
            _ => return false,
        };
        let run = self.staging_runs.get(&job).expect("staging run state");
        let advice = run.advice[advice_ix].clone();
        let key = (advice.source.clone(), advice.dest.clone());
        let Some(&spec_ix) = run.by_urls.get(&key) else {
            return false;
        };
        let file = self.planned_transfers(job)[spec_ix].file.clone();
        let attempt = run.exec_attempts.get(&advice_ix).copied().unwrap_or(1);
        let generation = self.file_generation.get(&file).copied().unwrap_or(0);
        let src_host = advice.source.host.clone();
        if !corruption.read_is_corrupt(&src_host, &file, attempt, generation) {
            return false;
        }
        // The bytes arrived but the checksum does not match: discard them,
        // strike the replica, and (policy-guided) report the suspicion so
        // the K-th strike quarantines the source.
        self.recovery.corrupt_reads += 1;
        self.storage_flows.remove(&tag);
        if let Some(obs) = &self.config.obs {
            if let Some(span) = self.transfer_spans.remove(&tag) {
                obs.tracer.span_arg(span, "result", "corrupt");
                obs.tracer.end_span(span, self.now);
            }
        }
        let src_path = advice.source.path.clone();
        let strikes = self
            .strikes
            .entry((src_host.clone(), src_path.clone()))
            .or_insert(0);
        *strikes += 1;
        let quarantine = *strikes
            >= self
                .config
                .recovery
                .as_ref()
                .map(|r| r.quarantine_strikes.max(1))
                .unwrap_or(u32::MAX);
        if quarantine {
            self.recovery.quarantines += 1;
        }
        self.report_health_events(vec![HealthEvent::SuspectReplica {
            host: src_host,
            file: src_path,
            quarantine,
        }]);
        self.policy.report_transfers(vec![TransferOutcome {
            id: advice.id,
            success: false,
        }]);
        // Integrity retries back off exponentially on the *execution*
        // attempt count but never consume the transient-failure budget.
        let run = self.staging_runs.get_mut(&job).expect("staging run state");
        run.retrying = Some(advice_ix);
        let attempt = run.exec_attempts.get(&advice_ix).copied().unwrap_or(1);
        let backoff = self.retry_backoff(attempt);
        self.events.schedule_at(
            self.now + self.config.policy_call_latency + backoff,
            Ev::RetryEvaluate(job),
        );
        true
    }

    fn planned_transfers(&self, job: usize) -> &[PlannedTransfer] {
        match &self.plan.jobs()[job].kind {
            PlanJobKind::StageIn { transfers, .. } | PlanJobKind::StageOut { transfers } => {
                transfers
            }
            _ => unreachable!("job {job} is not a staging job"),
        }
    }

    /// Begin the next approved transfer of a staging job, skipping advice
    /// entries the policy suppressed; when the list is exhausted, report and
    /// schedule completion.
    fn start_next_transfer(&mut self, job: usize) {
        loop {
            let run = self.staging_runs.get_mut(&job).expect("staging run state");
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
            let advice = run.advice[ix].clone();
            if !advice.should_execute() {
                // A recovery suppression is a re-planning signal, not a
                // dedup: the file still has to arrive from somewhere.
                if self.rec_active {
                    if let TransferAction::Skip(
                        reason @ (SuppressReason::SourceQuarantined
                        | SuppressReason::SourceHostDown),
                    ) = advice.action
                    {
                        self.handle_blocked_source(
                            job,
                            ix,
                            reason == SuppressReason::SourceQuarantined,
                        );
                        return;
                    }
                }
                run.skipped += 1;
                self.transfers_skipped += 1;
                continue;
            }
            let key = (advice.source.clone(), advice.dest.clone());
            let Some(&spec_ix) = run.by_urls.get(&key) else {
                // Advice for a transfer we did not submit — ignore
                // defensively.
                continue;
            };
            let mut pt = self.planned_transfers(job)[spec_ix].clone();
            if self.rec_active {
                let run = self.staging_runs.get_mut(&job).expect("staging run state");
                // Replica failover rewrote this spec's source.
                if let Some(&src) = run.src_hosts.get(&spec_ix) {
                    pt.src_host = src;
                    pt.source = run.specs[spec_ix].source.clone();
                }
                *run.exec_attempts.entry(ix).or_insert(0) += 1;
            }
            let tag = self.next_tag;
            self.next_tag += 1;
            // Policy-advised backend: redirect the flow to the backend's
            // store host and pay its per-request overhead as extra setup.
            // Unknown names (stale advice after a reconfiguration) fall back
            // to the planned destination.
            let mut dst_host = pt.dst_host;
            let mut extra_setup = SimDuration::ZERO;
            if let (Some(name), Some(storage)) = (&advice.backend, &self.config.storage) {
                if let Some(b) = storage.layer.backend(name) {
                    dst_host = b.host;
                    extra_setup = b.spec.extra_setup(pt.bytes);
                    self.storage_flows.insert(
                        tag,
                        StagedFlow {
                            backend: name.clone(),
                            bytes: pt.bytes,
                            dest: pt.dest.clone(),
                        },
                    );
                }
            }
            let flow = FlowSpec {
                src: pt.src_host,
                dst: dst_host,
                bytes: pt.bytes as f64,
                streams: advice.streams,
                tag,
            };
            self.flow_owner.insert(tag, (job, ix));
            let flow_id = self
                .network
                .start_flow_with_setup(self.now, flow, extra_setup);
            if let Some(obs) = &self.config.obs {
                let span = obs.tracer.start_span(
                    format!("xfer {}", pt.file),
                    "transfer",
                    self.job_spans[job],
                    self.now,
                );
                obs.tracer
                    .span_arg(span, "streams", advice.streams.to_string());
                obs.tracer.span_arg(span, "bytes", pt.bytes.to_string());
                self.transfer_spans.insert(tag, span);
                self.network.set_flow_span_parent(flow_id, span);
            }
            return;
        }
    }

    fn drain_network_completions(&mut self) {
        for record in self.network.take_completed() {
            let Some((job, advice_ix)) = self.flow_owner.remove(&record.tag) else {
                continue;
            };
            let failed = self.rng.chance(self.config.transfer_failure_prob);
            let advice_id = self
                .staging_runs
                .get(&job)
                .map(|r| r.advice[advice_ix].id)
                .expect("staging run state");
            if failed {
                // Nothing landed on the backend; drop the redirection so a
                // retry re-resolves whatever backend the fresh advice names.
                self.storage_flows.remove(&record.tag);
                self.transfer_retries += 1;
                if let Some(obs) = &self.config.obs {
                    obs.registry
                        .counter(
                            "pwm_workflow_transfer_failures_total",
                            "Transfers that failed (injected) and were reported to the service",
                            &[],
                        )
                        .inc();
                    if let Some(span) = self.transfer_spans.remove(&record.tag) {
                        obs.tracer.span_arg(span, "result", "failed");
                        obs.tracer.end_span(span, self.now);
                    }
                }
                // Transient failures (lost connection, timeout) are worth
                // retrying; fatal ones (missing source, permissions) never
                // succeed no matter how many attempts remain.
                let fatal = self.rng.chance(self.config.fatal_failure_prob);
                self.policy.report_transfers(vec![TransferOutcome {
                    id: advice_id,
                    success: false,
                }]);
                let run = self.staging_runs.get_mut(&job).expect("staging run state");
                if fatal || run.attempts_left == 0 {
                    // Fatal error or retries exhausted: clear any retry
                    // state so the job reports Failed instead of waiting on
                    // a re-evaluation that will never be scheduled.
                    run.retrying = None;
                    self.fail_job(job);
                    continue;
                }
                run.attempts_left -= 1;
                run.retrying = Some(advice_ix);
                // Exponential backoff with seeded jitter: the first retry
                // waits base, each further one doubles (factor), capped.
                let attempt = self.config.retries.saturating_sub(run.attempts_left);
                let backoff = self
                    .retry_backoff(attempt)
                    .mul_f64(self.rng.jitter(self.config.retry_jitter));
                if let Some(obs) = &self.config.obs {
                    obs.registry
                        .counter(
                            "pwm_workflow_transfer_retries_total",
                            "Transfer retry attempts scheduled after transient failures",
                            &[],
                        )
                        .inc();
                    obs.tracer.complete_span(
                        "retry_backoff",
                        "transfer",
                        self.job_spans[job],
                        self.now,
                        self.now + self.config.policy_call_latency + backoff,
                        &[("attempt", attempt.to_string())],
                    );
                }
                self.events.schedule_at(
                    self.now + self.config.policy_call_latency + backoff,
                    Ev::RetryEvaluate(job),
                );
            } else {
                // The transfer tool checksums what landed before declaring
                // victory; a mismatch takes the integrity-failure path.
                if self.rec_active && self.checksum_failed(job, advice_ix, record.tag) {
                    continue;
                }
                self.bytes_staged += record.bytes;
                self.grow_scratch(record.bytes);
                if let Some(staged) = self.storage_flows.remove(&record.tag) {
                    if let Some(storage) = self.config.storage.as_mut() {
                        if let Some(spec) = storage
                            .layer
                            .backend(&staged.backend)
                            .map(|b| b.spec.clone())
                        {
                            storage.meter.on_put(&spec, staged.bytes, self.now);
                        }
                    }
                    self.staged_on_backend
                        .insert(staged.dest, (staged.backend, staged.bytes));
                }
                if let Some(obs) = &self.config.obs {
                    if let Some(span) = self.transfer_spans.remove(&record.tag) {
                        obs.tracer.span_arg(span, "result", "ok");
                        obs.tracer.end_span(span, self.now);
                    }
                }
                self.stats_transfers.push(record);
                let run = self.staging_runs.get_mut(&job).expect("staging run state");
                run.outcomes.push(TransferOutcome {
                    id: advice_id,
                    success: true,
                });
                self.events.schedule_at(
                    self.now + self.config.inter_transfer_gap,
                    Ev::TransferStart(job),
                );
            }
        }
    }

    fn grow_scratch(&mut self, bytes: f64) {
        self.scratch_bytes += bytes;
        self.peak_scratch_bytes = self.peak_scratch_bytes.max(self.scratch_bytes);
    }

    fn finish_job(&mut self, job: usize) {
        if self.state[job] != JobState::Running {
            return;
        }
        self.state[job] = JobState::Done;
        self.jobs_done += 1;
        self.close_job_span(job, "done");
        let plan = self.plan;
        for child in &plan.jobs()[job].children {
            self.pending_parents[child.0] -= 1;
            if self.pending_parents[child.0] == 0 && self.state[child.0] == JobState::Waiting {
                self.mark_ready(child.0);
            }
        }
    }

    fn fail_job(&mut self, job: usize) {
        if matches!(
            self.plan.jobs()[job].kind,
            PlanJobKind::StageIn { .. } | PlanJobKind::StageOut { .. }
        ) {
            self.staging_in_flight -= 1;
            self.staging_runs.remove(&job);
        }
        self.state[job] = JobState::Failed;
        self.jobs_failed += 1;
        self.close_job_span(job, "failed");
        // Abandon every transitive descendant that can no longer run.
        let mut stack: Vec<usize> = self.plan.jobs()[job].children.iter().map(|c| c.0).collect();
        while let Some(j) = stack.pop() {
            if matches!(self.state[j], JobState::Waiting | JobState::Ready) {
                self.state[j] = JobState::Abandoned;
                self.jobs_abandoned += 1;
                self.close_job_span(j, "abandoned");
                stack.extend(self.plan.jobs()[j].children.iter().map(|c| c.0));
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
    use pwm_core::transport::{InProcessTransport, NoPolicyTransport};
    use pwm_core::{PolicyConfig, PolicyController, DEFAULT_SESSION};
    use pwm_net::{paper_testbed, StreamModel};

    fn testbed() -> (Network, ComputeSite, ReplicaCatalog, pwm_net::HostId) {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let network = Network::new(topo, StreamModel::default());
        let mut rc = ReplicaCatalog::new();
        // Names filled in per test.
        let _ = &mut rc;
        (network, site, rc, gridftp)
    }

    fn wide_workflow(n: usize, file_bytes: u64) -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("wide");
        for i in 0..n {
            wf.add_job(AbstractJob {
                name: format!("work_{i}").into(),
                transformation: "work".into(),
                runtime_s: 5.0,
                inputs: vec![format!("in_{i}").into()],
                outputs: vec![format!("out_{i}").into()],
            });
            wf.set_file_size(format!("in_{i}"), file_bytes);
            wf.set_file_size(format!("out_{i}"), 1_000);
        }
        wf
    }

    fn register_inputs(rc: &mut ReplicaCatalog, n: usize, host: pwm_net::HostId) {
        for i in 0..n {
            rc.insert(
                format!("in_{i}"),
                pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/data/in_{i}")),
                host,
            );
        }
    }

    fn run_with_policy(
        n: usize,
        bytes: u64,
        policy: PolicyConfig,
        exec_cfg: ExecutorConfig,
    ) -> (RunStats, Network, PolicyController) {
        let (network, site, mut rc, gridftp) = testbed();
        register_inputs(&mut rc, n, gridftp);
        let wf = wide_workflow(n, bytes);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let controller = PolicyController::new(policy);
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let exec = WorkflowExecutor::new(&p, &site, network, transport, exec_cfg);
        let (stats, net) = exec.run();
        (stats, net, controller)
    }

    #[test]
    fn small_workflow_completes() {
        let (stats, _net, _c) = run_with_policy(
            4,
            1_000_000,
            PolicyConfig::default(),
            ExecutorConfig::default(),
        );
        assert!(stats.success);
        assert_eq!(stats.compute_jobs, 4);
        assert_eq!(stats.staging_jobs, 4);
        assert!(stats.makespan_secs() > 0.0);
        assert!((stats.bytes_staged - 4_000_000.0).abs() < 1.0);
    }

    #[test]
    fn cleanups_run_and_clear_policy_memory() {
        let (stats, _net, controller) = run_with_policy(
            3,
            1_000_000,
            PolicyConfig::default(),
            ExecutorConfig::default(),
        );
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
        let (topo, _, _, _) = paper_testbed();
        cfg.watch_link = topo
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id);
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
        let (topo, _, _, _) = paper_testbed();
        cfg.watch_link = topo
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id);
        let (stats, _net, controller) = run_with_policy(40, 20_000_000, policy, cfg);
        assert!(stats.success);
        // Table IV bound: threshold 50, default 8, 20 concurrent jobs →
        // at most 63 allocated at any instant.
        let peak = stats.peak_wan_streams.unwrap();
        assert!(peak <= 63, "peak {peak} > Table IV bound 63");
        let policy_peak = controller
            .snapshot(DEFAULT_SESSION)
            .unwrap()
            .host_pairs
            .iter()
            .map(|p| p.peak_allocated)
            .max()
            .unwrap();
        assert!(policy_peak <= 63);
    }

    #[test]
    fn no_policy_comparator_runs() {
        let (network, site, mut rc, gridftp) = testbed();
        register_inputs(&mut rc, 6, gridftp);
        let wf = wide_workflow(6, 5_000_000);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let transport = Box::new(NoPolicyTransport::new(4));
        let exec = WorkflowExecutor::new(&p, &site, network, transport, ExecutorConfig::default());
        let (stats, _net) = exec.run();
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

    #[test]
    fn fatal_failures_fail_fast_without_exhausting_retries() {
        // Every failure is fatal: each staging job dies on its first
        // attempt and reports Failed — no retry budget is consumed, the run
        // terminates, and retrying state never dangles.
        let mut cfg = ExecutorConfig::default();
        cfg.transfer_failure_prob = 1.0;
        cfg.fatal_failure_prob = 1.0;
        cfg.retries = 5;
        let (stats, _net, _c) = run_with_policy(3, 1_000_000, PolicyConfig::default(), cfg);
        assert!(!stats.success);
        assert_eq!(stats.failed_jobs, 3, "every staging job fails");
        // One attempt per job — fatal means no retries.
        assert_eq!(stats.transfer_retries, 3);
        assert!(stats.makespan_secs() > 0.0, "the run still terminates");
    }

    #[test]
    fn retry_backoff_delays_grow_the_makespan() {
        // Same failure pattern, hugely different backoff: the slow-backoff
        // run must take visibly longer, proving the delay is applied.
        let run = |base_ms: u64| {
            let mut cfg = ExecutorConfig::default();
            cfg.transfer_failure_prob = 1.0;
            cfg.retries = 3;
            cfg.seed = 9;
            cfg.retry_backoff_base = SimDuration::from_millis(base_ms);
            cfg.retry_backoff_cap = SimDuration::from_secs(300);
            let (stats, _net, _c) = run_with_policy(2, 1_000_000, PolicyConfig::default(), cfg);
            stats.makespan_secs()
        };
        let quick = run(1);
        let slow = run(20_000);
        // 3 retries with base 20 s and factor 2 add ≥ 20+40+80 s per job.
        assert!(
            slow > quick + 60.0,
            "slow backoff {slow}s vs quick {quick}s"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut cfg = ExecutorConfig::default();
            cfg.seed = 42;
            let (stats, _, _) = run_with_policy(10, 10_000_000, PolicyConfig::default(), cfg);
            (
                stats.makespan,
                stats.policy_calls,
                stats.bytes_staged as u64,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn obs_traces_jobs_transfers_and_rpcs() {
        let obs = pwm_obs::Obs::new();
        let mut cfg = ExecutorConfig::default();
        cfg.seed = 7;
        cfg.obs = Some(obs.clone());
        let (stats, _, _) = run_with_policy(4, 10_000_000, PolicyConfig::default(), cfg);
        assert!(stats.success);
        let trace = obs.tracer.chrome_trace_json();
        pwm_obs::validate_chrome_trace(&trace).expect("exported trace is valid");
        for needle in [
            "\"cat\":\"stage_in\"",
            "\"cat\":\"compute\"",
            "\"cat\":\"cleanup\"",
            "\"cat\":\"transfer\"",
            "\"cat\":\"net\"",
            "\"cat\":\"policy_rpc\"",
        ] {
            assert!(trace.contains(needle), "missing {needle} in:\n{trace}");
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
            let obs = pwm_obs::Obs::new();
            let mut cfg = ExecutorConfig::default();
            cfg.seed = 42;
            cfg.obs = Some(obs.clone());
            let (stats, _, _) = run_with_policy(6, 10_000_000, PolicyConfig::default(), cfg);
            assert!(stats.success);
            obs.tracer.chrome_trace_json()
        };
        assert_eq!(mk(), mk(), "same seed must export an identical trace");
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let mut cfg = ExecutorConfig::default();
            cfg.seed = seed;
            let (stats, _, _) = run_with_policy(10, 10_000_000, PolicyConfig::default(), cfg);
            stats.makespan
        };
        assert_ne!(mk(1), mk(2), "jitter should differentiate seeds");
    }

    #[test]
    fn shared_input_is_staged_once_under_policy() {
        // Two compute jobs consuming the same external file: policy dedup
        // means one WAN transfer, the second stage-in is advised to skip.
        let (network, site, mut rc, gridftp) = testbed();
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
        rc.insert(
            "common.dat",
            pwm_core::Url::new("gsiftp", "gridftp-vm", "/data/common.dat"),
            gridftp,
        );
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        assert_eq!(p.stage_in_count(), 2);
        let controller = PolicyController::new(PolicyConfig::default());
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let exec = WorkflowExecutor::new(&p, &site, network, transport, ExecutorConfig::default());
        let (stats, _net) = exec.run();
        assert!(stats.success);
        // One of the two staging attempts was suppressed...
        assert!(
            stats.transfers_skipped >= 1,
            "dedup should skip the duplicate stage-in (skipped={})",
            stats.transfers_skipped
        );
        // ...so only ~50 MB crossed the network, not 100.
        assert!(
            stats.bytes_staged < 60_000_000.0,
            "bytes staged {}",
            stats.bytes_staged
        );
    }

    #[test]
    fn trace_records_job_and_transfer_lifecycle() {
        let obs = pwm_obs::Obs::new();
        let mut cfg = ExecutorConfig::default();
        cfg.obs = Some(obs.clone());
        let (stats, _, _) = run_with_policy(3, 1_000_000, PolicyConfig::default(), cfg);
        assert!(stats.success);
        let events = obs.tracer.events();
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
                assert!(
                    parent.start <= e.start,
                    "{e:?} before its parent {parent:?}"
                );
            }
        }
    }

    #[test]
    fn cleanup_category_limit_throttles() {
        // Many cleanups with limit 1: the run still completes, and the
        // timeline option records the WAN when requested.
        let (network, site, mut rc, gridftp) = testbed();
        register_inputs(&mut rc, 10, gridftp);
        let wf = wide_workflow(10, 1_000_000);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let controller = PolicyController::new(PolicyConfig::default());
        let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
        let mut cfg = ExecutorConfig::default();
        cfg.cleanup_job_limit = Some(1);
        let (topo, _, _, _) = paper_testbed();
        cfg.watch_link = topo
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id);
        cfg.watch_timeline = true;
        let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg.clone());
        let (stats, net) = exec.run();
        assert!(stats.success);
        assert!(stats.cleanup_jobs >= 10);
        let timeline = net.timeline(cfg.watch_link.unwrap()).expect("watched");
        assert!(!timeline.samples().is_empty());
        assert!(timeline.peak_streams() > 0);
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
        // not id order.
        use crate::planner::{ExecutablePlan, PlanJob, PlannedTransfer};
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 1,
            cores_per_node: 1,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let jobs: Vec<PlanJob> = [1, 9, 5]
            .iter()
            .enumerate()
            .map(|(i, &priority)| PlanJob {
                name: format!("stage_{i}").into(),
                kind: PlanJobKind::StageIn {
                    transfers: vec![PlannedTransfer {
                        file: format!("f{i}").into(),
                        bytes: 1_000_000,
                        source: pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/d/f{i}")),
                        dest: pwm_core::Url::new("file", "obelix-nfs", format!("/s/f{i}")),
                        src_host: gridftp,
                        dst_host: nfs,
                    }],
                    cluster: None,
                },
                parents: vec![],
                children: vec![],
                priority,
                level: 0,
                workflow: None,
            })
            .collect();
        let plan = ExecutablePlan::from_jobs("prio", jobs).unwrap();

        let controller = PolicyController::new(PolicyConfig::default());
        let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
        let network = Network::with_seed(topo, StreamModel::default(), 1);
        let mut cfg = ExecutorConfig::default();
        cfg.staging_job_limit = 1;
        let exec = WorkflowExecutor::new(&plan, &site, network, transport, cfg);
        let (stats, _) = exec.run();
        assert!(stats.success);
        // Completion order of the staged files follows priority: f1 (prio 9),
        // then f2 (prio 5), then f0 (prio 1).
        let mut order: Vec<(pwm_sim::SimTime, u64)> = stats
            .transfers
            .iter()
            .map(|t| (t.completed_at, t.tag))
            .collect();
        order.sort();
        let tags: Vec<u64> = order.iter().map(|(_, tag)| *tag).collect();
        assert_eq!(tags, vec![0, 1, 2], "flow tags are assigned in start order");
        // Map tags back to files via bytes order: verify the *first started*
        // transfer was the priority-9 job's file (f1).
        let first = stats
            .transfers
            .iter()
            .min_by_key(|t| t.requested_at)
            .unwrap();
        let last = stats
            .transfers
            .iter()
            .max_by_key(|t| t.requested_at)
            .unwrap();
        // first flow belongs to stage_1 (priority 9): its dest path is /s/f1
        // — the ledger does not record paths, so check via completion order
        // against the known serial schedule: stage_1 → stage_2 → stage_0.
        assert!(first.completed_at < last.completed_at);
    }

    #[test]
    fn cleanup_reduces_the_scratch_footprint() {
        // With cleanup, staged files are deleted after their consumers run,
        // so the final footprint is zero and the peak is below the total
        // bytes ever written; without cleanup everything accumulates.
        let run = |cleanup: bool| {
            let (network, site, mut rc, gridftp) = testbed();
            register_inputs(&mut rc, 12, gridftp);
            let wf = wide_workflow(12, 20_000_000);
            let cfg = crate::planner::PlannerConfig {
                cleanup,
                ..Default::default()
            };
            let p = plan(&wf, &site, &rc, &cfg).unwrap();
            let controller = PolicyController::new(PolicyConfig::default());
            let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
            let exec =
                WorkflowExecutor::new(&p, &site, network, transport, ExecutorConfig::default());
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
        assert!(
            without.final_scratch_bytes > 200.0e6,
            "no cleanup: everything stays ({} bytes)",
            without.final_scratch_bytes
        );
        assert!(with_cleanup.peak_scratch_bytes <= without.peak_scratch_bytes);
        assert!(with_cleanup.peak_scratch_bytes > 0.0);
    }

    #[test]
    fn policy_chosen_backend_redirects_flows_and_meters_dollars() {
        // Full stack: ec2 backends installed on the paper testbed, the
        // policy service running GreedyCheapest storage selection, and the
        // executor redirecting staged flows to the advised store host while
        // the meter accumulates dollars that cleanup later caps.
        let (mut topo, gridftp, _apache, nfs) = pwm_net::paper_testbed();
        let trio = pwm_storage::ec2_trio();
        let layer = StorageLayer::install(&mut topo, nfs, &trio);
        let store_hosts: Vec<pwm_net::HostId> = layer.backends().map(|b| b.host).collect();
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let network = Network::new(topo, StreamModel::default());
        let mut rc = ReplicaCatalog::new();
        register_inputs(&mut rc, 6, gridftp);
        let wf = wide_workflow(6, 10_000_000);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();

        let mut policy =
            PolicyConfig::default().with_storage(pwm_core::StoragePolicy::GreedyCheapest);
        for spec in &trio {
            policy = policy.with_backend(spec.clone(), "obelix-nfs");
        }
        let controller = PolicyController::new(policy);
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let mut cfg = ExecutorConfig::default();
        cfg.storage = Some(StorageRuntime::new(layer));
        let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);

        // Every staged flow landed on a store host, not the planned NFS.
        assert!(!stats.transfers.is_empty());
        for t in &stats.transfers {
            assert!(
                store_hosts.contains(&t.dst),
                "flow should be redirected to a backend store host, went to {:?}",
                t.dst
            );
        }
        // The meter saw the bytes and priced them.
        let report = stats.storage.as_ref().expect("storage metering attached");
        let total_put: f64 = report.backends.iter().map(|b| b.bytes_put).sum();
        assert!(
            (total_put - stats.bytes_staged).abs() < 1.0,
            "metered {} vs staged {}",
            total_put,
            stats.bytes_staged
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
        let (stats, _net, _c) = run_with_policy(
            3,
            1_000_000,
            PolicyConfig::default(),
            ExecutorConfig::default(),
        );
        assert!(stats.success);
        assert!(stats.storage.is_none(), "no layer, no cost report");
    }

    // --------------------------------------------------------------
    // Recovery plane
    // --------------------------------------------------------------

    use crate::recovery::{BackendOutage, CrashTarget, HostCrash, RecoveryConfig};

    /// Replica catalog with the planned gridftp source plus an apache
    /// mirror for every input file.
    fn mirrored_replicas(
        n: usize,
        gridftp: pwm_net::HostId,
        apache: pwm_net::HostId,
    ) -> ReplicaCatalog {
        let mut rc = ReplicaCatalog::new();
        for i in 0..n {
            rc.insert(
                format!("in_{i}"),
                pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/data/in_{i}")),
                gridftp,
            );
            rc.insert(
                format!("in_{i}"),
                pwm_core::Url::new("http", "apache-isi", format!("/mirror/in_{i}")),
                apache,
            );
        }
        rc
    }

    fn run_with_recovery(
        n: usize,
        bytes: u64,
        recovery: RecoveryConfig,
        tweak: impl FnOnce(&mut ExecutorConfig),
    ) -> (RunStats, PolicyController) {
        let (network, site, mut rc, gridftp) = testbed();
        register_inputs(&mut rc, n, gridftp);
        let wf = wide_workflow(n, bytes);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let controller = PolicyController::new(PolicyConfig::default());
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let mut cfg = ExecutorConfig::default();
        cfg.recovery = Some(recovery);
        tweak(&mut cfg);
        let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
        let (stats, _net) = exec.run();
        (stats, controller)
    }

    #[test]
    fn inert_recovery_config_changes_nothing() {
        // An attached-but-empty recovery plane must leave the run
        // bit-identical to one with no plane at all.
        let mk = |recovery: Option<RecoveryConfig>| {
            let (network, site, mut rc, gridftp) = testbed();
            register_inputs(&mut rc, 5, gridftp);
            let wf = wide_workflow(5, 5_000_000);
            let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
            let controller = PolicyController::new(PolicyConfig::default());
            let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
            let mut cfg = ExecutorConfig::default();
            cfg.seed = 11;
            cfg.recovery = recovery;
            let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
            exec.run().0
        };
        let without = mk(None);
        let with_inert = mk(Some(RecoveryConfig::default()));
        assert_eq!(without, with_inert);
        assert!(with_inert.recovery.is_none(), "inert plane reports nothing");
    }

    #[test]
    fn host_crash_kills_flows_and_fails_over_to_mirror() {
        let (_topo, gridftp, apache, _nfs) = {
            let (t, g, a, n) = paper_testbed();
            (t, g, a, n)
        };
        let mut rec = RecoveryConfig::default();
        rec.crashes.push(HostCrash {
            target: CrashTarget::Host {
                host: gridftp,
                name: "gridftp-vm".into(),
            },
            at: SimTime::from_secs(4),
            restart_after: SimDuration::from_secs(120),
        });
        rec.replicas = mirrored_replicas(8, gridftp, apache);
        let (stats, _c) = run_with_recovery(8, 40_000_000, rec, |cfg| {
            cfg.seed = 3;
        });
        assert!(stats.success, "failover must keep the workflow alive");
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.host_crashes, 1);
        assert!(report.flows_killed > 0, "the crash lands mid-staging");
        assert!(
            report.replica_failovers > 0,
            "killed transfers re-plan onto the apache mirror"
        );
        // The run finished well before the crashed host's restart: recovery
        // did not wait out the 120 s downtime.
        assert!(
            stats.makespan_secs() < 120.0,
            "makespan {} should beat the restart window",
            stats.makespan_secs()
        );
        // Failed-over flows really came from the mirror host.
        assert!(stats.transfers.iter().any(|t| t.src == apache));
    }

    #[test]
    fn host_crash_with_no_mirror_waits_for_restart() {
        let (_t, gridftp, _a, _n) = paper_testbed();
        let mut rec = RecoveryConfig::default();
        rec.crashes.push(HostCrash {
            target: CrashTarget::Host {
                host: gridftp,
                name: "gridftp-vm".into(),
            },
            at: SimTime::from_secs(4),
            restart_after: SimDuration::from_secs(60),
        });
        // No alternates: the only copy lives on the crashed host.
        let (stats, _c) = run_with_recovery(6, 40_000_000, rec, |cfg| {
            cfg.seed = 5;
        });
        assert!(stats.success, "parked retries resume after restart");
        let report = stats.recovery.as_ref().expect("recovery report");
        assert!(report.flows_killed > 0);
        assert!(report.waits_for_restart > 0, "no mirror: retries must park");
        assert!(
            stats.makespan_secs() > 64.0,
            "makespan {} must include the 60 s downtime",
            stats.makespan_secs()
        );
    }

    #[test]
    fn node_crash_requeues_running_compute_jobs() {
        let mut rec = RecoveryConfig::default();
        // Staging of 12 x 1 MB finishes around t=7 s and the 5 s computes
        // run from there; crash a node mid-compute.
        rec.crashes.push(HostCrash {
            target: CrashTarget::ComputeNode(0),
            at: SimTime::from_secs(9),
            restart_after: SimDuration::from_secs(15),
        });
        let (stats, _c) = run_with_recovery(12, 1_000_000, rec, |cfg| {
            cfg.seed = 7;
        });
        assert!(stats.success);
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.host_crashes, 1);
        assert!(
            report.compute_reruns > 0,
            "jobs were running at the crash instant"
        );
        // Victims re-queue only at restart, so the makespan covers it.
        assert!(stats.makespan_secs() > 20.0);
    }

    #[test]
    fn corruption_strikes_quarantine_and_fail_over() {
        let (_t, gridftp, apache, _n) = paper_testbed();
        let mut rec = RecoveryConfig::default();
        rec.corruption.set_host_prob("gridftp-vm", 1.0);
        rec.quarantine_strikes = 2;
        rec.replicas = mirrored_replicas(4, gridftp, apache);
        let (stats, _c) = run_with_recovery(4, 2_000_000, rec, |cfg| {
            cfg.seed = 13;
        });
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
        let (stats, _c) = run_with_recovery(3, 1_000_000, rec, |cfg| {
            cfg.seed = 17;
            cfg.producer_rerun_delay = SimDuration::from_secs(5);
        });
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
        let (stats, _c) = run_with_recovery(6, 1_000_000, rec, |cfg| {
            cfg.seed = 19;
        });
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
        let (mut topo, gridftp, _apache, nfs) = pwm_net::paper_testbed();
        let trio = pwm_storage::ec2_trio();
        let layer = StorageLayer::install(&mut topo, nfs, &trio);
        let nfs_std_host = layer.backend("nfs-std").expect("trio has nfs-std").host;
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let network = Network::new(topo, StreamModel::default());
        let mut rc = ReplicaCatalog::new();
        register_inputs(&mut rc, 5, gridftp);
        let wf = wide_workflow(5, 5_000_000);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let mut policy =
            PolicyConfig::default().with_storage(pwm_core::StoragePolicy::GreedyCheapest);
        for spec in &trio {
            policy = policy.with_backend(spec.clone(), "obelix-nfs");
        }
        let controller = PolicyController::new(policy);
        let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
        let mut cfg = ExecutorConfig::default();
        cfg.storage = Some(StorageRuntime::new(layer));
        let mut rec = RecoveryConfig::default();
        rec.backend_outages.push(BackendOutage {
            backend: "nfs-std".into(),
            host: nfs_std_host,
            from: SimTime::ZERO,
            duration: SimDuration::from_secs(10_000),
        });
        cfg.recovery = Some(rec);
        let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);
        let report = stats.recovery.as_ref().expect("recovery report");
        assert_eq!(report.backend_outages, 1);
        // The run finishes inside the outage window, so only the "down"
        // report is guaranteed to have fired.
        assert!(report.health_reports >= 1, "BackendDown reported");
        // Not a byte landed on the downed backend.
        let storage = stats.storage.as_ref().expect("metered");
        assert_eq!(storage.backend("nfs-std").unwrap().bytes_put, 0.0);
        assert!(stats.transfers.iter().all(|t| t.dst != nfs_std_host));
    }

    #[test]
    fn halt_checkpoint_resume_skips_finished_work() {
        let run_full = || {
            let (network, site, mut rc, gridftp) = testbed();
            register_inputs(&mut rc, 8, gridftp);
            let wf = wide_workflow(8, 20_000_000);
            let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
            let controller = PolicyController::new(PolicyConfig::default());
            let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
            let mut cfg = ExecutorConfig::default();
            cfg.seed = 23;
            let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
            exec.run().0
        };
        let full = run_full();
        assert!(full.success);

        // Same setup, but the site "crashes" mid-run: halt, checkpoint,
        // then resume against the same policy controller.
        let (network, site, mut rc, gridftp) = testbed();
        register_inputs(&mut rc, 8, gridftp);
        let wf = wide_workflow(8, 20_000_000);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let controller = PolicyController::new(PolicyConfig::default());
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let mut cfg = ExecutorConfig::default();
        cfg.seed = 23;
        // The 8 WAN flows fair-share the bottleneck and all finish around
        // 85% of the makespan; halt just after, mid-compute, so the
        // checkpoint holds the stage-in frontier.
        cfg.halt_at = Some(SimTime::from_secs_f64(full.makespan_secs() * 0.92));
        let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg.clone());
        let (halted, _net, cp) = exec.run_checkpointed();
        assert!(!halted.success, "halted mid-DAG");
        assert!(!cp.is_empty(), "something completed before the halt");
        assert!(cp.completed_jobs.len() < p.len());

        let (network2, ..) = testbed();
        let transport2 = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
        let mut cfg2 = ExecutorConfig::default();
        cfg2.seed = 23;
        cfg2.resume_from = Some(cp.clone());
        let exec2 = WorkflowExecutor::new(&p, &site, network2, transport2, cfg2);
        let (resumed, _net) = exec2.run();
        assert!(resumed.success, "resume completes the remaining frontier");
        // Finished jobs did not re-run and already-staged files were
        // deduplicated by the shared policy memory.
        assert!(
            resumed.bytes_staged < full.bytes_staged,
            "resumed {} vs full {}",
            resumed.bytes_staged,
            full.bytes_staged
        );
        assert!(resumed.staging_jobs <= full.staging_jobs);
    }

    #[test]
    fn recovery_runs_are_deterministic_per_seed() {
        let (_t, gridftp, apache, _n) = paper_testbed();
        let mk = |seed| {
            let mut rec = RecoveryConfig::default();
            rec.corruption.set_host_prob("gridftp-vm", 0.4);
            rec.crashes.push(HostCrash {
                target: CrashTarget::Host {
                    host: gridftp,
                    name: "gridftp-vm".into(),
                },
                at: SimTime::from_secs(5),
                restart_after: SimDuration::from_secs(30),
            });
            rec.replicas = mirrored_replicas(6, gridftp, apache);
            let (stats, _c) = run_with_recovery(6, 10_000_000, rec, |cfg| {
                cfg.seed = seed;
            });
            stats
        };
        let a = mk(31);
        let b = mk(31);
        assert_eq!(a, b, "same seed, same faults, same run — bit for bit");
        assert!(a.success);
        assert_ne!(mk(32), a, "a different seed perturbs the run");
    }

    #[test]
    fn compute_slots_bound_parallelism() {
        // 1 node × 1 core: 4 compute jobs of 5 s must serialize ≥ 20 s.
        let (network, _site, mut rc, gridftp) = testbed();
        register_inputs(&mut rc, 4, gridftp);
        let site = ComputeSite {
            name: "tiny".into(),
            nodes: 1,
            cores_per_node: 1,
            storage_host: pwm_net::HostId(2),
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let wf = wide_workflow(4, 1_000);
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let transport = Box::new(NoPolicyTransport::new(4));
        let mut cfg = ExecutorConfig::default();
        cfg.runtime_jitter = 0.0;
        let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
        let (stats, _net) = exec.run();
        assert!(stats.success);
        assert!(
            stats.makespan_secs() >= 20.0,
            "makespan {} < serialized compute time",
            stats.makespan_secs()
        );
    }
}
