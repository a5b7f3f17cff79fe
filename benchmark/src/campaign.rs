//! `campaign` — the whole stack, the path no other bench covers. Per
//! repetition, 16 augmented Montage 1° workflows are generated, planned,
//! merged and run by one `WorkflowExecutor` whose policy transport is a
//! `PolicyRestClient` over real loopback to a `PolicyRestServer`, while
//! `pwm-net` simulates the transfers. One client, pipeline depth 1, closed
//! loop. The session is the default single, non-durable one, fresh per
//! repetition: with the WAL on this would be an fsync benchmark in which no
//! other layer could show (`advice_durable` measures that on its own).

use crate::env;
use crate::gen::Rng;
use crate::harness::{Check, CpuWindow, EndToEnd, Marks, Outcome, RepLoop, RepTiming, RunArgs};
use crate::replay::{self, Call};
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use pwm_core::{
    AllocationPolicy, CleanupAdvice, CleanupOutcome, CleanupSpec, HealthEvent, PolicyConfig,
    PolicyController, PolicyTransport, RuleCounters, ServiceStats, TransferAdvice, TransferOutcome,
    TransferSpec, TransportError, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{paper_testbed, Network, StreamModel};
use pwm_rest::{PolicyRestClient, PolicyRestServer};
use pwm_sim::SimDuration;
use pwm_workflow::{
    merge_plans, plan, ComputeSite, ExecutorConfig, PlanJobKind, PlannerConfig, RunStats,
    WorkflowExecutor,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workflows per repetition at full size.
const WORKFLOWS: usize = 16;
/// Stage-in jobs of one augmented Montage 1° workflow (the paper's 89).
const STAGING_JOBS_PER_WORKFLOW: usize = 89;
/// Table IV: greedy threshold 50 at 8 default streams never puts more than
/// 63 streams on the WAN.
const TABLE_IV_PEAK: u32 = 63;

fn policy_config() -> PolicyConfig {
    PolicyConfig::default()
        .with_default_streams(8)
        .with_threshold(50)
        .with_allocation(AllocationPolicy::Greedy)
}

/// Spans of a traced run and, until the first traced repetition has filled
/// it, the calls of one repetition with their responses, for the replays.
struct Tracing {
    recorder: Recorder,
    calls: Option<Vec<Call>>,
}

/// What the timing transport shares with the repetition that owns it.
#[derive(Default)]
struct CallLog {
    latencies_ns: Vec<u64>,
    /// When each call returned: the executor's work between two calls and
    /// the later call together are one slice of the repetition.
    returned: Vec<Instant>,
    failed: u64,
}

/// A `PolicyTransport` decorator that times every call as the Transfer Tool
/// sees it: request encoding, the loopback round trip, response decoding.
struct TimingTransport {
    inner: PolicyRestClient,
    log: Arc<Mutex<CallLog>>,
    /// Tracing only: where the call spans go and the span they hang off.
    tracing: Option<(Arc<Mutex<Tracing>>, SpanId)>,
    calls_made: u64,
}

impl TimingTransport {
    /// True while the calls of this repetition are being kept for replay;
    /// only then are requests and answers copied.
    fn recording(&self) -> bool {
        self.tracing
            .as_ref()
            .is_some_and(|(t, _)| t.lock().expect("tracing lock").calls.is_some())
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut PolicyRestClient) -> Result<R, TransportError>,
        record: Option<impl FnOnce(&R) -> Call>,
    ) -> Result<R, TransportError> {
        let t0 = Instant::now();
        let result = call(&mut self.inner);
        let returned = Instant::now();
        let elapsed_ns = (returned - t0).as_nanos() as u64;
        self.calls_made += 1;
        {
            let mut log = self.log.lock().expect("call log lock");
            log.latencies_ns.push(elapsed_ns);
            log.returned.push(returned);
            log.failed += result.is_err() as u64;
        }
        if let Some((tracing, parent)) = &self.tracing {
            let mut t = tracing.lock().expect("tracing lock");
            let end = t.recorder.now_ns();
            t.recorder.push(
                name,
                end.saturating_sub(elapsed_ns),
                end,
                Some(*parent),
                self.calls_made,
            );
            if let (Some(calls), Some(record), Ok(r)) = (&mut t.calls, record, &result) {
                calls.push(record(r));
            }
        }
        result
    }
}

impl PolicyTransport for TimingTransport {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        let request = self.recording().then(|| batch.clone());
        self.timed(
            "transport.evaluate_transfers",
            |c| c.evaluate_transfers(batch),
            request.map(|r| move |advice: &Vec<TransferAdvice>| Call::Transfers(r, advice.clone())),
        )
    }

    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        let request = self.recording().then(|| outcomes.clone());
        self.timed(
            "transport.report_transfers",
            |c| c.report_transfers(outcomes),
            request.map(|r| move |_: &()| Call::TransfersDone(r)),
        )
    }

    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        let request = self.recording().then(|| batch.clone());
        self.timed(
            "transport.evaluate_cleanups",
            |c| c.evaluate_cleanups(batch),
            request.map(|r| move |advice: &Vec<CleanupAdvice>| Call::Cleanups(r, advice.clone())),
        )
    }

    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        let request = self.recording().then(|| outcomes.clone());
        self.timed(
            "transport.report_cleanups",
            |c| c.report_cleanups(outcomes),
            request.map(|r| move |_: &()| Call::CleanupsDone(r)),
        )
    }

    fn report_health(&mut self, events: Vec<HealthEvent>) -> Result<(), TransportError> {
        // No recovery plane in this workload: the executor never calls it.
        self.inner.report_health(events)
    }
}

/// One repetition's results.
struct Rep {
    wall_s: f64,
    stats: RunStats,
    /// One slice and one latency sample per policy call, in call order; the
    /// last slice runs from the last call to the end of the repetition.
    timing: RepTiming,
    transport_failures: u64,
    bytes_planned: f64,
    service: ServiceStats,
    rules: Vec<RuleCounters>,
    in_progress_at_end: usize,
    alloc: pwm_net::AllocStats,
}

/// The long-lived part of the stack: one Policy Service behind one REST
/// server, serving a fresh default session per repetition.
struct Stack {
    controller: PolicyController,
    server: PolicyRestServer,
    workflows: usize,
    seed: u64,
}

pub struct Campaign {
    stack: Stack,
    /// The discarded warm-up repetition; every measured one must reproduce
    /// its simulated outcome bit for bit.
    warm_up: Rep,
}

impl Stack {
    fn rep(&self, tracing: Option<&Arc<Mutex<Tracing>>>) -> Rep {
        let t0 = Instant::now();
        let open = |name, parent| {
            tracing.map(|t| {
                t.lock()
                    .expect("tracing lock")
                    .recorder
                    .open(name, parent, 0)
            })
        };
        let close = |id: Option<SpanId>| {
            if let (Some(t), Some(id)) = (tracing, id) {
                t.lock().expect("tracing lock").recorder.close(id);
            }
        };
        let rep_span = open("rep", None);

        // Plan: users plan every workflow, so planning is inside the clock.
        let span = open("plan", rep_span);
        let (topo, gridftp, apache, nfs) = paper_testbed();
        let wan = topo
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id);
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let planner = PlannerConfig {
            clustering_factor: None,
            cleanup: true,
            stage_out: false,
            output_site: None,
            priority: None,
        };
        let plans: Vec<_> = (0..self.workflows)
            .map(|i| {
                let mut workflow = montage_workflow(&MontageConfig {
                    extra_file_bytes: 10_000_000,
                    seed: Rng::derive(self.seed, 3, i as u64).next_u64(),
                    ..Default::default()
                });
                // A campaign's mosaics cover different sky: each workflow
                // stages its own inputs into its own scratch namespace.
                workflow.name = format!("{}-c{i:02}", workflow.name);
                let replicas =
                    montage_replicas(&workflow, ("apache-isi", apache), ("gridftp-vm", gridftp));
                plan(&workflow, &site, &replicas, &planner).expect("montage plans")
            })
            .collect();
        let merged = merge_plans(&plans.iter().collect::<Vec<_>>(), 1);
        let bytes_planned: f64 = merged
            .jobs()
            .iter()
            .filter_map(|j| match &j.kind {
                PlanJobKind::StageIn { transfers, .. } => Some(transfers),
                _ => None,
            })
            .flatten()
            .map(|t| t.bytes as f64)
            .sum();
        close(span);

        let span = open("session.create", rep_span);
        self.controller
            .create_session(DEFAULT_SESSION, policy_config());
        close(span);

        // Building the executor and its network is part of the run span:
        // the transport, which the executor owns, hangs its call spans off it.
        let run_span = open("executor.run", rep_span);
        let network = Network::with_seed(topo, StreamModel::default(), self.seed);
        let log = Arc::new(Mutex::new(CallLog::default()));
        let transport = TimingTransport {
            inner: PolicyRestClient::new(self.server.addr(), DEFAULT_SESSION),
            log: log.clone(),
            tracing: tracing.cloned().zip(run_span),
            calls_made: 0,
        };
        let config = ExecutorConfig {
            seed: self.seed,
            staging_job_limit: 20,
            retries: 5,
            policy_call_latency: SimDuration::from_millis(75),
            watch_link: wan,
            watch_timeline: true,
            ..ExecutorConfig::default()
        };
        let executor = WorkflowExecutor::new(&merged, &site, network, Box::new(transport), config);
        let (stats, network) = executor.run();
        close(run_span);

        let log = std::mem::take(&mut *log.lock().expect("call log lock"));
        let snapshot = self
            .controller
            .snapshot(DEFAULT_SESSION)
            .expect("session exists");
        let mut rep = Rep {
            wall_s: 0.0,
            timing: RepTiming::default(),
            transport_failures: log.failed,
            bytes_planned,
            service: self.controller.stats(DEFAULT_SESSION).expect("session"),
            rules: self
                .controller
                .rule_stats(DEFAULT_SESSION)
                .expect("session"),
            in_progress_at_end: snapshot.in_progress_transfers + snapshot.in_progress_cleanups,
            alloc: network.alloc_stats(),
            stats,
        };
        close(rep_span);
        let end = Instant::now();
        rep.wall_s = (end - t0).as_secs_f64();
        let marks = || std::iter::once(t0).chain(log.returned.iter().copied());
        let calls = log.latencies_ns.len();
        rep.timing = RepTiming {
            slices_ns: marks()
                .zip(marks().skip(1).chain([end]))
                .map(|(from, to)| (to - from).as_nanos() as u64)
                .collect(),
            latencies_ns: log.latencies_ns,
            // Each call closes a slice; what follows the last one has none.
            samples_in_slice: [vec![1; calls], vec![0]].concat(),
        };
        rep
    }
}

impl Campaign {
    /// One repetition with its output checks; a repetition that violates a
    /// check counts all its workflows as failed.
    fn checked_rep(&self, tracing: Option<&Arc<Mutex<Tracing>>>, out: &mut Outcome) -> Rep {
        let rep = self.stack.rep(tracing);
        let workflows = self.stack.workflows;
        let s = &rep.stats;
        let mut checks = Vec::new();
        checks.push(Check::new(
            "every workflow succeeds",
            s.success && s.failed_jobs == 0 && rep.transport_failures == 0,
            format!(
                "success {}, failed jobs {}, transport failures {}",
                s.success, s.failed_jobs, rep.transport_failures
            ),
        ));
        checks.push(Check::eq(
            "89 staging jobs per workflow",
            s.staging_jobs,
            STAGING_JOBS_PER_WORKFLOW * workflows,
        ));
        checks.push(Check::eq(
            "bytes staged = bytes planned",
            s.bytes_staged,
            rep.bytes_planned,
        ));
        checks.push(Check::eq(
            "no transfer or cleanup in progress at the end",
            rep.in_progress_at_end,
            0,
        ));
        let peak = s.peak_wan_streams.unwrap_or(0);
        checks.push(Check::new(
            "peak WAN streams within Table IV",
            (1..=TABLE_IV_PEAK).contains(&peak),
            format!("peak {peak}, bound {TABLE_IV_PEAK}"),
        ));
        let w = &self.warm_up;
        checks.push(Check::new(
            "simulated outcome identical to the warm-up repetition",
            s == &w.stats && rep.service == w.service && rep.alloc == w.alloc,
            format!(
                "makespan {:?} vs {:?}, policy calls {} vs {}",
                s.makespan, w.stats.makespan, s.policy_calls, w.stats.policy_calls
            ),
        ));
        out.attempted += workflows as u64;
        if checks.iter().any(|c| !c.ok) {
            out.failed += workflows as u64;
        }
        out.checks.extend(checks);
        rep
    }

    /// Scrape, record the counts of one repetition (every repetition was
    /// checked equal to it), stop the server.
    fn finish(self, out: &mut Outcome) {
        out.metrics_text = Some(self.stack.controller.render_metrics());
        let w = &self.warm_up;
        out.exact = vec![
            ("makespan_sim_s", w.stats.makespan.as_secs_f64()),
            ("policy_calls", w.stats.policy_calls as f64),
            ("bytes_staged", w.stats.bytes_staged),
            ("transfers_skipped", w.stats.transfers_skipped as f64),
            (
                "peak_wan_streams",
                w.stats.peak_wan_streams.unwrap_or(0) as f64,
            ),
            ("transfer_requests", w.service.transfer_requests as f64),
            (
                "transfers_suppressed",
                w.service.transfers_suppressed as f64,
            ),
            ("cleanup_requests", w.service.cleanup_requests as f64),
            ("rule_firings", w.service.rule_firings as f64),
            (
                "rule_evaluations",
                w.rules.iter().map(|r| r.evaluations).sum::<u64>() as f64,
            ),
            ("net_recomputes", w.alloc.recomputes as f64),
            ("net_skipped", w.alloc.skipped as f64),
            ("net_flows_allocated", w.alloc.flows_allocated as f64),
            ("net_unchanged_writes", w.alloc.unchanged_writes as f64),
        ];
        let mut server = self.stack.server;
        server.shutdown();
    }
}

impl Campaign {
    /// Everything up to and including one discarded warm-up repetition.
    pub fn setup(args: &RunArgs, marks: &mut Marks) -> Campaign {
        let controller = PolicyController::new(policy_config());
        let server = PolicyRestServer::start(controller.clone()).expect("bind loopback");
        let stack = Stack {
            controller,
            server,
            workflows: args.scaled(WORKFLOWS, 1),
            seed: args.seed,
        };
        marks.mark();
        let warm_up = stack.rep(None);
        marks.warm_up(&warm_up.timing.slices_ns);
        Campaign { stack, warm_up }
    }

    /// Tracing off: the end-to-end metrics.
    pub fn measure(self, args: &RunArgs) -> Outcome {
        let mut out = Outcome::default();
        let mut timings = EndToEnd::new(self.stack.workflows as u64);
        let mut reps = RepLoop::start(args.budget);
        while reps.next() {
            timings.absorb(self.checked_rep(None, &mut out).timing);
        }
        timings.finish(&mut out);
        self.finish(&mut out);
        out
    }

    /// Tracing on: spans, replays from outside, the per-layer metrics.
    pub fn measure_traced(self, args: &RunArgs) -> Outcome {
        let mut out = Outcome::default();
        let tracing = Arc::new(Mutex::new(Tracing {
            recorder: Recorder::new(Instant::now(), 0),
            calls: Some(Vec::new()),
        }));
        let mut calls: Vec<Call> = Vec::new();
        let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
        let cpu = CpuWindow::open();
        let client_cpu0 = env::thread_cpu_secs();
        let scrape0 = replay::scrape(&self.stack.controller.render_metrics());
        let mut last = None;
        // Traced and untraced repetitions alternate, so the tracing overhead
        // is measured inside one process on one machine state.
        let mut reps = RepLoop::start(args.budget);
        while reps.next() {
            let rep = self.checked_rep(Some(&tracing), &mut out);
            // Only the first traced repetition's calls are kept for replay.
            if let Some(first) = tracing.lock().expect("tracing lock").calls.take() {
                calls = first;
            }
            let plain = self.checked_rep(None, &mut out);
            traced_wall.push(rep.wall_s);
            plain_wall.push(plain.wall_s);
            last = Some(rep);
        }
        let scrape1 = replay::scrape(&self.stack.controller.render_metrics());
        cpu.close(&mut out, env::thread_cpu_secs() - client_cpu0);
        let rep = last.expect("at least one repetition");
        let recorder = Arc::try_unwrap(tracing)
            .unwrap_or_else(|_| panic!("a transport outlived its executor"))
            .into_inner()
            .expect("tracing lock")
            .recorder;

        out.checks.push(Check::new(
            "spans nest inside their parents",
            recorder.validate().is_ok(),
            recorder.validate().err().unwrap_or_default(),
        ));
        let totals = recorder.totals();
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let transport = totals
            .iter()
            .filter(|(n, _)| n.starts_with("transport."))
            .fold((0u64, 0u64), |(ns, n), (_, t)| {
                (ns + t.total_ns, n + t.count)
            });
        let workflows = (self.stack.workflows as u64 * total("rep").count) as f64;
        let rep_ns = total("rep").total_ns as f64;

        out.count(
            "workflow.plan_ms_per_wf",
            total("plan").total_ns as f64 / 1e6 / workflows,
        );
        out.count(
            "workflow.exec_net_self_ms_per_wf",
            total("executor.run").self_ns as f64 / 1e6 / workflows,
        );
        out.count(
            "workflow.transport_share",
            transport.0 as f64 / total("executor.run").total_ns.max(1) as f64,
        );
        out.count(
            "workflow.policy_calls_per_wf",
            rep.stats.policy_calls as f64 / self.stack.workflows as f64,
        );
        out.count("workflow.makespan_sim_s", rep.stats.makespan.as_secs_f64());
        out.count(
            "trace.attributed_ratio",
            (rep_ns - total("rep").self_ns as f64) / rep_ns.max(1.0),
        );
        out.count(
            "trace.overhead_ratio",
            median(&traced_wall) / median(&plain_wall) - 1.0,
        );

        // Replays from outside: what the client cannot see of a round trip.
        let requests = calls.len() as f64;
        let codec = replay::codec(&calls);
        let service = replay::service(&calls, |c| {
            c.create_session(DEFAULT_SESSION, policy_config());
        });
        let rtt_mean_us = transport.0 as f64 / 1e3 / transport.1.max(1) as f64;
        codec.push_metrics(&mut out);
        out.count(
            "rest.residual_us_per_req",
            rtt_mean_us - codec.total_ns_per_req() / 1e3 - service.mean_us,
        );
        let served = (scrape1.requests - scrape0.requests).max(1.0);
        out.count(
            "rest.wakeups_per_req",
            (scrape1.wakeups - scrape0.wakeups) / served,
        );
        out.count(
            "rest.batch_ratio",
            (scrape1.batched - scrape0.batched) / served,
        );
        out.count("core.service_us_per_req", service.mean_us);
        out.count("core.service_p99_us", service.p99_us);
        out.count(
            "core.rule_firings_per_req",
            rep.service.rule_firings as f64 / requests.max(1.0),
        );
        out.count(
            "core.suppressed_ratio",
            rep.service.transfers_suppressed as f64 / rep.service.transfer_requests.max(1) as f64,
        );
        out.count("rules.eval_us_per_req", service.rules_us);
        out.count("rules.evaluations_per_req", service.rule_evaluations);
        out.count(
            "rules.firing_yield",
            service.rule_firings / service.rule_evaluations.max(1e-9),
        );
        out.count(
            "rules.share_of_service",
            service.rules_us / service.mean_us.max(1e-9),
        );
        // The simulator runs inside the executor here; from outside only its
        // allocator counters are visible.
        let a = &rep.alloc;
        out.count(
            "net.skip_ratio",
            a.skipped as f64 / (a.recomputes + a.skipped).max(1) as f64,
        );
        out.count(
            "net.flows_per_component_run",
            a.flows_allocated as f64 / a.component_runs.max(1) as f64,
        );

        out.checks.push(Check::eq(
            "replayed service answers as the live one did",
            service.mismatches,
            0,
        ));
        out.checks.push(Check::eq(
            "every policy call of the repetition is replayed",
            calls.len() as u64,
            rep.stats.policy_calls,
        ));
        out.notes.push((
            "traced_repetitions",
            format!(
                "{} traced + {} untraced, {} spans",
                traced_wall.len(),
                plain_wall.len(),
                recorder.spans().len(),
            ),
        ));
        out.recorder = Some(recorder);
        self.finish(&mut out);
        out
    }
}
