//! The executor's trace plane: job, advice-RPC, transfer and retry-backoff
//! spans on the sim-time tracer, and the job lifecycle counters.
//!
//! The executor holds a [`JobTrace`] only when the run is observed and
//! calls into it at each lifecycle point; an unobserved run pays one branch
//! per point and keeps no span bookkeeping.

use crate::planner::{ExecutablePlan, PlanJobKind};
use pwm_core::Name;
use pwm_obs::{Obs, SpanId};
use pwm_sim::SimTime;
use std::collections::HashMap;

/// Span bookkeeping of one observed run.
pub(crate) struct JobTrace<'p> {
    plan: &'p ExecutablePlan,
    obs: Obs,
    job_spans: Vec<Option<SpanId>>,
    /// flow tag → transfer span.
    transfer_spans: HashMap<u64, SpanId>,
    /// job → when its in-flight policy callout was issued.
    rpc_started: HashMap<usize, SimTime>,
}

impl<'p> JobTrace<'p> {
    pub(crate) fn new(plan: &'p ExecutablePlan, obs: Obs) -> Self {
        JobTrace {
            plan,
            obs,
            job_spans: vec![None; plan.len()],
            transfer_spans: HashMap::new(),
            rpc_started: HashMap::new(),
        }
    }

    fn count(&self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.obs.registry.counter(name, help, labels).inc();
    }

    /// The job's kind as a metric label / trace category value.
    fn kind(&self, job: usize) -> &'static str {
        match self.plan.job(job).kind {
            PlanJobKind::Compute { .. } => "compute",
            PlanJobKind::StageIn { .. } => "stage_in",
            PlanJobKind::StageOut { .. } => "stage_out",
            PlanJobKind::Cleanup { .. } => "cleanup",
        }
    }

    /// Open the span of the job's attempt that starts now.
    pub(crate) fn start_job(&mut self, job: usize, now: SimTime) {
        let id = self.obs.tracer.start_span(
            self.plan.job_name(job).to_string(),
            self.kind(job),
            None,
            now,
        );
        self.job_spans[job] = Some(id);
    }

    /// Close the span of the job's current attempt with `state`, counting
    /// nothing: a crash-killed attempt ends `killed`, and its re-run opens
    /// a fresh span.
    pub(crate) fn end_attempt(&mut self, job: usize, state: &str, now: SimTime) {
        if let Some(id) = self.job_spans[job].take() {
            self.obs.tracer.span_arg(id, "state", state);
            self.obs.tracer.end_span(id, now);
        }
    }

    /// Close the job's span and count its terminal state.
    pub(crate) fn end_job(&mut self, job: usize, state: &str, now: SimTime) {
        self.end_attempt(job, state, now);
        let labels = [("kind", self.kind(job)), ("state", state)];
        let help = "Jobs reaching a terminal state, by kind and state";
        self.count("pwm_workflow_jobs_total", help, &labels);
    }

    /// The job issued a policy callout.
    pub(crate) fn rpc_issued(&mut self, job: usize, now: SimTime) {
        self.rpc_started.insert(job, now);
    }

    /// The callout's answer landed: record the round trip as a span under
    /// the job's span.
    pub(crate) fn rpc_landed(&mut self, job: usize, name: &'static str, now: SimTime) {
        if let Some(started) = self.rpc_started.remove(&job) {
            self.obs.tracer.complete_span(
                name,
                "policy_rpc",
                self.job_spans[job],
                started,
                now,
                &[("job", self.plan.job_name(job).to_string())],
            );
        }
    }

    /// Count a fail-safe fallback (policy service unreachable) and mark it
    /// on the trace.
    pub(crate) fn fallback(&self, job: usize, now: SimTime) {
        let help =
            "Callouts answered by the fail-safe fallback because the service was unreachable";
        self.count("pwm_workflow_policy_fallbacks_total", help, &[]);
        self.obs.tracer.instant(
            "policy_fallback",
            "policy_rpc",
            now,
            &[("job", self.plan.job_name(job).to_string())],
        );
    }

    /// Open the span of a transfer the job just started as flow `tag`;
    /// the flow's own span nests under the returned one.
    pub(crate) fn start_transfer(
        &mut self,
        job: usize,
        tag: u64,
        file: &Name,
        streams: u32,
        bytes: u64,
        now: SimTime,
    ) -> SpanId {
        let tracer = &self.obs.tracer;
        let span = tracer.start_span(format!("xfer {file}"), "transfer", self.job_spans[job], now);
        tracer.span_arg(span, "streams", streams.to_string());
        tracer.span_arg(span, "bytes", bytes.to_string());
        self.transfer_spans.insert(tag, span);
        span
    }

    /// Close flow `tag`'s transfer span with its `result`.
    pub(crate) fn end_transfer(&mut self, tag: u64, result: &str, now: SimTime) {
        if let Some(span) = self.transfer_spans.remove(&tag) {
            self.obs.tracer.span_arg(span, "result", result);
            self.obs.tracer.end_span(span, now);
        }
    }

    /// Count an injected transfer failure.
    pub(crate) fn count_failure(&self) {
        let help = "Transfers that failed (injected) and were reported to the service";
        self.count("pwm_workflow_transfer_failures_total", help, &[]);
    }

    /// Count a retry scheduled after a transient failure and record its
    /// backoff, from now until the re-evaluation, under the job's span.
    pub(crate) fn retry_scheduled(&self, job: usize, attempt: u32, now: SimTime, until: SimTime) {
        let help = "Transfer retry attempts scheduled after transient failures";
        self.count("pwm_workflow_transfer_retries_total", help, &[]);
        self.obs.tracer.complete_span(
            "retry_backoff",
            "transfer",
            self.job_spans[job],
            now,
            until,
            &[("attempt", attempt.to_string())],
        );
    }
}
