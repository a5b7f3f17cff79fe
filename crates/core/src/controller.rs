//! The Policy Controller.
//!
//! Fig. 1: "A Policy Controller manages communication between the web
//! interface and the policy engine." [`PolicyController`] owns one or more
//! named policy sessions — each a [`ShardedPolicyService`], one shard
//! unless the session was created with more — so that concurrent HTTP
//! handler threads (see `pwm-rest`) can delegate requests safely, and
//! routes each request to the right session. A durable session whose disk
//! failed (`ENOSPC`, a failed sync, a torn write, a scripted death) is a
//! dead process: from the call that met the failure on, the controller
//! refuses it with [`ControllerError::SessionDown`].

use crate::advice::{CleanupAdvice, CleanupOutcome, TransferAdvice, TransferOutcome};
use crate::config::PolicyConfig;
use crate::disk::{Disk, FsDisk};
use crate::durable::DurabilityConfig;
use crate::model::{CleanupSpec, TransferSpec};
use crate::service::{MemorySnapshot, RuleCounters, ServiceStats};
use crate::shard::ShardedPolicyService;
use crate::window::{CleanupWindow, TransferWindow};
use parking_lot::RwLock;
use pwm_obs::Obs;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The default session name used when a client does not specify one.
pub const DEFAULT_SESSION: &str = "default";

/// Errors surfaced to the web interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// The named session does not exist.
    NoSuchSession(String),
    /// The named session's disk failed: it answers nothing from the call
    /// that met the failure on.
    SessionDown(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::NoSuchSession(name) => write!(f, "no such policy session: {name}"),
            ControllerError::SessionDown(name) => write!(f, "policy session {name} is down"),
        }
    }
}
impl std::error::Error for ControllerError {}

/// Thread-safe front door to one or more policy sessions.
///
/// Lock domains are per shard of each session: the controller-level map
/// lock is a read-mostly `RwLock` held only long enough to clone a session
/// handle, so traffic on one session never blocks another.
#[derive(Clone)]
pub struct PolicyController {
    inner: Arc<RwLock<BTreeMap<String, Arc<ShardedPolicyService>>>>,
    /// Shared metrics registry for all sessions. Each session gets its own
    /// tracer (via [`Obs::with_fresh_tracer`]) so trace dumps are
    /// per-session while `/metrics` exposition is controller-wide.
    obs: Obs,
}

impl PolicyController {
    /// A controller with a single `default` session using `config`.
    pub fn new(config: PolicyConfig) -> Self {
        let controller = PolicyController {
            inner: Arc::new(RwLock::new(BTreeMap::new())),
            obs: Obs::new(),
        };
        controller.create_session(DEFAULT_SESSION, config);
        controller
    }

    /// Install (or replace) a session under `name`: it shares the
    /// controller's metrics registry (labeled `session=<name>`, plus
    /// `shard="N"` when it has more than one shard) and gets a fresh
    /// tracer.
    fn install(&self, name: String, service: ShardedPolicyService) {
        service.set_obs(self.obs.with_fresh_tracer(), &name);
        self.inner.write().insert(name, Arc::new(service));
    }

    /// Create (or replace) a named one-shard session.
    pub fn create_session(&self, name: impl Into<String>, config: PolicyConfig) {
        self.create_sharded_session(name, config, 1);
    }

    /// Create (or replace) a session whose policy memory is split over
    /// `shards` independent engines by `(source, dest)` host pair (see
    /// [`ShardedPolicyService`]).
    pub fn create_sharded_session(
        &self,
        name: impl Into<String>,
        config: PolicyConfig,
        shards: u16,
    ) {
        self.install(name.into(), ShardedPolicyService::new(config, shards));
    }

    /// Create (or replace) a durable session: every state-mutating request
    /// is write-ahead logged and snapshotted for crash recovery, shard `N`
    /// under `dcfg.dir/shard-N` — or, with one shard, under `dcfg.dir`
    /// itself.
    pub fn create_sharded_durable_session(
        &self,
        name: impl Into<String>,
        config: PolicyConfig,
        shards: u16,
        dcfg: DurabilityConfig,
    ) -> io::Result<()> {
        let service = ShardedPolicyService::new(config, shards);
        service.enable_durability(&dcfg)?;
        self.install(name.into(), service);
        Ok(())
    }

    /// Recover a session from the durability directories a `shards`-shard
    /// durable session wrote under `dir` on `disk` (snapshot + log replay)
    /// without resuming logging — the warm-failover path, where a
    /// successor replica replays the failed primary's log. Use
    /// [`PolicyController::resume_durable_session`] when the recovered
    /// session should keep persisting itself.
    pub fn recover_sharded_session_on(
        &self,
        name: impl Into<String>,
        shards: u16,
        disk: &dyn Disk,
        dir: &Path,
    ) -> io::Result<()> {
        let service = ShardedPolicyService::recover_from(disk, dir, shards)?;
        self.install(name.into(), service);
        Ok(())
    }

    /// [`PolicyController::recover_sharded_session_on`] on the real filesystem.
    pub fn recover_sharded_session(
        &self,
        name: impl Into<String>,
        shards: u16,
        dir: &Path,
    ) -> io::Result<()> {
        self.recover_sharded_session_on(name, shards, &FsDisk::default(), dir)
    }

    /// [`PolicyController::create_sharded_durable_session`] with one shard.
    pub fn create_durable_session(
        &self,
        name: impl Into<String>,
        config: PolicyConfig,
        dcfg: DurabilityConfig,
    ) -> io::Result<()> {
        self.create_sharded_durable_session(name, config, 1, dcfg)
    }

    /// Recover a one-shard session from `dcfg.dir` on its disk and resume
    /// durable operation. Re-enabling compacts naturally: the resumed log
    /// starts from a fresh snapshot of the recovered state.
    pub fn resume_durable_session(
        &self,
        name: impl Into<String>,
        dcfg: DurabilityConfig,
    ) -> io::Result<()> {
        let service = ShardedPolicyService::recover_from(dcfg.disk(), &dcfg.dir, 1)?;
        service.enable_durability(&dcfg)?;
        self.install(name.into(), service);
        Ok(())
    }

    /// The controller-wide observability handle (registry shared by all
    /// sessions; its tracer is unused — sessions trace separately).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Render the shared metrics registry in Prometheus text format. First
    /// every shard of every session sets its occupancy and host-pair gauges
    /// from one snapshot of its memory, into the registry it publishes to
    /// (an attached one, after [`PolicyController::attach_obs`]): gauges are
    /// read when scraped, and a policy call publishes only its counters and
    /// latency.
    pub fn render_metrics(&self) -> String {
        for session in self.inner.read().values() {
            session.publish_gauges();
        }
        self.obs.registry.render_prometheus()
    }

    /// Chrome-trace JSON for one session's tracer (all shards of a session
    /// share it).
    pub fn trace_chrome_json(&self, session: &str) -> Result<String, ControllerError> {
        let fallback = || pwm_obs::Tracer::default().chrome_trace_json();
        self.serve(session, |s| s.trace_chrome_json().unwrap_or_else(fallback))
    }

    /// Redirect a session's observability onto an external handle — shared
    /// registry *and* tracer. Traced bench runs use this to merge policy
    /// spans into the same export as the executor's and network's spans.
    pub fn attach_obs(&self, session: &str, obs: Obs) -> Result<(), ControllerError> {
        self.serve(session, |s| s.set_obs(obs, session))
    }

    /// Attach a shared sim clock to a session so its evaluations emit
    /// sim-time trace instants (see
    /// [`crate::PolicyService::set_sim_clock`]).
    pub fn set_sim_clock(
        &self,
        session: &str,
        clock: crate::SharedSimClock,
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.set_sim_clock(clock))
    }

    /// Delete a named session; returns whether it existed.
    pub fn drop_session(&self, name: &str) -> bool {
        self.inner.write().remove(name).is_some()
    }

    /// Run `f` on a session and answer with its result. The map's read
    /// lock is released before `f` touches the session, so requests only
    /// contend on their own session's shard locks. A durable session whose
    /// disk has failed is a dead process: it refuses every call, including
    /// the one that met the failure, which died before it could answer.
    fn serve<R>(
        &self,
        name: &str,
        f: impl FnOnce(&ShardedPolicyService) -> R,
    ) -> Result<R, ControllerError> {
        let session = self
            .inner
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ControllerError::NoSuchSession(name.to_string()))?;
        let down = || ControllerError::SessionDown(name.to_string());
        if session.durability_down() {
            return Err(down());
        }
        let out = f(&session);
        if session.durability_down() {
            return Err(down());
        }
        Ok(out)
    }

    /// Delegate a transfer-request list to a session.
    pub fn evaluate_transfers(
        &self,
        session: &str,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, ControllerError> {
        self.serve(session, |s| s.evaluate_transfers(batch))
    }

    /// Delegate several pipelined request groups to a session in one
    /// batched rules pass per involved shard (see
    /// [`ShardedPolicyService::evaluate_transfer_groups`]). The result
    /// aligns 1:1 with `groups`.
    pub fn evaluate_transfer_groups(
        &self,
        session: &str,
        groups: Vec<Vec<TransferSpec>>,
    ) -> Result<Vec<Vec<TransferAdvice>>, ControllerError> {
        self.serve(session, |s| s.evaluate_transfer_groups(groups))
    }

    /// Evaluate a window of pipelined request groups in place (see
    /// [`ShardedPolicyService::evaluate_window`]): the caller keeps the
    /// window, and with it every buffer the call fills.
    pub fn evaluate_window(
        &self,
        session: &str,
        window: &mut TransferWindow,
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.evaluate_window(window))
    }

    /// Delegate borrowed transfer outcomes to a session.
    pub fn report_transfer_outcomes(
        &self,
        session: &str,
        outcomes: &[TransferOutcome],
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.report_transfer_outcomes(outcomes))
    }

    /// Evaluate one cleanup request in a window the caller keeps.
    pub fn evaluate_cleanup_window(
        &self,
        session: &str,
        window: &mut CleanupWindow,
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.evaluate_cleanup_window(window))
    }

    /// Delegate borrowed cleanup outcomes to a session.
    pub fn report_cleanup_outcomes(
        &self,
        session: &str,
        outcomes: &[CleanupOutcome],
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.report_cleanup_outcomes(outcomes))
    }

    /// Delegate transfer outcomes to a session.
    pub fn report_transfers(
        &self,
        session: &str,
        outcomes: Vec<TransferOutcome>,
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.report_transfers(outcomes))
    }

    /// Delegate a cleanup-request list to a session.
    pub fn evaluate_cleanups(
        &self,
        session: &str,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, ControllerError> {
        self.serve(session, |s| s.evaluate_cleanups(batch))
    }

    /// Delegate cleanup outcomes to a session.
    pub fn report_cleanups(
        &self,
        session: &str,
        outcomes: Vec<CleanupOutcome>,
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.report_cleanups(outcomes))
    }

    /// Delegate infrastructure health observations to a session (broadcast
    /// to every shard).
    pub fn report_health(
        &self,
        session: &str,
        events: Vec<crate::model::HealthEvent>,
    ) -> Result<(), ControllerError> {
        self.serve(session, |s| s.report_health(events))
    }

    /// Snapshot a session's policy memory (merged across shards).
    pub fn snapshot(&self, session: &str) -> Result<MemorySnapshot, ControllerError> {
        self.serve(session, ShardedPolicyService::snapshot)
    }

    /// A session's monitoring counters (summed across shards).
    pub fn stats(&self, session: &str) -> Result<ServiceStats, ControllerError> {
        self.serve(session, ShardedPolicyService::stats)
    }

    /// A session's per-rule engine counters (summed across shards).
    pub fn rule_stats(&self, session: &str) -> Result<Vec<RuleCounters>, ControllerError> {
        self.serve(session, ShardedPolicyService::rule_stats)
    }

    /// Facts a session's memory has yielded to whole-type walks (summed
    /// across shards; see [`pwm_rules::WorkingMemory::facts_walked`]).
    pub fn facts_walked(&self, session: &str) -> Result<u64, ControllerError> {
        self.serve(session, ShardedPolicyService::facts_walked)
    }

    /// A session's audit records with sequence ≥ `since` (concatenated
    /// shard by shard — each shard numbers its own ring).
    pub fn audit_since(
        &self,
        session: &str,
        since: u64,
    ) -> Result<Vec<crate::audit::AuditRecord>, ControllerError> {
        self.serve(session, |s| s.audit_since(since))
    }

    /// Reconfigure a session in place (all shards).
    pub fn set_config(&self, session: &str, config: PolicyConfig) -> Result<(), ControllerError> {
        self.serve(session, |s| s.set_config(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskFault, DiskOp, FaultKind, SimDisk};
    use crate::model::{CleanupId, HealthEvent, TransferId, Url, WorkflowId};

    fn spec(n: u32) -> TransferSpec {
        spec_on("", n)
    }

    /// Like `spec`, on host pair `s{pair} -> d{pair}` (distinct pairs
    /// spread over the shards of a multi-shard session).
    fn spec_on(pair: &str, n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", format!("s{pair}"), format!("/f{n}")),
            dest: Url::new("file", format!("d{pair}"), format!("/f{n}")),
            bytes: 1,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    #[test]
    fn default_session_exists() {
        let c = PolicyController::new(PolicyConfig::default());
        let names: Vec<String> = c.inner.read().keys().cloned().collect();
        assert_eq!(names, vec![DEFAULT_SESSION.to_string()]);
        let advice = c
            .evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        assert_eq!(advice.len(), 1);
    }

    #[test]
    fn unknown_session_errors() {
        let c = PolicyController::new(PolicyConfig::default());
        let err = c.evaluate_transfers("nope", vec![spec(1)]).unwrap_err();
        assert_eq!(err, ControllerError::NoSuchSession("nope".into()));
    }

    #[test]
    fn sessions_are_isolated() {
        let c = PolicyController::new(PolicyConfig::default());
        c.create_session("other", PolicyConfig::default());
        c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        // The duplicate is only a duplicate within the same session.
        let advice = c.evaluate_transfers("other", vec![spec(1)]).unwrap();
        assert!(advice[0].should_execute());
        assert_eq!(c.stats("other").unwrap().transfers_suppressed, 0);
    }

    #[test]
    fn drop_session_removes_it() {
        let c = PolicyController::new(PolicyConfig::default());
        c.create_session("temp", PolicyConfig::default());
        assert!(c.drop_session("temp"));
        assert!(!c.drop_session("temp"));
        assert!(c.snapshot("temp").is_err());
    }

    #[test]
    fn controller_is_cloneable_and_shares_state() {
        let c = PolicyController::new(PolicyConfig::default());
        let c2 = c.clone();
        c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        assert_eq!(c2.stats(DEFAULT_SESSION).unwrap().transfer_requests, 1);
    }

    #[test]
    fn metrics_exposition_covers_all_sessions() {
        let c = PolicyController::new(PolicyConfig::default());
        c.create_session("other", PolicyConfig::default());
        c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        c.evaluate_transfers("other", vec![spec(2)]).unwrap();
        let text = c.render_metrics();
        assert!(
            text.contains("pwm_policy_transfer_requests_total{session=\"default\"} 1"),
            "default session counters missing:\n{text}"
        );
        assert!(
            text.contains("pwm_policy_transfer_requests_total{session=\"other\"} 1"),
            "named session counters missing:\n{text}"
        );
        assert!(text.contains("# TYPE pwm_policy_advice_latency_micros histogram"));
    }

    #[test]
    fn session_trace_is_valid_chrome_json_even_when_empty() {
        let c = PolicyController::new(PolicyConfig::default());
        let trace = c.trace_chrome_json(DEFAULT_SESSION).unwrap();
        assert!(
            pwm_obs::JsonValue::parse(&trace).is_ok(),
            "not JSON: {trace}"
        );
        assert!(c.trace_chrome_json("nope").is_err());
    }

    #[test]
    fn durable_session_survives_controller_restart() {
        let (disk, dir) = (SimDisk::new(), Path::new("restart"));
        let dcfg = || DurabilityConfig::on(disk.clone(), dir);
        let c = PolicyController::new(PolicyConfig::default());
        c.create_durable_session("durable", PolicyConfig::default(), dcfg())
            .unwrap();
        let advice = c.evaluate_transfers("durable", vec![spec(1)]).unwrap();
        c.report_transfers(
            "durable",
            vec![TransferOutcome {
                id: advice[0].id,
                success: true,
            }],
        )
        .unwrap();
        let before = c.snapshot("durable").unwrap();
        // One shard logs in `dir` itself, where a bare engine reads it.
        let bare = crate::PolicyService::recover_from(&disk, dir).unwrap();
        assert_eq!(bare.snapshot(), before);

        // A brand-new controller (the restarted process) recovers it.
        let c2 = PolicyController::new(PolicyConfig::default());
        c2.resume_durable_session("durable", dcfg()).unwrap();
        assert_eq!(c2.snapshot("durable").unwrap(), before);
        // Dedup memory survived the restart.
        let again = c2.evaluate_transfers("durable", vec![spec(1)]).unwrap();
        assert!(!again[0].should_execute());
        // And the resumed session keeps logging: a third controller can
        // recover the post-restart state too.
        let c3 = PolicyController::new(PolicyConfig::default());
        c3.recover_sharded_session_on("durable", 1, &disk, dir)
            .unwrap();
        assert_eq!(c3.stats("durable").unwrap(), c2.stats("durable").unwrap());
    }

    #[test]
    fn sharded_durable_session_recovers_into_a_fresh_controller() {
        let (disk, dir) = (SimDisk::new(), Path::new("grid"));
        let c = PolicyController::new(PolicyConfig::default());
        let dcfg = DurabilityConfig::on(disk.clone(), dir).with_snapshot_every(3);
        c.create_sharded_durable_session("grid", PolicyConfig::default(), 4, dcfg)
            .unwrap();
        // Stage 16 files over 16 host pairs, complete them all, then clean
        // half of them up.
        let batch: Vec<TransferSpec> = (0..16).map(|i| spec_on(&i.to_string(), i)).collect();
        let advice = c.evaluate_transfers("grid", batch.clone()).unwrap();
        let done = |id| TransferOutcome { id, success: true };
        c.report_transfers("grid", advice.iter().map(|a| done(a.id)).collect())
            .unwrap();
        let cleanups: Vec<CleanupSpec> = batch[..8]
            .iter()
            .map(|t| CleanupSpec {
                file: t.dest.clone(),
                workflow: t.workflow,
            })
            .collect();
        let cleaned = c.evaluate_cleanups("grid", cleanups).unwrap();
        assert!(cleaned.iter().all(|a| a.should_execute()));
        let outcomes = cleaned
            .iter()
            .map(|a| CleanupOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        c.report_cleanups("grid", outcomes).unwrap();
        for s in 0..4 {
            let wal = dir
                .join(format!("shard-{s}"))
                .join(crate::durable::WAL_FILE);
            assert!(disk.read(&wal).is_ok(), "shard {s} WAL");
        }

        let c2 = PolicyController::new(PolicyConfig::default());
        c2.recover_sharded_session_on("grid", 4, &disk, dir)
            .unwrap();
        assert_eq!(c2.snapshot("grid").unwrap(), c.snapshot("grid").unwrap());
        assert_eq!(c2.stats("grid").unwrap(), c.stats("grid").unwrap());
        assert_eq!(c2.snapshot("grid").unwrap().staged_files, 8);
        // Dedup memory survived: a still-staged file is suppressed, a
        // cleaned-up one is staged again.
        let again = c2
            .evaluate_transfers("grid", vec![batch[12].clone(), batch[2].clone()])
            .unwrap();
        let executes = |t: &TransferSpec| {
            let a = again.iter().find(|a| a.dest == t.dest).unwrap();
            a.should_execute()
        };
        assert!(!executes(&batch[12]), "staged file must stay suppressed");
        assert!(executes(&batch[2]), "cleaned-up file must stage again");
    }

    #[test]
    fn sim_clock_and_obs_attach_in_either_order() {
        use crate::SharedSimClock;
        for clock_first in [true, false] {
            let c = PolicyController::new(PolicyConfig::default());
            let obs = Obs::new();
            let clock = SharedSimClock::new();
            clock.set(pwm_sim::SimTime::from_secs(3));
            if clock_first {
                c.set_sim_clock(DEFAULT_SESSION, clock).unwrap();
                c.attach_obs(DEFAULT_SESSION, obs.clone()).unwrap();
            } else {
                c.attach_obs(DEFAULT_SESSION, obs.clone()).unwrap();
                c.set_sim_clock(DEFAULT_SESSION, clock).unwrap();
            }
            c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
                .unwrap();
            let events = obs.tracer.events();
            assert!(
                events
                    .iter()
                    .any(|e| e.name == "evaluate_transfers"
                        && e.start == pwm_sim::SimTime::from_secs(3)),
                "clock_first={clock_first}: no sim-time evaluation instant in {events:?}"
            );
        }
    }

    /// One of every call on `session`, each appending to a durable
    /// session's log.
    fn round(c: &PolicyController, session: &str, n: u32) -> [Result<(), ControllerError>; 5] {
        let evaluated = c.evaluate_transfers(session, vec![spec(n)]);
        let id = evaluated.as_ref().map_or(TransferId(0), |a| a[0].id);
        let reported = c.report_transfers(session, vec![TransferOutcome { id, success: true }]);
        let host = "s".into();
        let health = c.report_health(session, vec![HealthEvent::HostDown { host }]);
        let (file, workflow) = (spec(n).dest, spec(n).workflow);
        let cleaned = c.evaluate_cleanups(session, vec![CleanupSpec { file, workflow }]);
        let id = cleaned.as_ref().map_or(CleanupId(0), |a| a[0].id);
        let done = c.report_cleanups(session, vec![CleanupOutcome { id, success: true }]);
        [
            evaluated.map(drop),
            reported,
            health,
            cleaned.map(drop),
            done,
        ]
    }

    /// A durable session on a disk failing on `fault`, compacting every
    /// `every` appends: two rounds of calls answer up to call `fails`
    /// (0-based), which met the failure and never answered, and nothing
    /// answers after it. Returns the controller, with "dying" down.
    fn down_from_the_failing_call(
        fault: impl Into<DiskFault>,
        every: u64,
        fails: usize,
    ) -> PolicyController {
        let c = PolicyController::new(PolicyConfig::default());
        let dcfg =
            DurabilityConfig::on(SimDisk::failing(fault), "dying").with_snapshot_every(every);
        c.create_durable_session("dying", PolicyConfig::default(), dcfg)
            .unwrap();
        let answers: Vec<_> = (0..2).flat_map(|n| round(&c, "dying", n)).collect();
        let down = Err(ControllerError::SessionDown("dying".into()));
        assert!(answers[..fails].iter().all(Result::is_ok), "{answers:?}");
        assert!(answers[fails..].iter().all(|r| *r == down), "{answers:?}");
        assert_eq!(c.stats("dying").map(drop), down);
        c
    }

    #[test]
    fn a_session_dies_at_its_crash_point_and_answers_nothing_after() {
        // The report's append fires the crash: it never answered, and
        // nothing after it does.
        let c = down_from_the_failing_call(pwm_sim::CrashPoint::AfterAppend(2), 64, 1);
        // On the same controller, no log or a log that never fails:
        // nothing is refused, and "dying" stays down.
        c.create_session("plain", PolicyConfig::default());
        let dcfg = DurabilityConfig::on(SimDisk::new(), "healthy");
        c.create_durable_session("healthy", PolicyConfig::default(), dcfg)
            .unwrap();
        for session in ["plain", "healthy"] {
            for n in 0..8 {
                assert!(round(&c, session, n).iter().all(Result::is_ok), "{session}");
            }
        }
        let down = Err(ControllerError::SessionDown("dying".into()));
        assert_eq!(c.stats("dying").map(drop), down);
    }

    #[test]
    fn no_space_on_an_append_takes_the_session_down() {
        let fault = DiskFault::on_log(DiskOp::Write, 3, FaultKind::NoSpace);
        down_from_the_failing_call(fault, 64, 2);
    }

    #[test]
    fn no_space_on_the_snapshot_file_takes_the_session_down() {
        // Snapshot 1 is the base one; the compaction after the second
        // append cannot write its temporary file.
        let fault = DiskFault {
            file: crate::durable::SNAPSHOT_TMP,
            op: DiskOp::Write,
            nth: 2,
            kind: FaultKind::NoSpace,
        };
        down_from_the_failing_call(fault, 2, 1);
    }

    #[test]
    fn a_failed_sync_takes_the_session_down() {
        let fault = DiskFault::on_log(DiskOp::Sync, 4, FaultKind::IoError);
        down_from_the_failing_call(fault, 64, 3);
    }

    #[test]
    fn a_removed_durability_directory_takes_the_session_down() {
        // On the real filesystem: the log's open file still takes the
        // first two appends, and the compaction after the second cannot
        // create its temporary file. No call after that one answers.
        let dir = FsDisk::scratch_dir("ctl-removed");
        let c = PolicyController::new(PolicyConfig::default());
        let dcfg = DurabilityConfig::new(&dir).with_snapshot_every(2);
        c.create_durable_session("gone", PolicyConfig::default(), dcfg)
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let answers: Vec<_> = (0..4)
            .map(|n| c.evaluate_transfers("gone", vec![spec(n)]).map(drop))
            .collect();
        let down = Err(ControllerError::SessionDown("gone".into()));
        assert_eq!(answers, [Ok(()), down.clone(), down.clone(), down]);
    }

    #[test]
    fn recover_session_from_empty_dir_errors() {
        let c = PolicyController::new(PolicyConfig::default());
        let empty = c.recover_sharded_session_on("x", 1, &SimDisk::new(), Path::new("empty"));
        assert!(empty.is_err());
        assert!(!c.inner.read().contains_key("x"));
    }

    #[test]
    fn concurrent_access_is_safe() {
        // The same threads hammer a one-shard and a four-shard session:
        // each session (and each shard) is its own lock domain.
        let c = PolicyController::new(PolicyConfig::default());
        c.create_sharded_session("grid", PolicyConfig::default(), 4);
        let mut handles = Vec::new();
        for thread in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let n = thread * 100 + i;
                    c.evaluate_transfers(DEFAULT_SESSION, vec![spec(n)])
                        .unwrap();
                    let advice = c
                        .evaluate_transfers("grid", vec![spec_on(&i.to_string(), n)])
                        .unwrap();
                    c.report_transfers(
                        "grid",
                        vec![TransferOutcome {
                            id: advice[0].id,
                            success: true,
                        }],
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats(DEFAULT_SESSION).unwrap().transfer_requests, 160);
        let grid = c.stats("grid").unwrap();
        assert_eq!(grid.transfer_requests, 160);
        assert_eq!(grid.transfers_completed, 160);
        assert_eq!(c.snapshot("grid").unwrap().staged_files, 160);
    }
}
