//! The executor ↔ Policy Service message rule, checked on whole runs of the
//! paper's Montage workflow: a report window is its outcomes in sequence,
//! no report crosses a simulated instant, every evaluate sees every earlier
//! outcome, a dropped window is resent whole, and a halt closes the window.

use pwm_core::transport::PolicyTransport;
use pwm_core::SharedSimClock;
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, PolicyConfig, PolicyController, TransferAdvice,
    TransferOutcome, TransferSpec, TransportError, DEFAULT_SESSION,
};
use pwm_montage::{montage_one_degree, montage_replicas};
use pwm_net::{paper_testbed, Network, StreamModel};
use pwm_rest::PolicyRestClient;
use pwm_sim::{SimDuration, SimTime};
use pwm_workflow::{
    plan, Checkpoint, ComputeSite, ExecutablePlan, ExecutorConfig, PlannerConfig, RunStats,
    WorkflowExecutor, CLEANUP_DURATION,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const SEED: u64 = 1;

/// The paper's Montage 1° workflow (89 staging jobs), planned for Obelix.
fn montage() -> (ExecutablePlan, ComputeSite) {
    let (_topo, gridftp, apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let wf = montage_one_degree(10_000_000, SEED);
    let rc = montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
    (p, site)
}

fn controller() -> PolicyController {
    PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50),
    )
}

fn in_process(controller: &PolicyController) -> Box<dyn PolicyTransport> {
    Box::new(PolicyRestClient::pipe(controller.clone(), DEFAULT_SESSION))
}

fn config(clock: Option<SharedSimClock>) -> ExecutorConfig {
    ExecutorConfig {
        seed: SEED,
        policy_call_latency: SimDuration::from_millis(75),
        clock,
        ..Default::default()
    }
}

fn run(
    p: &ExecutablePlan,
    site: &ComputeSite,
    transport: Box<dyn PolicyTransport>,
    cfg: ExecutorConfig,
) -> (RunStats, Checkpoint) {
    let (topo, ..) = paper_testbed();
    let network = Network::with_seed(topo, StreamModel::default(), SEED);
    let (stats, _net, checkpoint) =
        WorkflowExecutor::new(p, site, network, transport, cfg).run_checkpointed();
    (stats, checkpoint)
}

/// One call as the service saw it (evaluates carry their answer).
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    EvaluateTransfers(Vec<TransferAdvice>),
    ReportTransfers(Vec<TransferOutcome>),
    EvaluateCleanups(Vec<CleanupAdvice>),
    ReportCleanups(Vec<CleanupOutcome>),
}

type CallLog = Arc<Mutex<Vec<(SimTime, Seen)>>>;

/// Logs every call with the simulated instant it arrived at, and fails
/// every call arriving inside `outage` (a service outage on the sim clock).
struct Recording {
    inner: Box<dyn PolicyTransport>,
    clock: SharedSimClock,
    log: CallLog,
    outage: Option<(SimTime, SimTime)>,
    /// Reports the outage dropped, as sent.
    dropped: Arc<Mutex<Vec<Seen>>>,
}

impl Recording {
    fn new(controller: &PolicyController) -> (Self, SharedSimClock, CallLog) {
        let clock = SharedSimClock::new();
        let log = CallLog::default();
        let recording = Recording {
            inner: in_process(controller),
            clock: clock.clone(),
            log: log.clone(),
            outage: None,
            dropped: Arc::default(),
        };
        (recording, clock, log)
    }

    fn down(&self) -> bool {
        let now = self.clock.now();
        self.outage
            .is_some_and(|(from, to)| from <= now && now < to)
    }

    fn seen(&self, call: Seen) {
        self.log.lock().unwrap().push((self.clock.now(), call));
    }

    fn drop_report(&self, report: Seen) -> Result<(), TransportError> {
        self.dropped.lock().unwrap().push(report);
        Err(TransportError::Io("outage".into()))
    }
}

impl PolicyTransport for Recording {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        if self.down() {
            return Err(TransportError::Io("outage".into()));
        }
        let advice = self.inner.evaluate_transfers(batch)?;
        self.seen(Seen::EvaluateTransfers(advice.clone()));
        Ok(advice)
    }
    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        if self.down() {
            return self.drop_report(Seen::ReportTransfers(outcomes));
        }
        self.seen(Seen::ReportTransfers(outcomes.clone()));
        self.inner.report_transfers(outcomes)
    }
    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        if self.down() {
            return Err(TransportError::Io("outage".into()));
        }
        let advice = self.inner.evaluate_cleanups(batch)?;
        self.seen(Seen::EvaluateCleanups(advice.clone()));
        Ok(advice)
    }
    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        if self.down() {
            return self.drop_report(Seen::ReportCleanups(outcomes));
        }
        self.seen(Seen::ReportCleanups(outcomes.clone()));
        self.inner.report_cleanups(outcomes)
    }
}

/// A recorded run against a fresh service.
fn recorded_run(
    p: &ExecutablePlan,
    site: &ComputeSite,
    halt_at: Option<SimTime>,
) -> (RunStats, Checkpoint, PolicyController, Vec<(SimTime, Seen)>) {
    let service = controller();
    let (recording, clock, log) = Recording::new(&service);
    let mut cfg = config(Some(clock));
    cfg.halt_at = halt_at;
    let (stats, checkpoint) = run(p, site, Box::new(recording), cfg);
    let log = std::mem::take(&mut *log.lock().unwrap());
    (stats, checkpoint, service, log)
}

/// The instant of the first window that carried several cleanup jobs'
/// outcomes in one report.
fn a_merged_cleanup_window(log: &[(SimTime, Seen)]) -> SimTime {
    log.iter()
        .find_map(|(at, call)| match call {
            Seen::ReportCleanups(outcomes) if outcomes.len() > 1 => Some(*at),
            _ => None,
        })
        .expect("some cleanup jobs of a Montage run finish at one instant")
}

/// Splits every report into single-outcome calls: what the service would
/// see if the executor had no report window (and no list reports at all).
struct Unbatched(Box<dyn PolicyTransport>);

impl PolicyTransport for Unbatched {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        self.0.evaluate_transfers(batch)
    }
    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        outcomes
            .into_iter()
            .try_for_each(|o| self.0.report_transfers(vec![o]))
    }
    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        self.0.evaluate_cleanups(batch)
    }
    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        outcomes
            .into_iter()
            .try_for_each(|o| self.0.report_cleanups(vec![o]))
    }
}

#[test]
fn a_window_is_its_outcomes_in_sequence_at_the_service() {
    let (p, site) = montage();
    let windowed = controller();
    let (mut a, _) = run(&p, &site, in_process(&windowed), config(None));
    let unbatched = controller();
    let (mut b, _) = run(
        &p,
        &site,
        Box::new(Unbatched(in_process(&unbatched))),
        config(None),
    );
    assert!(a.success && b.success);
    // The one field that counts wire calls; the decorator sits below it.
    assert_eq!(a.policy_calls, b.policy_calls);
    (a.policy_calls, b.policy_calls) = (0, 0);
    assert_eq!(a, b, "the run cannot tell a window from its outcomes");

    let s = DEFAULT_SESSION;
    assert_eq!(
        windowed.snapshot(s).unwrap(),
        unbatched.snapshot(s).unwrap()
    );
    assert_eq!(windowed.stats(s).unwrap(), unbatched.stats(s).unwrap());
    assert_eq!(
        windowed.audit_since(s, 0).unwrap(),
        unbatched.audit_since(s, 0).unwrap(),
        "same decisions in the same order"
    );
    let firings = |c: &PolicyController| -> Vec<(String, u64)> {
        let rules = c.rule_stats(s).unwrap();
        rules.into_iter().map(|r| (r.name, r.firings)).collect()
    };
    assert_eq!(firings(&windowed), firings(&unbatched));
}

#[test]
fn no_report_crosses_an_instant_and_every_evaluate_sees_earlier_outcomes() {
    let (p, site) = montage();
    let (stats, _, service, log) = recorded_run(&p, &site, None);
    assert!(stats.success);

    // A cleanup job's deletions end `CLEANUP_DURATION` after its advice:
    // that instant is when its outcomes exist, and when they must arrive.
    let mut due: HashMap<u64, SimTime> = HashMap::new();
    let mut merged_windows = 0;
    for (at, call) in &log {
        match call {
            Seen::EvaluateCleanups(advice) => {
                for a in advice.iter().filter(|a| a.should_execute()) {
                    due.insert(a.id.0, *at + CLEANUP_DURATION);
                }
            }
            Seen::ReportCleanups(outcomes) => {
                merged_windows += (outcomes.len() > 1) as usize;
                for o in outcomes {
                    assert_eq!(
                        due.remove(&o.id.0),
                        Some(*at),
                        "cleanup {} reported at {at}, not at the instant its deletions ended",
                        o.id.0
                    );
                }
            }
            _ => {}
        }
        if matches!(call, Seen::EvaluateTransfers(_) | Seen::EvaluateCleanups(_)) {
            let late: Vec<_> = due.iter().filter(|(_, &t)| t < *at).collect();
            assert!(
                late.is_empty(),
                "evaluate at {at} answered before outcomes {late:?} arrived"
            );
        }
    }
    assert!(due.is_empty(), "unreported at the end of the run: {due:?}");
    assert!(
        merged_windows > 0,
        "the run never exercised a shared window"
    );
    let snap = service.snapshot(DEFAULT_SESSION).unwrap();
    assert_eq!(
        (snap.in_progress_transfers, snap.in_progress_cleanups),
        (0, 0)
    );
}

#[test]
fn a_window_dropped_by_an_outage_is_resent_whole() {
    let (p, site) = montage();
    let (_, _, _, calm) = recorded_run(&p, &site, None);
    let at = a_merged_cleanup_window(&calm);

    // The same run, with the service unreachable for that one instant.
    let service = controller();
    let (mut recording, clock, log) = Recording::new(&service);
    recording.outage = Some((at, at + SimDuration::from_millis(1)));
    let dropped = recording.dropped.clone();
    let (stats, _) = run(&p, &site, Box::new(recording), config(Some(clock)));
    assert!(stats.success);

    let dropped = dropped.lock().unwrap();
    let lost: Vec<u64> = dropped
        .iter()
        .find_map(|r| match r {
            Seen::ReportCleanups(outcomes) if outcomes.len() > 1 => {
                Some(outcomes.iter().map(|o| o.id.0).collect())
            }
            _ => None,
        })
        .expect("the outage dropped the shared window");
    let log = log.lock().unwrap();
    let resent = log
        .iter()
        .find_map(|(t, call)| match call {
            Seen::ReportCleanups(outcomes) if outcomes.iter().any(|o| o.id.0 == lost[0]) => {
                Some((*t, outcomes.iter().map(|o| o.id.0).collect::<Vec<_>>()))
            }
            _ => None,
        })
        .expect("the dropped window was resent");
    assert!(resent.0 > at, "resent once the outage was over");
    assert!(
        resent.1.starts_with(&lost),
        "every outcome of the dropped window, in order: {lost:?} vs {:?}",
        resent.1
    );
    let snap = service.snapshot(DEFAULT_SESSION).unwrap();
    assert_eq!(
        (snap.in_progress_transfers, snap.in_progress_cleanups),
        (0, 0),
        "resynced reports must close everything the outage orphaned"
    );
}

#[test]
fn a_halt_closes_the_open_window_and_resume_completes() {
    let (p, site) = montage();
    let (full, _, _, calm) = recorded_run(&p, &site, None);
    assert!(full.success);
    // Halt at an instant whose last act is a cleanup job's deletions
    // ending: the window is open when the loop stops.
    let halt = a_merged_cleanup_window(&calm);

    let (halted, checkpoint, service, log) = recorded_run(&p, &site, Some(halt));
    assert!(!halted.success && !checkpoint.is_empty() && checkpoint.taken_at == halt);
    let until_halt: Vec<_> = calm.iter().filter(|(t, _)| *t <= halt).cloned().collect();
    assert!(matches!(until_halt.last(), Some((t, Seen::ReportCleanups(_))) if *t == halt));
    assert_eq!(
        log, until_halt,
        "the halted service heard exactly what the uninterrupted one had by then"
    );

    let mut cfg = config(None);
    cfg.resume_from = Some(checkpoint);
    let (resumed, _) = run(&p, &site, in_process(&service), cfg);
    assert!(resumed.success, "resume completes the remaining frontier");
}

#[test]
fn wire_calls_of_a_seeded_montage_run_are_pinned() {
    let (p, site) = montage();
    let (stats, _, _, log) = recorded_run(&p, &site, None);
    assert!(stats.success);
    assert_eq!(
        stats.policy_calls,
        log.len() as u64,
        "policy_calls counts wire calls: one per transport invocation"
    );
    assert_eq!(
        stats.policy_calls, 574,
        "Montage 1°, seed 1: one report per window (one report per job made 792 calls)"
    );
}
