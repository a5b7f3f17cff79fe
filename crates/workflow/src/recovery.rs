//! Failure domains and policy-driven re-planning.
//!
//! This module defines the executor's *recovery plane*: one deterministic
//! fault schedule (host, compute-node and storage-backend windows on a
//! [`FaultPlan`]), a seeded data-integrity model, and the knobs that decide
//! how the executor reacts when those faults land. The executor takes a
//! [`RecoveryConfig`] and returns a [`RecoveryReport`]. In between, a
//! `RecoveryPlane` owns every piece of recovery state (attempt epochs, down
//! hosts, strikes, file generations) and answers the executor's questions —
//! what a fault edge does, whether a read was corrupt, where a blocked
//! transfer goes next — with what the executor must do. With no config (or
//! an inert one) no plane is attached and the executor's event stream is
//! byte-identical to a build without it.
//!
//! Each fault is stated once, as one window (DESIGN.md §13 details the
//! physics). Windows on one target nest: it goes down with the first
//! window that opens and comes back with the last one that closes.
//!
//! * **host crash** ([`CrashTarget::Host`]) — every flow endpointed at the
//!   host dies at the crash instant
//!   ([`pwm_net::Network::kill_flows_touching`]), and the executor takes the
//!   host's access link down for the window, so naive retries physically
//!   stall until the restart.
//! * **compute-node crash** ([`CrashTarget::ComputeNode`]) — the node's
//!   `cores_per_node` cores leave the pool until it restarts, and up to that
//!   many running compute jobs die with them (lowest job id first): their
//!   completions are ignored, their outputs leave scratch, and they re-queue
//!   at the restart.
//! * **backend outage** ([`CrashTarget::Backend`]) — the backend's store
//!   host is down for the window: its access link too.
//! * **policy-replica fault** ([`CrashTarget::PolicyReplica`]) — one
//!   replica of a [`pwm_core::FailoverTransport`] chain refuses every call
//!   for the window, so the chain fails over past it (or, with no replica
//!   left, the executor falls back to its fail-safe advice).
//! * **silent corruption** ([`pwm_storage::CorruptionModel`]) — a landed
//!   transfer fails the transfer tool's checksum; a pure function of `(seed,
//!   source host, file, attempt)`, and files regenerated by a producer re-run
//!   read clean.
//!
//! With [`RecoveryConfig::report_health`] set, recovery is policy-driven:
//! [`pwm_core::HealthEvent`]s become recovery facts at the Policy Service,
//! its next advice steers around the failure, and a `Skip(SourceQuarantined)`
//! or `Skip(SourceHostDown)` sends the executor to another replica or, when
//! none survives, re-runs the producer. Without it the executor retries
//! naively against the original source.

use crate::catalog::{Replica, ReplicaCatalog};
use crate::executor::RETRY_BACKOFF_BASE;
use pwm_core::{FailoverProbe, HealthEvent, Name, ServiceFault, Url};
use pwm_net::HostId;
use pwm_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};
use pwm_storage::CorruptionModel;
use std::collections::HashMap;
use std::hash::Hash;

/// Modeled wall time of a producer re-run when corruption survives with no
/// clean replica (the regenerated file's next read is clean).
const PRODUCER_RERUN_DELAY: SimDuration = SimDuration::from_secs(30);

/// What a window of [`RecoveryConfig::faults`] takes down.
#[derive(Debug, Clone)]
pub enum CrashTarget {
    /// One worker node of the compute site (0-based index): kills up to
    /// `cores_per_node` running compute jobs and removes the node's slots
    /// until restart.
    ComputeNode(u32),
    /// A named network host (a data source or storage host): kills every
    /// flow endpointed there, takes its access link down and, when health
    /// reporting is on, publishes `HostDown`/`HostUp` to the Policy Service.
    Host {
        /// The host in the network simulator.
        host: HostId,
        /// Its name as it appears in URLs and health reports.
        name: Name,
    },
    /// A storage backend: its store host's access link is down and, when
    /// health reporting is on, `BackendDown`/`BackendUp` reach the Policy
    /// Service, which steers placement elsewhere.
    Backend {
        /// Backend name as known to the policy service and the storage
        /// layer.
        backend: String,
        /// The backend's store host in the network simulator.
        host: HostId,
    },
    /// One replica of a [`pwm_core::FailoverTransport`] chain: while the
    /// window is open the chain refuses the replica's calls with `fault`'s
    /// error, without invoking it.
    PolicyReplica {
        /// The chain's handle ([`pwm_core::FailoverTransport::probe`]).
        chain: FailoverProbe,
        /// The replica's index in the chain.
        replica: usize,
        /// What the replica's callers see.
        fault: ServiceFault,
    },
}

/// The executor's recovery plane: the fault schedule, the integrity model,
/// and the re-planning knobs.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Scheduled crashes and outages: each window takes its target down at
    /// its start and brings it back at its end.
    pub faults: FaultPlan<CrashTarget>,
    /// Silent-corruption model checked (as a checksum) when each transfer
    /// completes. [`CorruptionModel::is_clean`] ⇒ no checks, no overhead.
    pub corruption: CorruptionModel,
    /// Checksum failures from one replica before it is quarantined and the
    /// executor re-plans away from it (the paper-style "K strikes" rule;
    /// only meaningful with `report_health`).
    pub quarantine_strikes: u32,
    /// Alternate replicas consulted when a source is quarantined or down.
    /// Planning used the preferred replica; failover walks the rest.
    pub replicas: ReplicaCatalog,
    /// Publish `HealthEvent`s to the Policy Service and re-plan from its
    /// advice (policy-guided recovery). Off ⇒ naive retry-with-backoff.
    pub report_health: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            faults: FaultPlan::new(),
            corruption: CorruptionModel::new(0),
            quarantine_strikes: 2,
            replicas: ReplicaCatalog::new(),
            report_health: true,
        }
    }
}

impl RecoveryConfig {
    /// True when the plane can never fire: no fault schedules and a clean
    /// corruption model. The executor skips all recovery bookkeeping then,
    /// keeping the event stream byte-identical to a recovery-free build.
    pub fn is_inert(&self) -> bool {
        self.faults.is_empty() && self.corruption.is_clean()
    }
}

/// What the recovery plane did during one run. All counters are exact and
/// deterministic per seed; `PartialEq` lets determinism suites compare
/// whole reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Host crashes that fired (compute-node and named-host).
    pub host_crashes: u32,
    /// Network flows killed by crashes and outages.
    pub flows_killed: u32,
    /// Running compute jobs killed by node crashes and re-queued.
    pub compute_reruns: u32,
    /// Backend outage windows that fired.
    pub backend_outages: u32,
    /// Completed transfers whose checksum exposed silent corruption.
    pub corrupt_reads: u32,
    /// Replicas quarantined after reaching the strike threshold.
    pub quarantines: u32,
    /// Transfers re-planned onto an alternate replica.
    pub replica_failovers: u32,
    /// Producer re-runs (generation bumps) when no clean replica survived.
    pub producer_reruns: u32,
    /// `HealthEvent` batches delivered to the Policy Service.
    pub health_reports: u32,
    /// Retries parked until a down host's scheduled restart.
    pub waits_for_restart: u32,
}

impl RecoveryReport {
    /// True when nothing recovery-related happened.
    pub fn is_empty(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

/// A resumable snapshot of DAG progress: which jobs had completed when the
/// run halted. Staged-file state deliberately lives in the Policy Service
/// (its `AlreadyStaged` dedup makes re-submitted transfers no-ops), so the
/// checkpoint is just the completed-job frontier — small, stable, and
/// enough to resume without re-running finished work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Names of plan jobs that had reached `Done`.
    pub completed_jobs: Vec<Name>,
    /// Virtual time of the halt.
    pub taken_at: SimTime,
}

impl Checkpoint {
    /// True when nothing had completed.
    pub fn is_empty(&self) -> bool {
        self.completed_jobs.is_empty()
    }
}

/// What the executor must do at a fault edge.
pub(crate) enum FaultResponse {
    /// Kill every flow endpointed at `kill_flows_at` (each victim is
    /// re-asked), then report `health` to the Policy Service.
    Hosts {
        kill_flows_at: Option<HostId>,
        health: Option<HealthEvent>,
    },
    /// Compute node `.0` went down: kill its running attempts, withhold
    /// its cores, and hand both to [`RecoveryPlane::park`].
    NodeDown(u32),
    /// A compute node restarted: re-queue these jobs and return `cores`.
    NodeUp { requeue: Vec<usize>, cores: u32 },
}

/// Where a transfer whose source the policy blocked goes next.
#[derive(Default)]
pub(crate) struct Replan {
    /// Re-stage from this replica instead.
    pub(crate) failover: Option<Replica>,
    /// Report this to the Policy Service first.
    pub(crate) health: Option<HealthEvent>,
    /// Re-ask the policy after this wait (plus one round trip).
    pub(crate) wait: SimDuration,
}

/// The checksum's verdict on a landed transfer.
pub(crate) enum Read {
    Clean,
    /// Discard the bytes, report `.0` (when guided), and retry.
    Corrupt(Option<HealthEvent>),
}

/// The recovery state of one run, attached to the executor only when its
/// config can fire.
pub(crate) struct RecoveryPlane {
    config: RecoveryConfig,
    pub(crate) report: RecoveryReport,
    /// Per-compute-job attempt epoch; bumped when a node crash kills the
    /// running attempt so its stale completion is ignored.
    compute_epoch: Vec<u32>,
    /// Per crashed compute node: the jobs its crash killed and the cores
    /// it withholds until restart.
    crash_requeue: HashMap<u32, (Vec<usize>, u32)>,
    /// Compute node → its open windows (and the last of their ends), while
    /// it is down.
    down_nodes: HashMap<u32, (u32, SimTime)>,
    /// Host name → its open windows and the last of their ends (the
    /// scheduled restart), while the host is down.
    down_hosts: HashMap<Name, (u32, SimTime)>,
    /// The same for backends.
    down_backends: HashMap<String, (u32, SimTime)>,
    /// Checksum strikes per (source host, source path).
    strikes: HashMap<(Name, Name), u32>,
    /// Producer-re-run generation per logical file (generation > 0 reads
    /// clean).
    file_generation: HashMap<Name, u32>,
    /// The policy-replica windows, by fault index, and whether each is
    /// applied as open.
    replica_windows: Vec<(usize, bool)>,
}

impl RecoveryPlane {
    /// The plane for a run of `jobs` jobs, or `None` when `config` can
    /// never fire (absent or inert): the executor then skips every recovery
    /// hook.
    pub(crate) fn attach(config: Option<RecoveryConfig>, jobs: usize) -> Option<Self> {
        let config = config.filter(|c| !c.is_inert())?;
        let replica_windows = (config.faults.events().iter().enumerate())
            .filter(|(_, ev)| matches!(ev.kind, CrashTarget::PolicyReplica { .. }))
            .map(|(fault, _)| (fault, false))
            .collect();
        Some(RecoveryPlane {
            config,
            report: RecoveryReport::default(),
            compute_epoch: vec![0; jobs],
            crash_requeue: HashMap::new(),
            down_nodes: HashMap::new(),
            down_hosts: HashMap::new(),
            down_backends: HashMap::new(),
            strikes: HashMap::new(),
            file_generation: HashMap::new(),
            replica_windows,
        })
    }

    /// The fault windows the executor schedules as events, with their
    /// indexes, in plan order: it schedules each one's down and up edge in
    /// this order, so edges at one instant pop in it. Policy-replica
    /// windows are not among them (see [`RecoveryPlane::replicas_at`]).
    pub(crate) fn scheduled_faults(
        &self,
    ) -> impl Iterator<Item = (usize, &FaultEvent<CrashTarget>)> {
        (self.config.faults.events().iter().enumerate())
            .filter(|(_, ev)| !matches!(ev.kind, CrashTarget::PolicyReplica { .. }))
    }

    /// Open and close the policy-replica windows as they stand at `now`;
    /// the executor calls this each time its clock moves. A replica's edge
    /// is no executor event, since nothing in the executor reacts to it:
    /// the executor learns of an outage, or of the recovery, only from its
    /// next call, which sees each replica as its windows have it then.
    pub(crate) fn replicas_at(&mut self, now: SimTime) {
        for i in 0..self.replica_windows.len() {
            let (fault, was_open) = self.replica_windows[i];
            let open = self.config.faults.events()[fault].window.contains(now);
            if open != was_open {
                self.replica_windows[i].1 = open;
                self.on_fault_edge(fault, open);
            }
        }
    }

    /// Policy-guided runs report health observations; naive-retry runs
    /// never do.
    fn health(&mut self, event: HealthEvent) -> Option<HealthEvent> {
        self.config.report_health.then(|| {
            self.report.health_reports += 1;
            event
        })
    }

    /// Fault `fault` (its index in the plan) goes down, or comes back up.
    /// A target that an earlier window still holds down stays down: only
    /// the first window's down edge and the last window's up edge act on
    /// it.
    pub(crate) fn on_fault_edge(&mut self, fault: usize, down: bool) -> FaultResponse {
        let ev = &self.config.faults.events()[fault];
        let (target, up_at) = (ev.kind.clone(), ev.window.end());
        let nothing = FaultResponse::Hosts {
            kill_flows_at: None,
            health: None,
        };
        match (target, down) {
            (CrashTarget::ComputeNode(node), true) => {
                self.report.host_crashes += 1;
                if !open(&mut self.down_nodes, node, up_at) {
                    return nothing;
                }
                FaultResponse::NodeDown(node)
            }
            (CrashTarget::ComputeNode(node), false) => {
                if !close(&mut self.down_nodes, &node) {
                    return nothing;
                }
                let (requeue, cores) = self.crash_requeue.remove(&node).unwrap_or_default();
                FaultResponse::NodeUp { requeue, cores }
            }
            (CrashTarget::Host { host, name }, true) => {
                self.report.host_crashes += 1;
                if !open(&mut self.down_hosts, name.clone(), up_at) {
                    return nothing;
                }
                FaultResponse::Hosts {
                    kill_flows_at: Some(host),
                    health: self.health(HealthEvent::HostDown { host: name }),
                }
            }
            (CrashTarget::Host { name, .. }, false) => {
                if !close(&mut self.down_hosts, &name) {
                    return nothing;
                }
                FaultResponse::Hosts {
                    kill_flows_at: None,
                    health: self.health(HealthEvent::HostUp { host: name }),
                }
            }
            (CrashTarget::Backend { backend, host }, true) => {
                self.report.backend_outages += 1;
                if !open(&mut self.down_backends, backend.clone(), up_at) {
                    return nothing;
                }
                // Policy-guided: kill the doomed flows now and let
                // re-planning steer them to a live backend; the BackendDown
                // fact removes the backend from the selection candidates.
                // Naive: flows stall on the downed access link until the
                // window ends.
                let health = self.health(HealthEvent::BackendDown { backend });
                FaultResponse::Hosts {
                    kill_flows_at: health.is_some().then_some(host),
                    health,
                }
            }
            (CrashTarget::Backend { backend, .. }, false) => {
                if !close(&mut self.down_backends, &backend) {
                    return nothing;
                }
                FaultResponse::Hosts {
                    kill_flows_at: None,
                    health: self.health(HealthEvent::BackendUp { backend }),
                }
            }
            (
                CrashTarget::PolicyReplica {
                    chain,
                    replica,
                    fault,
                },
                down,
            ) => {
                if down {
                    chain.mark_down(replica, fault);
                } else {
                    chain.mark_up(replica, fault);
                }
                nothing
            }
        }
    }

    /// The epoch a compute attempt starting now runs under.
    pub(crate) fn epoch(&self, job: usize) -> u32 {
        self.compute_epoch[job]
    }

    /// The crash of compute node `node` killed the attempts of `victims`
    /// and withholds `cores` cores until its restart.
    pub(crate) fn park(&mut self, node: u32, victims: Vec<usize>, cores: u32) {
        for &j in &victims {
            self.compute_epoch[j] += 1;
            self.report.compute_reruns += 1;
        }
        self.crash_requeue.insert(node, (victims, cores));
    }

    fn is_quarantined(&self, host: &Name, path: &Name) -> bool {
        self.strikes
            .get(&(host.clone(), path.clone()))
            .is_some_and(|&s| s >= self.config.quarantine_strikes.max(1))
    }

    /// The policy suppressed the transfer of `file` from `source`
    /// (quarantined replica or down host). In order of preference: fail
    /// over to a live alternate replica, re-run the producer (quarantine
    /// with no clean copy), or wait for the down host's scheduled restart.
    pub(crate) fn replan_blocked(
        &mut self,
        file: &Name,
        source: &Url,
        quarantined: bool,
        now: SimTime,
    ) -> Replan {
        let alt = self.config.replicas.replicas(file).iter().find(|r| {
            r.url != *source
                && !self.down_hosts.contains_key(&r.url.host)
                && !self.is_quarantined(&r.url.host, &r.url.path)
        });
        if let Some(alt) = alt.cloned() {
            self.report.replica_failovers += 1;
            return Replan {
                failover: Some(alt),
                ..Replan::default()
            };
        }
        if quarantined {
            // The regenerated file (generation + 1) reads clean, so the
            // quarantine is lifted and advice flows again.
            *self.file_generation.entry(file.clone()).or_insert(0) += 1;
            self.strikes
                .remove(&(source.host.clone(), source.path.clone()));
            self.report.producer_reruns += 1;
            return Replan {
                failover: None,
                health: self.health(HealthEvent::ReplicaCleared {
                    host: source.host.clone(),
                    file: source.path.clone(),
                }),
                wait: PRODUCER_RERUN_DELAY,
            };
        }
        self.report.waits_for_restart += 1;
        let wait = match self.down_hosts.get(&source.host) {
            Some((_, up_at)) => up_at.since(now),
            None => RETRY_BACKOFF_BASE,
        };
        Replan {
            wait,
            ..Replan::default()
        }
    }

    /// Checksum attempt `attempt` of `file` read from `source`. A corrupt
    /// read strikes the replica; the K-th strike quarantines it.
    pub(crate) fn checksum(&mut self, file: &Name, source: &Url, attempt: u32) -> Read {
        let generation = self.file_generation.get(file).copied().unwrap_or(0);
        if self.config.corruption.is_clean()
            || !self
                .config
                .corruption
                .read_is_corrupt(&source.host, file, attempt, generation)
        {
            return Read::Clean;
        }
        self.report.corrupt_reads += 1;
        let key = (source.host.clone(), source.path.clone());
        let strikes = self.strikes.entry(key).or_insert(0);
        *strikes += 1;
        let quarantine = *strikes >= self.config.quarantine_strikes.max(1);
        if quarantine {
            self.report.quarantines += 1;
        }
        Read::Corrupt(self.health(HealthEvent::SuspectReplica {
            host: source.host.clone(),
            file: source.path.clone(),
            quarantine,
        }))
    }
}

/// A window on `key` ending at `until` opens. True when it takes `key`
/// down, false when an earlier window already holds it down.
fn open<K: Hash + Eq>(down: &mut HashMap<K, (u32, SimTime)>, key: K, until: SimTime) -> bool {
    let (windows, end) = down.entry(key).or_insert((0, until));
    *windows += 1;
    *end = (*end).max(until);
    *windows == 1
}

/// A window on `key` closes. True when it was the last one, so `key` is up.
fn close<K: Hash + Eq>(down: &mut HashMap<K, (u32, SimTime)>, key: &K) -> bool {
    let (windows, _) = down.get_mut(key).expect("a window closes after it opened");
    *windows -= 1;
    if *windows > 0 {
        return false;
    }
    down.remove(key);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = RecoveryConfig::default();
        assert!(cfg.is_inert());
        let mut with_crash = cfg.clone();
        let (at, restart_after) = (SimTime::from_secs(10), SimDuration::from_secs(30));
        with_crash
            .faults
            .add(at, restart_after, CrashTarget::ComputeNode(0));
        assert!(!with_crash.is_inert());
        let mut with_corruption = cfg.clone();
        with_corruption.corruption.set_host_prob("gridftp-vm", 0.25);
        assert!(!with_corruption.is_inert());
    }

    #[test]
    fn empty_report_and_checkpoint_know_it() {
        assert!(RecoveryReport::default().is_empty());
        let r = RecoveryReport {
            flows_killed: 1,
            ..Default::default()
        };
        assert!(!r.is_empty());
        assert!(Checkpoint::default().is_empty());
    }

    /// What the edge of `fault` does to its target.
    fn edge(plane: &mut RecoveryPlane, fault: usize, down: bool) -> &'static str {
        match plane.on_fault_edge(fault, down) {
            FaultResponse::Hosts {
                kill_flows_at: Some(_),
                health: Some(_),
            }
            | FaultResponse::NodeDown(_) => "down",
            FaultResponse::Hosts {
                kill_flows_at: None,
                health: Some(_),
            }
            | FaultResponse::NodeUp { .. } => "up",
            FaultResponse::Hosts {
                kill_flows_at: None,
                health: None,
            } => "nothing",
            FaultResponse::Hosts { .. } => unreachable!("a kill without a report"),
        }
    }

    #[test]
    fn overlapping_windows_on_one_target_nest() {
        // On a host, a backend and a compute node, [10 s, 60 s) with
        // [20 s, 30 s) inside it: only the outer window's edges act, and a
        // transfer blocked at 25 s waits for the host's restart at 60 s.
        let mut config = RecoveryConfig::default();
        let host = Name::from("gridftp-vm");
        let targets = [
            CrashTarget::Host {
                host: HostId(0),
                name: host.clone(),
            },
            CrashTarget::Backend {
                backend: "obj-s3".into(),
                host: HostId(1),
            },
            CrashTarget::ComputeNode(0),
        ];
        for (at, secs) in [(10, 50), (20, 10)] {
            for target in &targets {
                let (at, secs) = (SimTime::from_secs(at), SimDuration::from_secs(secs));
                config.faults.add(at, secs, target.clone());
            }
        }
        let mut plane = RecoveryPlane::attach(Some(config), 0).expect("a fault can fire");
        let mut edges = |faults: [usize; 3], down| faults.map(|f| edge(&mut plane, f, down));
        // Faults 0..3 are the outer windows, 3..6 the inner ones.
        assert_eq!(edges([0, 1, 2], true), ["down"; 3]);
        assert_eq!(edges([3, 4, 5], true), ["nothing"; 3]);
        let source = Url::new("gsiftp", host.as_str(), "/data/f1");
        let replan = plane.replan_blocked(&"f1".into(), &source, false, SimTime::from_secs(25));
        assert_eq!(replan.wait, SimDuration::from_secs(35));
        let mut edges = |faults: [usize; 3], down| faults.map(|f| edge(&mut plane, f, down));
        assert_eq!(edges([3, 4, 5], false), ["nothing"; 3]);
        assert_eq!(edges([0, 1, 2], false), ["up"; 3]);
        assert_eq!(plane.report.host_crashes + plane.report.backend_outages, 6);
    }
}
