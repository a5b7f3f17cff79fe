//! The Policy Service.
//!
//! [`PolicyService`] is the component the paper's Fig. 1 calls "Policy
//! Service / policy engine": it owns a rule session (policy rules + policy
//! memory), accepts transfer/cleanup request lists, runs the rules, and
//! returns modified lists with advice. State persists across requests "for
//! the length of transfer and cleanup requests", plus the staged-file
//! locations that outlive completed transfers.

use crate::advice::{
    CleanupAction, CleanupAdvice, CleanupOutcome, TransferAction, TransferAdvice, TransferOutcome,
};
use crate::agenda::Pass;
use crate::audit::{AuditLog, AuditRecord, PolicyEvent};
use crate::balanced::install_balanced_rules;
use crate::config::{OrderingPolicy, PolicyConfig};
use crate::ctx::PolicyCtx;
use crate::disk::Disk;
use crate::durable::{
    read_recovery, Durability, DurabilityConfig, DurableCounts, DurableFact, DurableState,
    WalCommand, WalRecord,
};
use crate::greedy::install_greedy_rules;
use crate::indexes::PolicyIndexes;
use crate::keys::UrlKey;
use crate::model::{
    BackendDownFact, BackendLoadFact, BackendProfileFact, CleanupFact, CleanupId, CleanupSpec,
    CleanupState, ClusterAllocFact, HealthEvent, HostDownFact, HostPairFact, ResourceFact,
    ResourceState, StagedOnFact, SuspectReplicaFact, TransferFact, TransferId, TransferSpec,
    TransferState,
};
use crate::name::Name;
use crate::recovery_rules::install_recovery_rules;
use crate::rules_base::install_base_rules;
use crate::storage_rules::install_storage_rules;
use crate::window::{CleanupWindow, TransferWindow};
use pwm_obs::{Counter, Histogram, Obs};
use pwm_rules::{FactHandle, Session};
use pwm_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters the service keeps for monitoring and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Transfer requests received.
    pub transfer_requests: u64,
    /// Transfers advised to execute.
    pub transfers_executed: u64,
    /// Transfers removed from the list (duplicates, already staged, ...).
    pub transfers_suppressed: u64,
    /// Transfer completions reported.
    pub transfers_completed: u64,
    /// Transfer failures reported.
    pub transfers_failed: u64,
    /// Cleanup requests received.
    pub cleanup_requests: u64,
    /// Cleanups advised to execute.
    pub cleanups_executed: u64,
    /// Cleanups removed from the list.
    pub cleanups_suppressed: u64,
    /// Total rule firings across all evaluations.
    pub rule_firings: u64,
}

/// Per-rule engine counters, as exposed through monitoring (`GET /status`).
///
/// `evaluations` staying flat across requests is the observable proof that
/// the incremental agenda is not re-running matchers whose watched fact
/// types are clean.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCounters {
    /// Rule name.
    pub name: String,
    /// Rule salience.
    pub salience: i32,
    /// Matcher (re-)evaluations since service start.
    pub evaluations: u64,
    /// Fact tuples produced across evaluations.
    pub matches: u64,
    /// Action firings.
    pub firings: u64,
    /// Matcher wall-clock time, nanoseconds, estimated from one timed
    /// evaluation in 16.
    pub eval_nanos: u64,
}

impl From<pwm_rules::RuleStats> for RuleCounters {
    fn from(s: pwm_rules::RuleStats) -> Self {
        RuleCounters {
            name: s.name.as_ref().to_string(),
            salience: s.salience,
            evaluations: s.evaluations,
            matches: s.matches,
            firings: s.firings,
            eval_nanos: s.eval_nanos,
        }
    }
}

/// A point-in-time view of policy memory (the `GET /status` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySnapshot {
    /// Transfers handed out and not yet reported.
    pub in_progress_transfers: usize,
    /// Files known to be staged at their destination.
    pub staged_files: usize,
    /// Files currently being staged.
    pub staging_files: usize,
    /// Cleanups handed out and not yet reported.
    pub in_progress_cleanups: usize,
    /// Per host pair: (src, dst, currently allocated, peak allocated).
    pub host_pairs: Vec<HostPairSnapshot>,
}

/// One host pair's ledger state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostPairSnapshot {
    /// Source host.
    pub src_host: Name,
    /// Destination host.
    pub dst_host: Name,
    /// Streams currently allocated.
    pub allocated: u32,
    /// High-water mark of allocated streams (Table IV's quantity).
    pub peak_allocated: u32,
}

/// The occupancy gauges, in the order [`ServiceObs::publish_memory`] sets
/// them.
const OCCUPANCY_GAUGES: [(&str, &str); 4] = [
    (
        "pwm_policy_in_progress_transfers",
        "Transfers handed out and not yet reported",
    ),
    (
        "pwm_policy_staged_files",
        "Files known to be staged at their destination",
    ),
    ("pwm_policy_staging_files", "Files currently being staged"),
    (
        "pwm_policy_in_progress_cleanups",
        "Cleanups handed out and not yet reported",
    ),
];

/// A host pair's gauges: its allocated and its peak-allocated streams.
const PAIR_GAUGES: [(&str, &str); 2] = [
    (
        "pwm_policy_allocated_streams",
        "Streams currently allocated between a host pair",
    ),
    (
        "pwm_policy_peak_allocated_streams",
        "High-water mark of streams allocated between a host pair",
    ),
];

impl ServiceStats {
    /// The monotone counters the stats are published as: name, help, value.
    fn counters(&self) -> [(&'static str, &'static str, u64); 9] {
        [
            (
                "pwm_policy_transfer_requests_total",
                "Transfer requests received",
                self.transfer_requests,
            ),
            (
                "pwm_policy_transfers_executed_total",
                "Transfers advised to execute",
                self.transfers_executed,
            ),
            (
                "pwm_policy_transfers_suppressed_total",
                "Transfers removed from the request list",
                self.transfers_suppressed,
            ),
            (
                "pwm_policy_transfers_completed_total",
                "Transfer completions reported",
                self.transfers_completed,
            ),
            (
                "pwm_policy_transfers_failed_total",
                "Transfer failures reported",
                self.transfers_failed,
            ),
            (
                "pwm_policy_cleanup_requests_total",
                "Cleanup requests received",
                self.cleanup_requests,
            ),
            (
                "pwm_policy_cleanups_executed_total",
                "Cleanups advised to execute",
                self.cleanups_executed,
            ),
            (
                "pwm_policy_cleanups_suppressed_total",
                "Cleanups removed from the request list",
                self.cleanups_suppressed,
            ),
            (
                "pwm_policy_rule_firings_total",
                "Rule firings across all evaluations",
                self.rule_firings,
            ),
        ]
    }
}

/// Observability attachment for one service: shared metrics registry plus a
/// per-session tracer, with the delta baseline for publishing [`ServiceStats`]
/// as monotone counters.
struct ServiceObs {
    obs: Obs,
    /// Base label set identifying this service: `session="..."` plus, for
    /// a shard of a multi-shard session, `shard="N"`.
    labels: Vec<(String, String)>,
    /// Stats as of the previous publish, so counters receive deltas.
    last: ServiceStats,
    /// Audit-ring evictions as of the previous publish.
    last_audit_dropped: u64,
    /// Registry handles, each resolved the first time its series is written
    /// (a series exists once it has a value) and kept: the registry lookup
    /// takes a lock and formats the label set, a kept handle is an atomic.
    latency: Vec<(&'static str, Histogram)>,
    counters: [Option<Counter>; 9],
    audit_dropped: Option<Counter>,
}

/// Log the disk failure that took a durable session down.
fn session_down(what: &str, e: &io::Error) {
    pwm_obs::global_logger().error(&format!("{what} failed; durable session down: {e}"));
}

/// Label pairs as the borrowed slice shape the registry expects, with room
/// for two more.
fn label_refs(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    let mut refs = Vec::with_capacity(labels.len() + 2);
    refs.extend(labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    refs
}

impl ServiceObs {
    /// Advice latency histogram for one request kind (wall-clock, metrics
    /// only — never written into traces, which must stay deterministic).
    fn advice_latency(&mut self, kind: &'static str) -> &Histogram {
        let at = self.latency.iter().position(|(k, _)| *k == kind);
        let at = at.unwrap_or_else(|| {
            let mut labels = label_refs(&self.labels);
            labels.push(("kind", kind));
            let histogram = self.obs.registry.histogram(
                "pwm_policy_advice_latency_micros",
                "Wall-clock latency of one policy evaluation (rule firing pass), microseconds",
                &labels,
            );
            self.latency.push((kind, histogram));
            self.latency.len() - 1
        });
        &self.latency[at].1
    }

    /// Publish the delta between `stats` and the last published snapshot
    /// onto the registry's counters, and likewise the audit ring's
    /// evictions.
    fn publish_stats(&mut self, stats: ServiceStats, audit_dropped: u64) {
        let ServiceObs {
            counters,
            labels,
            obs,
            ..
        } = self;
        if stats != self.last {
            let then = self.last.counters();
            for (i, (name, help, now)) in stats.counters().into_iter().enumerate() {
                let delta = now.saturating_sub(then[i].2);
                if delta > 0 {
                    counters[i]
                        .get_or_insert_with(|| {
                            obs.registry.counter(name, help, &label_refs(labels))
                        })
                        .add(delta);
                }
            }
            self.last = stats;
        }
        let dropped_delta = audit_dropped.saturating_sub(self.last_audit_dropped);
        if dropped_delta > 0 {
            self.audit_dropped
                .get_or_insert_with(|| {
                    obs.registry.counter(
                        "pwm_policy_audit_dropped_total",
                        "Audit records evicted by the retention ring",
                        &label_refs(labels),
                    )
                })
                .add(dropped_delta);
            self.last_audit_dropped = audit_dropped;
        }
    }

    /// Set the occupancy gauges and each host pair's [`PAIR_GAUGES`] from
    /// `memory`. A scrape's work: each registry lookup takes a lock and
    /// formats the label set.
    fn publish_memory(&self, memory: &MemorySnapshot) {
        let gauge = |(name, help), labels: &[(&str, &str)], value: f64| {
            self.obs.registry.gauge(name, help, labels).set(value);
        };
        let labels = label_refs(&self.labels);
        let occupancy = [
            memory.in_progress_transfers,
            memory.staged_files,
            memory.staging_files,
            memory.in_progress_cleanups,
        ];
        for (series, count) in OCCUPANCY_GAUGES.into_iter().zip(occupancy) {
            gauge(series, &labels, count as f64);
        }
        for pair in &memory.host_pairs {
            let mut labels = labels.clone();
            labels.extend([("src", &*pair.src_host), ("dst", &*pair.dst_host)]);
            let streams = [pair.allocated, pair.peak_allocated];
            for (series, n) in PAIR_GAUGES.into_iter().zip(streams) {
                gauge(series, &labels, f64::from(n));
            }
        }
    }
}

/// A cloneable view of the simulation clock. The workflow executor
/// publishes its time here each scheduling step
/// (`pwm_workflow::ExecutorConfig::clock`), and a service given the clock
/// with [`PolicyService::set_sim_clock`] stamps its trace instants with it.
#[derive(Debug, Clone, Default)]
pub struct SharedSimClock {
    micros: Arc<AtomicU64>,
}

impl SharedSimClock {
    /// A clock starting at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish the current simulation time.
    pub fn set(&self, now: SimTime) {
        self.micros.store(now.as_micros(), Ordering::Relaxed);
    }

    /// The most recently published simulation time.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::Relaxed))
    }
}

/// The policy engine: rule session + policy memory + request orchestration.
pub struct PolicyService {
    session: Session<PolicyCtx>,
    /// Where the session's indexes are (the rules captured the same).
    ix: PolicyIndexes,
    ctx: PolicyCtx,
    next_transfer: u64,
    next_cleanup: u64,
    stats: ServiceStats,
    audit: AuditLog,
    obs: Option<ServiceObs>,
    /// Optional sim clock: when present (and observability is attached),
    /// evaluations also emit trace instants stamped with simulated time
    /// (deterministic across runs). Kept beside `obs`, not inside it, so
    /// re-attaching observability does not drop the clock.
    sim_clock: Option<SharedSimClock>,
    durability: Option<Durability>,
    /// Scratch of one evaluation pass, kept from one call to the next: the
    /// facts of the group under evaluation and their advice rows.
    handles: Vec<FactHandle>,
    rows: Vec<AdviceRow>,
}

/// One evaluated transfer while its group's advice is put in order.
struct AdviceRow {
    handle: FactHandle,
    advice: TransferAdvice,
    priority: i32,
}

/// Shard ids are packed into the top bits of transfer/cleanup/group ids so
/// each shard of a sharded session mints from a disjoint namespace and
/// outcome reports can be routed back by id alone. Shard 0's base is 0, so
/// a single-shard service is bit-identical to an unsharded one.
pub const SHARD_ID_BITS: u32 = 48;

impl PolicyService {
    /// Build a service enforcing `config`. All rule sets are installed; the
    /// config's [`crate::config::AllocationPolicy`] selects which allocation
    /// rules actually match, and each rules pass focuses only the agenda
    /// groups of its own rules and of the selected families.
    pub fn new(config: PolicyConfig) -> Self {
        let mut session = Session::new();
        let ix = PolicyIndexes::register(&mut session.wm);
        install_base_rules(&mut session, ix);
        install_greedy_rules(&mut session, ix);
        install_balanced_rules(&mut session, ix);
        install_storage_rules(&mut session, ix);
        install_recovery_rules(&mut session, ix);
        let audit = AuditLog::with_capacity(config.audit_retention());
        let mut svc = PolicyService {
            session,
            ix,
            ctx: PolicyCtx::new(config),
            next_transfer: 0,
            next_cleanup: 0,
            stats: ServiceStats::default(),
            audit,
            obs: None,
            sim_clock: None,
            durability: None,
            handles: Vec::new(),
            rows: Vec::new(),
        };
        svc.sync_backend_profiles();
        svc
    }

    /// Mirror [`PolicyConfig::backends`] into policy memory as
    /// `BackendProfileFact`s (retract-and-reinsert, so reconfiguration
    /// replaces the set). Profile facts are config-derived, never
    /// snapshotted: recovery re-derives them from the restored config.
    fn sync_backend_profiles(&mut self) {
        for h in self.session.wm.handles::<BackendProfileFact>() {
            self.session.wm.retract(h);
        }
        for b in self.ctx.config.backends.clone() {
            self.session.wm.insert(BackendProfileFact {
                profile: b.profile,
                site: b.site.into(),
            });
        }
    }

    /// Build one shard of a sharded session: like [`PolicyService::new`],
    /// but transfer/cleanup/group ids are minted from the shard's disjoint
    /// namespace (`shard << `[`SHARD_ID_BITS`]). Shard 0 behaves exactly
    /// like an unsharded service.
    pub fn with_shard(config: PolicyConfig, shard: u16) -> Self {
        let mut svc = PolicyService::new(config);
        let base = u64::from(shard) << SHARD_ID_BITS;
        svc.next_transfer = base;
        svc.next_cleanup = base;
        svc.ctx = PolicyCtx::restore(svc.ctx.config.clone(), base);
        svc
    }

    /// Which shard minted a transfer id (outcome-report routing).
    pub fn shard_of_transfer(id: TransferId) -> u16 {
        (id.0 >> SHARD_ID_BITS) as u16
    }

    /// Which shard minted a cleanup id (outcome-report routing).
    pub fn shard_of_cleanup(id: CleanupId) -> u16 {
        (id.0 >> SHARD_ID_BITS) as u16
    }

    /// True when policy memory holds a staging/staged resource for `file`
    /// (used to route cleanup requests to the shard that owns the file).
    pub fn has_resource(&self, file: &crate::model::Url) -> bool {
        self.has_resource_keyed(UrlKey::of(file), file)
    }

    /// [`PolicyService::has_resource`] for a caller probing several shards
    /// with one digest of `file`.
    pub(crate) fn has_resource_keyed(&self, key: UrlKey, file: &crate::model::Url) -> bool {
        self.ix.resource_for(&self.session.wm, key, file).is_some()
    }

    /// Attach observability: service counters, gauges, and advice-latency
    /// histograms go to `obs.registry` labeled `session=<session>` plus,
    /// when `shard` is given (one shard of a multi-shard session),
    /// `shard="N"`; trace instants go to `obs.tracer` while a sim clock is
    /// attached with [`PolicyService::set_sim_clock`] (in either order).
    /// Per-rule engine counters are published to the same registry.
    pub fn set_obs(&mut self, obs: Obs, session: &str, shard: Option<u16>) {
        let mut labels = vec![("session".to_string(), session.to_string())];
        if let Some(shard) = shard {
            labels.push(("shard".to_string(), shard.to_string()));
        }
        self.session
            .set_obs(obs.registry.clone(), &label_refs(&labels));
        self.obs = Some(ServiceObs {
            obs,
            labels,
            last: self.stats,
            last_audit_dropped: self.audit.dropped(),
            latency: Vec::new(),
            counters: Default::default(),
            audit_dropped: None,
        });
    }

    /// Turn on durability: a base snapshot of the current state is written
    /// to `cfg.dir` and every state-mutating request is logged there
    /// before it is applied. Enabling on a recovered service compacts
    /// naturally — the resumed log starts from the fresh snapshot.
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) -> io::Result<()> {
        // Drop any previous sink first so the snapshot's applied_seq
        // describes a fresh log epoch.
        self.durability = None;
        let state = self.durable_state();
        self.durability = Some(Durability::create(cfg, &state)?);
        Ok(())
    }

    /// What the durability sink has written; `None` when durability is off.
    pub fn durability_counts(&self) -> Option<DurableCounts> {
        self.durability.as_ref().map(Durability::counts)
    }

    /// True when a disk failure has taken the durability sink down: the
    /// log ends at the call that met it, and the session is down.
    pub fn durability_down(&self) -> bool {
        self.durability.as_ref().is_some_and(Durability::is_down)
    }

    /// True while a durability sink is attached and still writing.
    fn logging(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| !d.is_down())
    }

    /// Rebuild a service from a durability directory on `disk`: load the
    /// last snapshot and replay the surviving log suffix through the
    /// deterministic engine. The result is `PartialEq`-identical (facts,
    /// ids, ledgers, stats, audit numbering) to the uninterrupted service
    /// at the last durable command. Durability is *not* re-enabled; call
    /// [`PolicyService::enable_durability`] to resume logging.
    pub fn recover_from(disk: &dyn Disk, dir: &Path) -> io::Result<PolicyService> {
        let recovered = read_recovery(disk, dir)?;
        let mut svc = PolicyService::from_durable_state(recovered.state);
        for record in recovered.records {
            svc.apply_command(record.cmd);
        }
        Ok(svc)
    }

    /// Append a mutating command to the WAL before applying it (redo
    /// logging). A failed append takes the sink, and so the session, down.
    fn log_command(&mut self, cmd: WalCommand) {
        if let Some(d) = &mut self.durability {
            let record = WalRecord {
                seq: d.next_seq(),
                cmd,
            };
            if let Err(e) = d.append(&record) {
                session_down("WAL append", &e);
            }
        }
    }

    /// Snapshot + compact if the sink says one is due. Runs at the *end*
    /// of each mutating method, after the logged command's effects are in
    /// the state — a snapshot taken at log time would stamp an
    /// `applied_seq` for effects not yet applied.
    fn maybe_snapshot(&mut self) {
        if !self
            .durability
            .as_ref()
            .is_some_and(|d| d.snapshot_pending())
        {
            return;
        }
        let state = self.durable_state();
        if let Some(d) = &mut self.durability {
            if let Err(e) = d.write_snapshot(&state) {
                session_down("snapshot write", &e);
            }
        }
    }

    /// Replay one logged command (advice output is discarded — the crashed
    /// process already delivered it).
    fn apply_command(&mut self, cmd: WalCommand) {
        match cmd {
            WalCommand::EvaluateTransfers(batch) => {
                self.evaluate_transfers(batch);
            }
            WalCommand::EvaluateTransferGroups(groups) => {
                self.evaluate_transfer_groups(groups);
            }
            WalCommand::ReportTransfers(outcomes) => self.report_transfers(outcomes),
            WalCommand::EvaluateCleanups(batch) => {
                self.evaluate_cleanups(batch);
            }
            WalCommand::ReportCleanups(outcomes) => self.report_cleanups(outcomes),
            WalCommand::SetConfig(config) => self.set_config(config),
            WalCommand::ReportHealth(events) => self.report_health(events),
        }
    }

    /// The complete serializable state of this session (snapshot payload).
    /// Facts are captured in global insertion order, which working-memory
    /// iteration — and therefore advice ordering — observes.
    pub fn durable_state(&self) -> DurableState {
        let wm = &self.session.wm;
        let mut facts: Vec<(FactHandle, DurableFact)> = Vec::new();
        facts.extend(
            wm.iter::<TransferFact>()
                .map(|(h, f)| (h, DurableFact::Transfer(f.clone()))),
        );
        facts.extend(
            wm.iter::<ResourceFact>()
                .map(|(h, f)| (h, DurableFact::Resource(f.clone()))),
        );
        facts.extend(
            wm.iter::<CleanupFact>()
                .map(|(h, f)| (h, DurableFact::Cleanup(f.clone()))),
        );
        facts.extend(
            wm.iter::<HostPairFact>()
                .map(|(h, f)| (h, DurableFact::HostPair(f.clone()))),
        );
        facts.extend(
            wm.iter::<ClusterAllocFact>()
                .map(|(h, f)| (h, DurableFact::ClusterAlloc(f.clone()))),
        );
        facts.extend(
            wm.iter::<StagedOnFact>()
                .map(|(h, f)| (h, DurableFact::StagedOn(f.clone()))),
        );
        facts.extend(
            wm.iter::<BackendLoadFact>()
                .map(|(h, f)| (h, DurableFact::BackendLoad(f.clone()))),
        );
        facts.extend(
            wm.iter::<HostDownFact>()
                .map(|(h, f)| (h, DurableFact::HostDown(f.clone()))),
        );
        facts.extend(
            wm.iter::<BackendDownFact>()
                .map(|(h, f)| (h, DurableFact::BackendDown(f.clone()))),
        );
        facts.extend(
            wm.iter::<SuspectReplicaFact>()
                .map(|(h, f)| (h, DurableFact::SuspectReplica(f.clone()))),
        );
        facts.sort_by_key(|(h, _)| *h);
        DurableState {
            applied_seq: self.durability.as_ref().map_or(0, |d| d.next_seq() - 1),
            config: self.ctx.config.clone(),
            next_transfer: self.next_transfer,
            next_cleanup: self.next_cleanup,
            next_group: self.ctx.groups_minted(),
            stats: self.stats,
            audit_capacity: self.audit.capacity(),
            audit_next_seq: self.audit.total_recorded(),
            audit_records: self.audit.records(),
            facts: facts.into_iter().map(|(_, f)| f).collect(),
            summary: self.snapshot(),
        }
    }

    /// Rebuild a service from a snapshot. Facts are re-inserted in their
    /// original global order, so the fresh handles preserve iteration
    /// order. The restored memory is quiescent: every rule guard requires
    /// an in-batch or just-reported fact, so the next rules pass fires
    /// nothing until new requests arrive.
    pub fn from_durable_state(state: DurableState) -> Self {
        let mut svc = PolicyService::new(state.config.clone());
        svc.ctx = PolicyCtx::restore(state.config, state.next_group);
        svc.next_transfer = state.next_transfer;
        svc.next_cleanup = state.next_cleanup;
        svc.stats = state.stats;
        svc.audit = AuditLog::restore(
            state.audit_capacity,
            state.audit_next_seq,
            state.audit_records,
        );
        for fact in state.facts {
            match fact {
                DurableFact::Transfer(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::Resource(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::Cleanup(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::HostPair(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::ClusterAlloc(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::StagedOn(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::BackendLoad(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::HostDown(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::BackendDown(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::SuspectReplica(f) => {
                    svc.session.wm.insert(f);
                }
            }
        }
        debug_assert_eq!(
            svc.snapshot(),
            state.summary,
            "restored memory must reproduce the snapshot summary"
        );
        svc
    }

    /// Attach a shared simulated clock. Evaluations then emit trace
    /// instants stamped with sim time (kept out of traces otherwise, since
    /// a wall-clock stamp would break same-seed trace determinism).
    pub fn set_sim_clock(&mut self, clock: SharedSimClock) {
        self.sim_clock = Some(clock);
    }

    /// Record one evaluation pass on the attached observability sinks:
    /// latency histogram, stats counter deltas, and (with a sim clock) a
    /// trace instant. Occupancy is read when scraped
    /// ([`PolicyService::publish_gauges`]), not walked per call.
    fn note_evaluation(&mut self, kind: &'static str, micros: u64, batch: usize, firings: usize) {
        let Some(o) = &mut self.obs else { return };
        o.advice_latency(kind).record(micros);
        o.publish_stats(self.stats, self.audit.dropped());
        if let Some(clock) = &self.sim_clock {
            o.obs.tracer.instant(
                kind,
                "policy",
                clock.now(),
                &[
                    ("batch", batch.to_string()),
                    ("firings", firings.to_string()),
                ],
            );
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PolicyConfig {
        &self.ctx.config
    }

    /// Replace the configuration (an administrator reconfiguring the
    /// service between workflows).
    pub fn set_config(&mut self, config: PolicyConfig) {
        if self.logging() {
            self.log_command(WalCommand::SetConfig(config.clone()));
        }
        if config.audit_retention() != self.audit.capacity() {
            // Resize the retention ring in place, keeping the newest
            // records and the lifetime sequence counter.
            let capacity = config.audit_retention();
            let records = self.audit.tail(capacity);
            self.audit = AuditLog::restore(capacity, self.audit.total_recorded(), records);
        }
        self.ctx.config = config;
        self.sync_backend_profiles();
        // Rule matchers read the config through ctx, which the engine (like
        // Drools globals) does not watch — flush the cached agenda so the
        // new config is observed. A family the config now selects is in
        // focus from the next pass on, and finds its rules dirty.
        self.session.invalidate_agenda();
        self.audit.record(PolicyEvent::ConfigChanged);
        self.maybe_snapshot();
    }

    /// Audit records with sequence ≥ `since` (the monitoring log).
    pub fn audit_since(&self, since: u64) -> Vec<AuditRecord> {
        self.audit.since(since)
    }

    /// Monitoring counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Per-rule engine counters (installation order).
    pub fn rule_stats(&self) -> Vec<RuleCounters> {
        self.session
            .rule_stats()
            .into_iter()
            .map(RuleCounters::from)
            .collect()
    }

    /// Evaluate a list of transfer requests against the policy rules and
    /// return the modified list: duplicates are marked skipped, transfers
    /// get stream/group advice, and the list is ordered per the ordering
    /// policy.
    pub fn evaluate_transfers(&mut self, batch: Vec<TransferSpec>) -> Vec<TransferAdvice> {
        if self.logging() {
            self.log_command(WalCommand::EvaluateTransfers(batch.clone()));
        }
        let mut window = TransferWindow::from_groups(vec![batch]);
        self.evaluate_window_inner(&mut window);
        window.into_advice_groups().pop().unwrap_or_default()
    }

    /// Evaluate several pipelined request groups in **one** call.
    ///
    /// This is the event loop's batched advice path: a connection's
    /// pipelined requests (or several connections' requests bound for the
    /// same shard) are drained into a single service call instead of N
    /// lock-and-log round trips. Each inner list is one client request and
    /// gets its own independently ordered advice list back.
    ///
    /// Pipelining requires responses identical to sending the requests one
    /// at a time, so the groups are evaluated as back-to-back rule passes —
    /// a later group sees earlier groups' transfers as already in progress,
    /// exactly as separate calls would. What the batch shares is the
    /// per-call overhead: one WAL record, one lock hold, one metrics/audit
    /// flush for the whole window.
    pub fn evaluate_transfer_groups(
        &mut self,
        groups: Vec<Vec<TransferSpec>>,
    ) -> Vec<Vec<TransferAdvice>> {
        let mut window = TransferWindow::from_groups(groups);
        self.evaluate_window(&mut window);
        window.into_advice_groups()
    }

    /// [`PolicyService::evaluate_transfer_groups`] over a window the caller
    /// keeps: the specs are moved into facts and the advice written back
    /// into it, group by group.
    pub fn evaluate_window(&mut self, window: &mut TransferWindow) {
        if self.logging() {
            self.log_command(WalCommand::EvaluateTransferGroups(window.spec_groups()));
        }
        self.evaluate_window_inner(window);
    }

    /// Shared core of the single-batch and grouped evaluation paths: each
    /// group is inserted, evaluated, and committed as its own rules pass
    /// (so pipelined groups observe exactly the sequential semantics),
    /// while the call-level bookkeeping — WAL record, latency histogram,
    /// refraction GC, snapshot check — happens once for the whole window.
    fn evaluate_window_inner(&mut self, window: &mut TransferWindow) {
        let total = window.specs.len();
        self.stats.transfer_requests += total as u64;

        let by_priority = self.ctx.config.ordering == OrderingPolicy::ByPriority;
        let eval_start = Instant::now();
        let mut total_firings = 0usize;
        window.advice.clear();
        let mut specs = std::mem::take(&mut window.specs);
        let mut incoming = specs.drain(..);
        let mut start = 0;
        for &end in &window.ends {
            self.handles.clear();
            for spec in incoming.by_ref().take(end - start) {
                let id = TransferId(self.next_transfer);
                self.next_transfer += 1;
                let h = self.session.wm.insert(TransferFact {
                    id,
                    spec,
                    state: TransferState::Pending,
                    streams: None,
                    charged_streams: 0,
                    group: None,
                    in_current_batch: true,
                    suppressed: None,
                    cluster_released: false,
                    backend: None,
                    backend_released: false,
                });
                self.handles.push(h);
            }
            start = end;

            let focus = Pass::EvaluateTransfers.focus(&self.ctx.config);
            let report = self.session.fire(&mut self.ctx, focus);
            total_firings += report.firings;
            debug_assert!(!report.budget_exhausted, "policy rules did not converge");

            // Snapshot the group's facts for advice building.
            self.rows.clear();
            for h in &self.handles {
                let t = self
                    .session
                    .wm
                    .get::<TransferFact>(*h)
                    .expect("batch fact vanished during evaluation");
                let action = match t.suppressed {
                    Some(reason) => TransferAction::Skip(reason),
                    None => TransferAction::Execute,
                };
                self.rows.push(AdviceRow {
                    handle: *h,
                    advice: TransferAdvice {
                        id: t.id,
                        source: t.spec.source.clone(),
                        dest: t.spec.dest.clone(),
                        action,
                        streams: t.streams.unwrap_or(1).max(1),
                        group: t.group.unwrap_or_default(),
                        order: 0,
                        backend: t.backend.clone(),
                    },
                    priority: t.spec.priority.unwrap_or(0),
                });
            }

            // Ordering policy: executing transfers first (sorted), skips
            // after — applied within each group independently. Ids are
            // unique, so the order is total and an unstable sort (which
            // needs no scratch) gives the one answer.
            self.rows.sort_unstable_by(|a, b| {
                let exec_a = a.advice.should_execute();
                let exec_b = b.advice.should_execute();
                exec_b
                    .cmp(&exec_a)
                    .then_with(|| {
                        if by_priority {
                            b.priority.cmp(&a.priority)
                        } else {
                            std::cmp::Ordering::Equal
                        }
                    })
                    .then_with(|| {
                        (&a.advice.source, &a.advice.dest).cmp(&(&b.advice.source, &b.advice.dest))
                    })
                    .then_with(|| a.advice.id.cmp(&b.advice.id))
            });

            // Commit states: executing facts leave the batch as InProgress;
            // suppressed facts are removed (their bookkeeping side effects —
            // resource refcounts — already happened).
            for (i, mut row) in self.rows.drain(..).enumerate() {
                row.advice.order = i as u32;
                let skipped = match row.advice.action {
                    TransferAction::Execute => None,
                    TransferAction::Skip(reason) => Some(reason),
                };
                self.audit.record(PolicyEvent::TransferEvaluated {
                    id: row.advice.id,
                    streams: row.advice.streams,
                    skipped,
                });
                if row.advice.should_execute() {
                    self.stats.transfers_executed += 1;
                    self.session.wm.update_fields::<TransferFact>(
                        row.handle,
                        TransferFact::STATE | TransferFact::BATCH,
                        |t| {
                            t.state = TransferState::InProgress;
                            t.in_current_batch = false;
                        },
                    );
                } else {
                    self.stats.transfers_suppressed += 1;
                    self.session.wm.retract(row.handle);
                }
                window.advice.push(row.advice);
            }
        }
        drop(incoming);
        window.specs = specs;
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += total_firings as u64;
        self.session.maybe_gc_refraction();
        self.note_evaluation("evaluate_transfers", eval_micros, total, total_firings);
        self.maybe_snapshot();
    }

    /// Report transfer outcomes. Completed transfers release their streams
    /// and mark their resource staged; failed transfers release streams and
    /// drop the half-staged resource so retries are not treated as
    /// duplicates.
    pub fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) {
        self.report_transfer_outcomes(outcomes.iter());
    }

    /// [`PolicyService::report_transfers`] over borrowed outcomes.
    pub fn report_transfer_outcomes<'a>(
        &mut self,
        outcomes: impl Iterator<Item = &'a TransferOutcome> + Clone,
    ) {
        if self.logging() {
            let logged = outcomes.clone().copied().collect();
            self.log_command(WalCommand::ReportTransfers(logged));
        }
        let mut batch_len = 0;
        for outcome in outcomes {
            batch_len += 1;
            if let Some((h, _)) = self.session.wm.find_by(self.ix.transfer_by_id, &outcome.id) {
                let wm = &mut self.session.wm;
                wm.update_fields::<TransferFact>(h, TransferFact::STATE, |t| {
                    t.state = if outcome.success {
                        TransferState::Completed
                    } else {
                        TransferState::Failed
                    };
                });
                if outcome.success {
                    self.stats.transfers_completed += 1;
                } else {
                    self.stats.transfers_failed += 1;
                }
                self.audit.record(PolicyEvent::TransferReported {
                    id: outcome.id,
                    success: outcome.success,
                });
            }
        }
        let eval_start = Instant::now();
        let focus = Pass::ReportTransfers.focus(&self.ctx.config);
        let report = self.session.fire(&mut self.ctx, focus);
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += report.firings as u64;
        self.session.maybe_gc_refraction();
        self.note_evaluation("report_transfers", eval_micros, batch_len, report.firings);
        self.maybe_snapshot();
    }

    /// Evaluate a list of cleanup requests; duplicates and in-use files are
    /// marked skipped.
    pub fn evaluate_cleanups(&mut self, batch: Vec<CleanupSpec>) -> Vec<CleanupAdvice> {
        let mut window = CleanupWindow::from_specs(batch);
        self.evaluate_cleanup_window(&mut window);
        window.into_advice()
    }

    /// [`PolicyService::evaluate_cleanups`] over a window the caller keeps:
    /// the specs are moved into facts and the advice written back into it.
    pub fn evaluate_cleanup_window(&mut self, window: &mut CleanupWindow) {
        if self.logging() {
            self.log_command(WalCommand::EvaluateCleanups(window.specs.clone()));
        }
        self.stats.cleanup_requests += window.specs.len() as u64;
        self.handles.clear();
        for spec in window.specs.drain(..) {
            let id = CleanupId(self.next_cleanup);
            self.next_cleanup += 1;
            self.handles.push(self.session.wm.insert(CleanupFact {
                id,
                spec,
                state: CleanupState::Pending,
                in_current_batch: true,
                suppressed: None,
            }));
        }
        let batch_len = self.handles.len();
        let eval_start = Instant::now();
        let focus = Pass::EvaluateCleanups.focus(&self.ctx.config);
        let report = self.session.fire(&mut self.ctx, focus);
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += report.firings as u64;

        window.advice.clear();
        for &h in &self.handles {
            let c = self
                .session
                .wm
                .get::<CleanupFact>(h)
                .expect("batch cleanup vanished during evaluation");
            let advice = CleanupAdvice {
                id: c.id,
                file: c.spec.file.clone(),
                action: match c.suppressed {
                    Some(reason) => CleanupAction::Skip(reason),
                    None => CleanupAction::Execute,
                },
            };
            let skipped = match advice.action {
                CleanupAction::Execute => None,
                CleanupAction::Skip(reason) => Some(reason),
            };
            self.audit.record(PolicyEvent::CleanupEvaluated {
                id: advice.id,
                skipped,
            });
            if advice.should_execute() {
                self.stats.cleanups_executed += 1;
                self.session.wm.update_fields::<CleanupFact>(
                    h,
                    CleanupFact::STATE | CleanupFact::BATCH,
                    |c| {
                        c.state = CleanupState::InProgress;
                        c.in_current_batch = false;
                    },
                );
            } else {
                self.stats.cleanups_suppressed += 1;
                self.session.wm.retract(h);
            }
            window.advice.push(advice);
        }
        self.session.maybe_gc_refraction();
        self.note_evaluation("evaluate_cleanups", eval_micros, batch_len, report.firings);
        self.maybe_snapshot();
    }

    /// Report cleanup outcomes. Successful cleanups remove the cleanup and
    /// its resource from policy memory; failed ones are forgotten so the
    /// client may retry.
    pub fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) {
        self.report_cleanup_outcomes(outcomes.iter());
    }

    /// [`PolicyService::report_cleanups`] over borrowed outcomes.
    pub fn report_cleanup_outcomes<'a>(
        &mut self,
        outcomes: impl Iterator<Item = &'a CleanupOutcome> + Clone,
    ) {
        if self.logging() {
            let logged = outcomes.clone().copied().collect();
            self.log_command(WalCommand::ReportCleanups(logged));
        }
        let mut batch_len = 0;
        for outcome in outcomes {
            batch_len += 1;
            if let Some((h, _)) = self.session.wm.find_by(self.ix.cleanup_by_id, &outcome.id) {
                if outcome.success {
                    self.session
                        .wm
                        .update_fields::<CleanupFact>(h, CleanupFact::STATE, |c| {
                            c.state = CleanupState::Completed;
                        });
                } else {
                    self.session.wm.retract(h);
                }
                self.audit.record(PolicyEvent::CleanupReported {
                    id: outcome.id,
                    success: outcome.success,
                });
            }
        }
        let eval_start = Instant::now();
        let focus = Pass::ReportCleanups.focus(&self.ctx.config);
        let report = self.session.fire(&mut self.ctx, focus);
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += report.firings as u64;
        self.session.maybe_gc_refraction();
        self.note_evaluation("report_cleanups", eval_micros, batch_len, report.firings);
        self.maybe_snapshot();
    }

    /// Record infrastructure health observations in policy memory (recovery
    /// family). Reports are upserts: `Down`/`Suspect` events insert or
    /// update the corresponding fact, `Up`/`Cleared` events retract it.
    /// Idempotent per event, so re-delivered reports are harmless; the
    /// command rides the WAL like every other mutation.
    pub fn report_health(&mut self, events: Vec<HealthEvent>) {
        if events.is_empty() {
            return;
        }
        if self.logging() {
            self.log_command(WalCommand::ReportHealth(events.clone()));
        }
        let ix = self.ix;
        for event in events {
            let wm = &mut self.session.wm;
            match event {
                HealthEvent::HostDown { host } => {
                    if wm.find_by(ix.host_down, &host).is_none() {
                        wm.insert(HostDownFact { host });
                    }
                }
                HealthEvent::HostUp { host } => {
                    if let Some(h) = wm.find_by(ix.host_down, &host).map(|(h, _)| h) {
                        wm.retract(h);
                    }
                }
                HealthEvent::BackendDown { backend } => {
                    if wm.find_by(ix.backend_down, &backend).is_none() {
                        wm.insert(BackendDownFact { backend });
                    }
                }
                HealthEvent::BackendUp { backend } => {
                    if let Some(h) = wm.find_by(ix.backend_down, &backend).map(|(h, _)| h) {
                        wm.retract(h);
                    }
                }
                HealthEvent::SuspectReplica {
                    host,
                    file,
                    quarantine,
                } => {
                    let key = (host.clone(), file.clone());
                    if let Some(h) = wm.find_by(ix.suspect_replica, &key).map(|(h, _)| h) {
                        wm.update::<SuspectReplicaFact>(h, |s| {
                            s.strikes += 1;
                            s.quarantined |= quarantine;
                        });
                    } else {
                        wm.insert(SuspectReplicaFact {
                            host,
                            file,
                            strikes: 1,
                            quarantined: quarantine,
                        });
                    }
                }
                HealthEvent::ReplicaCleared { host, file } => {
                    let key = (host, file);
                    if let Some(h) = wm.find_by(ix.suspect_replica, &key).map(|(h, _)| h) {
                        wm.retract(h);
                    }
                }
            }
        }
        self.maybe_snapshot();
    }

    /// Streams currently allocated between a host pair.
    pub fn allocated(&self, src_host: &str, dst_host: &str) -> u32 {
        self.ix
            .host_pair_for(&self.session.wm, src_host, dst_host)
            .map_or(0, |(_, p)| p.allocated)
    }

    /// Peak streams ever allocated between a host pair (Table IV).
    pub fn peak_allocated(&self, src_host: &str, dst_host: &str) -> u32 {
        self.ix
            .host_pair_for(&self.session.wm, src_host, dst_host)
            .map_or(0, |(_, p)| p.peak_allocated)
    }

    /// Chrome-trace JSON of this service's tracer, or `None` when no
    /// observability is attached.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.obs.tracer.chrome_trace_json())
    }

    /// Set this service's occupancy and host-pair gauges from one
    /// [`PolicyService::snapshot`]; a no-op without observability. A
    /// `/metrics` scrape calls it ([`crate::PolicyController::render_metrics`]).
    pub fn publish_gauges(&self) {
        if let Some(o) = &self.obs {
            o.publish_memory(&self.snapshot());
        }
    }

    /// Facts policy memory has yielded to whole-type walks so far
    /// ([`pwm_rules::WorkingMemory::facts_walked`]).
    pub fn facts_walked(&self) -> u64 {
        self.session.wm.facts_walked()
    }

    /// Snapshot of policy memory for monitoring.
    pub fn snapshot(&self) -> MemorySnapshot {
        let wm = &self.session.wm;
        MemorySnapshot {
            in_progress_transfers: wm
                .iter::<TransferFact>()
                .filter(|(_, t)| t.state == TransferState::InProgress)
                .count(),
            staged_files: wm
                .iter::<ResourceFact>()
                .filter(|(_, r)| r.state == ResourceState::Staged)
                .count(),
            staging_files: wm
                .iter::<ResourceFact>()
                .filter(|(_, r)| r.state == ResourceState::Staging)
                .count(),
            in_progress_cleanups: wm
                .iter::<CleanupFact>()
                .filter(|(_, c)| c.state == CleanupState::InProgress)
                .count(),
            host_pairs: wm
                .iter::<HostPairFact>()
                .map(|(_, p)| HostPairSnapshot {
                    src_host: p.src_host.clone(),
                    dst_host: p.dst_host.clone(),
                    allocated: p.allocated,
                    peak_allocated: p.peak_allocated,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocationPolicy;
    use crate::model::{SuppressReason, Url, WorkflowId};

    fn spec_n(n: u32, wf: u64) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "tacc", format!("/data/f{n:03}.dat")),
            dest: Url::new("file", "isi", format!("/scratch/f{n:03}.dat")),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(wf),
            cluster: None,
            priority: None,
        }
    }

    fn greedy_service(default: u32, threshold: u32) -> PolicyService {
        PolicyService::new(
            PolicyConfig::default()
                .with_default_streams(default)
                .with_threshold(threshold)
                .with_allocation(AllocationPolicy::Greedy),
        )
    }

    #[test]
    fn single_batch_gets_default_streams_and_group() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1)]);
        assert_eq!(advice.len(), 2);
        for a in &advice {
            assert!(a.should_execute());
            assert_eq!(a.streams, 4);
        }
        assert_eq!(
            advice[0].group, advice[1].group,
            "same host pair, one group"
        );
        assert_eq!(svc.allocated("tacc", "isi"), 8);
    }

    #[test]
    fn advice_is_sorted_by_source_and_dest_url() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(3, 1), spec_n(1, 1), spec_n(2, 1)]);
        let paths: Vec<&str> = advice.iter().map(|a| a.source.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["/data/f001.dat", "/data/f002.dat", "/data/f003.dat"]
        );
        assert_eq!(
            advice.iter().map(|a| a.order).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn duplicate_in_batch_is_skipped() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(1, 1)]);
        let executing = advice.iter().filter(|a| a.should_execute()).count();
        assert_eq!(executing, 1);
        assert_eq!(svc.stats().transfers_suppressed, 1);
        // Only one transfer charged.
        assert_eq!(svc.allocated("tacc", "isi"), 4);
    }

    #[test]
    fn in_progress_duplicate_across_batches_is_skipped() {
        let mut svc = greedy_service(4, 50);
        let first = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        assert!(first[0].should_execute());
        let second = svc.evaluate_transfers(vec![spec_n(1, 2)]);
        assert!(!second[0].should_execute());
        // But the second workflow is now registered as a user of the file.
        let snap = svc.snapshot();
        assert_eq!(snap.staging_files, 1);
    }

    #[test]
    fn staged_file_is_not_restaged() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        assert_eq!(svc.snapshot().staged_files, 1);
        let again = svc.evaluate_transfers(vec![spec_n(1, 2)]);
        assert!(!again[0].should_execute());
        assert_eq!(
            again[0].action,
            TransferAction::Skip(crate::model::SuppressReason::AlreadyStaged)
        );
    }

    #[test]
    fn failed_transfer_can_be_retried() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: false,
        }]);
        assert_eq!(svc.allocated("tacc", "isi"), 0, "streams released");
        let retry = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        assert!(retry[0].should_execute(), "failure must not block retries");
    }

    #[test]
    fn completion_releases_streams() {
        let mut svc = greedy_service(8, 50);
        let advice = svc.evaluate_transfers((0..7).map(|i| spec_n(i, 1)).collect());
        assert_eq!(svc.allocated("tacc", "isi"), 50); // 6×8 + 2
        let outcomes: Vec<TransferOutcome> = advice
            .iter()
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        svc.report_transfers(outcomes);
        assert_eq!(svc.allocated("tacc", "isi"), 0);
        assert_eq!(svc.peak_allocated("tacc", "isi"), 50);
        assert_eq!(svc.snapshot().staged_files, 7);
    }

    #[test]
    fn table_iv_through_the_full_service() {
        // 20 concurrent staging jobs, one transfer each, no completions.
        for (threshold, default, expected) in [
            (50, 4, 57),
            (50, 8, 63),
            (50, 12, 65),
            (100, 8, 107),
            (200, 10, 200),
            (200, 12, 203),
        ] {
            let mut svc = greedy_service(default, threshold);
            for j in 0..20 {
                svc.evaluate_transfers(vec![spec_n(j, 1)]);
            }
            assert_eq!(
                svc.peak_allocated("tacc", "isi"),
                expected,
                "threshold {threshold}, default {default}"
            );
        }
    }

    #[test]
    fn cleanup_of_unused_file_executes() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        let cleanups = svc.evaluate_cleanups(vec![CleanupSpec {
            file: Url::new("file", "isi", "/scratch/f001.dat"),
            workflow: WorkflowId(1),
        }]);
        assert!(cleanups[0].should_execute());
        svc.report_cleanups(vec![CleanupOutcome {
            id: cleanups[0].id,
            success: true,
        }]);
        assert_eq!(svc.snapshot().staged_files, 0, "resource removed");
    }

    #[test]
    fn cleanup_of_shared_file_is_suppressed_until_last_user() {
        let mut svc = greedy_service(4, 50);
        // wf1 stages the file; wf2 requests the same file (skipped but
        // registered as a user).
        let a = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }]);
        svc.evaluate_transfers(vec![spec_n(1, 2)]);

        let file = Url::new("file", "isi", "/scratch/f001.dat");
        // wf1 asks to clean up: wf2 still uses it → suppressed.
        let c1 = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(1),
        }]);
        assert!(!c1[0].should_execute());
        assert_eq!(svc.snapshot().staged_files, 1, "file survives");

        // wf2 asks later: no users remain → executes.
        let c2 = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(2),
        }]);
        assert!(c2[0].should_execute());
    }

    /// Cleanup routing probes `has_resource` on every shard; it must answer
    /// what a scan of the resources would, through the file's life.
    #[test]
    fn has_resource_agrees_with_a_scan() {
        let mut svc = greedy_service(4, 50);
        let agree = |svc: &PolicyService, n: u32| {
            let file = spec_n(n, 1).dest;
            let scanned = svc
                .session
                .wm
                .find::<ResourceFact>(|r| r.dest == file)
                .is_some();
            assert_eq!(svc.has_resource(&file), scanned, "file {n}");
            scanned
        };
        assert!(!agree(&svc, 1), "nothing staged yet");
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1)]);
        assert!(agree(&svc, 1), "staging");
        svc.report_transfers(vec![
            TransferOutcome {
                id: advice[0].id,
                success: true,
            },
            TransferOutcome {
                id: advice[1].id,
                success: false,
            },
        ]);
        assert!(agree(&svc, 1), "staged");
        assert!(!agree(&svc, 2), "failed staging drops the resource");
        assert!(!agree(&svc, 3), "never requested");
        let cleanups = svc.evaluate_cleanups(vec![CleanupSpec {
            file: spec_n(1, 1).dest,
            workflow: WorkflowId(1),
        }]);
        svc.report_cleanups(vec![CleanupOutcome {
            id: cleanups[0].id,
            success: true,
        }]);
        assert!(!agree(&svc, 1), "just retracted by the completed cleanup");
    }

    #[test]
    fn duplicate_cleanup_is_suppressed() {
        let mut svc = greedy_service(4, 50);
        let a = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }]);
        let file = Url::new("file", "isi", "/scratch/f001.dat");
        let first = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(1),
        }]);
        assert!(first[0].should_execute());
        // Same cleanup again while the first is still in progress.
        let second = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(1),
        }]);
        assert!(!second[0].should_execute());
        assert_eq!(svc.stats().cleanups_suppressed, 1);
    }

    #[test]
    fn priority_ordering_sorts_descending() {
        let mut svc =
            PolicyService::new(PolicyConfig::default().with_ordering(OrderingPolicy::ByPriority));
        let mut lo = spec_n(1, 1);
        lo.priority = Some(1);
        let mut hi = spec_n(2, 1);
        hi.priority = Some(10);
        let advice = svc.evaluate_transfers(vec![lo, hi]);
        assert_eq!(advice[0].source.path, "/data/f002.dat");
        assert_eq!(advice[1].source.path, "/data/f001.dat");
    }

    #[test]
    fn snapshot_reflects_ledgers() {
        let mut svc = greedy_service(4, 50);
        svc.evaluate_transfers(vec![spec_n(1, 1)]);
        let snap = svc.snapshot();
        assert_eq!(snap.in_progress_transfers, 1);
        assert_eq!(snap.host_pairs.len(), 1);
        assert_eq!(snap.host_pairs[0].allocated, 4);
        assert_eq!(snap.host_pairs[0].src_host, "tacc");
    }

    #[test]
    fn unknown_outcome_ids_are_ignored() {
        let mut svc = greedy_service(4, 50);
        svc.report_transfers(vec![TransferOutcome {
            id: TransferId(999),
            success: true,
        }]);
        svc.report_cleanups(vec![CleanupOutcome {
            id: CleanupId(999),
            success: true,
        }]);
        // No panic, nothing counted as completed.
        assert_eq!(svc.stats().transfers_completed, 0);
    }

    #[test]
    fn duplicate_completion_report_is_harmless() {
        let mut svc = greedy_service(4, 50);
        let a = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        let outcome = TransferOutcome {
            id: a[0].id,
            success: true,
        };
        svc.report_transfers(vec![outcome]);
        svc.report_transfers(vec![outcome]);
        assert_eq!(svc.allocated("tacc", "isi"), 0);
        assert_eq!(svc.stats().transfers_completed, 1);
    }

    #[test]
    fn durable_state_roundtrip_is_identity() {
        let mut svc = greedy_service(4, 50);
        let a = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1), spec_n(1, 2)]);
        let staged = a.iter().find(|x| x.should_execute()).unwrap().id;
        svc.report_transfers(vec![TransferOutcome {
            id: staged,
            success: true,
        }]);
        svc.evaluate_cleanups(vec![CleanupSpec {
            file: Url::new("file", "isi", "/scratch/f002.dat"),
            workflow: WorkflowId(1),
        }]);

        let state = svc.durable_state();
        let mut rebuilt = PolicyService::from_durable_state(state.clone());
        assert_eq!(rebuilt.durable_state(), state);
        // And the rebuilt service behaves identically on new requests.
        assert_eq!(
            svc.evaluate_transfers(vec![spec_n(9, 1), spec_n(1, 3)]),
            rebuilt.evaluate_transfers(vec![spec_n(9, 1), spec_n(1, 3)]),
        );
        assert_eq!(svc.snapshot(), rebuilt.snapshot());
        assert_eq!(svc.stats(), rebuilt.stats());
        assert_eq!(svc.audit_since(0), rebuilt.audit_since(0));
    }

    #[test]
    fn durable_session_recovers_from_disk() {
        let disk = crate::SimDisk::new();
        let dir = Path::new("svc");
        let mut svc = greedy_service(4, 50);
        let cfg = DurabilityConfig::on(disk.clone(), dir).with_snapshot_every(2);
        svc.enable_durability(cfg).unwrap();
        let a = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }]);
        svc.evaluate_transfers(vec![spec_n(3, 1)]);

        let mut recovered = PolicyService::recover_from(&disk, dir).unwrap();
        assert_eq!(recovered.snapshot(), svc.snapshot());
        assert_eq!(recovered.stats(), svc.stats());
        assert_eq!(recovered.durable_state(), {
            let mut s = svc.durable_state();
            s.applied_seq = 0; // the live service stamps its log position
            s
        });
        // Dedup memory survived: the staged file is not re-advised.
        let again = recovered.evaluate_transfers(vec![spec_n(1, 2)]);
        assert!(!again[0].should_execute());
    }

    #[test]
    fn audit_retention_config_bounds_the_ring() {
        let mut svc = PolicyService::new(PolicyConfig::default().with_audit_retention(4));
        for i in 0..10 {
            svc.evaluate_transfers(vec![spec_n(i, 1)]);
        }
        assert_eq!(svc.audit_since(0).len(), 4);
        // Reconfiguring the retention resizes the ring in place.
        svc.set_config(PolicyConfig::default().with_audit_retention(2));
        assert!(svc.audit_since(0).len() <= 2);
    }

    #[test]
    fn balanced_service_respects_cluster_shares() {
        let mut svc = PolicyService::new(
            PolicyConfig::default()
                .with_threshold(40)
                .with_cluster_factor(2)
                .with_default_streams(8)
                .with_allocation(AllocationPolicy::Balanced),
        );
        let mut batch = Vec::new();
        for i in 0..3 {
            let mut s = spec_n(i, 1);
            s.cluster = Some(crate::model::ClusterId(0));
            batch.push(s);
        }
        let advice = svc.evaluate_transfers(batch);
        let mut streams: Vec<u32> = advice.iter().map(|a| a.streams).collect();
        streams.sort_unstable();
        assert_eq!(streams, vec![4, 8, 8], "20-share: 8+8+4");
    }

    /// Stage two files, complete them, then ask again: a duplicate of a
    /// staged file goes through the rules pass like any other request.
    /// Pinned: the skip, the streams a suppressed transfer still gets
    /// (default, or requested floored to one), group 0, the audit record,
    /// the second workflow's association and the rules that fired.
    #[test]
    fn staged_duplicate_is_answered_by_the_rules_pass() {
        use SuppressReason::*;
        use TransferAction::{Execute, Skip};
        let mut svc = greedy_service(4, 50);
        let staged = svc.evaluate_transfer_groups(vec![vec![spec_n(1, 1)], vec![spec_n(2, 1)]]);
        let done = staged.concat().into_iter().map(|a| TransferOutcome {
            id: a.id,
            success: true,
        });
        svc.report_transfers(done.collect());

        // (file, workflow, requested streams); f3 is new, then asked for
        // by a second workflow while it stages.
        let asks = [(1, 1, None), (1, 2, None), (1, 1, Some(0)), (2, 1, Some(6))];
        let asks = asks.into_iter().chain([(3, 1, None), (3, 2, None)]);
        let groups = asks.map(|(n, wf, requested_streams)| {
            vec![TransferSpec {
                requested_streams,
                ..spec_n(n, wf)
            }]
        });
        let again = svc.evaluate_transfer_groups(groups.collect()).concat();
        let row = |i: usize| (again[i].action, again[i].streams, again[i].group);
        let skip = |reason, streams| (Skip(reason), streams, crate::model::GroupId(0));
        let staged_skips = [4, 4, 1, 6].map(|streams| skip(AlreadyStaged, streams));
        assert_eq!([0, 1, 2, 3].map(row), staged_skips);
        assert_eq!(row(4).0, Execute);
        assert_eq!(row(5), skip(AlreadyInProgress, 4));
        assert_eq!(svc.stats().transfers_suppressed, 5);

        // One audit record per answer, in order, with its streams and skip.
        let skipped = [Some(AlreadyStaged); 4].into_iter();
        let skipped = skipped.chain([None, Some(AlreadyInProgress)]);
        let audit = again
            .iter()
            .zip(skipped)
            .map(|(a, skipped)| PolicyEvent::TransferEvaluated {
                id: a.id,
                streams: a.streams,
                skipped,
            });
        let log = svc.audit_since(0);
        let tail = log[log.len() - 6..].iter().map(|r| r.event.clone());
        assert_eq!(tail.collect::<Vec<_>>(), audit.collect::<Vec<_>>());

        // The second workflow became a user of both files it asked for.
        let users = |n: u32| -> Vec<u64> {
            let dest = spec_n(n, 1).dest;
            let (_, r) = svc
                .ix
                .resource_for(&svc.session.wm, UrlKey::of(&dest), &dest)
                .unwrap();
            r.users.iter().map(|w| w.0).collect()
        };
        assert_eq!([users(1), users(3)], [[1, 2]; 2]);
        assert_eq!(users(2), [1]);

        let rules = svc.rule_stats();
        let fired = |name: &str| rules.iter().find(|r| r.name == name).unwrap().firings;
        assert_eq!(fired("remove transfers whose file is already staged"), 4);
        assert_eq!(fired("remove transfers that are already in progress"), 1);
    }

    /// A history in which every digest-keyed probe has a neighbour to
    /// confuse it with: two destinations, one staged and one still staging,
    /// duplicates of both, cleanups of both. Returns everything observable.
    fn digest_history(
        svc: &mut PolicyService,
    ) -> (Vec<TransferAdvice>, Vec<CleanupAdvice>, DurableState) {
        let cleanup = |n: u32, wf: u64| CleanupSpec {
            file: spec_n(n, wf).dest,
            workflow: WorkflowId(wf),
        };
        let mut transfers = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1)]);
        // f1 is staged; f2 stays in progress.
        svc.report_transfers(vec![TransferOutcome {
            id: transfers[0].id,
            success: true,
        }]);
        // f1 again for the same workflow, then a second workflow on both
        // files, a duplicate of f1 in the batch.
        transfers.extend(svc.evaluate_transfers(vec![spec_n(1, 1)]));
        transfers.extend(svc.evaluate_transfers(vec![spec_n(1, 2), spec_n(2, 2), spec_n(1, 2)]));
        // Cleanups: the staging f2 and the staged f1 while shared, then f1's
        // last user twice in one batch.
        let mut cleanups = svc.evaluate_cleanups(vec![cleanup(2, 1), cleanup(1, 1)]);
        cleanups.extend(svc.evaluate_cleanups(vec![cleanup(1, 2), cleanup(1, 2)]));
        let done = cleanups
            .iter()
            .filter(|c| c.should_execute())
            .map(|c| CleanupOutcome {
                id: c.id,
                success: true,
            })
            .collect();
        svc.report_cleanups(done);
        // f1's resource is gone, f2's is not.
        transfers.extend(svc.evaluate_transfers(vec![spec_n(1, 3), spec_n(2, 3)]));
        (transfers, cleanups, svc.durable_state())
    }

    /// "A collision costs a compare, never a wrong match": with every URL
    /// and host-pair digest forced to one value, all resources, transfers
    /// and cleanups share a bucket — and the advice, the audit trail and the
    /// facts left in memory are exactly what distinct digests give. Buckets
    /// are walked in handle order, so nothing depends on a digest's value
    /// either (two processes draw different keys).
    #[test]
    fn colliding_digests_cost_a_compare_never_a_wrong_match() {
        use crate::keys::{collide::with_constant_digest, UrlKey};
        let (f1, f2) = (spec_n(1, 1).dest, spec_n(2, 1).dest);
        assert_ne!(UrlKey::of(&f1), UrlKey::of(&f2));
        let real = digest_history(&mut greedy_service(4, 50));
        let collided = with_constant_digest(|| {
            assert_eq!(UrlKey::of(&f1), UrlKey::of(&f2));
            digest_history(&mut greedy_service(4, 50))
        });
        assert_eq!(real, collided);

        // And the history is not vacuous: each probe had to tell f1 from f2.
        let (transfers, cleanups, _) = real;
        let actions: Vec<TransferAction> = transfers.iter().map(|a| a.action).collect();
        use SuppressReason::*;
        use TransferAction::{Execute, Skip};
        assert_eq!(
            actions,
            vec![
                Execute,
                Execute,
                Skip(AlreadyStaged),
                Skip(AlreadyStaged),
                Skip(DuplicateInBatch),
                Skip(AlreadyInProgress),
                Execute,
                Skip(AlreadyInProgress),
            ]
        );
        let actions: Vec<CleanupAction> = cleanups.iter().map(|a| a.action).collect();
        assert_eq!(
            actions,
            vec![
                CleanupAction::Skip(ResourceInUse),
                CleanupAction::Skip(ResourceInUse),
                CleanupAction::Execute,
                CleanupAction::Skip(DuplicateCleanup),
            ]
        );
    }
}
