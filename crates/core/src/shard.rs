//! Sharded policy memory: a consistent-hash ring over `(source, dest)`
//! host pairs, with one [`PolicyService`] per shard.
//!
//! The paper's centralized Policy Service is the broker every staging
//! decision flows through, which makes its single lock domain the
//! scalability ceiling of the whole system. Every base rule, ledger, and
//! dedup structure is keyed by destination URL or by `(source host,
//! destination host)` pair, so transfers on different host pairs never
//! read each other's facts — they can live in disjoint rule sessions.
//! [`ShardedPolicyService`] exploits exactly that: requests are routed by
//! host pair over a [`HashRing`], each shard owns its facts, rules agenda,
//! audit ring, and (optionally) its own WAL directory, and independent
//! transfers never contend on one lock.
//!
//! Identifier namespacing: shard `s` mints transfer/cleanup/group ids from
//! base `s << `[`SHARD_ID_BITS`](crate::SHARD_ID_BITS), so ids stay globally unique and outcome
//! reports route back by id alone. Shard 0's base is 0 — a one-shard
//! service assigns exactly the ids a bare [`PolicyService`] would.
//!
//! This is the one session type the controller stores; the paper's
//! centralized service is the one-shard case. Everything that exists to
//! tell shards apart follows the shard count: with one shard the four
//! request paths hand the call straight to the only engine (no partition,
//! no merge), metrics carry no `shard` label, and the WAL lives in the
//! durability directory itself instead of a `shard-N` subdirectory.

use crate::advice::{CleanupAdvice, CleanupOutcome, TransferAdvice, TransferOutcome};
use crate::config::{OrderingPolicy, PolicyConfig};
use crate::disk::Disk;
use crate::durable::DurabilityConfig;
use crate::keys::UrlKey;
use crate::model::{CleanupSpec, TransferSpec, Url};
use crate::service::{HostPairSnapshot, MemorySnapshot, PolicyService, RuleCounters, ServiceStats};
use crate::window::{CleanupWindow, TransferWindow};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Virtual nodes per shard on the ring. More vnodes smooth the key
/// distribution; the count is fixed so assignments are stable across
/// processes and releases.
pub const RING_VNODES: u32 = 64;

/// FNV-1a 64-bit hash — deterministic, dependency-free, and stable across
/// platforms (never use `std`'s `DefaultHasher` for placement: its seed
/// changes per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_onto(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes` continued from the hash `h` of what came before them:
/// hashing pieces one after another gives the hash of their concatenation.
fn fnv1a64_onto(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A consistent-hash ring mapping string keys to shard indices.
///
/// Each shard contributes [`RING_VNODES`] points whose positions depend
/// only on the shard's own index — so growing the ring from `n` to `n+1`
/// shards moves only the keys captured by the new shard's points (~K/(n+1)
/// of them), and removing a shard moves only that shard's keys.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, u16)>,
    shards: u16,
}

impl HashRing {
    /// A ring over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(shards: u16) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        let mut points = Vec::with_capacity(shards as usize * RING_VNODES as usize);
        for s in 0..shards {
            for v in 0..RING_VNODES {
                let point = fnv1a64(format!("shard-{s}/vnode-{v}").as_bytes());
                points.push((point, s));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or after the key's
    /// hash, wrapping at the top.
    pub fn shard_for_key(&self, key: &str) -> u16 {
        self.shard_for_hash(fnv1a64(key.as_bytes()))
    }

    /// The shard owning a `(source host, destination host)` pair: the
    /// shard of the key `"{src_host}\u{1f}{dst_host}"`, hashed piece by
    /// piece so that no key string is built.
    pub fn shard_for_pair(&self, src_host: &str, dst_host: &str) -> u16 {
        let h = fnv1a64_onto(FNV_OFFSET, src_host.as_bytes());
        let h = fnv1a64_onto(h, &[0x1f]);
        self.shard_for_hash(fnv1a64_onto(h, dst_host.as_bytes()))
    }

    fn shard_for_hash(&self, h: u64) -> u16 {
        let ix = self.points.partition_point(|(p, _)| *p < h);
        self.points[ix % self.points.len()].1
    }
}

/// A policy session sharded by host pair: N independent [`PolicyService`]s
/// behind per-shard locks, with request routing, advice merging, and
/// monitoring aggregation on top.
pub struct ShardedPolicyService {
    ring: HashRing,
    shards: Vec<Mutex<PolicyService>>,
    /// Set by the call during which any shard's disk failed.
    down: AtomicBool,
}

impl ShardedPolicyService {
    /// Build `shards` policy engines, each enforcing `config` and minting
    /// ids from its own namespace.
    pub fn new(config: PolicyConfig, shards: u16) -> Self {
        let ring = HashRing::new(shards);
        let shards = (0..shards)
            .map(|s| Mutex::new(PolicyService::with_shard(config.clone(), s)))
            .collect();
        ShardedPolicyService {
            ring,
            shards,
            down: AtomicBool::new(false),
        }
    }

    /// Rebuild every shard from its durability directory on `disk` (the
    /// layout [`ShardedPolicyService::enable_durability`] writes).
    /// Durability is *not* re-enabled on the recovered shards.
    pub fn recover_from(disk: &dyn Disk, base: &Path, shards: u16) -> io::Result<Self> {
        assert!(shards > 0, "a sharded service needs at least one shard");
        let ring = HashRing::new(shards);
        let mut recovered = Vec::with_capacity(shards as usize);
        for s in 0..shards {
            let dir = Self::shard_dir(base, s, shards);
            recovered.push(Mutex::new(PolicyService::recover_from(disk, &dir)?));
        }
        Ok(ShardedPolicyService {
            ring,
            shards: recovered,
            down: AtomicBool::new(false),
        })
    }

    /// The durability directory of shard `s` of `shards`: `base` itself
    /// for a one-shard service, `base/shard-s` otherwise.
    fn shard_dir(base: &Path, s: u16, shards: u16) -> PathBuf {
        if shards == 1 {
            base.to_path_buf()
        } else {
            base.join(format!("shard-{s}"))
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u16 {
        self.ring.shards
    }

    /// The routing ring (exposed for tests and monitoring).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Run `f` against one shard's engine. Every call that can write to
    /// a shard's log goes through here, so the call during which a disk
    /// fails is the one that marks the session down.
    pub fn with_shard<R>(&self, s: u16, f: impl FnOnce(&mut PolicyService) -> R) -> R {
        let mut shard = self.shards[s as usize].lock();
        let out = f(&mut shard);
        if shard.durability_down() {
            self.down.store(true, Ordering::Relaxed);
        }
        out
    }

    /// Enable per-shard durability: shard `s` logs and snapshots under
    /// `cfg.dir/shard-s` (a one-shard service under `cfg.dir` itself) on
    /// its own handle of `cfg`'s disk, with `cfg`'s compaction period.
    pub fn enable_durability(&self, cfg: &DurabilityConfig) -> io::Result<()> {
        for (s, shard) in self.shards.iter().enumerate() {
            let mut scfg = cfg.clone();
            scfg.dir = Self::shard_dir(&cfg.dir, s as u16, self.ring.shards);
            shard.lock().enable_durability(scfg)?;
        }
        Ok(())
    }

    /// True when any shard's disk has failed. One atomic load, since the
    /// controller asks it around every request; `Relaxed` because the flag
    /// publishes no other data, and a call that locked the failed shard
    /// after the store sees it through that lock.
    pub fn durability_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// Attach observability: shard `s`'s metrics carry
    /// `session=<session>, shard="s"` — a one-shard service has no shards
    /// to tell apart and carries `session` only; all shards share `obs`'s
    /// registry and tracer.
    pub fn set_obs(&self, obs: pwm_obs::Obs, session: &str) {
        let labelled = self.shards.len() > 1;
        for (s, shard) in self.shards.iter().enumerate() {
            let shard_label = labelled.then_some(s as u16);
            shard.lock().set_obs(obs.clone(), session, shard_label);
        }
    }

    /// Attach a shared sim clock to every shard.
    pub fn set_sim_clock(&self, clock: crate::SharedSimClock) {
        for shard in &self.shards {
            shard.lock().set_sim_clock(clock.clone());
        }
    }

    /// Which shard owns a transfer spec (by its host pair).
    pub fn shard_for_transfer(&self, spec: &TransferSpec) -> u16 {
        self.ring.shard_for_pair(&spec.source.host, &spec.dest.host)
    }

    /// Which shard owns a cleanup for `file`: the shard whose policy
    /// memory holds the staged resource, if any — otherwise (unknown file:
    /// the cleanup will execute unsuppressed wherever it lands) a
    /// deterministic ring fallback on the file's host.
    pub fn shard_for_cleanup(&self, file: &Url) -> u16 {
        let key = UrlKey::of(file);
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.lock().has_resource_keyed(key, file) {
                return s as u16;
            }
        }
        self.ring.shard_for_key(&file.host)
    }

    /// Evaluate one request list: route by host pair, run each involved
    /// shard's rules once, and merge the per-shard advice into one list
    /// (see [`ShardedPolicyService::evaluate_window`]).
    pub fn evaluate_transfers(&self, batch: Vec<TransferSpec>) -> Vec<TransferAdvice> {
        self.evaluate_transfer_groups(vec![batch])
            .pop()
            .unwrap_or_default()
    }

    /// Batched advice: evaluate several pipelined request groups with at
    /// most **one rules pass per involved shard** (see
    /// [`ShardedPolicyService::evaluate_window`]). The result aligns 1:1
    /// with `groups`.
    pub fn evaluate_transfer_groups(
        &self,
        groups: Vec<Vec<TransferSpec>>,
    ) -> Vec<Vec<TransferAdvice>> {
        let mut window = TransferWindow::from_groups(groups);
        self.evaluate_window(&mut window);
        window.into_advice_groups()
    }

    /// Evaluate a window of pipelined request groups in place: each
    /// involved shard sees its slice of every group as one
    /// [`PolicyService::evaluate_window`] call, and each group's slices are
    /// merged back into the group's advice, ordered the way the
    /// single-domain service orders a batch: executing transfers first,
    /// then (under the priority policy) priority descending, then
    /// `(source, dest)`, then id. With one shard there is nothing to
    /// partition or merge, so the only engine answers in the window itself.
    /// The partition lives in the window, so a caller that keeps its
    /// window keeps it too.
    pub fn evaluate_window(&self, window: &mut TransferWindow) {
        if self.shards.len() == 1 {
            return self.with_shard(0, |svc| svc.evaluate_window(window));
        }
        let by_priority = self.shards[0].lock().config().ordering == OrderingPolicy::ByPriority;
        // Priorities for the cross-shard merge comparator (advice does not
        // carry the spec's priority), source → dest → priority so the
        // comparator looks them up by reference.
        let mut priorities: Priorities = BTreeMap::new();
        if by_priority {
            for spec in &window.specs {
                priorities
                    .entry(spec.source.clone())
                    .or_default()
                    .insert(spec.dest.clone(), spec.priority.unwrap_or(0));
            }
        }
        let n = self.shards.len();
        window.partition(n, |spec| self.shard_for_transfer(spec) as usize);
        for s in 0..n {
            if let Some(slice) = window.slice(s) {
                self.with_shard(s as u16, |svc| svc.evaluate_window(slice));
            }
        }
        let prio = |a: &TransferAdvice| -> i32 {
            priorities
                .get(&a.source)
                .and_then(|by_dest| by_dest.get(&a.dest))
                .copied()
                .unwrap_or(0)
        };
        window.merge(n, |a, b| {
            b.should_execute()
                .cmp(&a.should_execute())
                .then_with(|| {
                    if by_priority {
                        prio(b).cmp(&prio(a))
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .then_with(|| (&a.source, &a.dest).cmp(&(&b.source, &b.dest)))
                .then_with(|| a.id.cmp(&b.id))
        });
    }

    /// Report transfer outcomes, routed back to the minting shard by the
    /// id's namespace bits. Ids outside every shard's namespace are
    /// dropped, matching the single service's treatment of unknown ids.
    pub fn report_transfers(&self, outcomes: Vec<TransferOutcome>) {
        self.report_transfer_outcomes(&outcomes);
    }

    /// [`ShardedPolicyService::report_transfers`] over borrowed outcomes:
    /// each shard is handed the ones it minted, in report order.
    pub fn report_transfer_outcomes(&self, outcomes: &[TransferOutcome]) {
        if self.shards.len() == 1 {
            return self.with_shard(0, |svc| svc.report_transfer_outcomes(outcomes.iter()));
        }
        for s in 0..self.ring.shards {
            let mine = |o: &&TransferOutcome| PolicyService::shard_of_transfer(o.id) == s;
            if outcomes.iter().any(|o| mine(&o)) {
                self.with_shard(s, |svc| {
                    svc.report_transfer_outcomes(outcomes.iter().filter(mine))
                });
            }
        }
    }

    /// Evaluate cleanups: each request is routed to the shard owning the
    /// file's resource; results come back in request order.
    pub fn evaluate_cleanups(&self, batch: Vec<CleanupSpec>) -> Vec<CleanupAdvice> {
        let mut window = CleanupWindow::from_specs(batch);
        self.evaluate_cleanup_window(&mut window);
        window.into_advice()
    }

    /// [`ShardedPolicyService::evaluate_cleanups`] over a window the caller
    /// keeps, its partition included.
    pub fn evaluate_cleanup_window(&self, window: &mut CleanupWindow) {
        if self.shards.len() == 1 {
            return self.with_shard(0, |svc| svc.evaluate_cleanup_window(window));
        }
        let n = self.shards.len();
        window.partition(n, |spec| self.shard_for_cleanup(&spec.file) as usize);
        for s in 0..n {
            if let Some(slice) = window.slice(s) {
                self.with_shard(s as u16, |svc| svc.evaluate_cleanup_window(slice));
            }
        }
        window.merge();
    }

    /// Report cleanup outcomes, routed by id namespace.
    pub fn report_cleanups(&self, outcomes: Vec<CleanupOutcome>) {
        self.report_cleanup_outcomes(&outcomes);
    }

    /// [`ShardedPolicyService::report_cleanups`] over borrowed outcomes.
    pub fn report_cleanup_outcomes(&self, outcomes: &[CleanupOutcome]) {
        if self.shards.len() == 1 {
            return self.with_shard(0, |svc| svc.report_cleanup_outcomes(outcomes.iter()));
        }
        for s in 0..self.ring.shards {
            let mine = |o: &&CleanupOutcome| PolicyService::shard_of_cleanup(o.id) == s;
            if outcomes.iter().any(|o| mine(&o)) {
                self.with_shard(s, |svc| {
                    svc.report_cleanup_outcomes(outcomes.iter().filter(mine))
                });
            }
        }
    }

    /// Report health observations to every shard. Health facts are not
    /// partitioned by host pair — any shard may evaluate a transfer sourced
    /// at the failed host — so reports broadcast.
    pub fn report_health(&self, events: Vec<crate::model::HealthEvent>) {
        if events.is_empty() {
            return;
        }
        for s in 0..self.ring.shards {
            self.with_shard(s, |svc| svc.report_health(events.clone()));
        }
    }

    /// Monitoring counters summed across shards.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.transfer_requests += s.transfer_requests;
            total.transfers_executed += s.transfers_executed;
            total.transfers_suppressed += s.transfers_suppressed;
            total.transfers_completed += s.transfers_completed;
            total.transfers_failed += s.transfers_failed;
            total.cleanup_requests += s.cleanup_requests;
            total.cleanups_executed += s.cleanups_executed;
            total.cleanups_suppressed += s.cleanups_suppressed;
            total.rule_firings += s.rule_firings;
        }
        total
    }

    /// Memory snapshot merged across shards: occupancy counts summed, host
    /// pairs concatenated and sorted by `(src, dst)` for a deterministic
    /// view.
    pub fn snapshot(&self) -> MemorySnapshot {
        let mut merged = MemorySnapshot {
            in_progress_transfers: 0,
            staged_files: 0,
            staging_files: 0,
            in_progress_cleanups: 0,
            host_pairs: Vec::new(),
        };
        for shard in &self.shards {
            let s = shard.lock().snapshot();
            merged.in_progress_transfers += s.in_progress_transfers;
            merged.staged_files += s.staged_files;
            merged.staging_files += s.staging_files;
            merged.in_progress_cleanups += s.in_progress_cleanups;
            merged.host_pairs.extend(s.host_pairs);
        }
        merged
            .host_pairs
            .sort_by(|a, b| (&a.src_host, &a.dst_host).cmp(&(&b.src_host, &b.dst_host)));
        merged
    }

    /// Have every shard set its own gauges from its own snapshot
    /// ([`PolicyService::publish_gauges`]).
    pub fn publish_gauges(&self) {
        for shard in &self.shards {
            shard.lock().publish_gauges();
        }
    }

    /// Facts yielded to whole-type walks, summed across shards.
    pub fn facts_walked(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().facts_walked()).sum()
    }

    /// Refraction records held, summed across shards.
    pub fn refraction_records(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().refraction_records())
            .sum()
    }

    /// Per-rule counters summed across shards, in installation order —
    /// which every shard shares, each being built by [`PolicyService::new`].
    pub fn rule_stats(&self) -> Vec<RuleCounters> {
        let mut merged: Vec<RuleCounters> = self.shards[0].lock().rule_stats();
        for shard in &self.shards[1..] {
            for (m, c) in merged.iter_mut().zip(shard.lock().rule_stats()) {
                debug_assert_eq!(m.name, c.name, "shards install the same rules");
                m.evaluations += c.evaluations;
                m.matches += c.matches;
                m.firings += c.firings;
                m.eval_nanos += c.eval_nanos;
            }
        }
        merged
    }

    /// Audit records with sequence ≥ `since`, concatenated shard by shard
    /// (each shard numbers its own ring).
    pub fn audit_since(&self, since: u64) -> Vec<crate::audit::AuditRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().audit_since(since));
        }
        out
    }

    /// Replace every shard's configuration.
    pub fn set_config(&self, config: PolicyConfig) {
        for s in 0..self.ring.shards {
            self.with_shard(s, |svc| svc.set_config(config.clone()));
        }
    }

    /// Streams currently allocated between a host pair (routed).
    pub fn allocated(&self, src_host: &str, dst_host: &str) -> u32 {
        let s = self.ring.shard_for_pair(src_host, dst_host) as usize;
        self.shards[s].lock().allocated(src_host, dst_host)
    }

    /// Peak streams allocated between a host pair (routed).
    pub fn peak_allocated(&self, src_host: &str, dst_host: &str) -> u32 {
        let s = self.ring.shard_for_pair(src_host, dst_host) as usize;
        self.shards[s].lock().peak_allocated(src_host, dst_host)
    }

    /// Shard 0's Chrome-trace JSON (per-shard tracers stay separate; the
    /// merged flame view comes from attaching one shared tracer via
    /// [`ShardedPolicyService::set_obs`]).
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.shards[0].lock().trace_chrome_json()
    }
}

/// Requested priority by source, then destination URL.
type Priorities = BTreeMap<Url, BTreeMap<Url, i32>>;

/// Sort host-pair snapshots the way [`ShardedPolicyService::snapshot`]
/// does (helper for tests comparing sharded and single-domain views).
pub fn sort_host_pairs(pairs: &mut [HostPairSnapshot]) {
    pairs.sort_by(|a, b| (&a.src_host, &a.dst_host).cmp(&(&b.src_host, &b.dst_host)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkflowId;

    fn spec(src: &str, dst: &str, n: u64, wf: u64) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", src, format!("/d/f{n}.dat")),
            dest: Url::new("file", dst, format!("/s/f{n}.dat")),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(wf),
            cluster: None,
            priority: None,
        }
    }

    #[test]
    fn ring_assignment_is_stable_across_constructions() {
        let a = HashRing::new(8);
        let b = HashRing::new(8);
        for i in 0..200 {
            let key = format!("host-{i}");
            assert_eq!(a.shard_for_key(&key), b.shard_for_key(&key));
        }
    }

    /// Routing never drifts: ids are namespaced by shard, so a pair that
    /// moved would move every sharded advice id. The streamed hash of a
    /// pair is the hash of the key string the ring once built for it, over
    /// a few thousand generated pairs and ring sizes, and a short table of
    /// pairs keeps the shards that key string gave them.
    #[test]
    fn pair_routing_is_the_key_string_s_routing() {
        for shards in [1u16, 2, 4, 7, 16, 64] {
            let ring = HashRing::new(shards);
            for i in 0..1500u32 {
                let src = format!("gridftp-{}.site{}", i % 97, i % 5);
                let dst = match i % 3 {
                    0 => format!("scratch-{i}"),
                    1 => String::new(),
                    _ => format!("\u{e9}dst\u{1f}{}", i * 7),
                };
                assert_eq!(
                    ring.shard_for_pair(&src, &dst),
                    ring.shard_for_key(&format!("{src}\u{1f}{dst}")),
                    "{shards} shards: {src:?} -> {dst:?}"
                );
            }
        }
        let table = [
            ("gridftp-0", "scratch-0", 4, 3),
            ("gridftp-1", "scratch-1", 4, 1),
            ("gridftp-2", "scratch-2", 4, 0),
            ("gridftp-5", "scratch-5", 4, 2),
            ("gridftp-17", "scratch-17", 4, 3),
            ("gridftp-63", "scratch-63", 4, 0),
            ("apache-isi", "isi", 4, 3),
            ("gridftp-vm", "isi", 4, 3),
            ("src", "dst", 4, 3),
            ("", "", 4, 3),
            ("a\u{1f}b", "c", 4, 2),
            ("gridftp-0", "scratch-0", 16, 8),
            ("gridftp-1", "scratch-1", 16, 1),
            ("gridftp-2", "scratch-2", 16, 0),
            ("gridftp-5", "scratch-5", 16, 15),
            ("gridftp-17", "scratch-17", 16, 14),
            ("gridftp-63", "scratch-63", 16, 0),
            ("apache-isi", "isi", 16, 11),
            ("gridftp-vm", "isi", 16, 14),
            ("src", "dst", 16, 8),
            ("", "", 16, 3),
            ("a\u{1f}b", "c", 16, 2),
        ];
        for (src, dst, shards, shard) in table {
            let ring = HashRing::new(shards);
            assert_eq!(
                ring.shard_for_pair(src, dst),
                shard,
                "{src:?} -> {dst:?} on {shards}"
            );
        }
    }

    #[test]
    fn ring_uses_every_shard() {
        let ring = HashRing::new(4);
        let mut seen = [false; 4];
        for i in 0..400 {
            seen[ring.shard_for_pair(&format!("src{i}"), &format!("dst{i}")) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "400 keys must hit all 4 shards");
    }

    #[test]
    fn single_shard_ring_owns_every_key() {
        // The degenerate ring: every key maps to shard 0, and keys route
        // identically no matter where their hashes land relative to the
        // vnode points (including past the top of the ring, which wraps).
        let ring = HashRing::new(1);
        assert_eq!(ring.shards(), 1);
        for i in 0..500 {
            assert_eq!(ring.shard_for_key(&format!("key-{i}")), 0);
            assert_eq!(ring.shard_for_pair(&format!("s{i}"), &format!("d{i}")), 0);
        }
    }

    #[test]
    fn wide_ring_covers_all_64_shards_roughly_evenly() {
        // 64 shards × 64 vnodes = 4096 ring points. Every shard must own
        // keys (no starved shard), and no shard may capture a grossly
        // outsized fraction — the consistent-hash spread the router's
        // contention-avoidance story rests on.
        let ring = HashRing::new(64);
        let keys = 64 * 200;
        let mut counts = [0u32; 64];
        for i in 0..keys {
            counts[ring.shard_for_pair(&format!("host-a{i}"), &format!("host-b{i}")) as usize] += 1;
        }
        let expected = keys as u32 / 64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} owns no keys out of {keys}");
            assert!(
                c < expected * 4,
                "shard {s} owns {c} of {keys} keys (> 4x the even share)"
            );
        }
    }

    #[test]
    fn namespaced_ids_never_collide_across_shards() {
        // Regression guard on the `shard << SHARD_ID_BITS` namespace: ids
        // minted concurrently by every shard of a wide ring must be
        // globally unique and must decode back to their minting shard —
        // a collision would route an outcome report to the wrong shard's
        // ledger.
        let shards = 64u16;
        let sharded = ShardedPolicyService::new(PolicyConfig::default(), shards);
        let batch: Vec<TransferSpec> = (0..512)
            .map(|i| spec(&format!("src{i}"), &format!("dst{i}"), i, 1))
            .collect();
        let advice = sharded.evaluate_transfers(batch);
        assert_eq!(advice.len(), 512);
        let mut seen = std::collections::HashSet::new();
        for a in &advice {
            assert!(seen.insert(a.id), "duplicate transfer id {:?}", a.id);
            let shard = PolicyService::shard_of_transfer(a.id);
            assert!(shard < shards, "id {:?} decodes to shard {shard}", a.id);
        }
        // The ids must be usable as routing keys: reporting every outcome
        // lands each on its own shard and the aggregate ledger balances.
        sharded.report_transfers(
            advice
                .iter()
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect(),
        );
        assert_eq!(sharded.stats().transfers_completed, 512);
    }

    #[test]
    fn one_shard_matches_unsharded_service_exactly() {
        let config = PolicyConfig::default();
        let sharded = ShardedPolicyService::new(config.clone(), 1);
        let mut single = PolicyService::new(config);
        let batch = vec![
            spec("a", "x", 1, 1),
            spec("b", "y", 2, 1),
            spec("a", "x", 1, 2),
        ];
        assert_eq!(
            sharded.evaluate_transfers(batch.clone()),
            single.evaluate_transfers(batch),
        );
        assert_eq!(sharded.stats(), single.stats());
        assert_eq!(sharded.snapshot(), single.snapshot());
    }

    #[test]
    fn ids_are_namespaced_per_shard_and_reports_route_back() {
        let sharded = ShardedPolicyService::new(PolicyConfig::default(), 4);
        let batch: Vec<TransferSpec> = (0..16)
            .map(|i| spec(&format!("src{i}"), &format!("dst{i}"), i, 1))
            .collect();
        let advice = sharded.evaluate_transfers(batch);
        assert_eq!(advice.len(), 16);
        // Every id carries its shard in the top bits.
        for a in &advice {
            assert!(PolicyService::shard_of_transfer(a.id) < 4);
        }
        let outcomes: Vec<TransferOutcome> = advice
            .iter()
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        sharded.report_transfers(outcomes);
        let stats = sharded.stats();
        assert_eq!(stats.transfers_completed, 16);
        assert_eq!(sharded.snapshot().staged_files, 16);
        assert_eq!(sharded.snapshot().in_progress_transfers, 0);
    }

    #[test]
    fn dedup_works_within_a_shard_across_groups() {
        let sharded = ShardedPolicyService::new(PolicyConfig::default(), 4);
        // Same file twice in one batched call, in different groups: one
        // executes, one is suppressed (both land on the same shard).
        let out = sharded
            .evaluate_transfer_groups(vec![vec![spec("a", "x", 1, 1)], vec![spec("a", "x", 1, 2)]]);
        assert_eq!(out.len(), 2);
        let executing: usize = out.iter().flatten().filter(|a| a.should_execute()).count();
        assert_eq!(executing, 1);
        assert_eq!(sharded.stats().transfers_suppressed, 1);
    }

    #[test]
    fn cleanups_route_to_the_owning_shard() {
        let sharded = ShardedPolicyService::new(PolicyConfig::default(), 4);
        let advice = sharded.evaluate_transfers(vec![spec("a", "x", 1, 1)]);
        sharded.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        let cleanups = sharded.evaluate_cleanups(vec![CleanupSpec {
            file: Url::new("file", "x", "/s/f1.dat"),
            workflow: WorkflowId(1),
        }]);
        assert!(cleanups[0].should_execute());
        sharded.report_cleanups(vec![CleanupOutcome {
            id: cleanups[0].id,
            success: true,
        }]);
        assert_eq!(sharded.snapshot().staged_files, 0);
    }

    #[test]
    fn per_shard_durability_recovers_every_shard() {
        let disk = crate::SimDisk::new();
        let base = Path::new("sharded");
        let sharded = ShardedPolicyService::new(PolicyConfig::default(), 3);
        let cfg = DurabilityConfig::on(disk.clone(), base).with_snapshot_every(2);
        sharded.enable_durability(&cfg).unwrap();
        let batch: Vec<TransferSpec> = (0..12)
            .map(|i| spec(&format!("s{i}"), &format!("d{i}"), i, 1))
            .collect();
        let advice = sharded.evaluate_transfers(batch);
        sharded.report_transfers(
            advice
                .iter()
                .take(6)
                .map(|a| TransferOutcome {
                    id: a.id,
                    success: true,
                })
                .collect(),
        );

        let recovered = ShardedPolicyService::recover_from(&disk, base, 3).unwrap();
        assert_eq!(recovered.stats(), sharded.stats());
        assert_eq!(recovered.snapshot(), sharded.snapshot());
        for s in 0..3 {
            let live = sharded.with_shard(s, |svc| {
                let mut st = svc.durable_state();
                st.applied_seq = 0;
                st
            });
            let rec = recovered.with_shard(s, |svc| svc.durable_state());
            assert_eq!(rec, live, "shard {s} must recover identically");
        }
    }
}
