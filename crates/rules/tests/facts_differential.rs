//! Differential harness: the arena [`WorkingMemory`] driven in lockstep
//! with the legacy boxed-fact store it replaced.
//!
//! Random insert/update/retract/probe command sequences execute against both
//! stores; after every command each observable the rule engine consumes must
//! agree exactly — returned handles, operation results, fact values,
//! iteration order, versions, the global generation, per-type generations,
//! and the `changed_since` delta log. Indexed lookups (`find_by`, `iter_by`,
//! `lookup_by`, `key_of`) are additionally held to the oracle's *filtered
//! scan* — insertion order, first = lowest handle — for an index registered
//! before any fact exists and for one registered mid-sequence over whatever
//! facts exist by then: the Policy Service's own lookups rely on an index
//! probe answering exactly what `find` over the type would. The Alpha index
//! declares the field group its key reads, and the command stream carries
//! `update_fields` under random masks — some naming that group and really
//! changing the key, most not — so the index is also held, after every
//! command, to one rebuilt from scratch over the same facts: skipping the
//! re-key of an update that cannot change the key must never leave a
//! posting or a stored key behind. A generic mini rule
//! evaluator then
//! replays identical workloads over both stores and must produce identical
//! firing-report counters (evaluations / matches / firings), since those
//! counters are pure functions of exactly the observables compared above.
//! Finally, use-after-retract probes through saved [`pwm_rules::FactId`]s
//! must return `None` via the generation mismatch, never a stale or
//! recycled fact.
//!
//! A second harness drives the shapes the store's compact forms switch on.
//! Keys come from a sparse domain, so most keys hold one posting (held
//! inline) and joins, re-keys and retracts move keys between one posting,
//! several and none; a fixed tour at the end of every case walks one key
//! through none → one → many → one → none. Each case also starts from a few
//! hundred facts of one type, several 64-slot pages of its slab, and
//! retracts strided across the pages, so later inserts reuse slots in
//! every page. After every command the index is held to the rebuilt index
//! and to the oracle's scan grouped by key.
//!
//! The oracle lives beside this file as the `legacy` module.
//! `PWM_PROPTEST_CASES` raises the case count for the CI differential job.

mod legacy;

use legacy::LegacyWorkingMemory;
use proptest::prelude::*;
use pwm_rules::{FactHandle, FactId, Fields, IndexPos, WorkingMemory};
use std::any::TypeId;
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Clone)]
struct Alpha {
    n: u64,
    key: u64,
}

/// Field groups of [`Alpha`]: the index key reads `KEY` only.
const N: Fields = Fields::bit(0);
const KEY: Fields = Fields::bit(1);
/// A group no field of `Alpha` belongs to (writers may over-declare).
const SPARE: Fields = Fields::bit(7);

/// The same key extraction as the maintained `u64` index under a second key
/// type, so an index rebuilt from scratch can sit beside the maintained one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Rebuilt(u64);

impl pwm_rules::IndexKey for Rebuilt {
    type Build = pwm_rules::MintedBuild;
}

#[derive(Debug, PartialEq, Clone)]
struct Beta {
    s: String,
}

/// One lockstep command. Handle-bearing variants pick from the issued
/// handle list by index, so they hit live, retracted, and wrong-type
/// handles alike.
#[derive(Debug, Clone)]
enum Cmd {
    InsertA(u64, u64),
    InsertB(u64),
    UpdateA(usize, u64),
    /// `update_fields::<Alpha>` under the mask whose groups the low three
    /// bits pick (`N`, `KEY`, `SPARE`); the key changes iff it names `KEY`.
    UpdateFieldsA(usize, u8, u64),
    /// `update::<Beta>` aimed at whatever handle `ix` names — usually an
    /// Alpha, so the typed-miss path is exercised.
    UpdateWrongType(usize),
    Retract(usize),
    RetractAllB,
    Probe(usize),
    LookupByKey(u64),
    /// Record the current generation; subsequent `changed_since` checks
    /// compare both logs from this point.
    Checkpoint,
    /// Register the Beta-by-string index (back-filling the Betas alive by
    /// then); from here on it is checked after every command.
    IndexBeta,
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0u64..50, 0u64..8).prop_map(|(n, k)| Cmd::InsertA(n, k)),
        2 => (0u64..50).prop_map(Cmd::InsertB),
        3 => (any::<usize>(), 0u64..8).prop_map(|(ix, k)| Cmd::UpdateA(ix, k)),
        4 => (any::<usize>(), 0u8..8, 0u64..8)
            .prop_map(|(ix, groups, k)| Cmd::UpdateFieldsA(ix, groups, k)),
        1 => any::<usize>().prop_map(Cmd::UpdateWrongType),
        2 => any::<usize>().prop_map(Cmd::Retract),
        1 => Just(Cmd::RetractAllB),
        2 => any::<usize>().prop_map(Cmd::Probe),
        1 => (0u64..8).prop_map(Cmd::LookupByKey),
        1 => Just(Cmd::Checkpoint),
        1 => Just(Cmd::IndexBeta),
    ]
}

/// Arena handles as the oracle names their facts: by sequence number.
fn seqs(handles: impl IntoIterator<Item = FactHandle>) -> Vec<u64> {
    handles.into_iter().map(FactHandle::seq).collect()
}

/// A handle of either store.
trait Seq: Copy {
    /// The fact's insertion sequence number.
    fn seq_of(self) -> u64;
}

impl Seq for FactHandle {
    fn seq_of(self) -> u64 {
        self.seq()
    }
}

impl Seq for u64 {
    fn seq_of(self) -> u64 {
        self
    }
}

/// `(handle, fact)` pairs of either store with the handles as the oracle
/// names them.
fn by_seq<'a, H: Seq, T: Clone + 'a>(facts: impl Iterator<Item = (H, &'a T)>) -> Vec<(u64, T)> {
    facts.map(|(h, t)| (h.seq_of(), t.clone())).collect()
}

/// The indexed lookups of `arena` under `key` against a filtered scan of the
/// oracle: same facts in insertion order, `find_by` the lowest handle.
fn assert_index_matches_scan<T, K>(
    arena: &WorkingMemory,
    legacy: &LegacyWorkingMemory,
    at: IndexPos<T, K>,
    key: &K,
    extract: fn(&T) -> K,
) where
    T: pwm_rules::Fact + Clone + PartialEq,
    K: pwm_rules::IndexKey + std::fmt::Debug,
{
    let scan: Vec<(u64, T)> = legacy
        .iter::<T>()
        .filter(|(_, t)| extract(t) == *key)
        .map(|(h, t)| (h, t.clone()))
        .collect();
    let by = by_seq(arena.iter_by(at, key));
    assert_eq!(by, scan, "iter_by({key:?}) is not the filtered scan");
    assert_eq!(
        seqs(arena.lookup_by(at, key)),
        scan.iter().map(|(h, _)| *h).collect::<Vec<_>>(),
        "lookup_by({key:?}) is not the filtered scan"
    );
    assert_eq!(
        arena.find_by(at, key).map(|(h, t)| (h.seq(), t.clone())),
        scan.first().cloned(),
        "find_by({key:?}) is not the scan's first hit"
    );
}

/// The arena's indexes: Alpha by key, maintained and rebuilt, and Beta by
/// string once it is registered.
struct Positions {
    key: IndexPos<Alpha, u64>,
    rebuilt: IndexPos<Alpha, Rebuilt>,
    beta: Option<IndexPos<Beta, String>>,
}

/// Compare every engine-visible observable of the two stores.
fn assert_stores_agree(
    arena: &WorkingMemory,
    legacy: &LegacyWorkingMemory,
    checkpoint: u64,
    at: &Positions,
) {
    assert_eq!(arena.len(), legacy.len());
    assert_eq!(arena.is_empty(), legacy.is_empty());
    assert_eq!(arena.count::<Alpha>(), legacy.count::<Alpha>());
    assert_eq!(arena.count::<Beta>(), legacy.count::<Beta>());
    assert_eq!(arena.generation(), legacy.generation());
    assert_eq!(
        arena.type_generation_of::<Alpha>(),
        legacy.type_generation_of::<Alpha>()
    );
    assert_eq!(
        arena.type_generation_of::<Beta>(),
        legacy.type_generation_of::<Beta>()
    );
    let l_iter = by_seq(legacy.iter::<Alpha>());
    assert_eq!(
        by_seq(arena.iter::<Alpha>()),
        l_iter,
        "Alpha iteration diverged"
    );
    let l_beta = by_seq(legacy.iter::<Beta>());
    assert_eq!(
        by_seq(arena.iter::<Beta>()),
        l_beta,
        "Beta iteration diverged"
    );
    for ty in [TypeId::of::<Alpha>(), TypeId::of::<Beta>()] {
        assert_eq!(arena.type_generation(ty), legacy.type_generation(ty));
        let changed = arena.changed_since(ty, checkpoint);
        assert_eq!(
            changed.map(|log| log.iter().map(|&(g, h)| (g, h.seq())).collect::<Vec<_>>()),
            legacy.changed_since(ty, checkpoint).map(<[_]>::to_vec),
            "changed_since diverged"
        );
    }
    if let Some(beta) = at.beta {
        for n in 0..50u64 {
            assert_index_matches_scan(arena, legacy, beta, &format!("b{n}"), |b: &Beta| {
                b.s.clone()
            });
        }
    }
    // The arena's handles, which iterate as the oracle's (checked above).
    for (h, _) in arena.iter::<Alpha>() {
        assert_eq!(
            arena.key_of(at.key, h),
            legacy.key_of::<Alpha, u64>(h.seq()),
            "key_of({h:?}) diverged"
        );
        assert_eq!(
            arena.key_of(at.key, h),
            arena.key_of(at.rebuilt, h).map(|k| &k.0),
            "key_of({h:?}) is not the rebuilt index's"
        );
    }
    for key in 0..8u64 {
        assert_index_matches_scan(arena, legacy, at.key, &key, |a| a.key);
        assert_eq!(
            arena.lookup_by(at.key, &key),
            arena.lookup_by(at.rebuilt, &Rebuilt(key)),
            "lookup_by({key}) is not the rebuilt index's"
        );
        assert_eq!(
            seqs(arena.lookup_by(at.key, &key)),
            legacy.lookup_by::<Alpha, u64>(&key),
            "lookup_by({key}) diverged"
        );
        let l_by = by_seq(legacy.iter_by::<Alpha, u64>(&key));
        assert_eq!(
            by_seq(arena.iter_by(at.key, &key)),
            l_by,
            "iter_by({key}) diverged"
        );
        assert_eq!(
            arena
                .find_by(at.key, &key)
                .map(|(h, a)| (h.seq(), a.clone())),
            legacy
                .find_by::<Alpha, u64>(&key)
                .map(|(h, a)| (h, a.clone())),
            "find_by({key}) diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(128),
    })]

    /// The heart of the harness: identical command sequences, identical
    /// observables, after every single command.
    #[test]
    fn arena_store_matches_legacy_store(cmds in proptest::collection::vec(arb_cmd(), 1..120)) {
        let mut arena = WorkingMemory::new();
        let mut legacy = LegacyWorkingMemory::new();
        let key_ix = arena.register_index::<Alpha, u64>(KEY, |a| a.key);
        legacy.register_index::<Alpha, u64>(|a| a.key);
        let mut handles: Vec<FactHandle> = Vec::new();
        // Ids of every Alpha ever inserted, with the handle they named;
        // retired ones must probe to None at the end.
        let mut ids: Vec<(FactHandle, FactId<Alpha>)> = Vec::new();
        let mut checkpoint = 0u64;
        let mut beta = None;
        for cmd in cmds {
            match cmd {
                Cmd::InsertA(n, key) => {
                    let ha = arena.insert(Alpha { n, key });
                    let hl = legacy.insert(Alpha { n, key });
                    prop_assert_eq!(ha.seq(), hl, "handle numbering diverged");
                    ids.push((ha, arena.fact_id::<Alpha>(ha).unwrap()));
                    handles.push(ha);
                }
                Cmd::InsertB(n) => {
                    let ha = arena.insert(Beta { s: format!("b{n}") });
                    let hl = legacy.insert(Beta { s: format!("b{n}") });
                    prop_assert_eq!(ha.seq(), hl, "handle numbering diverged");
                    handles.push(ha);
                }
                Cmd::UpdateA(ix, key) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    // A plain update touches every field, the key included.
                    let ra = arena.update::<Alpha>(h, |a| { a.n += 1; a.key = key; });
                    let rl = legacy.update::<Alpha>(h.seq(), |a| { a.n += 1; a.key = key; });
                    prop_assert_eq!(ra, rl, "update result diverged");
                }
                Cmd::UpdateFieldsA(ix, groups, key) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    let mask = [N, KEY, SPARE]
                        .into_iter()
                        .enumerate()
                        .filter(|(bit, _)| groups >> bit & 1 == 1)
                        .fold(Fields::NONE, |mask, (_, group)| mask | group);
                    // An honest writer: it changes the key only under a mask
                    // that says so. To every other observable compared here
                    // a field-scoped update is an update — the store differs
                    // only in which watchers and indexes it tells.
                    let rekeys = groups & 0b010 != 0;
                    let write = |a: &mut Alpha| {
                        a.n += 1;
                        if rekeys {
                            a.key = key;
                        }
                    };
                    let ra = arena.update_fields::<Alpha>(h, mask, write);
                    let rl = legacy.update::<Alpha>(h.seq(), write);
                    prop_assert_eq!(ra, rl, "update_fields result diverged");
                }
                Cmd::UpdateWrongType(ix) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    // Against an Alpha handle this must fail on both sides
                    // without bumping any version or generation.
                    let ra = arena.update::<Beta>(h, |b| b.s.push('!'));
                    let rl = legacy.update::<Beta>(h.seq(), |b| b.s.push('!'));
                    prop_assert_eq!(ra, rl, "wrong-type update diverged");
                }
                Cmd::Retract(ix) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    prop_assert_eq!(arena.retract(h), legacy.retract(h.seq()), "retract diverged");
                }
                Cmd::RetractAllB => {
                    prop_assert_eq!(
                        arena.retract_all::<Beta>(),
                        legacy.retract_all::<Beta>(),
                        "retract_all diverged"
                    );
                }
                Cmd::Probe(ix) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    let l = h.seq();
                    prop_assert_eq!(arena.get::<Alpha>(h), legacy.get::<Alpha>(l));
                    prop_assert_eq!(arena.get::<Beta>(h), legacy.get::<Beta>(l));
                    prop_assert_eq!(arena.version(h), legacy.version(l));
                    prop_assert_eq!(arena.contains(h), legacy.contains(l));
                }
                Cmd::LookupByKey(key) => {
                    prop_assert_eq!(
                        seqs(arena.lookup_by(key_ix, &key)),
                        legacy.lookup_by::<Alpha, u64>(&key)
                    );
                }
                Cmd::Checkpoint => checkpoint = arena.generation(),
                Cmd::IndexBeta => {
                    beta = Some(arena.register_index::<Beta, String>(Fields::NONE, |b| b.s.clone()));
                }
                // Handle-bearing commands before the first insert: no-ops.
                Cmd::UpdateA(..)
                | Cmd::UpdateFieldsA(..)
                | Cmd::UpdateWrongType(_)
                | Cmd::Retract(_)
                | Cmd::Probe(_) => {}
            }
            // Re-registering replaces the index with one back-filled from
            // the facts as they stand: the maintained index's reference.
            let rebuilt = arena.register_index::<Alpha, Rebuilt>(KEY, |a| Rebuilt(a.key));
            let at = Positions { key: key_ix, rebuilt, beta };
            assert_stores_agree(&arena, &legacy, checkpoint, &at);
        }
        // Use-after-retract: every id whose handle is gone must miss via
        // generation mismatch; every live one must still resolve.
        for (h, id) in ids {
            if arena.contains(h) {
                prop_assert_eq!(arena.get_id(id), arena.get::<Alpha>(h));
            } else {
                prop_assert!(
                    arena.get_id(id).is_none(),
                    "stale FactId resolved after retract (slot recycling leak)"
                );
            }
        }
    }
}

// --- sparse keys over paged slabs ----------------------------------------

/// Keys of the sparse harness: wide enough that a random key is nearly
/// always unused, so most postings are single.
const SPARSE_KEYS: u64 = 4096;

/// One lockstep command of the sparse harness. Handle-bearing variants pick
/// from the issued handle list by index, retracted handles included.
#[derive(Debug, Clone)]
enum SparseCmd {
    /// Insert `count` Alphas under keys drawn from `seed`.
    Insert {
        count: u8,
        seed: u64,
    },
    /// Move a fact to a (nearly always) fresh key.
    Rekey(usize, u64),
    /// Move a fact onto another fact's key: one posting becomes several.
    Join(usize, usize),
    /// Retract every `stride`-th issued handle from `offset`: slots freed in
    /// every page, reused by later inserts.
    RetractStride {
        stride: usize,
        offset: usize,
    },
    Retract(usize),
}

fn arb_sparse_cmd() -> impl Strategy<Value = SparseCmd> {
    prop_oneof![
        3 => (1u8..40, any::<u64>()).prop_map(|(count, seed)| SparseCmd::Insert { count, seed }),
        3 => (any::<usize>(), 0..SPARSE_KEYS).prop_map(|(ix, key)| SparseCmd::Rekey(ix, key)),
        3 => (any::<usize>(), any::<usize>()).prop_map(|(ix, to)| SparseCmd::Join(ix, to)),
        1 => (3usize..9, 0usize..9)
            .prop_map(|(stride, offset)| SparseCmd::RetractStride { stride, offset }),
        3 => any::<usize>().prop_map(SparseCmd::Retract),
    ]
}

/// Lockstep pair of stores with the Alpha index registered on both.
struct Sparse {
    arena: WorkingMemory,
    legacy: LegacyWorkingMemory,
    key_ix: IndexPos<Alpha, u64>,
    handles: Vec<FactHandle>,
    ids: Vec<(FactHandle, FactId<Alpha>)>,
    n: u64,
}

impl Sparse {
    fn new() -> Sparse {
        let mut arena = WorkingMemory::new();
        let mut legacy = LegacyWorkingMemory::new();
        let key_ix = arena.register_index::<Alpha, u64>(KEY, |a| a.key);
        legacy.register_index::<Alpha, u64>(|a| a.key);
        Sparse {
            arena,
            legacy,
            key_ix,
            handles: Vec::new(),
            ids: Vec::new(),
            n: 0,
        }
    }

    fn insert(&mut self, key: u64) -> FactHandle {
        self.n += 1;
        let ha = self.arena.insert(Alpha { n: self.n, key });
        let hl = self.legacy.insert(Alpha { n: self.n, key });
        assert_eq!(ha.seq(), hl, "handle numbering diverged");
        self.ids
            .push((ha, self.arena.fact_id::<Alpha>(ha).unwrap()));
        self.handles.push(ha);
        ha
    }

    /// Re-key `h` on both stores, alternating a plain update with a
    /// field-scoped one that names the key's group.
    fn rekey(&mut self, h: FactHandle, key: u64) {
        let write = |a: &mut Alpha| a.key = key;
        let ra = if key.is_multiple_of(2) {
            self.arena.update::<Alpha>(h, write)
        } else {
            self.arena.update_fields::<Alpha>(h, KEY, write)
        };
        let rl = self.legacy.update::<Alpha>(h.seq(), write);
        assert_eq!(ra, rl, "re-key diverged");
    }

    fn retract(&mut self, h: FactHandle) {
        assert_eq!(
            self.arena.retract(h),
            self.legacy.retract(h.seq()),
            "retract diverged"
        );
    }

    fn pick(&self, ix: usize) -> Option<FactHandle> {
        (!self.handles.is_empty()).then(|| self.handles[ix % self.handles.len()])
    }

    fn key(&self, h: FactHandle) -> Option<u64> {
        self.legacy.get::<Alpha>(h.seq()).map(|a| a.key)
    }

    /// Run `cmd` on both stores; the keys whose postings it may have
    /// changed.
    fn run(&mut self, cmd: SparseCmd) -> Vec<u64> {
        let mut touched = Vec::new();
        match cmd {
            SparseCmd::Insert { count, seed } => {
                for i in 0..u64::from(count) {
                    let key = (seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % SPARSE_KEYS;
                    self.insert(key);
                    touched.push(key);
                }
            }
            SparseCmd::Rekey(ix, key) => {
                if let Some(h) = self.pick(ix) {
                    touched.extend(self.key(h));
                    self.rekey(h, key);
                    touched.push(key);
                }
            }
            SparseCmd::Join(ix, to) => {
                let target = self.pick(to).and_then(|to| self.key(to));
                if let (Some(h), Some(key)) = (self.pick(ix), target) {
                    touched.extend(self.key(h));
                    self.rekey(h, key);
                    touched.push(key);
                }
            }
            SparseCmd::RetractStride { stride, offset } => {
                let picked: Vec<FactHandle> = self
                    .handles
                    .iter()
                    .copied()
                    .skip(offset)
                    .step_by(stride)
                    .collect();
                for h in picked {
                    touched.extend(self.key(h));
                    self.retract(h);
                }
            }
            SparseCmd::Retract(ix) => {
                if let Some(h) = self.pick(ix) {
                    touched.extend(self.key(h));
                    self.retract(h);
                }
            }
        }
        touched
    }

    /// The index against the oracle's scan grouped by key, and against an
    /// index rebuilt from scratch, for every key in use and every key the
    /// last command touched.
    fn check(&mut self, touched: &[u64]) {
        let rebuilt = (self.arena).register_index::<Alpha, Rebuilt>(KEY, |a| Rebuilt(a.key));
        let (arena, legacy, key_ix) = (&self.arena, &self.legacy, self.key_ix);
        assert_eq!(arena.generation(), legacy.generation());
        assert_eq!(arena.count::<Alpha>(), legacy.count::<Alpha>());
        let scan: Vec<(FactHandle, Alpha)> =
            arena.iter::<Alpha>().map(|(h, a)| (h, a.clone())).collect();
        let oracle = by_seq(legacy.iter::<Alpha>());
        assert_eq!(
            by_seq(scan.iter().map(|(h, a)| (*h, a))),
            oracle,
            "Alpha iteration diverged"
        );
        let mut groups: BTreeMap<u64, Vec<(FactHandle, Alpha)>> =
            touched.iter().map(|&key| (key, Vec::new())).collect();
        for (h, a) in &scan {
            groups.entry(a.key).or_default().push((*h, a.clone()));
            assert_eq!(arena.key_of(key_ix, *h), Some(&a.key));
            assert_eq!(arena.key_of(rebuilt, *h), Some(&Rebuilt(a.key)));
        }
        for (key, group) in &groups {
            let by: Vec<(FactHandle, Alpha)> = arena
                .iter_by(key_ix, key)
                .map(|(h, a)| (h, a.clone()))
                .collect();
            assert_eq!(&by, group, "iter_by({key}) is not the grouped scan");
            let handles: Vec<FactHandle> = group.iter().map(|(h, _)| *h).collect();
            assert_eq!(arena.lookup_by(key_ix, key), handles);
            assert_eq!(arena.lookup_by(rebuilt, &Rebuilt(*key)), handles);
            assert_eq!(
                arena.find_by(key_ix, key).map(|(h, a)| (h, a.clone())),
                group.first().cloned(),
                "find_by({key}) is not the grouped scan's first"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64),
    })]

    /// Single postings, their promotion and demotion, and slots reused
    /// across slab pages, against the oracle after every command.
    #[test]
    fn sparse_keys_over_paged_slabs_match_legacy_store(
        prefill in 130u64..260,
        seed in any::<u64>(),
        cmds in proptest::collection::vec(arb_sparse_cmd(), 1..40),
    ) {
        let mut s = Sparse::new();
        let first: Vec<u64> = (0..prefill)
            .map(|i| (seed ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9)) % SPARSE_KEYS)
            .collect();
        for &key in &first {
            s.insert(key);
        }
        s.check(&first);
        for cmd in cmds {
            let touched = s.run(cmd);
            s.check(&touched);
        }
        // The tour: a key outside the domain, so unused until now, goes
        // from no posting to one, to several, and back down to none.
        let key = SPARSE_KEYS;
        let tour = [key, key + 1];
        let a = s.insert(key);
        s.check(&tour);
        let b = s.insert(key);
        s.check(&tour);
        let c = s.insert(key + 1);
        s.rekey(c, key);
        s.check(&tour);
        s.retract(b);
        s.check(&tour);
        s.retract(a);
        s.check(&tour);
        prop_assert_eq!(s.arena.lookup_by(s.key_ix, &key), vec![c]);
        s.rekey(c, key + 1);
        s.check(&tour);
        s.retract(c);
        s.check(&tour);
        prop_assert!(s.arena.lookup_by(s.key_ix, &key).is_empty());
        for (h, id) in &s.ids {
            if s.arena.contains(*h) {
                prop_assert_eq!(s.arena.get_id(*id), s.arena.get::<Alpha>(*h));
            } else {
                prop_assert!(s.arena.get_id(*id).is_none(), "stale FactId resolved");
            }
        }
    }
}

// --- firing-counter equivalence over a generic store --------------------

/// The store operations a (miniature) rule engine needs. Both stores
/// implement it with the same inherent methods, so the impls are mechanical.
trait Store {
    /// How the store names a fact.
    type Handle: Copy + Eq + std::hash::Hash;
    fn insert_a(&mut self, a: Alpha) -> Self::Handle;
    fn update_a(&mut self, h: Self::Handle, bump: u64) -> bool;
    fn retract_fact(&mut self, h: Self::Handle) -> bool;
    fn contains_fact(&self, h: Self::Handle) -> bool;
    fn version_of(&self, h: Self::Handle) -> Option<u64>;
    /// Facts by sequence number, in iteration order.
    fn snapshot_a(&self) -> Vec<(u64, Alpha)>;
    /// Handles of the Alphas whose `n` is odd, in iteration order.
    fn odd_a(&self) -> Vec<Self::Handle>;
    fn gen_now(&self) -> u64;
    fn type_gen_a(&self) -> u64;
}

macro_rules! impl_store {
    ($ty:ty, $handle:ty) => {
        impl Store for $ty {
            type Handle = $handle;
            fn insert_a(&mut self, a: Alpha) -> $handle {
                self.insert(a)
            }
            fn update_a(&mut self, h: $handle, bump: u64) -> bool {
                self.update::<Alpha>(h, |a| a.n += bump)
            }
            fn retract_fact(&mut self, h: $handle) -> bool {
                self.retract(h)
            }
            fn contains_fact(&self, h: $handle) -> bool {
                self.contains(h)
            }
            fn version_of(&self, h: $handle) -> Option<u64> {
                self.version(h)
            }
            fn snapshot_a(&self) -> Vec<(u64, Alpha)> {
                by_seq(self.iter::<Alpha>())
            }
            fn odd_a(&self) -> Vec<$handle> {
                let odd = self.iter::<Alpha>().filter(|(_, a)| a.n % 2 == 1);
                odd.map(|(h, _)| h).collect()
            }
            fn gen_now(&self) -> u64 {
                self.generation()
            }
            fn type_gen_a(&self) -> u64 {
                self.type_generation_of::<Alpha>()
            }
        }
    };
}
impl_store!(WorkingMemory, FactHandle);
impl_store!(LegacyWorkingMemory, legacy::FactHandle);

/// The counters `pwm_rules::FiringReport` aggregates per rule, reproduced
/// by the mini evaluator so they can be compared across stores.
#[derive(Debug, PartialEq, Default)]
struct Counters {
    evaluations: u64,
    matches: u64,
    firings: u64,
}

/// A one-rule engine with Drools refraction, structured exactly like
/// `Session::fire_all`'s incremental loop: the matcher only re-runs when
/// the watched type's generation moved, matches are `(handle, version)`
/// refraction-keyed, and the action mutates the matched fact. The rule:
/// "while `n` is odd, add `step`".
fn fire_to_quiescence<S: Store>(store: &mut S, step: u64) -> Counters {
    let mut c = Counters::default();
    let mut fired: std::collections::HashSet<(S::Handle, u64)> = std::collections::HashSet::new();
    let mut cache_gen = 0u64;
    let mut agenda: Vec<S::Handle> = Vec::new();
    for _ in 0..10_000 {
        if store.type_gen_a() > cache_gen {
            c.evaluations += 1;
            agenda = store.odd_a();
            c.matches += agenda.len() as u64;
            cache_gen = store.gen_now();
        }
        let next = agenda.iter().copied().find(|h| {
            store.contains_fact(*h)
                && store
                    .version_of(*h)
                    .is_some_and(|v| !fired.contains(&(*h, v)))
        });
        let Some(h) = next else { break };
        let v = store.version_of(h).unwrap();
        fired.insert((h, v));
        c.firings += 1;
        store.update_a(h, step);
    }
    c
}

/// Identical workloads through the mini engine must yield identical
/// counters and final fact states on both stores — the firing-report
/// equivalence leg of the differential harness.
#[test]
fn firing_counters_match_across_stores() {
    // Steps are odd so "add `step`" always flips parity and the rule
    // genuinely quiesces (an even step would leave odd facts odd forever).
    for (step, seed_facts, retract_every) in
        [(1u64, 7u64, 0usize), (3, 12, 3), (5, 30, 4), (1, 64, 5)]
    {
        let mut arena = WorkingMemory::new();
        let mut legacy = LegacyWorkingMemory::new();
        let mut handles = Vec::new();
        for i in 0..seed_facts {
            let a = Alpha {
                n: i * 3 + 1,
                key: i % 4,
            };
            let ha = arena.insert_a(a.clone());
            let hl = legacy.insert_a(a);
            assert_eq!(ha.seq(), hl);
            handles.push(ha);
        }
        if retract_every > 0 {
            for (i, h) in handles.iter().enumerate() {
                if i % retract_every == 0 {
                    assert_eq!(arena.retract_fact(*h), legacy.retract_fact(h.seq()));
                }
            }
        }
        let ca = fire_to_quiescence(&mut arena, step);
        let cl = fire_to_quiescence(&mut legacy, step);
        assert_eq!(ca, cl, "firing counters diverged (step={step})");
        assert_eq!(
            arena.snapshot_a(),
            legacy.snapshot_a(),
            "post-quiescence fact state diverged"
        );
        // The rule drove every fact to an even n; quiescence is real.
        assert!(arena.snapshot_a().iter().all(|(_, a)| a.n % 2 == 0));
    }
}
