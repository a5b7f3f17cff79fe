//! The pre-arena fact store, preserved as a differential-test oracle.
//!
//! [`LegacyWorkingMemory`] is the original `BTreeMap<FactHandle, Box<dyn
//! Fact>>` implementation that [`pwm_rules::WorkingMemory`] replaced: every
//! fact behind its own heap allocation, every typed access paying a
//! `downcast_ref`, iteration hopping through per-type `BTreeSet`s. It is
//! deliberately kept byte-for-byte semantically identical to the store it
//! was — same insertion-order iteration, same
//! generation/type-generation/changed-log behaviour — so the facts
//! differential suite (`tests/facts_differential.rs`, whose module this is)
//! can drive both stores through identical command sequences and fail
//! loudly on any observable divergence in the arena rewrite. It names a
//! fact by its insertion sequence number, as [`pwm_rules::FactHandle::seq`]
//! numbers the arena's (from 1, one more per insert), and needs only the
//! public [`Fact`] trait besides.

use pwm_rules::Fact;
use std::any::{Any, TypeId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;

/// A fact's insertion sequence number: the legacy store's handle.
pub type FactHandle = u64;

struct Slot {
    fact: Box<dyn Fact>,
    type_id: TypeId,
    version: u64,
}

/// Type-erased secondary index, maintained on every insert/update/retract.
trait ErasedIndex: Send {
    fn on_insert(&mut self, handle: FactHandle, fact: &dyn Fact);
    fn on_remove(&mut self, handle: FactHandle);
    fn on_update(&mut self, handle: FactHandle, fact: &dyn Fact);
    fn as_any(&self) -> &dyn Any;
}

/// Hash index from an extracted key to the handles bearing it.
struct KeyIndex<T: Fact, K: Eq + Hash + Clone + Send + 'static> {
    extract: fn(&T) -> K,
    map: HashMap<K, BTreeSet<FactHandle>>,
    back: HashMap<FactHandle, K>,
}

impl<T: Fact, K: Eq + Hash + Clone + Send + 'static> KeyIndex<T, K> {
    fn link(&mut self, handle: FactHandle, key: K) {
        self.map.entry(key.clone()).or_default().insert(handle);
        self.back.insert(handle, key);
    }

    fn unlink(&mut self, handle: FactHandle) {
        if let Some(key) = self.back.remove(&handle) {
            if let Some(set) = self.map.get_mut(&key) {
                set.remove(&handle);
                if set.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }
}

impl<T: Fact, K: Eq + Hash + Clone + Send + 'static> ErasedIndex for KeyIndex<T, K> {
    fn on_insert(&mut self, handle: FactHandle, fact: &dyn Fact) {
        let t = fact.as_any().downcast_ref::<T>().expect("index fact type");
        self.link(handle, (self.extract)(t));
    }

    fn on_remove(&mut self, handle: FactHandle) {
        self.unlink(handle);
    }

    fn on_update(&mut self, handle: FactHandle, fact: &dyn Fact) {
        let t = fact.as_any().downcast_ref::<T>().expect("index fact type");
        let key = (self.extract)(t);
        if self.back.get(&handle) == Some(&key) {
            return;
        }
        self.unlink(handle);
        self.link(handle, key);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-type log of recently mutated handles (see the arena store's
/// `TypeLog` — the semantics are identical and must stay so).
#[derive(Default)]
struct TypeLog {
    entries: Vec<(u64, FactHandle)>,
    floor: u64,
}

const TYPE_LOG_CAP: usize = 1024;

impl TypeLog {
    fn push(&mut self, gen: u64, handle: FactHandle) {
        if let Some(last) = self.entries.last_mut() {
            if last.1 == handle {
                last.0 = gen;
                return;
            }
        }
        if self.entries.len() >= TYPE_LOG_CAP {
            let drop = self.entries.len() / 2;
            self.floor = self.entries[drop - 1].0;
            self.entries.drain(..drop);
        }
        self.entries.push((gen, handle));
    }

    fn since(&self, gen: u64) -> Option<&[(u64, FactHandle)]> {
        if gen < self.floor {
            return None;
        }
        let start = self.entries.partition_point(|&(g, _)| g <= gen);
        Some(&self.entries[start..])
    }
}

/// The original boxed-fact store: the oracle the arena
/// [`pwm_rules::WorkingMemory`] is differentially tested against. API and
/// observable behaviour are a strict subset-match of the arena store
/// (everything except [`pwm_rules::FactId`], which has no legacy equivalent).
#[derive(Default)]
pub struct LegacyWorkingMemory {
    slots: BTreeMap<FactHandle, Slot>,
    by_type: HashMap<TypeId, BTreeSet<FactHandle>>,
    last_seq: u64,
    generation: u64,
    type_gen: HashMap<TypeId, u64>,
    indexes: HashMap<(TypeId, TypeId), Box<dyn ErasedIndex>>,
    type_log: HashMap<TypeId, TypeLog>,
}

impl fmt::Debug for LegacyWorkingMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LegacyWorkingMemory")
            .field("facts", &self.slots.len())
            .field("generation", &self.generation)
            .finish()
    }
}

impl LegacyWorkingMemory {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact, returning its handle.
    pub fn insert<T: Fact>(&mut self, fact: T) -> FactHandle {
        self.last_seq += 1;
        let handle = self.last_seq;
        let type_id = TypeId::of::<T>();
        for (_, idx) in self
            .indexes
            .iter_mut()
            .filter(|((ft, _), _)| *ft == type_id)
        {
            idx.on_insert(handle, &fact);
        }
        self.slots.insert(
            handle,
            Slot {
                fact: Box::new(fact),
                type_id,
                version: 0,
            },
        );
        self.by_type.entry(type_id).or_default().insert(handle);
        self.generation += 1;
        self.type_gen.insert(type_id, self.generation);
        self.type_log
            .entry(type_id)
            .or_default()
            .push(self.generation, handle);
        handle
    }

    /// Remove a fact. Returns `true` if it existed.
    pub fn retract(&mut self, handle: FactHandle) -> bool {
        match self.slots.remove(&handle) {
            Some(slot) => {
                if let Some(set) = self.by_type.get_mut(&slot.type_id) {
                    set.remove(&handle);
                }
                let type_id = slot.type_id;
                for (_, idx) in self
                    .indexes
                    .iter_mut()
                    .filter(|((ft, _), _)| *ft == type_id)
                {
                    idx.on_remove(handle);
                }
                self.generation += 1;
                self.type_gen.insert(type_id, self.generation);
                self.type_log
                    .entry(type_id)
                    .or_default()
                    .push(self.generation, handle);
                true
            }
            None => false,
        }
    }

    /// Immutable access to a fact of known type.
    pub fn get<T: Fact>(&self, handle: FactHandle) -> Option<&T> {
        // `as_ref()` is load-bearing: calling `as_any()` directly on the Box
        // would resolve the blanket `Fact` impl for `Box<dyn Fact>` itself
        // and downcasting would always fail.
        self.slots
            .get(&handle)
            .and_then(|s| s.fact.as_ref().as_any().downcast_ref::<T>())
    }

    /// Mutate a fact in place; bumps its version. Returns `false` if the
    /// handle is stale or the type is wrong.
    pub fn update<T: Fact>(&mut self, handle: FactHandle, f: impl FnOnce(&mut T)) -> bool {
        match self.slots.get_mut(&handle) {
            Some(slot) => match slot.fact.as_mut().as_any_mut().downcast_mut::<T>() {
                Some(value) => {
                    let type_id = TypeId::of::<T>();
                    f(value);
                    for (_, idx) in self
                        .indexes
                        .iter_mut()
                        .filter(|((ft, _), _)| *ft == type_id)
                    {
                        idx.on_update(handle, &*value);
                    }
                    slot.version += 1;
                    self.generation += 1;
                    self.type_gen.insert(type_id, self.generation);
                    self.type_log
                        .entry(type_id)
                        .or_default()
                        .push(self.generation, handle);
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Current version of a fact (None if retracted).
    pub fn version(&self, handle: FactHandle) -> Option<u64> {
        self.slots.get(&handle).map(|s| s.version)
    }

    /// Monotone counter over all mutations.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation at which facts of `type_id` were last mutated.
    pub fn type_generation(&self, type_id: TypeId) -> u64 {
        self.type_gen.get(&type_id).copied().unwrap_or(0)
    }

    /// Typed convenience wrapper over [`LegacyWorkingMemory::type_generation`].
    pub fn type_generation_of<T: Fact>(&self) -> u64 {
        self.type_generation(TypeId::of::<T>())
    }

    /// Iterate all facts of type `T` in handle (= insertion) order.
    pub fn iter<T: Fact>(&self) -> impl Iterator<Item = (FactHandle, &T)> {
        self.by_type
            .get(&TypeId::of::<T>())
            .into_iter()
            .flat_map(|set| set.iter())
            .filter_map(move |h| self.get::<T>(*h).map(|t| (*h, t)))
    }

    /// Handles of all facts of type `T`, insertion order.
    pub fn handles<T: Fact>(&self) -> Vec<FactHandle> {
        self.iter::<T>().map(|(h, _)| h).collect()
    }

    /// Register a hash index over facts of type `T`, keyed by `extract`.
    pub fn register_index<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &mut self,
        extract: fn(&T) -> K,
    ) {
        let mut index = KeyIndex::<T, K> {
            extract,
            map: HashMap::new(),
            back: HashMap::new(),
        };
        let existing: Vec<(FactHandle, K)> =
            self.iter::<T>().map(|(h, t)| (h, extract(t))).collect();
        for (h, key) in existing {
            index.link(h, key);
        }
        self.indexes
            .insert((TypeId::of::<T>(), TypeId::of::<K>()), Box::new(index));
    }

    fn key_index<T: Fact, K: Eq + Hash + Clone + Send + 'static>(&self) -> &KeyIndex<T, K> {
        self.indexes
            .get(&(TypeId::of::<T>(), TypeId::of::<K>()))
            .unwrap_or_else(|| {
                panic!(
                    "no index over {} keyed by {}; call register_index first",
                    std::any::type_name::<T>(),
                    std::any::type_name::<K>()
                )
            })
            .as_any()
            .downcast_ref::<KeyIndex<T, K>>()
            .expect("index shape matches its registration key")
    }

    /// Handles of facts of type `T` whose indexed key equals `key`.
    pub fn lookup_by<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &self,
        key: &K,
    ) -> Vec<FactHandle> {
        self.key_index::<T, K>()
            .map
            .get(key)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Iterate facts of type `T` whose indexed key equals `key`.
    pub fn iter_by<'a, T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &'a self,
        key: &K,
    ) -> impl Iterator<Item = (FactHandle, &'a T)> + 'a {
        self.key_index::<T, K>()
            .map
            .get(key)
            .into_iter()
            .flat_map(|set| set.iter())
            .filter_map(move |h| self.get::<T>(*h).map(|t| (*h, t)))
    }

    /// The key `handle`'s fact is currently indexed under.
    pub fn key_of<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &self,
        handle: FactHandle,
    ) -> Option<&K> {
        self.key_index::<T, K>().back.get(&handle)
    }

    /// Handles of facts of `type_id` mutated at generations strictly after
    /// `gen`, oldest first, or `None` if the per-type log has been
    /// compacted past `gen`.
    pub fn changed_since(&self, type_id: TypeId, gen: u64) -> Option<&[(u64, FactHandle)]> {
        match self.type_log.get(&type_id) {
            Some(log) => log.since(gen),
            None => Some(&[]),
        }
    }

    /// First (lowest-handle) fact of type `T` whose indexed key equals `key`.
    pub fn find_by<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &self,
        key: &K,
    ) -> Option<(FactHandle, &T)> {
        let handle = *self.key_index::<T, K>().map.get(key)?.iter().next()?;
        Some((handle, self.get::<T>(handle).expect("indexed fact is live")))
    }

    /// Number of facts of type `T`.
    pub fn count<T: Fact>(&self) -> usize {
        self.by_type
            .get(&TypeId::of::<T>())
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Total facts of all types.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if the handle refers to a live fact.
    pub fn contains(&self, handle: FactHandle) -> bool {
        self.slots.contains_key(&handle)
    }

    /// Retract every fact of type `T`; returns how many were removed.
    pub fn retract_all<T: Fact>(&mut self) -> usize {
        let handles = self.handles::<T>();
        let n = handles.len();
        for h in handles {
            self.retract(h);
        }
        n
    }
}
