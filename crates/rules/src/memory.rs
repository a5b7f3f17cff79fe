//! Typed working memory, arena edition.
//!
//! Drools sessions hold *facts*; rules pattern-match over them and mutate
//! them. [`WorkingMemory`] is the Rust equivalent: a deterministic store of
//! heterogeneous fact values addressed by [`FactHandle`], with per-fact
//! version counters that drive the engine's refraction logic (a rule does
//! not re-fire on a fact tuple until one of its facts changes).
//!
//! Facts live in *typed slabs*: one arena per fact type, in fixed pages of
//! slots that are never reallocated, each slot carrying the value inline
//! plus an intrusive insertion-order list, so iteration and indexed lookups
//! walk typed storage with **one** `TypeId` dispatch per call instead of one
//! `Box<dyn Fact>` pointer chase and `downcast_ref` per fact. Slots are
//! recycled through a free list.
//!
//! A [`FactHandle`] names where its fact lives — the type table and the slab
//! slot — and the insertion sequence number that orders it, so every
//! operation on a handle (`get`, `version`, `contains`, `update`, `retract`,
//! `key_of`) indexes the slab directly, with no map between. The slot keeps
//! the sequence number of the fact it holds; a handle whose fact was
//! retracted finds its slot free or holding a later fact under another
//! number and misses, so a recycled slot never answers for a stale handle.
//! [`FactId`] is the same handle with its type fixed at compile time.
//!
//! Everything kept per fact type — the slab, the dirty generation, the
//! change log and the secondary indexes — sits in one `TypeTable` record. A
//! whole-type operation (`iter`, `count`, `type_generation`) probes the
//! store's only map, `TypeId → table`, with a dozen entries. A keyed probe
//! does not: [`WorkingMemory::register_index`] returns the index's typed
//! position ([`IndexPos`]), which the caller keeps (a rule captures it when
//! it is built), and `iter_by`/`find_by`/`lookup_by`/`key_of` index the table
//! and its index with it. The type map is consulted when a type is first
//! used, as Rete's object-type nodes dispatch on type once, when the network
//! is built.
//!
//! The slot also holds the engine's refraction records for its fact: a rule
//! that fired on a tuple is recorded on the tuple's first fact, with the
//! versions of the others, and the record is dropped when that fact's
//! version moves or its slot is vacated. Versions only grow and sequence
//! numbers are never reused, so no tuple at a dropped record's versions can
//! match again: dropping it is unobservable, and no sweep is needed.
//!
//! A secondary index (`KeyIndex`) costs a write only what that write can
//! change. It declares the [`Fields`] its key reads, so
//! [`WorkingMemory::update_fields`] re-extracts a key only when the written
//! groups meet them (insert, retract and plain `update` touch every field
//! and so every index); it remembers each fact's key by arena slot, so a
//! re-key compare, a removal and [`WorkingMemory::key_of`] are a `Vec` index
//! and no hash; it holds a key's single posting inline, so the common
//! one-fact key costs its map entry and no allocation; a partial index
//! ([`WorkingMemory::register_partial_index`]) keeps no posting at all for
//! the facts nothing probes it for; and its key type
//! picks the postings map's hasher
//! ([`IndexKey`]): one multiply for keys this process mints, SipHash for
//! keys a request or a config file can choose. Debug builds re-extract the
//! key of every index a field-masked update skipped and panic on a
//! difference — the index counterpart of the engine's skip oracle.
//!
//! Iteration order is insertion order (sequence numbers grow with every
//! insert and the per-slab list appends at the tail), so rule evaluation is
//! reproducible and exactly matches the legacy `BTreeMap` store, which is
//! preserved as the differential-test oracle in `tests/legacy/mod.rs`.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;
use std::num::NonZeroU64;

/// Multiply-rotate hasher (the FxHash recipe) for tables whose keys this
/// process mints itself: `TypeId`s here, and index keys that are
/// service-minted ids or keyed digests ([`IndexKey`]). Nothing a request
/// body can choose reaches it — such keys keep std's keyed SipHash. Every
/// fixed-width integer a derived
/// `Hash` emits (fields, lengths, enum discriminants) is one multiply; only
/// byte strings take the chunked path.
#[derive(Default, Clone, Copy)]
pub struct MintedHasher(u64);

impl Hasher for MintedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`MintedHasher`] as a `BuildHasher`: what an [`IndexKey`] names as its
/// `Build` when every key of its type is minted by this process.
pub type MintedBuild = BuildHasherDefault<MintedHasher>;

/// A type an index can be keyed by. The key type — not the caller — picks
/// the hasher of the index's postings map: [`MintedBuild`] when every value
/// of the type is minted by this process (a service-assigned id, a keyed
/// digest, a flag), so no input can steer two keys into one bucket;
/// `RandomState` (keyed SipHash) when a request body or a config file can
/// choose the value. The std types implemented here follow that rule:
/// strings, integers and tuples may carry outside data and keep SipHash.
pub trait IndexKey: Eq + Hash + Clone + Send + 'static {
    /// Hasher of the key → postings map.
    type Build: BuildHasher + Default + Send;
}

macro_rules! outside_keys {
    ($($ty:ty),*) => {$(
        impl IndexKey for $ty {
            type Build = RandomState;
        }
    )*};
}
outside_keys!(String, u32, u64);

impl<A, B> IndexKey for (A, B)
where
    A: Eq + Hash + Clone + Send + 'static,
    B: Eq + Hash + Clone + Send + 'static,
{
    type Build = RandomState;
}

/// Two values: nothing to collide.
impl IndexKey for bool {
    type Build = MintedBuild;
}

/// Marker trait for values storable in working memory.
///
/// Blanket-implemented for every `'static + Debug` type; you never implement
/// it by hand.
pub trait Fact: Any + fmt::Debug + Send {
    /// Upcast to `&dyn Any` (object-safe downcasting support).
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + fmt::Debug + Send> Fact for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Stable identifier of one fact in a [`WorkingMemory`]: the fact's
/// insertion sequence number and where it lives (its type table and slab
/// slot). Handles order by sequence number, which is insertion order; the
/// memory never issues a number twice, so a handle outlives its fact only
/// as a handle that misses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactHandle {
    /// Insertion sequence number, from 1. First, so the derived order is
    /// insertion order.
    seq: NonZeroU64,
    table: u32,
    slot: u32,
}

impl FactHandle {
    /// Fills the unused places of a fixed-size tuple; names no fact.
    pub(crate) const PAD: FactHandle = FactHandle {
        seq: NonZeroU64::MAX,
        table: u32::MAX,
        slot: u32::MAX,
    };

    /// The fact's insertion sequence number: 1 for a memory's first fact,
    /// one more for each insert after it.
    pub fn seq(self) -> u64 {
        self.seq.get()
    }

    fn at(seq: NonZeroU64, table: u32, slot: u32) -> FactHandle {
        FactHandle { seq, table, slot }
    }
}

impl fmt::Debug for FactHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FactHandle(#{} at {}.{})",
            self.seq, self.table, self.slot
        )
    }
}

/// A set of *field groups* of one fact type — the unit of property
/// reactivity. A fact type names its groups as constants
/// (`const STATE: Fields = Fields::bit(0)`), a writer says which groups a
/// mutation touched ([`WorkingMemory::update_fields`]), a rule says which
/// groups its matcher reads ([`crate::RuleBuilder::watches_fields`]) and an
/// index which groups its key reads ([`WorkingMemory::register_index`]); the
/// engine re-evaluates the rule, and the store re-keys the index, only when
/// the two sets meet.
///
/// Fields never written after insertion (a fact's identity) need no bit:
/// `insert`, `retract` and plain [`WorkingMemory::update`] touch *every*
/// field, declared or not, so [`Fields::NONE`] already means "the fact's
/// existence and identity only".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields(u32);

impl Fields {
    /// Field groups one fact type may declare.
    pub const MAX: u32 = 32;
    /// No declared group: existence and identity only.
    pub const NONE: Fields = Fields(0);
    /// Every field, declared or not.
    pub const ALL: Fields = Fields(u32::MAX);

    /// The `n`-th field group of a fact type (`n < Fields::MAX`).
    pub const fn bit(n: u32) -> Fields {
        assert!(
            n < Fields::MAX,
            "a fact type declares at most 32 field groups"
        );
        Fields(1 << n)
    }

    /// True when the two sets share a group.
    fn meets(self, other: Fields) -> bool {
        self.0 & other.0 != 0
    }

    /// Positions of the groups in the set, ascending.
    fn positions(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let position = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                position
            })
        })
    }
}

impl std::ops::BitOr for Fields {
    type Output = Fields;
    fn bitor(self, other: Fields) -> Fields {
        Fields(self.0 | other.0)
    }
}

/// Sentinel slot index for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// A [`FactHandle`] whose fact type is known at compile time. It probes its
/// slab as the handle does ([`WorkingMemory::get_id`]), and misses the same
/// way once the fact is retracted, even after the slot is recycled.
pub struct FactId<T> {
    handle: FactHandle,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: derives would demand `T: Copy` etc., but the id itself is
// always a plain handle regardless of the fact type.
impl<T> Clone for FactId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FactId<T> {}
impl<T> PartialEq for FactId<T> {
    fn eq(&self, other: &Self) -> bool {
        self.handle == other.handle
    }
}
impl<T> Eq for FactId<T> {}
impl<T> Hash for FactId<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.handle.hash(state);
    }
}
impl<T> fmt::Debug for FactId<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FactId<{}>({:?})",
            std::any::type_name::<T>(),
            self.handle
        )
    }
}

/// Typed position of one index: the table of `T` and the place of its
/// `K`-keyed index in it, as [`WorkingMemory::register_index`] returned
/// them. The keyed probes take it instead of resolving `T` and `K` through
/// type maps on every call. A position is valid in the memory that returned
/// it, and in any memory whose types and indexes were first used and
/// registered in the same order (every session a service builds).
pub struct IndexPos<T, K> {
    table: u32,
    index: u32,
    _marker: PhantomData<fn() -> (T, K)>,
}

impl<T, K> Clone for IndexPos<T, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, K> Copy for IndexPos<T, K> {}
impl<T, K> fmt::Debug for IndexPos<T, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IndexPos<{}, {}>({}.{})",
            std::any::type_name::<T>(),
            std::any::type_name::<K>(),
            self.table,
            self.index
        )
    }
}

/// What a slot keeps about its live fact besides the value — the same for
/// every fact type, so the store reads it without knowing the type.
struct Meta {
    /// The fact's insertion sequence number: a handle whose number differs
    /// names an earlier fact of the slot.
    seq: NonZeroU64,
    /// Bumped by every update.
    version: u64,
    /// First refraction record on the fact ([`NIL`]: none).
    fired: u32,
    /// Insertion-order neighbours.
    prev: u32,
    next: u32,
}

/// One arena slot: a live fact, or a link in the free list.
enum ArenaSlot<T> {
    Live { meta: Meta, value: T },
    Free { next_free: u32 },
}

/// Slots per page of a [`TypedSlab`].
const PAGE: usize = 64;

/// Arena of all facts of one type, threaded with an intrusive
/// doubly-linked list in insertion order (appends at the tail). Sequence
/// numbers are monotone and a fact is never re-inserted under an old one,
/// so list order is also ascending-handle order — the iteration contract
/// the engine's match caches rely on.
///
/// Slots live in pages of [`PAGE`], each allocated once at full capacity
/// and never reallocated: a fact never moves, and growing the slab by a
/// page copies nothing and frees nothing. Slot `s` is entry `s % PAGE` of
/// page `s / PAGE`; only the last page is partly filled.
struct TypedSlab<T> {
    pages: Vec<Vec<ArenaSlot<T>>>,
    free_head: u32,
    head: u32,
    tail: u32,
}

impl<T> TypedSlab<T> {
    fn new() -> Self {
        TypedSlab {
            pages: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
        }
    }

    fn slot_mut(&mut self, slot: u32) -> &mut ArenaSlot<T> {
        let slot = slot as usize;
        &mut self.pages[slot / PAGE][slot % PAGE]
    }

    /// The fact `seq` names and its metadata, if `slot` holds it.
    fn live(&self, slot: u32, seq: NonZeroU64) -> Option<(&Meta, &T)> {
        let slot = slot as usize;
        match self.pages.get(slot / PAGE)?.get(slot % PAGE)? {
            ArenaSlot::Live { meta, value } if meta.seq == seq => Some((meta, value)),
            _ => None,
        }
    }

    /// [`TypedSlab::live`], mutably.
    fn live_mut(&mut self, slot: u32, seq: NonZeroU64) -> Option<(&mut Meta, &mut T)> {
        let slot = slot as usize;
        match self.pages.get_mut(slot / PAGE)?.get_mut(slot % PAGE)? {
            ArenaSlot::Live { meta, value } if meta.seq == seq => Some((meta, value)),
            _ => None,
        }
    }

    /// Metadata of an occupied slot.
    fn meta_mut(&mut self, slot: u32) -> &mut Meta {
        match self.slot_mut(slot) {
            ArenaSlot::Live { meta, .. } => meta,
            ArenaSlot::Free { .. } => unreachable!("insertion list points at free slot"),
        }
    }

    /// Place fact `seq` in a slot (recycling the free list, else the next
    /// slot of the last page, else a new page) and link it at the tail of
    /// the insertion-order list.
    fn alloc(&mut self, value: T, seq: NonZeroU64) -> u32 {
        let live = ArenaSlot::Live {
            meta: Meta {
                seq,
                version: 0,
                fired: NIL,
                prev: self.tail,
                next: NIL,
            },
            value,
        };
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let free = self.slot_mut(slot);
            let ArenaSlot::Free { next_free } = *free else {
                unreachable!("free list points at occupied slot");
            };
            *free = live;
            self.free_head = next_free;
            slot
        } else {
            if self.pages.last().is_none_or(|page| page.len() == PAGE) {
                self.pages.push(Vec::with_capacity(PAGE));
            }
            let last = self.pages.len() - 1;
            let page = &mut self.pages[last];
            let slot = last * PAGE + page.len();
            assert!(slot < NIL as usize, "typed slab exhausted u32 slot space");
            page.push(live);
            slot as u32
        };
        if self.tail != NIL {
            self.meta_mut(self.tail).next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        slot
    }

    /// Unlink and vacate `slot` if it holds fact `seq`. Returns the
    /// fact's first refraction record.
    fn remove(&mut self, slot: u32, seq: NonZeroU64) -> Option<u32> {
        self.live(slot, seq)?;
        let free_head = self.free_head;
        let vacated = std::mem::replace(
            self.slot_mut(slot),
            ArenaSlot::Free {
                next_free: free_head,
            },
        );
        let ArenaSlot::Live { meta, .. } = vacated else {
            unreachable!("checked live");
        };
        if meta.prev != NIL {
            self.meta_mut(meta.prev).next = meta.next;
        } else {
            self.head = meta.next;
        }
        if meta.next != NIL {
            self.meta_mut(meta.next).prev = meta.prev;
        } else {
            self.tail = meta.prev;
        }
        self.free_head = slot;
        Some(meta.fired)
    }

    /// The value of an occupied slot.
    fn value(&self, slot: u32) -> &T {
        let slot = slot as usize;
        match &self.pages[slot / PAGE][slot % PAGE] {
            ArenaSlot::Live { value, .. } => value,
            ArenaSlot::Free { .. } => unreachable!("value of free slot"),
        }
    }

    /// Insertion-order walk yielding `(handle, &value)`, the handles in
    /// `table`. The list mostly stays within a page, so the walk keeps the
    /// page it is on and goes back to the page table only when a link
    /// leaves it.
    fn iter_slots(&self, table: u32) -> impl Iterator<Item = (FactHandle, &T)> {
        let mut cur = self.head;
        let mut page: (usize, &[ArenaSlot<T>]) = (usize::MAX, &[]);
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = cur;
            let at = slot as usize;
            if at / PAGE != page.0 {
                page = (at / PAGE, &self.pages[at / PAGE]);
            }
            let ArenaSlot::Live { meta, value } = &page.1[at % PAGE] else {
                unreachable!("insertion list points at free slot");
            };
            cur = meta.next;
            Some((FactHandle::at(meta.seq, table, slot), value))
        })
    }
}

/// Object-safe face of a [`TypedSlab`], so [`WorkingMemory`] can hold slabs
/// of arbitrary fact types and service untyped operations (retract,
/// version queries, refraction) without knowing `T`.
trait ErasedSlab: Send {
    /// [`TypedSlab::remove`].
    fn remove(&mut self, slot: u32, seq: NonZeroU64) -> Option<u32>;
    /// Metadata of fact `seq`, if `slot` holds it.
    fn meta(&self, slot: u32, seq: NonZeroU64) -> Option<&Meta>;
    /// [`ErasedSlab::meta`], mutably.
    fn meta_mut(&mut self, slot: u32, seq: NonZeroU64) -> Option<&mut Meta>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Fact> ErasedSlab for TypedSlab<T> {
    fn remove(&mut self, slot: u32, seq: NonZeroU64) -> Option<u32> {
        TypedSlab::remove(self, slot, seq)
    }
    fn meta(&self, slot: u32, seq: NonZeroU64) -> Option<&Meta> {
        self.live(slot, seq).map(|(meta, _)| meta)
    }
    fn meta_mut(&mut self, slot: u32, seq: NonZeroU64) -> Option<&mut Meta> {
        self.live_mut(slot, seq).map(|(meta, _)| meta)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Type-erased secondary index, maintained on insert, retract and every
/// update that can change its key. The concrete type is always
/// [`KeyIndex<T, K>`]; erasure lets [`WorkingMemory`] hold indexes over
/// arbitrary fact/key type pairs. The handle's slot addresses the index's
/// reverse map, and lookups later jump through it straight into the typed
/// slab.
trait ErasedIndex: Send {
    fn on_insert(&mut self, handle: FactHandle, fact: &dyn Any);
    fn on_remove(&mut self, handle: FactHandle);
    /// Re-key after an in-place mutation. The index remembers each slot's
    /// current key, so an update whose key did not change is an extract and
    /// a compare instead of a remove + insert.
    fn on_update(&mut self, handle: FactHandle, fact: &dyn Any);
    /// Debug oracle for an `update_fields` that skipped this index: the key
    /// extracted from the written fact must still be the stored one.
    #[cfg(debug_assertions)]
    fn assert_key_unchanged(&self, slot: u32, fact: &dyn Any, written: Fields);
    fn as_any(&self) -> &dyn Any;
}

/// One registered index of a [`TypeTable`].
struct IndexEntry {
    key_type: TypeId,
    /// Field groups the key is extracted from ([`Fields::NONE`]: identity
    /// fields only). An `update_fields` that names none of them cannot
    /// change the key and skips the index.
    reads: Fields,
    index: Box<dyn ErasedIndex>,
}

/// The postings of one key: the handle of every fact bearing it, in handle
/// order. Most keys of a busy index name one fact — a staged file's URL, a
/// transfer's id — so one posting is held inline and costs no allocation;
/// two or more share one handle-sorted vector behind a pointer. Either way
/// the value is 16 bytes. A key that goes from one posting to several and
/// back again, as a batch comes and goes, takes the vector its index kept
/// from the last time ([`KeyIndex::spare`]), so its churn allocates nothing.
enum Postings {
    One(FactHandle),
    #[allow(clippy::box_collection)] // a bare vector would make the value 32 bytes
    Many(Box<Vec<FactHandle>>),
}

/// An emptied [`Postings::Many`] vector, kept for the next key that needs
/// one.
type Spare = Option<Box<Vec<FactHandle>>>;

impl Postings {
    fn insert(&mut self, handle: FactHandle, spare: &mut Spare) {
        match self {
            Postings::One(h) if *h == handle => {}
            Postings::One(h) => {
                let mut many = spare.take().unwrap_or_default();
                many.extend(if *h < handle {
                    [*h, handle]
                } else {
                    [handle, *h]
                });
                *self = Postings::Many(many);
            }
            Postings::Many(many) => {
                if let Err(at) = many.binary_search(&handle) {
                    many.insert(at, handle);
                }
            }
        }
    }

    /// Drop `handle`'s posting; true when none is left.
    fn remove(&mut self, handle: FactHandle, spare: &mut Spare) -> bool {
        match self {
            Postings::One(h) => *h == handle,
            // Two or more before the removal, so at least one after it.
            Postings::Many(many) => {
                if let Ok(at) = many.binary_search(&handle) {
                    many.remove(at);
                }
                if let [h] = many[..] {
                    if let Postings::Many(mut emptied) = std::mem::replace(self, Postings::One(h)) {
                        emptied.clear();
                        *spare = Some(emptied);
                    }
                }
                false
            }
        }
    }

    /// The handles, ascending.
    fn iter(&self) -> PostingsIter<'_> {
        match self {
            Postings::One(h) => PostingsIter::One(Some(*h)),
            Postings::Many(many) => PostingsIter::Many(many.iter()),
        }
    }
}

/// [`Postings::iter`]; `One(None)` is also the postings of an absent key.
enum PostingsIter<'a> {
    One(Option<FactHandle>),
    Many(std::slice::Iter<'a, FactHandle>),
}

impl Iterator for PostingsIter<'_> {
    type Item = FactHandle;

    fn next(&mut self) -> Option<FactHandle> {
        match self {
            PostingsIter::One(one) => one.take(),
            PostingsIter::Many(many) => many.next().copied(),
        }
    }
}

/// How a [`KeyIndex`] reads a fact's key: every fact has one, or — a
/// partial index — only the facts it is ever probed for.
enum Extract<T, K> {
    Total(fn(&T) -> K),
    Partial(fn(&T) -> Option<K>),
}

/// Hash index from an extracted key to the handles bearing it — the alpha
/// memory of a Rete network: equality joins probe this instead of scanning
/// every fact of the type. A posting's handle names the fact's slot, so
/// [`WorkingMemory::iter_by`] resolves facts by direct slab indexing: one
/// slab downcast per *call*, zero downcasts per fact. Postings are
/// handle-ordered — never hash-ordered — so indexed lookups see facts in the
/// same insertion order as [`WorkingMemory::iter`], whatever the hasher and
/// whatever its per-process key.
struct KeyIndex<T: Fact, K: IndexKey> {
    extract: Extract<T, K>,
    /// key → its postings; hashed as `K` prescribes.
    map: HashMap<K, Postings, K::Build>,
    /// Each indexed fact's current key, by arena slot (`None`: slot free,
    /// or a fact a partial index keeps no key for), so removals and no-op
    /// re-keys never re-extract from a stale fact value and
    /// [`WorkingMemory::key_of`] reads a key without computing it.
    back: Vec<Option<K>>,
    /// The vector the last key to fall back to one posting gave up.
    spare: Spare,
}

impl<T: Fact, K: IndexKey> KeyIndex<T, K> {
    fn key(&self, fact: &T) -> Option<K> {
        match self.extract {
            Extract::Total(extract) => Some(extract(fact)),
            Extract::Partial(extract) => extract(fact),
        }
    }

    fn link(&mut self, handle: FactHandle, key: K) {
        match self.map.entry(key.clone()) {
            Entry::Occupied(postings) => postings.into_mut().insert(handle, &mut self.spare),
            Entry::Vacant(vacant) => {
                vacant.insert(Postings::One(handle));
            }
        }
        let slot = handle.slot as usize;
        if slot >= self.back.len() {
            self.back.resize(slot + 1, None);
        }
        self.back[slot] = Some(key);
    }

    fn unlink(&mut self, handle: FactHandle) {
        if let Some(key) = self
            .back
            .get_mut(handle.slot as usize)
            .and_then(Option::take)
        {
            if let Entry::Occupied(mut postings) = self.map.entry(key) {
                if postings.get_mut().remove(handle, &mut self.spare) {
                    postings.remove();
                }
            }
        }
    }

    fn key_at(&self, slot: u32) -> Option<&K> {
        self.back.get(slot as usize)?.as_ref()
    }

    fn postings(&self, key: &K) -> PostingsIter<'_> {
        self.map
            .get(key)
            .map_or(PostingsIter::One(None), Postings::iter)
    }

    fn extract_from(&self, fact: &dyn Any) -> Option<K> {
        self.key(fact.downcast_ref::<T>().expect("index fact type"))
    }
}

impl<T: Fact, K: IndexKey> ErasedIndex for KeyIndex<T, K> {
    fn on_insert(&mut self, handle: FactHandle, fact: &dyn Any) {
        if let Some(key) = self.extract_from(fact) {
            self.link(handle, key);
        }
    }

    fn on_remove(&mut self, handle: FactHandle) {
        self.unlink(handle);
    }

    fn on_update(&mut self, handle: FactHandle, fact: &dyn Any) {
        let key = self.extract_from(fact);
        if self.key_at(handle.slot) == key.as_ref() {
            return;
        }
        self.unlink(handle);
        if let Some(key) = key {
            self.link(handle, key);
        }
    }

    #[cfg(debug_assertions)]
    fn assert_key_unchanged(&self, slot: u32, fact: &dyn Any, written: Fields) {
        assert!(
            self.key_at(slot) == self.extract_from(fact).as_ref(),
            "index over {} keyed by {} was skipped by an update of {written:?} that changed \
             its key: register_index must declare every field group the key reads",
            std::any::type_name::<T>(),
            std::any::type_name::<K>(),
        );
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-type log of recently mutated handles, driving the engine's delta
/// re-evaluation of single-type rules: instead of re-scanning every fact of
/// a watched type after a mutation, a rule asks which handles changed since
/// its cache was computed and re-probes only those.
#[derive(Default)]
pub(crate) struct TypeLog {
    /// `(generation, handle)` in ascending generation order. A handle may
    /// appear many times; readers dedup.
    entries: Vec<(u64, FactHandle)>,
    /// Highest generation already compacted away. A reader whose cache
    /// predates the floor must fall back to a full re-scan.
    floor: u64,
}

/// Entries a [`TypeLog`] holds before compaction drops its older half.
const TYPE_LOG_CAP: usize = 1024;

impl TypeLog {
    pub(crate) fn push(&mut self, gen: u64, handle: FactHandle) {
        // Collapse repeated mutations of the same fact (the common shape:
        // one fact updated several times in a firing cascade).
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

    /// Handles mutated at generations strictly after `gen`, oldest first, or
    /// `None` if the log no longer reaches back that far.
    pub(crate) fn since(&self, gen: u64) -> Option<&[(u64, FactHandle)]> {
        if gen < self.floor {
            return None;
        }
        // A reader asks about a generation near the end far more often than
        // not: gallop back from the last entry in doubling steps, then
        // search the last step. Everything from `hi` on is after `gen`.
        let entries = &self.entries;
        let (mut hi, mut step) = (entries.len(), 1);
        while step <= hi && entries[hi - step].0 > gen {
            hi -= step;
            step *= 2;
        }
        let lo = hi.saturating_sub(step);
        let start = lo + entries[lo..hi].partition_point(|&(g, _)| g <= gen);
        Some(&entries[start..])
    }
}

/// One node of a refraction record. The record of an `n`-fact tuple is a
/// head node, which names the rule and holds the tuple's second fact, and
/// `n - 2` more nodes, one per further fact; a one-fact record is its head
/// alone. The tuple's first fact is the fact the record hangs on.
struct RecordNode {
    /// Head: the rule that fired.
    rule: u32,
    /// Head: facts in the tuple.
    len: u32,
    /// Head: the next record on the same fact. Free node: the next free one.
    next: u32,
    /// The node holding the tuple's next fact ([`NIL`]: none).
    more: u32,
    /// A fact of the tuple after the first, with its version when the rule
    /// fired (unused in a one-fact record).
    seq: u64,
    version: u64,
}

/// The refraction records of a memory's facts: nodes in one pool, each
/// fact's records a list from its slot ([`Meta::fired`]), the free nodes a
/// list of their own. Records are released when their fact moves or goes,
/// so the pool stops growing at the most records the facts ever held at
/// once, and recording a firing past that point allocates nothing.
struct Refraction {
    nodes: Vec<RecordNode>,
    free: u32,
    /// Records held (not nodes).
    held: usize,
}

impl Default for Refraction {
    fn default() -> Self {
        Refraction {
            nodes: Vec::new(),
            free: NIL,
            held: 0,
        }
    }
}

impl Refraction {
    fn node(&self, at: u32) -> &RecordNode {
        &self.nodes[at as usize]
    }

    /// Place `node` in a free node, or a new one; its index.
    fn alloc(&mut self, node: RecordNode) -> u32 {
        if self.free == NIL {
            self.nodes.push(node);
            return (self.nodes.len() - 1) as u32;
        }
        let at = self.free;
        self.free = self.node(at).next;
        self.nodes[at as usize] = node;
        at
    }

    /// Free every record of the list starting at `record`.
    fn release(&mut self, mut record: u32) {
        while record != NIL {
            let next_record = self.node(record).next;
            let mut node = record;
            while node != NIL {
                let more = self.node(node).more;
                self.nodes[node as usize].next = self.free;
                self.free = node;
                node = more;
            }
            self.held -= 1;
            record = next_record;
        }
    }
}

/// Everything the store keeps about one fact type, so an operation that
/// knows its type (or its handle) reaches the slab, the dirty marks, the
/// change log and the indexes through one lookup.
pub(crate) struct TypeTable {
    /// The arena holding the facts (a `TypedSlab<T>`).
    slab: Box<dyn ErasedSlab>,
    /// Dirty mark: the global generation at which a fact of this type was
    /// last inserted/updated/retracted (0 = never). The incremental engine
    /// compares it against the generation a rule's match cache was computed
    /// at, so a mutation to type `T` only invalidates rules watching `T`.
    generation: u64,
    /// Generation of the last mutation that touched *every* field: an
    /// insert, a retract or a plain `update`.
    structural: u64,
    /// Per field group, the generation of the last `update_fields` naming it.
    field_generations: [u64; Fields::MAX as usize],
    /// Live facts of this type.
    live: usize,
    /// Recently mutated handles (see [`TypeLog`]).
    log: TypeLog,
    /// Secondary indexes over this type, one per key type.
    indexes: Vec<IndexEntry>,
}

impl TypeTable {
    fn slab<T: Fact>(&self) -> &TypedSlab<T> {
        self.slab
            .as_any()
            .downcast_ref::<TypedSlab<T>>()
            .expect("slab type")
    }

    /// Position of this table's index keyed by `K`, if one was registered.
    fn index_of<K: IndexKey>(&self) -> Option<u32> {
        let key_type = TypeId::of::<K>();
        let at = self.indexes.iter().position(|e| e.key_type == key_type)?;
        Some(at as u32)
    }

    /// Stamp a mutation of `handle`'s `fields` at global generation `gen`.
    fn touch(&mut self, gen: u64, handle: FactHandle, fields: Fields) {
        self.generation = gen;
        if fields == Fields::ALL {
            self.structural = gen;
        } else {
            for position in fields.positions() {
                self.field_generations[position] = gen;
            }
        }
        self.log.push(gen, handle);
    }

    /// Generation of the last mutation of any fact of this type.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// True when a mutation after generation `gen` touched one of `fields`
    /// (every insert, retract and plain update touches all of them).
    pub(crate) fn touched_since(&self, fields: Fields, gen: u64) -> bool {
        if fields == Fields::ALL {
            return self.generation > gen;
        }
        self.structural > gen
            || fields
                .positions()
                .any(|position| self.field_generations[position] > gen)
    }

    /// Live facts of this type.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// See [`WorkingMemory::changed_since`].
    pub(crate) fn changed_since(&self, gen: u64) -> Option<&[(u64, FactHandle)]> {
        self.log.since(gen)
    }
}

fn no_index<T, K>() -> ! {
    panic!(
        "no index over {} keyed by {} at this position; probe with the position \
         register_index returned",
        std::any::type_name::<T>(),
        std::any::type_name::<K>()
    )
}

/// The fact store.
#[derive(Default)]
pub struct WorkingMemory {
    /// One record per fact type, in first-use order.
    tables: Vec<TypeTable>,
    /// Fact type → position in `tables`.
    table_of: HashMap<TypeId, u32, MintedBuild>,
    /// Sequence number of the last fact inserted (0: none yet).
    last_seq: u64,
    /// The engine's refraction records, kept on the facts they name.
    refraction: Refraction,
    /// Live facts across all slabs.
    live: usize,
    /// Bumped on every insert/update/retract; engines watch it to detect
    /// quiescence.
    generation: u64,
    /// Facts yielded by whole-type walks so far ([`WorkingMemory::facts_walked`]).
    pub(crate) walked: Cell<u64>,
}

/// A whole-type walk: counts the facts it yields and adds the count to its
/// store's total once, when it is dropped.
struct Walk<'a, I> {
    facts: I,
    yielded: u64,
    total: &'a Cell<u64>,
}

impl<I: Iterator> Iterator for Walk<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let fact = self.facts.next()?;
        self.yielded += 1;
        Some(fact)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.facts.size_hint()
    }
}

impl<I> Drop for Walk<'_, I> {
    fn drop(&mut self) {
        self.total.set(self.total.get() + self.yielded);
    }
}

impl fmt::Debug for WorkingMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkingMemory")
            .field("facts", &self.live)
            .field("generation", &self.generation)
            .finish()
    }
}

impl WorkingMemory {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn table(&self, type_id: TypeId) -> Option<&TypeTable> {
        self.table_of
            .get(&type_id)
            .map(|&i| &self.tables[i as usize])
    }

    /// Position of `T`'s table, created empty on first use. Positions never
    /// change, so the engine resolves a rule's watched types to them once
    /// and reads [`WorkingMemory::table_at`] from then on.
    pub(crate) fn table_index_or_new<T: Fact>(&mut self) -> u32 {
        let type_id = TypeId::of::<T>();
        *self.table_of.entry(type_id).or_insert_with(|| {
            self.tables.push(TypeTable {
                slab: Box::new(TypedSlab::<T>::new()),
                generation: 0,
                structural: 0,
                field_generations: [0; Fields::MAX as usize],
                live: 0,
                log: TypeLog::default(),
                indexes: Vec::new(),
            });
            (self.tables.len() - 1) as u32
        })
    }

    /// The table at a position [`WorkingMemory::table_index_or_new`] returned.
    pub(crate) fn table_at(&self, position: u32) -> &TypeTable {
        &self.tables[position as usize]
    }

    /// Metadata of the live fact `handle` names, whatever its type.
    fn meta(&self, handle: FactHandle) -> Option<&Meta> {
        let table = self.tables.get(handle.table as usize)?;
        table.slab.meta(handle.slot, handle.seq)
    }

    /// Insert a fact, returning its handle.
    pub fn insert<T: Fact>(&mut self, fact: T) -> FactHandle {
        self.last_seq += 1;
        let seq = NonZeroU64::new(self.last_seq).expect("sequence numbers start at 1");
        self.generation += 1;
        let table_ix = self.table_index_or_new::<T>();
        let table = &mut self.tables[table_ix as usize];
        let slab = (table.slab.as_any_mut().downcast_mut::<TypedSlab<T>>()).expect("slab type");
        let handle = FactHandle::at(seq, table_ix, slab.alloc(fact, seq));
        let value: &T = slab.value(handle.slot);
        for entry in &mut table.indexes {
            entry.index.on_insert(handle, value);
        }
        table.touch(self.generation, handle, Fields::ALL);
        table.live += 1;
        self.live += 1;
        handle
    }

    /// Remove a fact. Returns `true` if it existed.
    pub fn retract(&mut self, handle: FactHandle) -> bool {
        let Some(table) = self.tables.get_mut(handle.table as usize) else {
            return false;
        };
        let Some(fired) = table.slab.remove(handle.slot, handle.seq) else {
            return false;
        };
        self.refraction.release(fired);
        self.generation += 1;
        for index in &mut table.indexes {
            index.index.on_remove(handle);
        }
        table.touch(self.generation, handle, Fields::ALL);
        table.live -= 1;
        self.live -= 1;
        true
    }

    /// Immutable access to a fact of known type.
    pub fn get<T: Fact>(&self, handle: FactHandle) -> Option<&T> {
        let slab = self.tables.get(handle.table as usize)?.slab.as_any();
        let (_, value) = slab
            .downcast_ref::<TypedSlab<T>>()?
            .live(handle.slot, handle.seq)?;
        Some(value)
    }

    /// The typed id of a live fact, or `None` if the handle is stale or
    /// names a different type.
    pub fn fact_id<T: Fact>(&self, handle: FactHandle) -> Option<FactId<T>> {
        self.get::<T>(handle).map(|_| FactId {
            handle,
            _marker: PhantomData,
        })
    }

    /// Probe by typed id: direct table and slab indexing, as a handle
    /// probes. Returns `None` once the fact has been retracted, even after
    /// its slot is recycled.
    pub fn get_id<T: Fact>(&self, id: FactId<T>) -> Option<&T> {
        self.get(id.handle)
    }

    /// Mutate a fact in place; bumps its version (making rules eligible to
    /// re-fire on it). Returns `false` if the handle is stale or the type is
    /// wrong. Touches every field, so every rule watching `T` re-evaluates:
    /// always safe, whatever `f` writes.
    pub fn update<T: Fact>(&mut self, handle: FactHandle, f: impl FnOnce(&mut T)) -> bool {
        self.update_fields(handle, Fields::ALL, f)
    }

    /// [`WorkingMemory::update`] for a writer that knows what it writes:
    /// `f` changes only fields in the groups `fields`, so only rules whose
    /// matcher reads one of those groups re-evaluate. The version still
    /// bumps — a rule that keeps matching the fact is re-armed on it either
    /// way. Likewise only indexes whose key reads one of those groups are
    /// re-keyed. Naming fewer groups than `f` writes is the unsafe direction
    /// (a reader is not told; debug builds panic on an index left stale);
    /// naming more is merely slower.
    pub fn update_fields<T: Fact>(
        &mut self,
        handle: FactHandle,
        fields: Fields,
        f: impl FnOnce(&mut T),
    ) -> bool {
        let Some(table) = self.tables.get_mut(handle.table as usize) else {
            return false;
        };
        let Some(slab) = table.slab.as_any_mut().downcast_mut::<TypedSlab<T>>() else {
            return false;
        };
        let Some((meta, value)) = slab.live_mut(handle.slot, handle.seq) else {
            return false;
        };
        f(value);
        meta.version += 1;
        // No tuple at the old version can match again.
        self.refraction
            .release(std::mem::replace(&mut meta.fired, NIL));
        // Re-key under the post-update value the indexes whose key the
        // closure may have changed. The index compares against the slot's
        // stored key, so an unchanged key costs one extract.
        let value: &T = slab.value(handle.slot);
        for entry in &mut table.indexes {
            if fields == Fields::ALL || entry.reads.meets(fields) {
                entry.index.on_update(handle, value);
            } else {
                #[cfg(debug_assertions)]
                entry.index.assert_key_unchanged(handle.slot, value, fields);
            }
        }
        self.generation += 1;
        table.touch(self.generation, handle, fields);
        true
    }

    /// Current version of a fact (None if retracted). Handles start at 0 and
    /// bump on each [`WorkingMemory::update`].
    pub fn version(&self, handle: FactHandle) -> Option<u64> {
        self.meta(handle).map(|meta| meta.version)
    }

    /// Monotone counter over all mutations.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation at which facts of `type_id` were last mutated (insert,
    /// update or retract). Zero if the type has never been touched. A rule
    /// whose match cache was computed at generation `g` is stale for type
    /// `T` iff `type_generation(T) > g`.
    pub fn type_generation(&self, type_id: TypeId) -> u64 {
        self.table(type_id).map_or(0, |t| t.generation)
    }

    /// Typed convenience wrapper over [`WorkingMemory::type_generation`].
    pub fn type_generation_of<T: Fact>(&self) -> u64 {
        self.type_generation(TypeId::of::<T>())
    }

    /// Iterate all facts of type `T` in handle (= insertion) order. Walks
    /// the typed slab's intrusive list: typed pages, one downcast for the
    /// whole call.
    pub fn iter<T: Fact>(&self) -> impl Iterator<Item = (FactHandle, &T)> {
        let facts = (self.table_of.get(&TypeId::of::<T>()).into_iter())
            .flat_map(|&position| self.table_at(position).slab::<T>().iter_slots(position));
        Walk {
            facts,
            yielded: 0,
            total: &self.walked,
        }
    }

    /// Facts yielded so far by whole-type walks: [`WorkingMemory::iter`] and
    /// what is built on it (`handles`, `find`, `retract_all`). A keyed probe
    /// walks none.
    pub fn facts_walked(&self) -> u64 {
        self.walked.get()
    }

    /// Handles of all facts of type `T`, insertion order.
    pub fn handles<T: Fact>(&self) -> Vec<FactHandle> {
        self.iter::<T>().map(|(h, _)| h).collect()
    }

    /// First fact of type `T` matching `pred` — a linear scan; anything a
    /// request path looks up by key belongs behind
    /// [`WorkingMemory::register_index`] instead.
    pub fn find<T: Fact>(&self, pred: impl Fn(&T) -> bool) -> Option<(FactHandle, &T)> {
        self.iter::<T>().find(|(_, t)| pred(t))
    }

    /// Register a hash index over facts of type `T`, keyed by `extract`,
    /// which reads only identity fields (never written after insertion
    /// except by plain [`WorkingMemory::update`]) and the field groups
    /// `reads` — [`Fields::NONE`] for a pure identity key. Existing facts
    /// are back-filled, and the index is maintained on every insert,
    /// retract, plain update and every [`WorkingMemory::update_fields`]
    /// naming a group in `reads`. One index per (fact type, key type) pair;
    /// re-registering replaces the index and keeps its position.
    ///
    /// Returns the index's typed position, which every keyed probe
    /// ([`WorkingMemory::iter_by`], [`WorkingMemory::find_by`],
    /// [`WorkingMemory::lookup_by`], [`WorkingMemory::key_of`]) takes:
    /// equality joins probe the index in O(1) instead of scanning every
    /// fact of the type — the alpha memory of a Rete network — and resolve
    /// no type on the way.
    pub fn register_index<T: Fact, K: IndexKey>(
        &mut self,
        reads: Fields,
        extract: fn(&T) -> K,
    ) -> IndexPos<T, K> {
        self.install_index(reads, Extract::Total(extract))
    }

    /// [`WorkingMemory::register_index`] for an index probed for some keys
    /// only: a fact whose `extract` is `None` keeps no posting and no key,
    /// so a key nothing looks up (the `false` of a flag whose `true` facts
    /// are all a caller walks) costs no index upkeep.
    pub fn register_partial_index<T: Fact, K: IndexKey>(
        &mut self,
        reads: Fields,
        extract: fn(&T) -> Option<K>,
    ) -> IndexPos<T, K> {
        self.install_index(reads, Extract::Partial(extract))
    }

    fn install_index<T: Fact, K: IndexKey>(
        &mut self,
        reads: Fields,
        extract: Extract<T, K>,
    ) -> IndexPos<T, K> {
        let mut index = KeyIndex::<T, K> {
            extract,
            map: HashMap::default(),
            back: Vec::new(),
            spare: None,
        };
        let table_ix = self.table_index_or_new::<T>();
        let table = &mut self.tables[table_ix as usize];
        for (h, t) in table.slab::<T>().iter_slots(table_ix) {
            if let Some(key) = index.key(t) {
                index.link(h, key);
            }
        }
        let entry = IndexEntry {
            key_type: TypeId::of::<K>(),
            reads,
            index: Box::new(index),
        };
        let index = match table.index_of::<K>() {
            Some(at) => {
                table.indexes[at as usize] = entry;
                at
            }
            None => {
                table.indexes.push(entry);
                (table.indexes.len() - 1) as u32
            }
        };
        IndexPos {
            table: table_ix,
            index,
            _marker: PhantomData,
        }
    }

    /// The table and the index `at` names. Panics with "no index" if this
    /// memory has no such index there (a position from another memory).
    fn key_index<T: Fact, K: IndexKey>(&self, at: IndexPos<T, K>) -> (&TypeTable, &KeyIndex<T, K>) {
        let found = self.tables.get(at.table as usize).and_then(|table| {
            let entry = table.indexes.get(at.index as usize)?;
            Some((table, entry.index.as_any().downcast_ref()?))
        });
        found.unwrap_or_else(|| no_index::<T, K>())
    }

    /// The `T`-table / `K`-index pair the type maps resolve to, as keyed
    /// probes did before they took positions: the reference the unit tests
    /// hold [`WorkingMemory::key_index`] to.
    #[cfg(test)]
    fn key_index_by_type<T: Fact, K: IndexKey>(&self) -> (&TypeTable, &KeyIndex<T, K>) {
        let found = self.table(TypeId::of::<T>()).and_then(|table| {
            let entry = &table.indexes[table.index_of::<K>()? as usize];
            Some((table, entry.index.as_any().downcast_ref()?))
        });
        found.unwrap_or_else(|| no_index::<T, K>())
    }

    /// The key `handle`'s fact is currently indexed under, read back from
    /// the index instead of re-extracted (a digest key is computed once per
    /// fact, at insertion). `None` if the handle is stale, names another
    /// type, or (a partial index) its fact has no key.
    pub fn key_of<T: Fact, K: IndexKey>(
        &self,
        at: IndexPos<T, K>,
        handle: FactHandle,
    ) -> Option<&K> {
        if handle.table != at.table {
            return None;
        }
        let (table, index) = self.key_index(at);
        table.slab.meta(handle.slot, handle.seq)?;
        index.key_at(handle.slot)
    }

    /// Handles of facts of type `T` whose indexed key equals `key`, in
    /// insertion order.
    pub fn lookup_by<T: Fact, K: IndexKey>(&self, at: IndexPos<T, K>, key: &K) -> Vec<FactHandle> {
        self.key_index(at).1.postings(key).collect()
    }

    /// Iterate facts of type `T` whose indexed key equals `key`, in
    /// insertion order, without allocating. This is the alpha-memory join
    /// path: the index posting carries each fact's arena slot, so
    /// resolution is direct typed-slab indexing — one downcast per call, not
    /// per fact.
    pub fn iter_by<'a, T: Fact, K: IndexKey>(
        &'a self,
        at: IndexPos<T, K>,
        key: &K,
    ) -> impl Iterator<Item = (FactHandle, &'a T)> + 'a {
        let (table, index) = self.key_index(at);
        let slab = table.slab::<T>();
        index.postings(key).map(move |h| (h, slab.value(h.slot)))
    }

    /// Handles of facts of `type_id` mutated (inserted, updated or
    /// retracted) at generations strictly after `gen`, oldest first, or
    /// `None` if the per-type log has been compacted past `gen` (the caller
    /// must then fall back to a full scan). Retracted handles appear in the
    /// result; callers filter with [`WorkingMemory::contains`].
    pub fn changed_since(&self, type_id: TypeId, gen: u64) -> Option<&[(u64, FactHandle)]> {
        match self.table(type_id) {
            Some(table) => table.changed_since(gen),
            // Type never mutated: nothing changed since any generation.
            None => Some(&[]),
        }
    }

    /// First (lowest-handle) fact of type `T` whose indexed key equals
    /// `key` — the indexed equivalent of [`WorkingMemory::find`] with a
    /// key-equality predicate.
    pub fn find_by<T: Fact, K: IndexKey>(
        &self,
        at: IndexPos<T, K>,
        key: &K,
    ) -> Option<(FactHandle, &T)> {
        let (table, index) = self.key_index(at);
        let handle = index.postings(key).next()?;
        Some((handle, table.slab::<T>().value(handle.slot)))
    }

    /// Number of facts of type `T`.
    pub fn count<T: Fact>(&self) -> usize {
        self.table(TypeId::of::<T>()).map_or(0, TypeTable::live)
    }

    /// Total facts of all types.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if the handle refers to a live fact.
    pub fn contains(&self, handle: FactHandle) -> bool {
        self.meta(handle).is_some()
    }

    /// Whether rule `rule` fired on `tuple` with every fact at its current
    /// version, or `None` when a fact of the tuple is no longer live. The
    /// records on the tuple's first fact are all at that fact's current
    /// version, so only the others' versions are compared.
    pub(crate) fn refracted(&self, rule: u32, tuple: &[FactHandle]) -> Option<bool> {
        let (first, others) = tuple.split_first().expect("a match binds a fact");
        let mut record = self.meta(*first)?.fired;
        for h in others {
            self.meta(*h)?;
        }
        while record != NIL {
            let head = self.refraction.node(record);
            if head.rule == rule && head.len as usize == tuple.len() && self.holds(record, others) {
                return Some(true);
            }
            record = head.next;
        }
        Some(false)
    }

    /// True when the nodes of the record at `node` hold `others`, each at
    /// its current version.
    fn holds(&self, mut node: u32, others: &[FactHandle]) -> bool {
        others.iter().all(|h| {
            let at = self.refraction.node(node);
            node = at.more;
            at.seq == h.seq() && Some(at.version) == self.version(*h)
        })
    }

    /// Record that rule `rule` fired on `tuple`, every fact of which is live,
    /// at the facts' current versions: on the first fact, until it moves or
    /// goes.
    pub(crate) fn refract(&mut self, rule: u32, tuple: &[FactHandle]) {
        let (first, others) = tuple.split_first().expect("a match binds a fact");
        let mut more = NIL;
        for h in others.iter().skip(1).rev() {
            let version = self.version(*h).expect("refracted fact is live");
            more = self.refraction.alloc(RecordNode {
                rule,
                len: 0,
                next: NIL,
                more,
                seq: h.seq(),
                version,
            });
        }
        let (seq, version) = match others.first() {
            Some(h) => (h.seq(), self.version(*h).expect("refracted fact is live")),
            None => (0, 0),
        };
        let table = &mut self.tables[first.table as usize];
        let meta = (table.slab.meta_mut(first.slot, first.seq)).expect("refracted fact is live");
        meta.fired = self.refraction.alloc(RecordNode {
            rule,
            len: tuple.len() as u32,
            next: meta.fired,
            more,
            seq,
            version,
        });
        self.refraction.held += 1;
    }

    /// Refraction records the facts hold: one per firing whose first fact
    /// has neither moved nor gone since.
    pub fn refraction_records(&self) -> usize {
        self.refraction.held
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

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Transfer {
        id: u32,
        streams: u32,
    }

    #[derive(Debug, PartialEq)]
    struct Cleanup {
        file: String,
    }

    #[test]
    fn a_type_log_galloping_from_its_tail_finds_what_a_search_finds() {
        let mut log = TypeLog::default();
        // Odd generations only, so a reader can ask about one between two
        // entries; enough to compact once and raise the floor.
        for g in 0..1500u64 {
            let seq = NonZeroU64::new(g % 7 + 1).unwrap();
            log.push(2 * g + 1, FactHandle::at(seq, 0, 0));
        }
        assert!(log.floor > 0);
        for gen in 0..3005 {
            let expected = (gen >= log.floor).then(|| {
                let start = log.entries.partition_point(|&(g, _)| g <= gen);
                &log.entries[start..]
            });
            assert_eq!(log.since(gen), expected, "since({gen})");
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert_eq!(wm.get::<Transfer>(h).unwrap().id, 1);
        assert_eq!(wm.len(), 1);
    }

    #[test]
    fn wrong_type_get_is_none() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert!(wm.get::<Cleanup>(h).is_none());
    }

    #[test]
    fn retract_removes_and_is_idempotent() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert!(wm.retract(h));
        assert!(!wm.retract(h));
        assert!(wm.get::<Transfer>(h).is_none());
        assert_eq!(wm.count::<Transfer>(), 0);
    }

    #[test]
    fn update_mutates_and_bumps_version() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert_eq!(wm.version(h), Some(0));
        assert!(wm.update::<Transfer>(h, |t| t.streams = 8));
        assert_eq!(wm.get::<Transfer>(h).unwrap().streams, 8);
        assert_eq!(wm.version(h), Some(1));
    }

    #[test]
    fn update_wrong_type_fails_without_version_bump() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert!(!wm.update::<Cleanup>(h, |_| {}));
        assert_eq!(wm.version(h), Some(0));
    }

    #[test]
    fn iteration_is_insertion_ordered_per_type() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 3, streams: 0 });
        wm.insert(Cleanup { file: "x".into() });
        wm.insert(Transfer { id: 1, streams: 0 });
        wm.insert(Transfer { id: 2, streams: 0 });
        let ids: Vec<u32> = wm.iter::<Transfer>().map(|(_, t)| t.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
        assert_eq!(wm.count::<Transfer>(), 3);
        assert_eq!(wm.count::<Cleanup>(), 1);
    }

    #[test]
    fn find_matches_predicate() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 1, streams: 4 });
        let h2 = wm.insert(Transfer { id: 2, streams: 8 });
        let (h, t) = wm.find::<Transfer>(|t| t.streams == 8).unwrap();
        assert_eq!(h, h2);
        assert_eq!(t.id, 2);
        assert!(wm.find::<Transfer>(|t| t.id == 99).is_none());
    }

    #[test]
    fn generation_tracks_all_mutations() {
        let mut wm = WorkingMemory::new();
        let g0 = wm.generation();
        let h = wm.insert(Transfer { id: 1, streams: 0 });
        assert!(wm.generation() > g0);
        let g1 = wm.generation();
        wm.update::<Transfer>(h, |t| t.streams = 1);
        assert!(wm.generation() > g1);
        let g2 = wm.generation();
        wm.retract(h);
        assert!(wm.generation() > g2);
    }

    #[test]
    fn retract_all_clears_one_type_only() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 1, streams: 0 });
        wm.insert(Transfer { id: 2, streams: 0 });
        wm.insert(Cleanup { file: "a".into() });
        assert_eq!(wm.retract_all::<Transfer>(), 2);
        assert_eq!(wm.count::<Transfer>(), 0);
        assert_eq!(wm.count::<Cleanup>(), 1);
    }

    #[test]
    fn type_generation_tracks_only_its_type() {
        let mut wm = WorkingMemory::new();
        assert_eq!(wm.type_generation_of::<Transfer>(), 0);
        let h = wm.insert(Transfer { id: 1, streams: 0 });
        let t1 = wm.type_generation_of::<Transfer>();
        assert!(t1 > 0);
        wm.insert(Cleanup { file: "a".into() });
        assert_eq!(
            wm.type_generation_of::<Transfer>(),
            t1,
            "mutating Cleanup must not dirty Transfer"
        );
        assert!(wm.type_generation_of::<Cleanup>() > t1);
        wm.update::<Transfer>(h, |t| t.streams = 2);
        let t2 = wm.type_generation_of::<Transfer>();
        assert!(t2 > t1);
        wm.retract(h);
        assert!(wm.type_generation_of::<Transfer>() > t2);
    }

    #[test]
    fn index_backfills_and_tracks_mutations() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Cleanup { file: "a".into() });
        let by_file = wm.register_index::<Cleanup, String>(Fields::NONE, |c| c.file.clone());
        // Back-filled.
        assert_eq!(wm.find_by(by_file, &"a".to_string()).unwrap().0, h1);
        // Maintained on insert.
        let h2 = wm.insert(Cleanup { file: "b".into() });
        assert_eq!(wm.find_by(by_file, &"b".to_string()).unwrap().0, h2);
        // Maintained on key-changing update.
        wm.update::<Cleanup>(h1, |c| c.file = "c".into());
        assert!(wm.find_by(by_file, &"a".to_string()).is_none());
        assert_eq!(wm.find_by(by_file, &"c".to_string()).unwrap().0, h1);
        // Maintained on retract.
        wm.retract(h2);
        assert!(wm.find_by(by_file, &"b".to_string()).is_none());
    }

    #[test]
    fn index_lookup_is_insertion_ordered() {
        let mut wm = WorkingMemory::new();
        let by_file = wm.register_index::<Cleanup, String>(Fields::NONE, |c| c.file.clone());
        let h1 = wm.insert(Cleanup { file: "x".into() });
        let h2 = wm.insert(Cleanup { file: "x".into() });
        wm.insert(Cleanup { file: "y".into() });
        assert_eq!(wm.lookup_by(by_file, &"x".to_string()), vec![h1, h2]);
        // find_by returns the lowest handle, like a linear `find` would.
        assert_eq!(wm.find_by(by_file, &"x".to_string()).unwrap().0, h1);
        // Indexes on other types are untouched by Cleanup traffic.
        let by_id = wm.register_index::<Transfer, u32>(Fields::NONE, |t| t.id);
        let ht = wm.insert(Transfer { id: 7, streams: 0 });
        assert_eq!(wm.find_by(by_id, &7).unwrap().0, ht);
    }

    /// A probe by typed position reads the index the `TypeId` maps resolve
    /// to: same table, same index, same answers, through re-registration.
    #[test]
    fn a_typed_position_probes_what_the_type_maps_resolve() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 1, streams: 0 });
        let by_streams = wm.register_index::<Transfer, u64>(STREAMS, |t| u64::from(t.streams));
        let by_file = wm.register_index::<Cleanup, String>(Fields::NONE, |c| c.file.clone());
        let by_id = wm.register_index::<Transfer, u32>(Fields::NONE, |t| t.id);
        for n in 0..40u32 {
            let h = wm.insert(Transfer {
                id: n % 7,
                streams: n % 3,
            });
            wm.insert(Cleanup {
                file: format!("f{}", n % 5),
            });
            if n % 4 == 0 {
                wm.update_fields::<Transfer>(h, STREAMS, |t| t.streams += 1);
            }
            if n % 6 == 0 {
                wm.retract(h);
            }
        }
        // Re-registering replaces the index in place: the position holds.
        let again = wm.register_index::<Transfer, u32>(Fields::NONE, |t| t.id);
        assert_eq!((again.table, again.index), (by_id.table, by_id.index));
        fn agree<T: Fact + PartialEq + fmt::Debug, K: IndexKey + fmt::Debug>(
            wm: &WorkingMemory,
            at: IndexPos<T, K>,
            keys: impl Iterator<Item = K>,
        ) {
            let (typed_table, typed) = wm.key_index(at);
            let (mapped_table, mapped) = wm.key_index_by_type::<T, K>();
            assert!(
                std::ptr::eq(typed_table, mapped_table),
                "{at:?}: another table"
            );
            assert!(std::ptr::eq(typed, mapped), "{at:?}: another index");
            for key in keys {
                let by_type: Vec<_> = (mapped.postings(&key))
                    .map(|h| (h, mapped_table.slab::<T>().value(h.slot)))
                    .collect();
                assert_eq!(wm.iter_by(at, &key).collect::<Vec<_>>(), by_type);
                assert_eq!(wm.find_by(at, &key), by_type.first().copied());
                let handles: Vec<_> = by_type.iter().map(|(h, _)| *h).collect();
                assert_eq!(wm.lookup_by(at, &key), handles);
                for h in handles {
                    assert_eq!(wm.key_of(at, h), mapped.key_at(h.slot));
                    assert_eq!(wm.key_of(at, h), Some(&key));
                }
            }
        }
        agree(&wm, by_streams, 0..5);
        agree(&wm, by_id, 0..8);
        agree(&wm, by_file, (0..6).map(|n| format!("f{n}")));
    }

    #[test]
    fn a_partial_index_keeps_no_posting_for_a_fact_without_a_key() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let busy = wm
            .register_partial_index::<Transfer, bool>(STREAMS, |t| (t.streams > 0).then_some(true));
        let h2 = wm.insert(Transfer { id: 2, streams: 4 });
        assert_eq!(wm.lookup_by(busy, &true), vec![h2]);
        assert_eq!(
            (wm.key_of(busy, h1), wm.key_of(busy, h2)),
            (None, Some(&true))
        );
        wm.update_fields::<Transfer>(h1, STREAMS, |t| t.streams = 2);
        wm.update_fields::<Transfer>(h2, STREAMS, |t| t.streams = 0);
        assert_eq!(wm.lookup_by(busy, &true), vec![h1]);
        assert_eq!(wm.key_of(busy, h2), None);
        let index = wm.key_index(busy).1;
        assert_eq!(index.map.len(), 1, "no bucket for the keyless facts");
        wm.retract(h1);
        assert!(wm.lookup_by(busy, &true).is_empty());
        assert!(wm.key_index(busy).1.map.is_empty());
    }

    /// Field groups of [`Transfer`]: `id` is identity, `streams` a group.
    const STREAMS: Fields = Fields::bit(0);
    const OTHER: Fields = Fields::bit(1);

    #[test]
    fn an_update_that_names_no_key_field_extracts_no_key() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static EXTRACTS: AtomicUsize = AtomicUsize::new(0);
        let mut wm = WorkingMemory::new();
        let by_streams = wm.register_index::<Transfer, u32>(STREAMS, |t| {
            EXTRACTS.fetch_add(1, Ordering::Relaxed);
            t.streams
        });
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert_eq!(EXTRACTS.swap(0, Ordering::Relaxed), 1, "one at insert");
        for _ in 0..10 {
            assert!(wm.update_fields::<Transfer>(h, OTHER, |t| t.id += 1));
        }
        // The debug oracle re-extracts what was skipped; the index itself
        // never does.
        let oracle = if cfg!(debug_assertions) { 10 } else { 0 };
        assert_eq!(EXTRACTS.swap(0, Ordering::Relaxed), oracle);
        assert!(wm.update_fields::<Transfer>(h, STREAMS, |t| t.streams = 8));
        assert_eq!(EXTRACTS.swap(0, Ordering::Relaxed), 1, "a named group");
        assert_eq!(wm.lookup_by(by_streams, &8), vec![h]);
        assert!(wm.lookup_by(by_streams, &4).is_empty());
        assert!(wm.update::<Transfer>(h, |t| t.streams = 2));
        assert_eq!(EXTRACTS.swap(0, Ordering::Relaxed), 1, "a plain update");
        assert_eq!(wm.key_of(by_streams, h), Some(&2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Transfer keyed by u32 was skipped by an update of Fields(2)")]
    fn the_debug_oracle_names_an_under_declared_index() {
        let mut wm = WorkingMemory::new();
        // The key reads `streams` but declares no group.
        wm.register_index::<Transfer, u32>(Fields::NONE, |t| t.streams);
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        wm.update_fields::<Transfer>(h, OTHER, |t| t.streams = 8);
    }

    #[test]
    fn key_of_reads_the_stored_key_and_slot_reuse_does_not_leak_it() {
        let mut wm = WorkingMemory::new();
        let by_file = wm.register_index::<Cleanup, String>(Fields::NONE, |c| c.file.clone());
        let h1 = wm.insert(Cleanup { file: "a".into() });
        let ht = wm.insert(Transfer { id: 1, streams: 0 });
        assert_eq!(wm.key_of(by_file, h1), Some(&"a".to_string()));
        assert_eq!(wm.key_of(by_file, ht), None, "another type");
        wm.retract(h1);
        assert_eq!(wm.key_of(by_file, h1), None, "stale handle");
        // The next Cleanup recycles h1's slot; the old key must be gone from
        // the reverse map and the postings alike.
        let h2 = wm.insert(Cleanup { file: "b".into() });
        assert_eq!(wm.key_of(by_file, h2), Some(&"b".to_string()));
        assert!(wm.lookup_by(by_file, &"a".to_string()).is_empty());
        assert_eq!(wm.lookup_by(by_file, &"b".to_string()), vec![h2]);
        wm.retract(h2);
        assert!(wm.lookup_by(by_file, &"b".to_string()).is_empty());
    }

    #[test]
    fn minted_hasher_spreads_narrow_integers() {
        use std::collections::HashSet;
        let build = MintedBuild::default();
        let bytes: HashSet<u64> = (0u8..=255).map(|b| build.hash_one(b)).collect();
        assert_eq!(bytes.len(), 256);
        let words: HashSet<u64> = (0u32..4096).map(|w| build.hash_one(w)).collect();
        assert_eq!(words.len(), 4096);
        // A narrow write is the one-multiply path, not a zero-padded chunk
        // of the byte path that happens to agree with it.
        assert_eq!(build.hash_one(7u8), build.hash_one(7u64));
        assert_eq!(build.hash_one(7usize), build.hash_one(7u64));
        assert_eq!(build.hash_one(-1isize), build.hash_one(u64::MAX));
        // Table positions come from the low bits, hashbrown's tags from the
        // top seven: small ids must differ in both.
        let low: HashSet<u64> = (0u32..128).map(|w| build.hash_one(w) & 127).collect();
        assert_eq!(low.len(), 128);
    }

    #[test]
    fn a_key_s_postings_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Postings>(), 16);
    }

    /// A position names an index of the memory that returned it; probing a
    /// memory that has no index there panics instead of reading another.
    #[test]
    #[should_panic(expected = "no index")]
    fn unregistered_index_lookup_panics() {
        let mut other = WorkingMemory::new();
        let by_file = other.register_index::<Cleanup, String>(Fields::NONE, |c| c.file.clone());
        let mut wm = WorkingMemory::new();
        wm.insert(Cleanup { file: "a".into() });
        wm.find_by(by_file, &"a".to_string());
    }

    #[test]
    fn handles_survive_other_retractions() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let h2 = wm.insert(Transfer { id: 2, streams: 0 });
        wm.retract(h1);
        assert!(wm.contains(h2));
        assert_eq!(wm.get::<Transfer>(h2).unwrap().id, 2);
    }

    #[test]
    fn fact_id_probes_directly_and_dies_with_the_fact() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 9, streams: 1 });
        let id = wm.fact_id::<Transfer>(h).unwrap();
        assert_eq!(wm.get_id(id).unwrap().id, 9);
        // Wrong-type ids are refused at issue time.
        assert!(wm.fact_id::<Cleanup>(h).is_none());
        wm.retract(h);
        assert!(wm.get_id(id).is_none(), "stale id must not resolve");
        assert!(wm.fact_id::<Transfer>(h).is_none());
    }

    #[test]
    fn stale_fact_id_misses_even_after_slot_reuse() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let id1 = wm.fact_id::<Transfer>(h1).unwrap();
        wm.retract(h1);
        // The freed slot is recycled by the next insert of the same type.
        let h2 = wm.insert(Transfer { id: 2, streams: 0 });
        let id2 = wm.fact_id::<Transfer>(h2).unwrap();
        assert_eq!(wm.get_id(id2).unwrap().id, 2);
        assert_ne!(id1, id2, "recycled slot must carry a new generation");
        assert!(
            wm.get_id(id1).is_none(),
            "ABA: stale id resolved to a recycled slot"
        );
    }

    #[test]
    fn slot_reuse_preserves_insertion_order_and_handles() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let h2 = wm.insert(Transfer { id: 2, streams: 0 });
        wm.retract(h1);
        let h3 = wm.insert(Transfer { id: 3, streams: 0 });
        assert!(h3 > h2, "handles stay monotone across slot reuse");
        let order: Vec<u32> = wm.iter::<Transfer>().map(|(_, t)| t.id).collect();
        assert_eq!(order, vec![2, 3], "reused slot must append at the tail");
    }
}
