//! # Ladder event queue — amortized O(1) pending-event set
//!
//! [`LadderQueue`] is the heart of the simulator: a priority queue of
//! `(time, sequence, payload)` entries. Ties in time are broken by insertion
//! sequence, so two runs with the same schedule produce byte-identical event
//! orders — a prerequisite for seeded reproducibility of every experiment in
//! the benchmark harness. The clock advances only when events are popped;
//! scheduling in the past is a logic error and panics, as it would silently
//! reorder causality.
//!
//! A binary or d-ary heap walks ~log(n) scattered cache lines on every pop,
//! which at 100k pending events dominated a network-engine run (DESIGN.md
//! §11). This module is the calendar-queue-family answer:
//! timestamps are binned into **rungs** of `NB` buckets each, buckets
//! are only sorted when they become the **current bucket**, and the sorted
//! current bucket is popped from its tail — so the steady-state cost per
//! event is one bucket append on schedule and one `Vec::pop` on pop, both
//! touching contiguous memory.
//!
//! ## Exactness
//!
//! Unlike textbook calendar queues this structure never approximates pop
//! order. The ordering argument has three parts:
//!
//! 1. **Bucket windows partition time above the consumption edge.** Each
//!    rung covers `[start, end)` split into `width`-sized buckets; a finer
//!    rung is only ever spawned from a single parent bucket and covers
//!    exactly that bucket's window, so at any instant the un-consumed
//!    buckets of all rungs plus the overflow list tile `[cur_hi, ∞)`
//!    disjointly, in order: finest rung first, then the un-consumed
//!    remainder of each parent, then overflow (which only holds events at
//!    or beyond the outermost rung's `end`).
//! 2. **New events land on the correct side.** `place` routes an event to
//!    the sorted current bucket iff `at < cur_hi` (the current bucket's
//!    exclusive upper edge), otherwise to the finest rung whose window
//!    contains it, otherwise to overflow. Since every event satisfies
//!    `at >= now >= (every previously consumed window)`, an event can
//!    never land in an already-consumed bucket.
//! 3. **Within a window, `(time, seq)` sorting decides.** The current
//!    bucket is sorted descending by `(time, seq)` and popped from the
//!    tail, which is exactly lexicographic `(time, seq)` pop order; `seq`
//!    values are unique so the order is total and deterministic.
//!
//! Together: every pop takes the minimum `(time, seq)` over the whole
//! structure — locked down by the lockstep differential suite against a
//! sorted-`Vec` reference (`tests/event_differential.rs`).
//!
//! ## Cancellation and reschedule
//!
//! A handle is a `(slot, generation)` pair: each entry records its handle
//! slot, each slot records the entry's current location (area + rung +
//! bucket + position), and generations make stale handles (already fired
//! or cancelled) detectably dead even though slots are recycled. Cancel is
//! an O(1) `swap_remove` from a bucket (or an ordered remove from the small
//! current bucket); reschedule is remove + re-place with a fresh sequence
//! number, exactly cancel-plus-schedule semantics.
//!
//! ## Retained memory
//!
//! Bucket `Vec`s never change hands: a promoted bucket's entries move into
//! the current bucket's own buffer, and a consumed bucket keeps its buffer
//! in its slot, as a retired rung's buckets do in their array. Whenever a
//! bucket empties it keeps its buffer only if that has room for at most
//! `CUR_SPLIT + 4 * len / NB` entries (`LadderQueue::recycle_cap`); a
//! larger one is freed. So the queue holds capacity in proportion to what
//! is pending, not to the largest burst it has seen, and
//! [`QueueHealth::retained_capacity`] reports the total.

use crate::event::{EventHandle, QueueHealth};
use crate::time::{SimDuration, SimTime};

/// Buckets per rung. 64 keeps a rung's bucket array at one page of `Vec`
/// headers and divides any span in ≤ `MAX_RUNGS` refinement steps.
const NB: usize = 64;
/// A bucket promoted to current with more entries than this spawns a
/// finer rung instead of sorting (unless already at 1 µs resolution).
/// Below this, one small `sort_unstable` is cheaper than re-binning.
const SPAWN_THRESHOLD: usize = 48;
/// A current bucket that *grows* past this many entries (inserts landing
/// below `cur_hi`) is demoted into a fresh finest rung instead of taking
/// more O(len) sorted inserts. Without this, a promotion taken while the
/// queue is nearly empty can leave `cur_hi` far in the future, and the
/// current bucket silently becomes the whole queue — every insert then
/// pays a memmove plus a position-fixup walk (observed: 445 µs/op at 100k
/// pending events). Demotion re-bins the bucket once, O(len), and restores
/// the O(1) rung-append path.
const CUR_SPLIT: usize = 128;
/// Refinement depth limit; 64^8 µs ≫ any representable span, so this is
/// a defensive bound, not a practical one.
const MAX_RUNGS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Area {
    /// Not pending (fired, cancelled, or never issued).
    Dead,
    /// In the sorted current bucket.
    Cur,
    /// In `rungs[rung].buckets[bucket]`.
    Rung,
    /// In the far-future overflow list.
    Over,
}

/// Where a pending entry currently lives, so cancel/reschedule can find
/// it in O(1).
#[derive(Debug, Clone, Copy)]
struct Loc {
    area: Area,
    rung: u8,
    bucket: u8,
    pos: u32,
}

const DEAD: Loc = Loc {
    area: Area::Dead,
    rung: 0,
    bucket: 0,
    pos: 0,
};

/// Per-handle-slot bookkeeping: liveness generation plus current location.
struct Slot {
    gen: u32,
    loc: Loc,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    payload: E,
}

/// One refinement level: `NB` buckets of `width` µs starting at `start`,
/// logically covering `[start, end)` (`end` can clip the last bucket when
/// the rung refines a parent bucket whose window wasn't a multiple of
/// `width * NB`).
struct Rung<E> {
    start: u64,
    width: u64,
    /// Exclusive logical upper edge; placement beyond it falls through to
    /// the next-coarser rung (or overflow).
    end: u64,
    /// Next bucket index to consume; buckets below are spent.
    next: usize,
    /// Live entries across all buckets of this rung.
    count: usize,
    buckets: Vec<Vec<Entry<E>>>,
}

/// The simulator's deterministic event queue with a virtual clock: an
/// exact-order ladder queue. See the module docs for the structure and the
/// exactness argument.
pub struct LadderQueue<E> {
    /// Sorted **descending** by `(at, seq)`; the next event to fire is at
    /// the back, so pop is `Vec::pop`. Invariant: non-empty whenever
    /// `len > 0`.
    cur: Vec<Entry<E>>,
    /// Exclusive upper edge of the current bucket's window. Events below
    /// this go straight into `cur` (sorted insert — the
    /// spawn-into-current-bucket fast path).
    cur_hi: u64,
    /// Rung stack: `rungs[0]` is the outermost (coarsest, latest `end`),
    /// the last entry is the finest and is consumed first.
    rungs: Vec<Rung<E>>,
    /// Events at or beyond the outermost rung's `end` (or all events when
    /// no rungs exist). Unordered; re-binned into a fresh base rung when
    /// the rung stack drains.
    overflow: Vec<Entry<E>>,
    /// Handle-slot slab.
    slots: Vec<Slot>,
    /// Retired handle slots available for reuse.
    free: Vec<u32>,
    len: usize,
    next_seq: u64,
    now: SimTime,
    cancelled: u64,
    /// Retired rung bucket arrays, kept to recycle their buckets' capacity.
    spare_rungs: Vec<Vec<Vec<Entry<E>>>>,
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LadderQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        LadderQueue {
            cur: Vec::new(),
            cur_hi: 0,
            rungs: Vec::new(),
            overflow: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            cancelled: 0,
            spare_rungs: Vec::new(),
        }
    }

    /// Current virtual time (time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events still pending. Exact: cancellation removes
    /// entries eagerly.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} requested={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, loc: DEAD });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.place(Entry {
            at,
            seq,
            slot,
            payload,
        });
        self.len += 1;
        self.ensure_cur();
        EventHandle::pack(slot, gen)
    }

    /// Schedule `payload` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventHandle {
        self.schedule_at(self.now + delay, payload)
    }

    /// Location of `handle`'s entry, if the event is still pending.
    #[inline]
    fn live_loc(&self, handle: EventHandle) -> Option<Loc> {
        let s = handle.slot();
        match self.slots.get(s) {
            Some(slot) if slot.gen == handle.gen() && slot.loc.area != Area::Dead => Some(slot.loc),
            _ => None,
        }
    }

    /// Retire a handle slot once its event fired or was cancelled.
    #[inline]
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.loc = DEAD;
        self.free.push(slot);
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending. Already-fired, already-cancelled, and
    /// never-issued handles all return `false`. O(1) for bucketed
    /// entries; O(current-bucket size) when the entry is already current.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(loc) = self.live_loc(handle) else {
            return false;
        };
        let entry = self.remove_at(loc);
        self.retire(entry.slot);
        self.len -= 1;
        self.cancelled += 1;
        self.ensure_cur();
        true
    }

    /// Move a still-pending event to a new firing time, keeping its
    /// payload and handle. Exactly equivalent to a cancel plus a fresh
    /// `schedule_at`: the entry is re-keyed with a fresh sequence number,
    /// so it fires after anything already scheduled at the same instant.
    /// Returns `false` — without scheduling anything — if the handle is no
    /// longer pending.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn reschedule(&mut self, handle: EventHandle, at: SimTime) -> bool {
        let Some(loc) = self.live_loc(handle) else {
            return false;
        };
        assert!(
            at >= self.now,
            "cannot reschedule into the past: now={} requested={}",
            self.now,
            at
        );
        let mut entry = self.remove_at(loc);
        entry.at = at;
        entry.seq = self.next_seq;
        self.next_seq += 1;
        self.place(entry);
        self.ensure_cur();
        true
    }

    /// Time of the next live event, if any, without popping it. O(1):
    /// the `ensure_cur` invariant keeps the next event at `cur`'s tail.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cur.last().map(|e| e.at)
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.cur.pop()?;
        self.retire(entry.slot);
        self.len -= 1;
        debug_assert!(entry.at >= self.now, "event queue produced time travel");
        self.now = entry.at;
        self.ensure_cur();
        Some((entry.at, entry.payload))
    }

    /// Pop the next live event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.cur.last() {
            Some(e) if e.at <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Drain every event firing at or before `horizon` into `out`, in pop
    /// order. The batch peels straight off the sorted current bucket's
    /// tail, refilling between buckets only.
    pub fn drain_until(&mut self, horizon: SimTime, out: &mut Vec<(SimTime, E)>) {
        loop {
            match self.cur.last() {
                Some(e) if e.at <= horizon => {}
                _ => return,
            }
            let entry = self.cur.pop().expect("checked non-empty");
            self.retire(entry.slot);
            self.len -= 1;
            self.now = entry.at;
            out.push((entry.at, entry.payload));
            if self.cur.is_empty() {
                self.ensure_cur();
            }
        }
    }

    /// Queue-health snapshot, including ladder geometry.
    pub fn health(&self) -> QueueHealth {
        QueueHealth {
            depth: self.len,
            cancelled_total: self.cancelled,
            current_bucket_events: self.cur.len(),
            rung_events: self.rungs.iter().map(|r| r.count).sum(),
            overflow_events: self.overflow.len(),
            active_rungs: self.rungs.len(),
            retained_capacity: self.buckets().map(Vec::capacity).sum(),
        }
    }

    /// Every bucket `Vec` the queue holds: the current bucket, overflow,
    /// each rung's buckets, and the retired rung arrays kept for reuse.
    fn buckets(&self) -> impl Iterator<Item = &Vec<Entry<E>>> {
        [&self.cur, &self.overflow]
            .into_iter()
            .chain(self.rungs.iter().flat_map(|r| &r.buckets))
            .chain(self.spare_rungs.iter().flatten())
    }

    /// Largest capacity a bucket `Vec` keeps once it empties: room for a
    /// current bucket at its split size plus four times the mean bucket of
    /// one rung holding every pending event. A bucket that held more than
    /// this — a burst, or a population since drained — is freed instead.
    #[inline]
    fn recycle_cap(&self) -> usize {
        CUR_SPLIT + 4 * self.len / NB
    }

    /// Route an entry to the current bucket, the finest covering rung, or
    /// overflow. See the module docs for why this preserves exact order.
    fn place(&mut self, entry: Entry<E>) {
        let at = entry.at.as_micros();
        if at < self.cur_hi {
            if self.cur.len() < CUR_SPLIT
                || self.rungs.len() >= MAX_RUNGS
                || self.cur_hi.saturating_sub(self.now.as_micros()) <= 1
            {
                // Fast path: into the sorted (descending) current bucket.
                // The entry sinks from the back by swaps, each fixing the
                // position of the entry it passes: one loop, and no
                // `memmove` call for `Vec::insert`'s shift.
                let key = (entry.at, entry.seq);
                let ix = self.cur.partition_point(|e| (e.at, e.seq) > key);
                let slot = entry.slot as usize;
                self.cur.push(entry);
                for i in (ix + 1..self.cur.len()).rev() {
                    self.cur.swap(i, i - 1);
                    self.slots[self.cur[i].slot as usize].loc.pos = i as u32;
                }
                self.slots[slot].loc = Loc {
                    area: Area::Cur,
                    rung: 0,
                    bucket: 0,
                    pos: ix as u32,
                };
                return;
            }
            // The current bucket has bloated past CUR_SPLIT: demote it
            // into a fresh finest rung covering [now, cur_hi) and fall
            // through to rung routing. The caller's `ensure_cur` re-promotes
            // a (much smaller) current bucket afterwards.
            self.demote_cur();
        }
        // Finest rung whose window contains `at`. Windows nest, so the
        // first hit walking from the top of the stack is the right one.
        for ri in (0..self.rungs.len()).rev() {
            if at < self.rungs[ri].end {
                let r = &mut self.rungs[ri];
                let b = (((at - r.start) / r.width) as usize).min(NB - 1);
                debug_assert!(b >= r.next, "placement into a consumed bucket");
                let slot = entry.slot as usize;
                let pos = r.buckets[b].len() as u32;
                r.buckets[b].push(entry);
                r.count += 1;
                self.slots[slot].loc = Loc {
                    area: Area::Rung,
                    rung: ri as u8,
                    bucket: b as u8,
                    pos,
                };
                return;
            }
        }
        let slot = entry.slot as usize;
        let pos = self.overflow.len() as u32;
        self.overflow.push(entry);
        self.slots[slot].loc = Loc {
            area: Area::Over,
            rung: 0,
            bucket: 0,
            pos,
        };
    }

    /// Remove and return the entry at `loc`, patching the location slab
    /// for any entry displaced by the removal. Does not retire the slot.
    fn remove_at(&mut self, loc: Loc) -> Entry<E> {
        let cap = self.recycle_cap();
        match loc.area {
            Area::Cur => {
                // The entry rises to the back by swaps, as in `place`.
                let p = loc.pos as usize;
                for i in p..self.cur.len() - 1 {
                    self.cur.swap(i, i + 1);
                    self.slots[self.cur[i].slot as usize].loc.pos = i as u32;
                }
                self.cur.pop().expect("a current entry was located")
            }
            Area::Rung => {
                let r = &mut self.rungs[loc.rung as usize];
                r.count -= 1;
                let v = &mut r.buckets[loc.bucket as usize];
                let p = loc.pos as usize;
                let entry = v.swap_remove(p);
                if p < v.len() {
                    let moved = v[p].slot as usize;
                    self.slots[moved].loc.pos = p as u32;
                } else if v.is_empty() {
                    release(v, cap);
                }
                entry
            }
            Area::Over => {
                let p = loc.pos as usize;
                let entry = self.overflow.swap_remove(p);
                if p < self.overflow.len() {
                    let moved = self.overflow[p].slot as usize;
                    self.slots[moved].loc.pos = p as u32;
                } else if self.overflow.is_empty() {
                    release(&mut self.overflow, cap);
                }
                entry
            }
            Area::Dead => unreachable!("remove_at on a dead location"),
        }
    }

    /// Re-establish the invariant that `cur` is non-empty whenever live
    /// events remain.
    #[inline]
    fn ensure_cur(&mut self) {
        if self.cur.is_empty() {
            let cap = self.recycle_cap();
            release(&mut self.cur, cap);
            if self.len > 0 {
                self.advance_bucket();
            }
        }
    }

    /// Promote the next non-empty bucket to current, spawning finer rungs
    /// or re-binning overflow along the way. On return `cur` is
    /// non-empty. Pre-condition: `cur` is empty and `len > 0`.
    fn advance_bucket(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        loop {
            if self.rungs.is_empty() {
                debug_assert!(
                    !self.overflow.is_empty(),
                    "live events but every area is empty"
                );
                self.respawn_from_overflow();
                continue;
            }
            let cap = self.recycle_cap();
            if self.rungs.last().expect("checked non-empty").count == 0 {
                let mut dead = self.rungs.pop().expect("checked non-empty");
                for bucket in &mut dead.buckets {
                    release(bucket, cap);
                }
                self.spare_rungs.push(dead.buckets);
                continue;
            }
            let depth = self.rungs.len();
            let (b, mut bucket, blo, bhi, width) = {
                let r = self.rungs.last_mut().expect("checked non-empty");
                while r.buckets[r.next].is_empty() {
                    r.next += 1;
                }
                let b = r.next;
                let bucket = std::mem::take(&mut r.buckets[b]);
                r.next += 1;
                r.count -= bucket.len();
                let blo = r.start.saturating_add((b as u64).saturating_mul(r.width));
                let bhi = blo.saturating_add(r.width).min(r.end);
                (b, bucket, blo, bhi, r.width)
            };
            let spawn = bucket.len() > SPAWN_THRESHOLD && width > 1 && depth < MAX_RUNGS;
            if spawn {
                self.spawn_rung(blo, bhi, width, &mut bucket);
            } else {
                self.make_cur(&mut bucket, bhi);
            }
            // The consumed bucket keeps its buffer (up to the cap) in its
            // slot, for the next rung this array serves.
            release(&mut bucket, cap);
            self.rungs[depth - 1].buckets[b] = bucket;
            if !spawn {
                return;
            }
        }
    }

    /// Move `bucket`'s entries into the (empty) current bucket, sorted
    /// descending, with exclusive upper edge `bhi`. The current bucket
    /// keeps its own buffer, so no `Vec` changes hands.
    fn make_cur(&mut self, bucket: &mut Vec<Entry<E>>, bhi: u64) {
        debug_assert!(self.cur.is_empty());
        self.cur.append(bucket);
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        for i in 0..self.cur.len() {
            let slot = self.cur[i].slot as usize;
            self.slots[slot].loc = Loc {
                area: Area::Cur,
                rung: 0,
                bucket: 0,
                pos: i as u32,
            };
        }
        self.cur_hi = bhi;
    }

    /// Demote the bloated current bucket into a fresh finest rung covering
    /// `[now, cur_hi)` and pull `cur_hi` back to `now`, so subsequent
    /// placements take the O(1) rung-append path. The new rung's `end` is
    /// the old `cur_hi` — exactly the consumption edge of everything
    /// above it, so the window-tiling invariant is preserved. Leaves `cur`
    /// empty; callers restore the non-empty invariant via `ensure_cur`.
    /// Pre-conditions: `rungs.len() < MAX_RUNGS` and `cur_hi - now > 1`.
    fn demote_cur(&mut self) {
        let start = self.now.as_micros();
        let end = self.cur_hi;
        debug_assert!(end > start + 1);
        let mut entries = std::mem::take(&mut self.cur);
        self.cur_hi = start;
        // span/NB-wide buckets: ceil(span / NB) keeps every index < NB.
        self.spawn_rung(start, end, end - start, &mut entries);
        self.cur = entries;
    }

    /// Refine an oversized parent bucket (window `[blo, bhi)`, parent
    /// bucket width `parent_width`) into a fresh finest rung, draining
    /// `entries`.
    fn spawn_rung(&mut self, blo: u64, bhi: u64, parent_width: u64, entries: &mut Vec<Entry<E>>) {
        let width = parent_width.div_ceil(NB as u64).max(1);
        let buckets = self.take_bucket_array();
        let ri = self.rungs.len();
        let mut rung = Rung {
            start: blo,
            width,
            end: bhi,
            next: 0,
            count: entries.len(),
            buckets,
        };
        for entry in entries.drain(..) {
            let b = (((entry.at.as_micros() - blo) / width) as usize).min(NB - 1);
            let slot = entry.slot as usize;
            let pos = rung.buckets[b].len() as u32;
            rung.buckets[b].push(entry);
            self.slots[slot].loc = Loc {
                area: Area::Rung,
                rung: ri as u8,
                bucket: b as u8,
                pos,
            };
        }
        self.rungs.push(rung);
    }

    /// Re-bin the entire overflow list into a fresh base rung sized to
    /// its span. Pre-condition: no rungs exist and overflow is non-empty.
    fn respawn_from_overflow(&mut self) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in &self.overflow {
            let t = e.at.as_micros();
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // width > span/NB, so the largest index (span/width) is < NB and
        // the whole overflow fits without clamping.
        let width = (hi - lo) / NB as u64 + 1;
        let end = lo.saturating_add(width.saturating_mul(NB as u64));
        let buckets = self.take_bucket_array();
        let mut rung = Rung {
            start: lo,
            width,
            end,
            next: 0,
            count: self.overflow.len(),
            buckets,
        };
        for entry in self.overflow.drain(..) {
            let b = (((entry.at.as_micros() - lo) / width) as usize).min(NB - 1);
            let slot = entry.slot as usize;
            let pos = rung.buckets[b].len() as u32;
            rung.buckets[b].push(entry);
            self.slots[slot].loc = Loc {
                area: Area::Rung,
                rung: 0,
                bucket: b as u8,
                pos,
            };
        }
        self.rungs.push(rung);
        let cap = self.recycle_cap();
        release(&mut self.overflow, cap);
    }

    /// A recycled (or fresh) `NB`-bucket array with every bucket empty.
    fn take_bucket_array(&mut self) -> Vec<Vec<Entry<E>>> {
        match self.spare_rungs.pop() {
            Some(b) => {
                debug_assert!(b.len() == NB && b.iter().all(Vec::is_empty));
                b
            }
            None => (0..NB).map(|_| Vec::new()).collect(),
        }
    }

    /// Exhaustively verify internal invariants (test support; not part of
    /// the public contract).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut live = self.cur.len() + self.overflow.len();
        assert!(
            self.cur
                .windows(2)
                .all(|w| { (w[0].at, w[0].seq) > (w[1].at, w[1].seq) }),
            "current bucket not sorted descending"
        );
        assert!(
            self.len == 0 || !self.cur.is_empty(),
            "ensure_cur invariant violated: len={} but current bucket empty",
            self.len
        );
        for (i, e) in self.cur.iter().enumerate() {
            let s = &self.slots[e.slot as usize];
            assert!(matches!(s.loc.area, Area::Cur) && s.loc.pos as usize == i);
        }
        for (p, e) in self.overflow.iter().enumerate() {
            let s = &self.slots[e.slot as usize];
            assert!(matches!(s.loc.area, Area::Over) && s.loc.pos as usize == p);
        }
        for (ri, r) in self.rungs.iter().enumerate() {
            let mut count = 0;
            for (bi, bucket) in r.buckets.iter().enumerate() {
                for (p, e) in bucket.iter().enumerate() {
                    count += 1;
                    let s = &self.slots[e.slot as usize];
                    assert!(
                        matches!(s.loc.area, Area::Rung)
                            && s.loc.rung as usize == ri
                            && s.loc.bucket as usize == bi
                            && s.loc.pos as usize == p
                    );
                    assert!(bi >= r.next, "entry in a consumed bucket");
                }
            }
            assert_eq!(count, r.count, "rung count out of sync");
            live += count;
        }
        assert_eq!(live, self.len, "len out of sync with areas");
        // Retained capacity: a bucket `Vec` is released down to the
        // recycling cap of the moment it empties, and no moment's live count
        // exceeds the peak one, which is the handle slab's length.
        let cap = CUR_SPLIT + 4 * self.slots.len() / NB;
        for bucket in self.buckets().filter(|b| b.is_empty()) {
            assert!(
                bucket.capacity() <= cap,
                "an empty bucket retains {} entries, over the recycling cap {cap}",
                bucket.capacity()
            );
        }
        assert!(
            self.rungs.len() + self.spare_rungs.len() <= MAX_RUNGS,
            "more rung arrays than rungs can nest"
        );
    }
}

/// Free an emptied bucket's buffer if it has room for more than `cap`
/// entries; a smaller one stays for the bucket's next use.
#[inline]
fn release<T>(bucket: &mut Vec<T>, cap: usize) {
    debug_assert!(bucket.is_empty());
    if bucket.capacity() > cap {
        *bucket = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> LadderQueue<&'static str> {
        LadderQueue::new()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = q();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        q.check_invariants();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = q();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, "first");
        q.schedule_at(t, "second");
        q.schedule_at(t, "third");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = q();
        q.schedule_at(SimTime::from_secs(5), "x");
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn cancel_prevents_firing_and_double_cancel_is_false() {
        let mut q = q();
        let h = q.schedule_at(SimTime::from_secs(1), "doomed");
        q.schedule_at(SimTime::from_secs(2), "keeper");
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        q.check_invariants();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "keeper");
        assert_eq!(q.health().cancelled_total, 1);
    }

    #[test]
    fn stale_handles_never_alias_new_events() {
        let mut q = q();
        let h1 = q.schedule_at(SimTime::from_secs(1), "one");
        q.pop();
        // Slot is recycled by the next schedule; the old handle must not
        // reach the new event.
        let _h2 = q.schedule_at(SimTime::from_secs(2), "two");
        assert!(!q.cancel(h1));
        assert!(!q.reschedule(h1, SimTime::from_secs(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reschedule_moves_and_requeues_after_ties() {
        let mut q = q();
        let t = SimTime::from_secs(5);
        let h = q.schedule_at(SimTime::from_secs(1), "mover");
        q.schedule_at(t, "anchor");
        assert!(q.reschedule(h, t));
        q.check_invariants();
        // Fresh seq: the moved event fires after the same-instant anchor.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["anchor", "mover"]);
    }

    #[test]
    fn far_future_outliers_route_through_overflow_and_respawn() {
        let mut q = q();
        q.schedule_at(SimTime::from_micros(10), "near");
        // Far beyond any existing rung: must land in overflow.
        q.schedule_at(SimTime::from_secs(1_000_000), "far");
        assert!(q.health().overflow_events >= 1);
        q.check_invariants();
        assert_eq!(q.pop().unwrap().1, "near");
        // Draining the rungs forces a respawn from overflow.
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
        q.check_invariants();
    }

    #[test]
    fn oversized_buckets_spawn_finer_rungs() {
        let mut q = LadderQueue::new();
        // 10_000 events over a wide span, then one early event to force
        // binning: promoting dense buckets must refine, not sort the world.
        for i in 0..10_000u64 {
            q.schedule_at(SimTime::from_micros(1_000 + i * 17), i);
        }
        q.check_invariants();
        let mut prev = None;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            if let Some(p) = prev {
                assert!(t >= p, "pop order violated");
            }
            prev = Some(t);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn drain_until_matches_pop_until_loop() {
        let mut a = LadderQueue::new();
        let mut b = LadderQueue::new();
        for i in 0..500u64 {
            let t = SimTime::from_micros((i * 37) % 900);
            a.schedule_at(t, i);
            b.schedule_at(t, i);
        }
        let horizon = SimTime::from_micros(450);
        let mut batch = Vec::new();
        a.drain_until(horizon, &mut batch);
        let mut looped = Vec::new();
        while let Some(ev) = b.pop_until(horizon) {
            looped.push(ev);
        }
        assert_eq!(batch, looped);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.now(), b.now());
        a.check_invariants();
    }

    #[test]
    fn health_reports_geometry() {
        let mut q = q();
        assert_eq!(q.health(), QueueHealth::default());
        q.schedule_at(SimTime::from_secs(1), "a");
        let h = q.schedule_at(SimTime::from_secs(2), "b");
        q.cancel(h);
        let health = q.health();
        assert_eq!(health.depth, 1);
        assert_eq!(health.cancelled_total, 1);
        assert_eq!(
            health.current_bucket_events + health.rung_events + health.overflow_events,
            1
        );
    }

    #[test]
    fn cancel_and_reschedule_across_every_area() {
        // Build a queue with entries in cur, rungs, and overflow, then
        // cancel/reschedule one from each area and check exact order.
        let mut q = LadderQueue::new();
        let mut handles = Vec::new();
        for i in 0..200u64 {
            handles.push((i, q.schedule_at(SimTime::from_micros(1 + i * 997), i)));
        }
        let far = q.schedule_at(SimTime::from_secs(40_000_000), 9_999);
        q.check_invariants();
        // Cancel every third, reschedule every seventh to a new time.
        let mut expected: Vec<(u64, u64)> = Vec::new(); // (time_us, marker)
        let mut reseq = 1_000_000u64;
        for (i, h) in &handles {
            if i % 3 == 0 {
                assert!(q.cancel(*h));
            } else if i % 7 == 0 {
                let t = 500_000 + i * 13;
                assert!(q.reschedule(*h, SimTime::from_micros(t)));
                reseq += 1;
                expected.push((t, reseq));
            } else {
                expected.push((1 + i * 997, *i));
            }
        }
        assert!(q.cancel(far));
        q.check_invariants();
        expected.sort();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        let want: Vec<u64> = {
            let mut w: Vec<u64> = expected.iter().map(|&(t, _)| t).collect();
            w.sort();
            w
        };
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = q();
        q.schedule_at(SimTime::from_secs(2), "x");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "too late");
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = q();
        q.schedule_at(SimTime::from_secs(10), "base");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "later");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(12));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = q();
        q.schedule_at(SimTime::from_secs(1), "early");
        q.schedule_at(SimTime::from_secs(10), "late");
        assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().1, "early");
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = q();
        let h = q.schedule_at(SimTime::from_secs(1), "dead");
        q.schedule_at(SimTime::from_secs(2), "alive");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn reschedule_of_dead_handle_is_rejected() {
        let mut q = q();
        let h = q.schedule_at(SimTime::from_secs(1), "x");
        assert!(q.cancel(h));
        assert!(!q.reschedule(h, SimTime::from_secs(2)));
        assert_eq!(q.len(), 0);
        let h2 = q.schedule_at(SimTime::from_secs(3), "y");
        q.pop();
        assert!(!q.reschedule(h2, SimTime::from_secs(4)), "fired handle");
    }
}
