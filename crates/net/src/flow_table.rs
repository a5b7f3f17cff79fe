//! Hot/cold split storage for live flows.
//!
//! The old engine kept flows in a `BTreeMap<FlowId, Flow>` with an enum
//! phase; every hot-path touch (rate write-back, remaining-bytes math, BFS
//! membership checks) paid a tree walk plus an enum match across a ~200-byte
//! record. The first rewrite split the flow into slot-indexed parallel
//! *columns* — which fixed the tree walks but left each event touching ~9
//! separate arrays at a random slot index: at 100k live flows that is ~9
//! cache misses per flow touched, and the misses, not the arithmetic,
//! dominated the event loop.
//!
//! [`FlowTable`] therefore packs everything the per-event hot path reads or
//! writes into one cache-line-sized [`FlowHot`] row (64 bytes: the lazy
//! byte-integrator anchor, the allocated rate, the pending-ETA handle, the
//! fair-share weight, the owning id, and the phase/cap-bound flags), so a
//! flow touch is one line fill instead of nine. Per-flow constants stay in
//! a separate [`FlowCold`] row read mostly at activation and completion.
//!
//! Slots are stable for a flow's lifetime (event payloads and the link
//! bipartite index carry raw `u32` slots), recycled through a free list after
//! completion. Determinism is preserved by the [`IdSlotMap`] `FlowId → slot`
//! index: every order-sensitive iteration (candidate activation, full
//! recompute, component sorting) goes through id order, never slot order.

use crate::flow::{FlowId, FlowSpec};
use crate::routes::Route;
use pwm_sim::{EventHandle, SimTime};
use std::collections::VecDeque;

/// Lifecycle phase of a slot. What a phase carries lives in the rest of the
/// [`FlowHot`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Slot is on the free list.
    Vacant,
    /// Connection setup in progress; a `Connect` event is pending.
    Connecting,
    /// Setup finished but an endpoint's connection limit defers activation.
    Queued,
    /// Moving bytes.
    Active,
}

/// Per-flow constants, written once at `start_flow` and read at activation,
/// allocation, and completion: one 64-byte line.
///
/// The route is a [`Route`] into the network's [`crate::routes::RouteTable`]
/// (a pool range plus its RTT), not a copy of the links: a row is a fixed
/// 64 bytes whatever the route's length, moves as plain words, and owns no
/// heap memory.
#[derive(Debug, Clone, Copy)]
pub struct FlowCold {
    /// Immutable request.
    pub spec: FlowSpec,
    /// The (fixed) interned route and its RTT.
    pub route: Route,
    /// When `start_flow` was called.
    pub requested_at: SimTime,
    /// Per-flow fair-share multiplier (TCP unfairness), drawn at start.
    pub weight_factor: f64,
}

const _: () = assert!(
    std::mem::size_of::<FlowCold>() == 64,
    "FlowCold must stay exactly one cache line"
);

impl FlowCold {
    /// Effective stream count (floor of 1).
    pub fn streams(&self) -> u32 {
        self.spec.streams.max(1)
    }
}

/// Raw-`u64` sentinel for "no pending ETA event" in [`FlowHot::eta_raw`].
/// Safe because no live [`EventHandle`] is ever all-ones (see
/// [`EventHandle::raw`]).
const NO_ETA: u64 = u64::MAX;

/// Everything the per-event hot path touches for one flow, packed into a
/// single 64-byte row so a flow touch costs one cache-line fill.
///
/// The pending-ETA handle is stored raw (`u64`, [`NO_ETA`] when absent)
/// rather than as `Option<EventHandle>`: the option's discriminant would
/// push the row past a cache line. Use [`FlowHot::eta`] / [`FlowHot::
/// set_eta`] / [`FlowHot::take_eta`] instead of the raw word.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct FlowHot {
    /// Bytes remaining *as of* `rate_since`; the engine integrates lazily:
    /// `remaining(t) = remaining - rate · (t - rate_since)`.
    pub remaining: f64,
    /// Allocated rate, bytes/sec. Valid while `Active`.
    pub rate: f64,
    /// Anchor instant of the lazy linear motion above. Valid while `Active`.
    pub rate_since: SimTime,
    /// When the flow activated (ramp age anchor). Valid while `Active`.
    pub activated_at: SimTime,
    /// Fair-share weight: `streams × weight_factor`, precomputed at insert.
    pub weight: f64,
    /// Owning flow id (stale for vacant slots).
    pub id: FlowId,
    /// Pending completion-ETA event, raw ([`NO_ETA`] when none).
    eta_raw: u64,
    /// Lifecycle phase.
    pub phase: Phase,
    /// True when the last allocation left the flow bound by its own cap
    /// (rather than a saturated link) — the gate for ramp recomputes.
    pub cap_bound: bool,
    /// Component-BFS visited marker. Living in the hot row (pad space, the
    /// row stays one line) means the BFS pays no separate marker-array miss:
    /// it reads the line it is about to touch anyway. Always false outside
    /// a recompute's BFS phase.
    pub seen: bool,
}

impl FlowHot {
    /// The pending completion-ETA event, if any.
    #[inline]
    pub fn eta(&self) -> Option<EventHandle> {
        if self.eta_raw == NO_ETA {
            None
        } else {
            Some(EventHandle::from_raw(self.eta_raw))
        }
    }

    /// Record (or clear) the pending completion-ETA event.
    #[inline]
    pub fn set_eta(&mut self, h: Option<EventHandle>) {
        self.eta_raw = match h {
            Some(h) => h.raw(),
            None => NO_ETA,
        };
    }

    /// Clear and return the pending completion-ETA event.
    #[inline]
    pub fn take_eta(&mut self) -> Option<EventHandle> {
        let h = self.eta();
        self.eta_raw = NO_ETA;
        h
    }
}

/// Slot-indexed live-flow state: one [`FlowHot`] row per slot plus the cold
/// constants. Rows are `pub` so the engine can index them freely and split
/// borrows against the cold column.
pub struct FlowTable {
    /// Hot per-flow state, one 64-byte row per slot.
    pub hot: Vec<FlowHot>,
    /// Per-flow constants (stale for vacant slots; overwritten on reuse).
    pub cold: Vec<FlowCold>,
    /// Deterministic id → slot index over live flows.
    slot_of: IdSlotMap,
    /// Vacant slots available for reuse.
    free: Vec<u32>,
}

/// `slot_of[id]` value meaning "no live flow with this id".
const NO_SLOT: u32 = u32::MAX;

/// Windowed dense `FlowId → slot` map.
///
/// Flow ids come from one monotone counter and are never recycled, so the
/// live ids always sit inside a moving window `[head, head + cells.len())`.
/// That turns the id-order index — the structure DESIGN.md §11 fingered as
/// the other half of the 100k-flow cache bill, a `BTreeMap` walk on every
/// flow start and completion — into two array words: lookup is a subtract
/// and an index, insert appends to the back, and remove blanks a cell and
/// advances `head` past leading blanks. Id-ordered iteration (the
/// determinism contract) is a linear walk of the window.
///
/// The window spans the oldest-live to newest-live id, so memory is
/// proportional to the id spread of concurrently live flows (4 bytes per
/// id), not to total flows ever started — the same churn bound as the slot
/// free-list.
struct IdSlotMap {
    /// Id of `cells[0]`.
    head: u64,
    /// Slot per id offset; `NO_SLOT` marks dead ids inside the window.
    cells: VecDeque<u32>,
    /// Live entries (cells not equal to `NO_SLOT`).
    live: usize,
}

impl IdSlotMap {
    fn new() -> Self {
        IdSlotMap {
            head: 0,
            cells: VecDeque::new(),
            live: 0,
        }
    }

    /// Insert a mapping; `id` must be at or beyond every id ever inserted
    /// (flow ids are monotone) and not currently live.
    fn insert(&mut self, id: FlowId, slot: u32) {
        debug_assert_ne!(slot, NO_SLOT);
        if self.cells.is_empty() {
            self.head = id.0;
        }
        assert!(
            id.0 >= self.head,
            "flow ids must be assigned in increasing order"
        );
        let ix = (id.0 - self.head) as usize;
        while self.cells.len() <= ix {
            self.cells.push_back(NO_SLOT);
        }
        let cell = &mut self.cells[ix];
        debug_assert_eq!(*cell, NO_SLOT, "flow id inserted twice");
        *cell = slot;
        self.live += 1;
    }

    /// Remove a mapping, returning its slot if it was live.
    fn remove(&mut self, id: FlowId) -> Option<u32> {
        if id.0 < self.head {
            return None;
        }
        let ix = (id.0 - self.head) as usize;
        if ix >= self.cells.len() {
            return None;
        }
        let cell = &mut self.cells[ix];
        if *cell == NO_SLOT {
            return None;
        }
        let slot = *cell;
        *cell = NO_SLOT;
        self.live -= 1;
        // Shrink the window from both ends so it tracks the live id span.
        while self.cells.front() == Some(&NO_SLOT) {
            self.cells.pop_front();
            self.head += 1;
        }
        while self.cells.back() == Some(&NO_SLOT) {
            self.cells.pop_back();
        }
        Some(slot)
    }

    /// Live `(id, slot)` pairs in ascending id order.
    fn iter(&self) -> impl Iterator<Item = (FlowId, u32)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != NO_SLOT)
            .map(move |(ix, &s)| (FlowId(self.head + ix as u64), s))
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> Self {
        const _: () = assert!(
            std::mem::size_of::<FlowHot>() == 64,
            "FlowHot must stay exactly one cache line"
        );
        FlowTable {
            hot: Vec::new(),
            cold: Vec::new(),
            slot_of: IdSlotMap::new(),
            free: Vec::new(),
        }
    }

    /// Insert a new flow in `Connecting` phase; returns its slot.
    pub fn insert(&mut self, id: FlowId, cold: FlowCold) -> u32 {
        let row = FlowHot {
            remaining: 0.0,
            rate: 0.0,
            rate_since: SimTime::ZERO,
            activated_at: SimTime::ZERO,
            weight: cold.streams() as f64 * cold.weight_factor,
            id,
            eta_raw: NO_ETA,
            phase: Phase::Connecting,
            cap_bound: false,
            seen: false,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                let si = s as usize;
                self.hot[si] = row;
                self.cold[si] = cold;
                s
            }
            None => {
                let s = self.hot.len() as u32;
                self.hot.push(row);
                self.cold.push(cold);
                s
            }
        };
        self.slot_of.insert(id, slot);
        slot
    }

    /// Free a flow's slot for reuse. The cold row is left stale (it is
    /// overwritten on the next reuse); callers must read any fields they
    /// need *before* removing.
    pub fn remove(&mut self, id: FlowId) {
        let slot = self.slot_of.remove(id).expect("removing unknown flow");
        let row = &mut self.hot[slot as usize];
        row.phase = Phase::Vacant;
        row.eta_raw = NO_ETA;
        self.free.push(slot);
    }

    /// Live flows in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, u32)> + '_ {
        self.slot_of.iter()
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::RouteTable;
    use crate::topology::Topology;

    fn cold(bytes: f64, streams: u32) -> FlowCold {
        let mut topo = Topology::new();
        let (src, dst) = (topo.add_host("a", 1e6), topo.add_host("b", 1e6));
        FlowCold {
            spec: FlowSpec {
                src,
                dst,
                bytes,
                streams,
                tag: 0,
            },
            route: RouteTable::new().resolve(&topo, src, dst),
            requested_at: SimTime::ZERO,
            weight_factor: 1.5,
        }
    }

    #[test]
    fn hot_row_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<FlowHot>(), 64);
    }

    #[test]
    fn insert_precomputes_weight_with_stream_floor() {
        let mut t = FlowTable::new();
        let s = t.insert(FlowId(1), cold(10.0, 0));
        assert_eq!(t.hot[s as usize].weight, 1.5, "0 streams coerces to 1");
        let s2 = t.insert(FlowId(2), cold(10.0, 4));
        assert_eq!(t.hot[s2 as usize].weight, 6.0);
    }

    #[test]
    fn slots_are_recycled_lifo_and_ids_stay_deterministic() {
        let mut t = FlowTable::new();
        let a = t.insert(FlowId(1), cold(1.0, 1));
        let b = t.insert(FlowId(2), cold(2.0, 1));
        assert_ne!(a, b);
        t.remove(FlowId(1));
        assert_eq!(t.len(), 1);
        assert!(t.iter().all(|(id, _)| id != FlowId(1)));
        let c = t.insert(FlowId(3), cold(3.0, 1));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(t.hot.len(), 2, "no growth on reuse");
        // Iteration is id-ordered regardless of slot assignment.
        let order: Vec<FlowId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![FlowId(2), FlowId(3)]);
        assert_eq!(t.cold[c as usize].spec.bytes, 3.0, "cold row overwritten");
    }

    #[test]
    fn remove_clears_phase_and_eta() {
        let mut t = FlowTable::new();
        let s = t.insert(FlowId(7), cold(1.0, 2));
        t.hot[s as usize].phase = Phase::Active;
        t.hot[s as usize].set_eta(Some(EventHandle::from_raw(0)));
        t.remove(FlowId(7));
        assert_eq!(t.hot[s as usize].phase, Phase::Vacant);
        assert!(t.hot[s as usize].eta().is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn eta_round_trips_through_raw_storage() {
        let mut t = FlowTable::new();
        let s = t.insert(FlowId(1), cold(1.0, 1)) as usize;
        assert!(t.hot[s].eta().is_none(), "fresh row has no ETA");
        // Handle raw 0 (slot 0, generation 0) is a legal handle and must be
        // distinguishable from the sentinel.
        let h = EventHandle::from_raw(0);
        t.hot[s].set_eta(Some(h));
        assert_eq!(t.hot[s].eta(), Some(h));
        assert_eq!(t.hot[s].take_eta(), Some(h));
        assert!(t.hot[s].eta().is_none());
        assert!(t.hot[s].take_eta().is_none());
    }

    #[test]
    #[should_panic(expected = "removing unknown flow")]
    fn removing_unknown_flow_panics() {
        let mut t = FlowTable::new();
        t.remove(FlowId(9));
    }

    #[test]
    fn id_window_tracks_live_span_under_churn() {
        let mut t = FlowTable::new();
        // Interleave monotone inserts with out-of-order removals, the
        // pattern the windowed id map must keep bounded and ordered.
        for wave in 0u64..50 {
            let base = wave * 10;
            for k in 0..10 {
                t.insert(FlowId(base + k), cold(1.0, 1));
            }
            // Remove newest-first, then some from the previous wave.
            for k in (5..10).rev() {
                t.remove(FlowId(base + k));
            }
            if wave > 0 {
                for k in 0..5 {
                    t.remove(FlowId((wave - 1) * 10 + k));
                }
            }
        }
        assert_eq!(t.len(), 5, "only the last wave's survivors remain");
        assert_eq!(t.slot_of.cells.len(), 5, "window shrinks to live span");
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![490, 491, 492, 493, 494]);
        // Draining everything resets the window entirely.
        for id in ids {
            t.remove(FlowId(id));
        }
        assert!(t.is_empty());
        assert!(t.slot_of.cells.is_empty());
        // A later id restarts the window without growth.
        t.insert(FlowId(10_000), cold(1.0, 1));
        assert_eq!(t.slot_of.cells.len(), 1);
        assert_eq!(t.iter().next().map(|(id, _)| id), Some(FlowId(10_000)));
    }
}
