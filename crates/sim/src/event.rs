//! Shared vocabulary of the pending-event set: the [`EventHandle`] a
//! scheduled event is cancelled or rescheduled by, and the [`QueueHealth`]
//! snapshot the observability exports read. The queue itself is
//! [`crate::ladder::LadderQueue`].

/// A point-in-time health snapshot of the pending-event set, shaped for
/// gauge export (`sim_queue_depth`, `sim_queue_cancelled_total`,
/// bucket-occupancy gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueHealth {
    /// Live events pending.
    pub depth: usize,
    /// Events cancelled over the queue's lifetime.
    pub cancelled_total: u64,
    /// Events in the sorted current bucket.
    pub current_bucket_events: usize,
    /// Events bucketed in rungs.
    pub rung_events: usize,
    /// Far-future events in the overflow staging area.
    pub overflow_events: usize,
    /// Rungs currently spawned.
    pub active_rungs: usize,
    /// Entries the queue has room for across every bucket `Vec` it holds,
    /// pending or kept empty for reuse: what it retains, counted in
    /// entries rather than bytes. Summed over every bucket when the
    /// snapshot is taken; not exported as a metric series.
    pub retained_capacity: usize,
}

/// Identifies a scheduled event so it can be cancelled or rescheduled
/// later. Opaque; a handle outlives its event harmlessly (operations on a
/// fired or cancelled handle report failure instead of aliasing a newer
/// event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    #[inline]
    pub(crate) fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    #[inline]
    pub(crate) fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    pub(crate) fn pack(slot: u32, gen: u32) -> Self {
        EventHandle(u64::from(gen) << 32 | u64::from(slot))
    }

    /// Raw transport form, for callers that pack handles into dense rows
    /// (see `pwm-net`'s flow table). No live handle is ever `u64::MAX` —
    /// that would need 2³²−1 concurrently allocated queue slots — so the
    /// all-ones word is safe as a "no handle" sentinel.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from [`EventHandle::raw`].
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        EventHandle(raw)
    }
}
