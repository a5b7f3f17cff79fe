//! Differential harness: the epoch-bucketed [`LadderQueue`] model-checked in
//! lockstep against a naive sorted-`Vec` reference.
//!
//! The reference keeps every pending event in a plain `Vec` and does a
//! linear min-scan per pop — slow, but so simple its correctness is evident
//! by inspection. Random schedule/cancel/reschedule/pop interleavings
//! (including cancel-of-popped, double-cancel, reschedule-of-dead,
//! same-timestamp bursts, and far-future outliers that land in the ladder's
//! top rungs or overflow) must observe identical behaviour from both:
//! same pop stream, same cancel/reschedule return values, same `len`, same
//! `peek_time`. The ladder additionally has its internal invariants checked
//! as the interleaving runs. A storm regression then pins the performance
//! claims: no O(n)-per-cancel scans, no reordering and no corpse leaks under
//! a cancel/reschedule storm, while pop order stays exactly `(time, seq)`.

use proptest::prelude::*;
use pwm_sim::{LadderQueue, SimDuration, SimTime};

/// Naive reference queue: unsorted `Vec` of `(time, seq, key)`, linear scans
/// everywhere. `seq` is assigned from one monotone counter at schedule *and*
/// on successful reschedule — exactly the contract the real queue
/// implements — so min-by `(time, seq)` reproduces the FIFO-within-ties
/// contract, including reschedules re-joining the back of a same-instant
/// tie group. `key` is the caller's stable name for the event (the real
/// queue uses its [`pwm_sim::EventHandle`]s; the reference uses the
/// index into the test's handle array).
struct RefQueue {
    pending: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    now: SimTime,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            pending: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule_at(&mut self, at: SimTime, key: u32) {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, key));
    }

    fn cancel(&mut self, key: u32) -> bool {
        match self.pending.iter().position(|&(_, _, k)| k == key) {
            Some(ix) => {
                self.pending.remove(ix);
                true
            }
            None => false,
        }
    }

    /// Move a pending event to `at` with a fresh seq (fires after existing
    /// same-instant ties); `false` if the event is no longer pending.
    fn reschedule(&mut self, key: u32, at: SimTime) -> bool {
        assert!(at >= self.now);
        match self.pending.iter().position(|&(_, _, k)| k == key) {
            Some(ix) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pending[ix] = (at, seq, key);
                true
            }
            None => false,
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending
            .iter()
            .map(|&(at, seq, _)| (at, seq))
            .min()
            .map(|(at, _)| at)
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let ix = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(ix, _)| ix)?;
        let (at, _, key) = self.pending.remove(ix);
        self.now = at;
        Some((at, key))
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// One step of the random interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + dt` microseconds.
    Schedule(u64),
    /// Schedule `n` events all at the same instant `now + dt` — a
    /// same-timestamp burst that stresses tie-breaking and the ladder's
    /// current-bucket batching.
    Burst(u8, u64),
    /// Cancel the `k`-th handle ever issued (mod issued count) — may target
    /// a pending, already-popped, or already-cancelled event.
    Cancel(usize),
    /// Double-cancel: cancel the same handle twice back to back.
    DoubleCancel(usize),
    /// Reschedule the `k`-th handle to `now + dt` — may move it across
    /// rungs, into the current bucket, or target a dead event (no-op
    /// `false` on both queues).
    Reschedule(usize, u64),
    Pop,
    PopUntil(u64),
    /// Batch-pop everything up to `now + dt` via `drain_until`.
    Drain(u64),
    Peek,
}

/// Schedule/reschedule offsets mix dense near-term times (heavy
/// same-instant tie pressure at small values), exact-zero delays, and
/// far-future outliers minutes-to-days out — the latter land in the
/// ladder's top rungs or overflow list and must still pop in exact order.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        5 => 0u64..10_000,
        2 => Just(0u64),
        1 => 1_000_000_000u64..1_000_000_000_000,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_dt().prop_map(Op::Schedule),
        1 => (2u8..9, arb_dt()).prop_map(|(n, dt)| Op::Burst(n, dt)),
        2 => any::<usize>().prop_map(Op::Cancel),
        1 => any::<usize>().prop_map(Op::DoubleCancel),
        2 => (any::<usize>(), arb_dt()).prop_map(|(k, dt)| Op::Reschedule(k, dt)),
        2 => Just(Op::Pop),
        1 => (0u64..10_000).prop_map(Op::PopUntil),
        1 => arb_dt().prop_map(Op::Drain),
        1 => Just(Op::Peek),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(256),
    })]

    /// Lockstep execution: every observable of the ladder matches the
    /// sorted-Vec reference after every operation, and the ladder's
    /// internal invariants hold throughout.
    #[test]
    fn ladder_matches_reference(ops in proptest::collection::vec(arb_op(), 1..400)) {
        let mut l: LadderQueue<u32> = LadderQueue::new();
        let mut r = RefQueue::new();
        // lh[i] and reference key i name the same logical event. Event
        // payloads are the key, so pop streams compare by identity, not
        // just by timestamp.
        let mut lh = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Schedule(dt) | Op::Burst(_, dt) => {
                    let n = match op {
                        Op::Burst(n, _) => n as usize,
                        _ => 1,
                    };
                    let at = r.now + SimDuration::from_micros(dt);
                    for _ in 0..n {
                        let key = lh.len() as u32;
                        lh.push(l.schedule_at(at, key));
                        r.schedule_at(at, key);
                    }
                }
                Op::Cancel(k) | Op::DoubleCancel(k) | Op::Reschedule(k, _) if lh.is_empty() => {
                    let _ = k; // nothing issued yet; skip
                }
                Op::Cancel(k) => {
                    let ix = k % lh.len();
                    prop_assert_eq!(l.cancel(lh[ix]), r.cancel(ix as u32));
                }
                Op::DoubleCancel(k) => {
                    let ix = k % lh.len();
                    for _ in 0..2 {
                        prop_assert_eq!(l.cancel(lh[ix]), r.cancel(ix as u32));
                    }
                    // The second attempt must have been a no-op `false`.
                    prop_assert!(!l.cancel(lh[ix]));
                }
                Op::Reschedule(k, dt) => {
                    let ix = k % lh.len();
                    let at = r.now + SimDuration::from_micros(dt);
                    prop_assert_eq!(l.reschedule(lh[ix], at), r.reschedule(ix as u32, at));
                }
                Op::Pop => {
                    prop_assert_eq!(l.pop(), r.pop());
                }
                Op::PopUntil(dt) => {
                    let horizon = r.now + SimDuration::from_micros(dt);
                    let want = match r.peek_time() {
                        Some(t) if t <= horizon => r.pop(),
                        _ => None,
                    };
                    prop_assert_eq!(l.pop_until(horizon), want);
                }
                Op::Drain(dt) => {
                    let horizon = r.now + SimDuration::from_micros(dt);
                    let mut want = Vec::new();
                    loop {
                        match r.peek_time() {
                            Some(t) if t <= horizon => want.push(r.pop().unwrap()),
                            _ => break,
                        }
                    }
                    let mut got = Vec::new();
                    l.drain_until(horizon, &mut got);
                    prop_assert_eq!(&got, &want);
                }
                Op::Peek => {
                    prop_assert_eq!(l.peek_time(), r.peek_time());
                }
            }
            prop_assert_eq!(l.len(), r.len());
            prop_assert_eq!(l.is_empty(), r.len() == 0);
            prop_assert_eq!(l.now(), r.now);
            if step % 16 == 0 {
                l.check_invariants();
            }
        }
        l.check_invariants();
        // Drain both: the tails must agree event for event.
        loop {
            let want = r.pop();
            prop_assert_eq!(l.pop(), want);
            if want.is_none() {
                break;
            }
        }
        l.check_invariants();
    }

    /// Cancelling a popped event returns `false` and never resurrects it.
    #[test]
    fn cancel_of_popped_is_inert(times in proptest::collection::vec(0u64..1_000, 1..60)) {
        let mut l: LadderQueue<usize> = LadderQueue::new();
        let mut r = RefQueue::new();
        let mut lh = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            lh.push(l.schedule_at(SimTime::from_micros(t), i));
            r.schedule_at(SimTime::from_micros(t), i as u32);
        }
        while let Some((t, key)) = r.pop() {
            prop_assert_eq!(l.pop(), Some((t, key as usize)));
        }
        prop_assert_eq!(l.pop(), None);
        // Every handle's event has fired; all must refuse cancel and
        // reschedule alike.
        let far = SimTime::from_secs(1_000_000);
        for h in &lh {
            prop_assert!(!l.cancel(*h), "cancel of popped event returned true");
            prop_assert!(!l.reschedule(*h, far));
        }
        prop_assert!(l.is_empty());
        l.check_invariants();
    }
}

/// Promotion under heavy ties: buckets holding far more than the ladder's
/// spawn threshold (48) of entries that share one `at`. Refinement cannot
/// split a single instant, so each such bucket is refined down to 1 µs
/// rungs and then promoted whole, and the current bucket's sorted order is
/// all the `(at, seq)` tie order there is. Pops, cancels and reschedules
/// back into the same instant (re-joining the tie group's tail, which
/// walks the sorted current bucket) run in lockstep with the reference.
#[test]
fn oversized_same_instant_buckets_pop_in_seq_order() {
    let mut l: LadderQueue<u32> = LadderQueue::new();
    let mut r = RefQueue::new();
    let mut lh = Vec::new();
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    // Three instants far enough apart to share no bucket of the base rung's
    // refinements, each holding 150-250 entries, scheduled interleaved so
    // every group's seqs are non-contiguous.
    let instants = [1_000u64, 5_000_000, 5_000_001];
    for _ in 0..600 {
        let at = SimTime::from_micros(instants[next(3) as usize]);
        let key = lh.len() as u32;
        lh.push(l.schedule_at(at, key));
        r.schedule_at(at, key);
    }
    l.check_invariants();
    let mut popped = 0;
    while r.len() > 0 {
        match next(8) {
            // Cancel a random issued handle (often one sitting in the
            // current bucket).
            0 => {
                let k = next(lh.len() as u64) as usize;
                assert_eq!(l.cancel(lh[k]), r.cancel(k as u32));
            }
            // Reschedule to the current instant: the entry moves to the
            // back of the tie group in progress.
            1 => {
                let k = next(lh.len() as u64) as usize;
                let at = r.now.max(SimTime::from_micros(instants[0]));
                assert_eq!(l.reschedule(lh[k], at), r.reschedule(k as u32, at));
            }
            // A fresh event at an instant still ahead of (or at) the clock.
            2 => {
                let at = SimTime::from_micros(instants[next(3) as usize]).max(r.now);
                let key = lh.len() as u32;
                lh.push(l.schedule_at(at, key));
                r.schedule_at(at, key);
            }
            _ => {
                assert_eq!(l.pop(), r.pop(), "diverged after {popped} pops");
                popped += 1;
            }
        }
        assert_eq!(l.len(), r.len());
        assert_eq!(l.peek_time(), r.peek_time());
        if popped % 32 == 0 {
            l.check_invariants();
        }
    }
    assert_eq!(l.pop(), None);
    l.check_invariants();
    assert!(popped > 500, "the tie groups were drained by pops");
}

/// Cancel/reschedule storm: 60k events across dense same-timestamp clusters
/// plus far-future outliers, then a storm that cancels a third, reschedules
/// a third (some into the far future, some back near `now`, landing across
/// every rung), and leaves a third — after which the ladder must pop exactly
/// the `(time, seq)`-sorted survivors, its invariants must hold (`len`
/// equals what the areas hold: no corpse leaks), and the whole thing must
/// finish in bounded time (no O(n) scans, no compaction stalls). The
/// reference here is a per-key `(time, seq)` table sorted once at the end —
/// `RefQueue`'s linear scans would take minutes at this size.
#[test]
fn ladder_survives_cancel_reschedule_storm_in_exact_order() {
    const N: usize = 60_000;
    let started = std::time::Instant::now();
    let mut l: LadderQueue<u32> = LadderQueue::new();
    let mut lh = Vec::with_capacity(N);
    // model[i] = Some((time, seq)) while event i is pending.
    let mut model: Vec<Option<(SimTime, u64)>> = Vec::with_capacity(N);
    let mut next_seq = 0u64;
    let mut fresh_seq = || {
        next_seq += 1;
        next_seq - 1
    };
    for i in 0..N {
        // Dense clusters of 16 same-instant events, with every 97th event a
        // far-future outlier (top rungs / overflow territory).
        let t = if i % 97 == 0 {
            SimTime::from_secs(1_000_000 + i as u64)
        } else {
            SimTime::from_micros((i / 16) as u64)
        };
        lh.push(l.schedule_at(t, i as u32));
        model.push(Some((t, fresh_seq())));
    }
    l.check_invariants();
    for i in 0..N {
        match i % 3 {
            0 => {
                assert_eq!(l.cancel(lh[i]), model[i].take().is_some());
            }
            1 => {
                // Alternate between yanking events out to the far future
                // and pulling far-future events back near the clock.
                let at = if i % 2 == 1 {
                    SimTime::from_secs(2_000_000 + i as u64)
                } else {
                    SimTime::from_micros((i / 8) as u64)
                };
                assert_eq!(l.reschedule(lh[i], at), model[i].is_some());
                if model[i].is_some() {
                    model[i] = Some((at, fresh_seq()));
                }
            }
            _ => {}
        }
    }
    l.check_invariants();
    // Double-storm: cancel half of what was just rescheduled.
    for i in (1..N).step_by(6) {
        assert_eq!(l.cancel(lh[i]), model[i].take().is_some());
    }
    let mut want: Vec<(SimTime, u64, u32)> = model
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|(t, seq)| (t, seq, i as u32)))
        .collect();
    want.sort();
    assert_eq!(l.len(), want.len());
    for (drained, &(t, _, key)) in want.iter().enumerate() {
        assert_eq!(
            l.pop(),
            Some((t, key)),
            "pop stream diverged after {drained} events"
        );
        if drained.is_multiple_of(8192) {
            l.check_invariants();
        }
    }
    assert_eq!(l.pop(), None);
    l.check_invariants();
    assert!(l.is_empty());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "cancel/reschedule storm stalled: took {:?}",
        started.elapsed()
    );
}

/// Burst, then churn: a same-instant burst of 10 000 events drained in
/// seq order, then steady churn at a few hundred pending in lockstep with
/// the reference and with a twin queue that never saw the burst. The
/// burst's buckets grow to its size; once it is gone the queue must not
/// keep that capacity. `check_invariants` holds every empty bucket to the
/// recycling cap, and after the churn the queue retains exactly what its
/// twin does: the burst leaves no trace. A queue that recycles every
/// emptied bucket at its full size keeps room for the burst for good and
/// fails both.
#[test]
fn burst_capacity_is_not_kept_through_later_churn() {
    const BURST: u32 = 10_000;
    const PENDING: u32 = 300;
    let burst_at = SimTime::from_micros(1_000);
    let mut l: LadderQueue<u32> = LadderQueue::new();
    for key in 0..BURST {
        l.schedule_at(burst_at, key);
    }
    l.check_invariants();
    assert!(l.health().retained_capacity >= BURST as usize);
    for key in 0..BURST {
        assert_eq!(l.pop(), Some((burst_at, key)), "burst popped out of order");
        if key % 1_024 == 0 {
            l.check_invariants();
        }
    }
    assert!(l.is_empty());
    l.check_invariants();
    // The twin's clock reaches the same instant through a single event.
    let mut twin: LadderQueue<u32> = LadderQueue::new();
    twin.schedule_at(burst_at, 0);
    twin.pop();

    let mut r = RefQueue::new();
    r.now = burst_at;
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let mut key = 0;
    let mut schedule = |qs: [&mut LadderQueue<u32>; 2], r: &mut RefQueue, dt: u64| {
        let at = r.now + SimDuration::from_micros(dt);
        for q in qs {
            q.schedule_at(at, key);
        }
        r.schedule_at(at, key);
        key += 1;
    };
    for _ in 0..PENDING {
        let dt = next(20_000);
        schedule([&mut l, &mut twin], &mut r, dt);
    }
    for step in 0..50_000u32 {
        let want = r.pop();
        assert_eq!(l.pop(), want, "diverged at churn step {step}");
        assert_eq!(twin.pop(), want, "twin diverged at churn step {step}");
        // Mostly near-term replacements, one in sixteen a minute out.
        let dt = match next(16) {
            0 => 60_000_000 + next(1_000_000),
            _ => next(20_000),
        };
        schedule([&mut l, &mut twin], &mut r, dt);
        if step % 64 == 0 {
            l.check_invariants();
        }
    }
    l.check_invariants();
    let (after, never) = (l.health(), twin.health());
    assert_eq!(after.depth, PENDING as usize);
    assert_eq!(
        after.retained_capacity, never.retained_capacity,
        "after the churn the queue that saw the burst retains {} entries, its twin {}",
        after.retained_capacity, never.retained_capacity
    );
}
