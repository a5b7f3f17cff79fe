//! Steady-state churn allocates almost nothing and the event queue keeps
//! what is pending, not its history.
//!
//! The `netsim_churn` shape — 2 500 disjoint host-pair clusters × 2 flows on
//! the clean stream model, every completed transfer replaced by a new one on
//! its pair — driven the way the executor drives a network (`next_wakeup` →
//! `advance` → `drain_completed_into` → `start_flow`) under a counting
//! `#[global_allocator]`. After a warm-up that takes every flow through
//! connection set-up and replaces the first generation, one million events
//! must make fewer than [`ALLOCATION_CEILING`] heap allocations, and the
//! event queue's retained bucket capacity must stay within
//! [`RETAINED_PER_PENDING`] entries per pending event at every sample.
//!
//! Before the queue bounded the capacity it recycles, each of its ~390
//! bucket `Vec`s ratcheted up to the largest bucket it ever held: up to 80
//! entries retained per pending event at this shape.
//!
//! Run with `--nocapture` to read the numbers.

use pwm_net::{FlowSpec, HostId, Network, StreamModel, Topology, TransferRecord};
use pwm_sim::{SimDuration, SimRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocating call (`alloc`, `alloc_zeroed`, `realloc`).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLUSTERS: usize = 2_500;
const FLOWS_PER_CLUSTER: usize = 2;
/// Untimed events before counting starts: connection set-up for every flow
/// and the first generation's completions.
const WARM_UP_EVENTS: u64 = 64 * 1_024;
const COUNTED_EVENTS: u64 = 1_000_000;
/// Queue health is sampled once per this many counted events.
const SAMPLE_EVERY: u64 = 10_000;
/// Measured 3 785, debug and release alike: nearly all the queue re-growing
/// a coarse bucket it freed for holding more than its recycling cap. 830
/// before the cap, when every emptied bucket was recycled at full size.
const ALLOCATION_CEILING: u64 = 20_000;
/// Measured at most 5.03 over the samples; 79.9 before the cap.
const RETAINED_PER_PENDING: usize = 8;

fn clean_model() -> StreamModel {
    StreamModel {
        turbulence_per_event: 0.0,
        flow_weight_jitter: 0.0,
        ramp_tau: SimDuration::ZERO,
        ..StreamModel::default()
    }
}

/// Disjoint host pairs with heterogeneous NIC and WAN capacities.
fn topology() -> (Topology, Vec<(HostId, HostId)>) {
    let mut t = Topology::new();
    let mut pairs = Vec::with_capacity(CLUSTERS);
    for i in 0..CLUSTERS {
        let src = t.add_host(format!("src{i}"), 40.0e6 + (i % 7) as f64 * 15.0e6);
        let dst = t.add_host(format!("dst{i}"), 30.0e6 + (i % 5) as f64 * 20.0e6);
        let wan = t.add_link(
            format!("wan{i}"),
            2.0e6 + (i % 5) as f64 * 1.5e6,
            SimDuration::from_millis(10 + (i as u64 % 4) * 10),
        );
        t.set_route(src, dst, vec![wan]);
        pairs.push((src, dst));
    }
    (t, pairs)
}

fn spec(cluster: usize, (src, dst): (HostId, HostId), rng: &mut SimRng) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        bytes: 20.0e6 + rng.uniform_u64(0, 99) as f64 * 1.0e6,
        streams: 1 + rng.uniform_u64(0, 7) as u32,
        tag: cluster as u64,
    }
}

/// One simulator event, every completion replaced on its pair.
fn step(
    net: &mut Network,
    pairs: &[(HostId, HostId)],
    rng: &mut SimRng,
    done: &mut Vec<TransferRecord>,
) {
    let t = net.next_wakeup().expect("churn never runs dry");
    net.advance(t);
    net.drain_completed_into(done);
    for r in done.drain(..) {
        let cluster = r.tag as usize;
        net.start_flow(net.now(), spec(cluster, pairs[cluster], rng));
    }
}

#[test]
fn steady_churn_allocates_little_and_retains_what_is_pending() {
    let (topo, pairs) = topology();
    let mut net = Network::with_seed(topo, clean_model(), 1);
    let mut rng = SimRng::seed_from_u64(1);
    for (i, &pair) in pairs.iter().enumerate() {
        for _ in 0..FLOWS_PER_CLUSTER {
            net.start_flow(net.now(), spec(i, pair, &mut rng));
        }
    }
    let mut done = Vec::with_capacity(64);
    for _ in 0..WARM_UP_EVENTS {
        step(&mut net, &pairs, &mut rng, &mut done);
    }

    let mut worst_ratio = 0.0f64;
    let mut counted = 0u64;
    for sample in 0..COUNTED_EVENTS / SAMPLE_EVERY {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..SAMPLE_EVERY {
            step(&mut net, &pairs, &mut rng, &mut done);
        }
        counted += ALLOCATIONS.load(Ordering::Relaxed) - before;
        let h = net.queue_health();
        assert!(h.depth > 0, "the churn keeps events pending");
        worst_ratio = worst_ratio.max(h.retained_capacity as f64 / h.depth as f64);
        assert!(
            h.retained_capacity <= RETAINED_PER_PENDING * h.depth,
            "sample {sample}: the queue retains {} entries for {} pending ({:.1}x)",
            h.retained_capacity,
            h.depth,
            h.retained_capacity as f64 / h.depth as f64
        );
    }
    assert_eq!(net.live_flow_count(), CLUSTERS * FLOWS_PER_CLUSTER);
    println!(
        "{COUNTED_EVENTS} events after {WARM_UP_EVENTS} untimed: {counted} allocations \
         (ceiling {ALLOCATION_CEILING}); retained queue capacity at most {worst_ratio:.2}x \
         pending (ceiling {RETAINED_PER_PENDING}x)"
    );
    assert!(
        counted < ALLOCATION_CEILING,
        "{counted} allocations in {COUNTED_EVENTS} steady-state events"
    );
}
