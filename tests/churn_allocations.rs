//! Steady-state simulator churn: the `churn` section of the exact-cost
//! ledger (`ledger/mod.rs`), asserted against the committed
//! `scripts/costs.txt`, and an event queue that keeps what is pending, not
//! its history.

mod ledger;

use ledger::{alloc_stats, counted, Ledger};
use pwm_net::{FlowSpec, HostId, Network, StreamModel, Topology};
use pwm_sim::{SimDuration, SimRng};

/// Pair clusters and flows per cluster.
const CLUSTERS: usize = 2_500;
const FLOWS: usize = 2;
/// Uncounted events first: connection set-up for every flow and the first
/// generation's completions; then counted ones, sampled every 10 000.
const WARM_UP_EVENTS: u64 = 64 * 1_024;
const COUNTED_EVENTS: u64 = 200_000;
/// Retained bucket capacity allowed per pending event at every sample. A
/// queue that recycled every emptied bucket at full size kept ~80.
const RETAINED_PER_PENDING: usize = 8;

fn churn_spec(tag: usize, (src, dst): (HostId, HostId), rng: &mut SimRng) -> FlowSpec {
    let bytes = 20.0e6 + rng.uniform_u64(0, 99) as f64 * 1.0e6;
    let (streams, tag) = (1 + rng.uniform_u64(0, 7) as u32, tag as u64);
    FlowSpec {
        src,
        dst,
        bytes,
        streams,
        tag,
    }
}

/// The `netsim_churn` shape: disjoint host pairs with heterogeneous NIC and
/// WAN capacities on the clean stream model, driven the way the executor
/// drives a network, every completion replaced on its pair.
fn churn() -> Ledger {
    let mut t = Topology::new();
    let pairs: Vec<_> = (0..CLUSTERS)
        .map(|i| {
            let src = t.add_host(format!("src{i}"), 40.0e6 + (i % 7) as f64 * 15.0e6);
            let dst = t.add_host(format!("dst{i}"), 30.0e6 + (i % 5) as f64 * 20.0e6);
            let rtt = SimDuration::from_millis(10 + (i as u64 % 4) * 10);
            let wan = t.add_link(format!("wan{i}"), 2.0e6 + (i % 5) as f64 * 1.5e6, rtt);
            t.set_route(src, dst, vec![wan]);
            (src, dst)
        })
        .collect();
    let clean = StreamModel {
        turbulence_per_event: 0.0,
        flow_weight_jitter: 0.0,
        ramp_tau: SimDuration::ZERO,
        ..StreamModel::default()
    };
    let (mut net, mut rng) = (Network::with_seed(t, clean, 1), SimRng::seed_from_u64(1));
    for (i, &pair) in pairs.iter().enumerate() {
        for _ in 0..FLOWS {
            net.start_flow(net.now(), churn_spec(i, pair, &mut rng));
        }
    }
    let mut done = Vec::with_capacity(64);
    let mut step = |net: &mut Network| {
        net.advance(net.next_wakeup().expect("churn never runs dry"));
        net.drain_completed_into(&mut done);
        for r in done.drain(..) {
            let cluster = r.tag as usize;
            net.start_flow(net.now(), churn_spec(cluster, pairs[cluster], &mut rng));
        }
    };
    (0..WARM_UP_EVENTS).for_each(|_| step(&mut net));
    let (mut allocs, mut worst) = (0, (0, 1));
    for sample in 0..COUNTED_EVENTS / 10_000 {
        allocs += counted(|| (0..10_000).for_each(|_| step(&mut net))).1;
        let h = net.queue_health();
        assert!(h.depth > 0, "the churn keeps events pending");
        let (retained, pending) = (h.retained_capacity, h.depth);
        assert!(
            retained <= RETAINED_PER_PENDING * pending,
            "sample {sample}: the queue retains {retained} entries for {pending} pending"
        );
        if retained * worst.1 > worst.0 * pending {
            worst = (retained, pending);
        }
    }
    assert_eq!(net.live_flow_count(), CLUSTERS * FLOWS);
    let mut l = Ledger("churn", String::new());
    l.row(format_args!("allocs_per_{COUNTED_EVENTS}_events"), allocs);
    l.row("worst_sample.retained_capacity", worst.0);
    l.row("worst_sample.pending", worst.1);
    alloc_stats(&mut l, &net);
    l
}

#[test]
fn steady_churn_allocates_little_and_retains_what_is_pending() {
    ledger::assert_committed(&[churn]);
}
