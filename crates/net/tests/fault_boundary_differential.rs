//! Boundary property: a [`FaultPlan`] window whose boundaries land
//! *exactly on event timestamps* — flow starts, activations, completions —
//! must still let every flow complete, hold work back for the length of an
//! outage, and integrate identically on a repeat run.
//!
//! Exact coincidence is the adversarial case: a fault boundary at the same
//! instant as a queued event exercises the segment-splitting logic in
//! `Network::advance` (boundary vs. event ordering within one instant) and
//! the strictly-in-the-future contract of `next_wakeup`. An engine that
//! lost a wakeup at the boundary would strand a flow; one whose
//! same-instant ordering depended on anything but the schedule would shift
//! which capacity a completing flow last integrated under and change its
//! completion time between runs.
//!
//! The strategy first runs the flow set fault-free to learn the exact event
//! timestamps, then picks a window whose start and end are drawn from that
//! set, and replays twice asserting bit-identical transfer records and
//! final clocks.

use proptest::prelude::*;
use pwm_net::fault::{LinkFault, LinkFaultKind};
use pwm_net::{FlowSpec, Network, StreamModel, Topology, TransferRecord};
use pwm_sim::{FaultPlan, SimDuration, SimTime};

/// One generated transfer: (start, bytes, streams).
#[derive(Debug, Clone)]
struct GenFlow {
    start_us: u64,
    bytes: f64,
    streams: u32,
}

fn flow_strategy() -> impl Strategy<Value = GenFlow> {
    (0u64..2_000_000, 100_000u64..4_000_000, 1u32..4).prop_map(|(start_us, bytes, streams)| {
        GenFlow {
            start_us,
            bytes: bytes as f64,
            streams,
        }
    })
}

/// Two hosts around one 5 MB/s WAN link — slow enough that generated flows
/// overlap and fault windows land mid-transfer.
fn build() -> (Topology, pwm_net::HostId, pwm_net::HostId, pwm_net::LinkId) {
    let mut t = Topology::new();
    let a = t.add_host("src", 10.0e6);
    let b = t.add_host("dst", 10.0e6);
    let wan = t.add_link("wan", 5.0e6, SimDuration::from_millis(10));
    t.set_route(a, b, vec![wan]);
    t.set_route(b, a, vec![wan]);
    (t, a, b, wan)
}

/// Run the flow set to completion with `plan` installed, returning the
/// tag-sorted transfer records and the final clock.
fn drive(flows: &[GenFlow], plan: FaultPlan<LinkFault>) -> (Vec<TransferRecord>, SimTime) {
    let (topo, a, b, _wan) = build();
    let mut net = Network::with_seed(topo, StreamModel::default(), 7);
    net.set_fault_plan(plan);
    let mut starts: Vec<(SimTime, GenFlow, u64)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (SimTime::from_micros(f.start_us), f.clone(), i as u64))
        .collect();
    starts.sort_by_key(|(t, _, tag)| (*t, *tag));
    let mut ix = 0;
    loop {
        let next_start = starts.get(ix).map(|(t, _, _)| *t);
        let t = match (next_start, net.next_wakeup()) {
            (None, None) => break,
            (Some(s), None) => s,
            (None, Some(w)) => w,
            (Some(s), Some(w)) => s.min(w),
        };
        net.advance(t);
        while ix < starts.len() && starts[ix].0 <= t {
            let (_, f, tag) = &starts[ix];
            net.start_flow(
                t,
                FlowSpec {
                    src: a,
                    dst: b,
                    bytes: f.bytes,
                    streams: f.streams,
                    tag: *tag,
                },
            );
            ix += 1;
        }
    }
    let mut recs = net.take_completed();
    recs.sort_by_key(|r| r.tag);
    (recs, net.now())
}

/// Every event timestamp of the fault-free run: starts, activations, and
/// completions, deduplicated and sorted.
fn event_timestamps(flows: &[GenFlow]) -> Vec<SimTime> {
    let (recs, _) = drive(flows, FaultPlan::new());
    let mut ts: Vec<SimTime> = flows
        .iter()
        .map(|f| SimTime::from_micros(f.start_us))
        .chain(recs.iter().flat_map(|r| [r.activated_at, r.completed_at]))
        .collect();
    ts.sort();
    ts.dedup();
    ts
}

fn assert_identical(first: &[TransferRecord], again: &[TransferRecord]) {
    assert_eq!(first.len(), again.len(), "completion counts differ");
    for (a, b) in first.iter().zip(again) {
        assert_eq!(a.tag, b.tag);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.requested_at, b.requested_at, "tag {}", a.tag);
        assert_eq!(a.activated_at, b.activated_at, "tag {}", a.tag);
        assert_eq!(a.completed_at, b.completed_at, "tag {}", a.tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under a window snapped to two exact event timestamps (start
    /// inclusive, end exclusive) every flow completes, nothing completes
    /// inside a full outage, and a repeat run is bit-identical — for both
    /// full outages and degradations.
    #[test]
    fn snapped_fault_window_strands_nothing_and_repeats(
        flows in proptest::collection::vec(flow_strategy(), 2..6),
        start_sel in 0usize..32,
        end_sel in 0usize..32,
        down in any::<bool>(),
    ) {
        let ts = event_timestamps(&flows);
        prop_assert!(ts.len() >= 2, "two flows always produce two timestamps");
        let i = start_sel % (ts.len() - 1);
        let j = i + 1 + (end_sel % (ts.len() - 1 - i));
        let (t0, t1) = (ts[i], ts[j]);
        let kind = if down {
            LinkFaultKind::Down
        } else {
            LinkFaultKind::Degrade(0.4)
        };
        let mk_plan = || {
            let mut plan = FaultPlan::new();
            let (topo, _, _, wan) = build();
            let _ = topo;
            plan.add(t0, t1.since(t0), LinkFault { link: wan, kind });
            plan
        };
        let (first, first_end) = drive(&flows, mk_plan());
        let (again, again_end) = drive(&flows, mk_plan());
        prop_assert_eq!(first.len(), flows.len(), "every flow must complete");
        if down {
            prop_assert!(
                first.iter().all(|r| r.completed_at <= t0 || r.completed_at >= t1),
                "a flow completed inside the outage"
            );
        }
        assert_identical(&first, &again);
        prop_assert_eq!(first_end, again_end);
    }
}

/// Pinned regression: a full outage that begins exactly at one flow's
/// activation instant and ends exactly at the fault-free completion
/// instant of another.
#[test]
fn window_snapped_to_activation_and_completion_delays_work_past_it() {
    let flows = vec![
        GenFlow {
            start_us: 0,
            bytes: 2_000_000.0,
            streams: 2,
        },
        GenFlow {
            start_us: 150_000,
            bytes: 1_000_000.0,
            streams: 1,
        },
    ];
    let ts = event_timestamps(&flows);
    assert!(ts.len() >= 3);
    let (t0, t1) = (ts[1], ts[ts.len() - 1]);
    let mk_plan = || {
        let mut plan = FaultPlan::new();
        let (_, _, _, wan) = build();
        plan.add(
            t0,
            t1.since(t0),
            LinkFault {
                link: wan,
                kind: LinkFaultKind::Down,
            },
        );
        plan
    };
    let (first, first_end) = drive(&flows, mk_plan());
    let (again, again_end) = drive(&flows, mk_plan());
    assert_eq!(first.len(), flows.len());
    assert_identical(&first, &again);
    assert_eq!(first_end, again_end);
    // The outage actually delayed work: completions moved past the window.
    assert!(first.iter().any(|r| r.completed_at >= t1));
}
