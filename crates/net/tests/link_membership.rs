//! Link membership across the inline limit.
//!
//! A link's row holds its first few member slots inline and spills the whole
//! list to a side table past that, coming back inline only once the list
//! drains to half the inline slots. The property: over random sequences of
//! flow starts (2- and 3-link routes, out-of-order connects, a host whose
//! connection limit queues flows), completions and host kills, every link's
//! membership equals a sorted-`Vec` reference built from the active flows
//! and their routes, and the engine's component BFS from every link collects
//! exactly the reference component. The reference is checked after every
//! step, so a list that spills, un-spills or takes a member in the middle
//! is compared at each crossing.
//!
//! A golden churn case then pins the engine end to end on links that spill:
//! every bit of [`Network::link_throughputs`] and every link's
//! [`Network::peak_streams`] at each step, digested. The digests were
//! printed by the engine whose link rows were two cache lines with ten
//! inline slots, before membership moved to a side table.
//!
//! `PWM_PROPTEST_CASES` raises the property's case count for CI's
//! differential job.

use proptest::prelude::*;
use pwm_net::{FlowId, FlowSpec, HostId, LinkId, Network, StreamModel, Topology};
use pwm_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Sources `0..6`, sinks `6` and `7`; sink 7 takes three connections at a
/// time. Source→sink pairs cross one of two transit links (3-link routes)
/// except those from source 5, which take the plain access-link pair, as
/// does every other pair.
const HOSTS: u32 = 8;

fn topology() -> Topology {
    let mut t = Topology::new();
    let hosts: Vec<HostId> = (0..HOSTS)
        .map(|h| t.add_host(format!("h{h}"), 40.0e6 + 10.0e6 * h as f64))
        .collect();
    let transit = [
        t.add_link("t0", 60.0e6, SimDuration::from_millis(4)),
        t.add_link("t1", 90.0e6, SimDuration::from_millis(9)),
    ];
    for &src in &hosts[..5] {
        for (k, &dst) in hosts[6..].iter().enumerate() {
            t.set_route(src, dst, vec![transit[(src.0 as usize + k) % 2]]);
        }
    }
    t.set_host_connection_limit(hosts[7], 3);
    t
}

/// Connection set-up of one millisecond per stream and nothing else, so
/// flows started together connect (and join their links) out of id order.
fn model() -> StreamModel {
    StreamModel {
        setup_base: SimDuration::ZERO,
        setup_per_stream: SimDuration::from_millis(1),
        setup_rtts: 0.0,
        ..StreamModel::default()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Start a flow; `size` picks 0.2 MB, 20 MB or 10 TB (never finishes).
    Start {
        src: u32,
        dst: u32,
        streams: u32,
        size: u8,
    },
    /// Sever every flow touching a host.
    Kill(u32),
    /// Let the clock run.
    Wait(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..HOSTS, 0..HOSTS, 1u32..8, 0u8..3).prop_map(|(src, dst, streams, size)| {
            Op::Start { src, dst, streams, size }
        }),
        1 => (0..HOSTS).prop_map(Op::Kill),
        2 => (1u64..400).prop_map(Op::Wait),
    ]
}

/// A network under test plus what the reference needs: each flow's route.
struct Harness {
    net: Network,
    routes: BTreeMap<FlowId, Vec<LinkId>>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            net: Network::with_seed(topology(), model(), 23),
            routes: BTreeMap::new(),
        }
    }

    fn apply(&mut self, op: &Op) {
        let now = self.net.now();
        match *op {
            Op::Start {
                src,
                dst,
                streams,
                size,
            } => {
                let (src, dst) = (HostId(src), HostId(dst));
                let bytes = [0.2e6, 20.0e6, 1e13][size as usize];
                let spec = FlowSpec {
                    src,
                    dst,
                    bytes,
                    streams,
                    tag: 0,
                };
                let id = self.net.start_flow(now, spec);
                let mut links = self.net.topology().route(src, dst);
                links.dedup();
                self.routes.insert(id, links);
                self.net.advance(now + SimDuration::from_micros(100));
            }
            Op::Kill(host) => {
                self.net.kill_flows_touching(now, HostId(host));
            }
            Op::Wait(ms) => self.net.advance(now + SimDuration::from_millis(ms)),
        }
    }

    /// Per link, the active flows crossing it, ascending by id.
    fn reference(&self) -> Vec<Vec<FlowId>> {
        let mut members = vec![Vec::new(); self.net.topology().link_count()];
        for (id, _, _, _) in self.net.flow_rates() {
            for l in &self.routes[&id] {
                members[l.0 as usize].push(id);
            }
        }
        members
    }

    /// Compare every link's membership and component with the reference;
    /// returns the membership counts.
    fn check(&mut self) -> Vec<usize> {
        let members = self.reference();
        for (ix, want) in members.iter().enumerate() {
            let link = LinkId(ix as u32);
            assert_eq!(&self.net.link_flows(link), want, "members of link {ix}");
        }
        for ix in 0..members.len() {
            let link = LinkId(ix as u32);
            let (mut flows, mut links) = (BTreeSet::new(), BTreeSet::from([link]));
            let mut stack = vec![link];
            while let Some(l) = stack.pop() {
                for &id in &members[l.0 as usize] {
                    if flows.insert(id) {
                        for &other in &self.routes[&id] {
                            if links.insert(other) {
                                stack.push(other);
                            }
                        }
                    }
                }
            }
            let want = (flows.into_iter().collect(), links.into_iter().collect());
            assert_eq!(
                self.net.link_component(link),
                want,
                "component of link {ix}"
            );
        }
        members.iter().map(Vec::len).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(128),
    })]

    /// Membership and components equal the sorted-`Vec` reference after
    /// every step.
    #[test]
    fn membership_and_components_match_reference(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
            h.check();
        }
        // Drain: everything finite completes; the rest is severed.
        h.apply(&Op::Wait(60_000));
        h.check();
        for host in 0..HOSTS {
            h.apply(&Op::Kill(host));
        }
        let counts = h.check();
        prop_assert!(counts.iter().all(|&n| n == 0));
    }
}

/// A fixed script on sink 6's access link walks every transition of the
/// inline limit (three slots) and is checked after each step: inline growth,
/// the spill at four, spilled removals that stay spilled above one (the
/// hysteresis), a spilled insert, the un-spill at one, and a second spill.
#[test]
fn scripted_walk_crosses_the_inline_limit_both_ways() {
    let mut h = Harness::new();
    let sink = h.net.topology().host(HostId(6)).access_link.0 as usize;
    let start = |src| Op::Start {
        src,
        dst: 6,
        streams: 2,
        size: 2,
    };
    let script = [
        start(0),
        start(1),
        start(2),
        start(3),
        start(4),
        Op::Kill(0),
        Op::Kill(1),
        Op::Kill(2),
        start(0),
        Op::Kill(3),
        Op::Kill(4),
        Op::Kill(0),
        start(1),
        start(2),
        start(3),
        start(4),
        start(5),
    ];
    let mut trajectory = Vec::new();
    for op in &script {
        h.apply(op);
        // Set-up takes 4 ms at two streams: let every start connect.
        h.apply(&Op::Wait(5));
        trajectory.push(h.check()[sink]);
    }
    assert_eq!(
        trajectory,
        [1, 2, 3, 4, 5, 4, 3, 2, 3, 2, 1, 0, 1, 2, 3, 4, 5],
        "the walk must cross the limit at 3/4 both ways and drain to 0"
    );
}

/// xorshift64*: the churn case's own generator, fixed forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// 24 flows over six sources and two sinks (sink 7 limited to three
/// connections), every completion replaced by a flow of the same pair, for
/// `steps` wakeups; digests every link's throughput bits, peak and current
/// streams after each step, and the bytes completed at the end.
fn churn_digest(model: StreamModel, steps: usize) -> (u64, u64) {
    let mut net = Network::with_seed(topology(), model, 5);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let spec = |tag: u64, rng: &mut Rng| FlowSpec {
        src: HostId((tag % 6) as u32),
        dst: HostId(6 + (tag % 2) as u32),
        bytes: 1.0e6 + rng.below(40) as f64 * 1.0e6,
        streams: 1 + rng.below(8) as u32,
        tag,
    };
    for tag in 0..24 {
        net.start_flow(SimTime::ZERO, spec(tag, &mut rng));
    }
    let links: Vec<LinkId> = net.topology().links().map(|(id, _)| id).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut done = Vec::new();
    for _ in 0..steps {
        let t = net.next_wakeup().expect("churn never runs dry");
        net.advance(t);
        net.drain_completed_into(&mut done);
        for r in done.drain(..) {
            net.start_flow(net.now(), spec(r.tag, &mut rng));
        }
        for (&link, tp) in links.iter().zip(net.link_throughputs()) {
            fnv(&mut h, tp.to_bits());
            fnv(&mut h, u64::from(net.peak_streams(link)));
            fnv(&mut h, u64::from(net.current_streams(link)));
        }
    }
    fnv(&mut h, net.total_bytes_completed().to_bits());
    (h, net.total_flows_completed())
}

#[test]
fn spilling_churn_matches_golden() {
    let clean = StreamModel {
        turbulence_per_event: 0.0,
        flow_weight_jitter: 0.0,
        ramp_tau: SimDuration::ZERO,
        ..model()
    };
    let (turbulent, turbulent_done) = churn_digest(model(), 4_000);
    let (calm, calm_done) = churn_digest(clean, 4_000);
    assert_eq!(
        (turbulent, turbulent_done, calm, calm_done),
        GOLDEN,
        "{turbulent:#x} {turbulent_done} {calm:#x} {calm_done}"
    );
}

/// Printed by the engine with two-line link rows and ten inline slots.
const GOLDEN: (u64, u64, u64, u64) = (0xeb81_dea9_e40e_0040, 1673, 0x9674_019d_ff32_d52c, 1672);
