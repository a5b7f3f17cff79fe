//! Interned routes are the topology's routes.
//!
//! The engine resolves each host pair's route once into a
//! [`RouteTable`] and every flow keeps a [`pwm_net::Route`] into it. The
//! property: over random topologies, every ordered host pair — `src == dst`,
//! pairs with no explicit route, explicit routes, and routes longer than the
//! six links the old per-flow inline copy held — interns to exactly the
//! links and RTT [`Topology::route`] / [`Topology::route_rtt`] compute,
//! whatever order the pairs are first asked for in, and asking again returns
//! the same route.
//!
//! Two golden cases then pin the engine end to end: a fixed flow schedule
//! on one topology with explicit routes and one without, digested over every
//! bit of [`Network::flow_rates`] at a series of instants. The digests were
//! printed by the engine before it interned routes, when each flow copied
//! its links out of the topology; a mismatch means a rate, a remaining byte
//! count or an ETA anchor moved.
//!
//! `PWM_PROPTEST_CASES` raises the property's case count for CI's
//! differential job.

use proptest::prelude::*;
use pwm_net::{FlowSpec, HostId, LinkId, Network, RouteTable, StreamModel, Topology};
use pwm_sim::{SimDuration, SimTime};

/// A generated topology: host NIC capacities, transit link RTTs (µs), and
/// explicit routes as `(src, dst, middle link picks)`.
#[derive(Debug, Clone)]
struct GenTopo {
    hosts: Vec<u64>,
    transit_rtt_us: Vec<u64>,
    routes: Vec<(usize, usize, Vec<usize>)>,
}

fn topo_strategy() -> impl Strategy<Value = GenTopo> {
    (
        proptest::collection::vec(1_000_000u64..200_000_000, 1..9),
        proptest::collection::vec(1u64..80_000, 0..12),
        proptest::collection::vec(
            (
                0usize..64,
                0usize..64,
                proptest::collection::vec(0usize..64, 0..10),
            ),
            0..24,
        ),
    )
        .prop_map(|(hosts, transit_rtt_us, routes)| GenTopo {
            hosts,
            transit_rtt_us,
            routes,
        })
}

fn build(g: &GenTopo) -> Topology {
    let mut t = Topology::new();
    let hosts: Vec<HostId> = g
        .hosts
        .iter()
        .enumerate()
        .map(|(i, &nic)| t.add_host(format!("h{i}"), nic as f64))
        .collect();
    let transit: Vec<LinkId> = g
        .transit_rtt_us
        .iter()
        .enumerate()
        .map(|(i, &rtt)| t.add_link(format!("t{i}"), 1e7, SimDuration::from_micros(rtt)))
        .collect();
    // Middle links may repeat and may be access links too: the engine
    // treats a route as a plain link list.
    let links = t.link_count();
    for (s, d, picks) in &g.routes {
        let (src, dst) = (hosts[s % hosts.len()], hosts[d % hosts.len()]);
        let middle = picks
            .iter()
            .map(|&p| match transit.len() {
                0 => LinkId((p % links) as u32),
                n => transit[p % n],
            })
            .collect();
        t.set_route(src, dst, middle);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(128),
    })]

    /// Every host pair interns to `Topology::route` / `route_rtt`, in any
    /// first-ask order, and re-asking is stable.
    #[test]
    fn interned_routes_equal_topology_routes(g in topo_strategy(), order_seed in any::<u64>()) {
        let topo = build(&g);
        let n = topo.host_count();
        let mut pairs: Vec<(HostId, HostId)> = (0..n as u32)
            .flat_map(|s| (0..n as u32).map(move |d| (HostId(s), HostId(d))))
            .collect();
        // A seeded shuffle: pairs arrive in an arbitrary order, as flows do.
        let mut x = order_seed | 1;
        for i in (1..pairs.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pairs.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut table = RouteTable::new();
        let mut first = Vec::new();
        let mut longest = 0;
        for &(s, d) in &pairs {
            let route = table.resolve(&topo, s, d);
            let want: Vec<u32> = topo.route(s, d).iter().map(|l| l.0).collect();
            prop_assert_eq!(table.links(route), want.as_slice(), "links {:?}->{:?}", s, d);
            prop_assert_eq!(route.len(), want.len());
            prop_assert_eq!(route.rtt, topo.route_rtt(s, d), "rtt {:?}->{:?}", s, d);
            if s == d {
                prop_assert_eq!(route.len(), 1, "a local copy uses the access link only");
            }
            longest = longest.max(route.len());
            first.push(route);
        }
        for (&(s, d), &route) in pairs.iter().zip(&first) {
            prop_assert_eq!(table.resolve(&topo, s, d), route);
            for k in 0..route.len() {
                prop_assert_eq!(table.link_at(route, k), table.links(route)[k] as usize);
            }
        }
        prop_assert!(longest >= 1);
    }
}

/// The generator reaches every shape the property claims to cover: a
/// loopback, an unrouted pair, an explicit route, and one past six links.
#[test]
fn generator_covers_long_and_unrouted_routes() {
    let g = GenTopo {
        hosts: vec![1e8 as u64, 5e7 as u64, 2e7 as u64],
        transit_rtt_us: vec![10, 20, 30],
        routes: vec![(0, 1, vec![0, 1, 2, 0, 1, 2, 0, 1]), (1, 0, vec![2])],
    };
    let topo = build(&g);
    let mut table = RouteTable::new();
    let (h0, h1, h2) = (HostId(0), HostId(1), HostId(2));
    let long = table.resolve(&topo, h0, h1);
    assert_eq!(long.len(), 10);
    assert_eq!(long.rtt, topo.route_rtt(h0, h1));
    let plain = table.resolve(&topo, h0, h2);
    assert_eq!(
        table.links(plain),
        &[topo.host(h0).access_link.0, topo.host(h2).access_link.0]
    );
    let explicit = table.resolve(&topo, h1, h0);
    assert_eq!(explicit.len(), 3);
    let local = table.resolve(&topo, h2, h2);
    assert_eq!(table.links(local), &[topo.host(h2).access_link.0]);
    // The first-interned route's links are undisturbed by later interning.
    let again: Vec<u32> = topo.route(h0, h1).iter().map(|l| l.0).collect();
    assert_eq!(table.links(long), again.as_slice());
}

/// FNV-1a over 64-bit words.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Drive a fixed schedule of `flows` (`(start ms, src, dst, MB, streams)`)
/// and digest every bit of `flow_rates()` after each of the `checkpoints`
/// (ms) as well as each start, plus the completion records.
fn digest_run(
    topo: Topology,
    flows: &[(u64, u32, u32, u64, u32)],
    checkpoints: &[u64],
) -> (u64, usize) {
    let mut net = Network::with_seed(topo, StreamModel::default(), 41);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut events: Vec<(u64, Option<usize>)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (f.0, Some(i)))
        .chain(checkpoints.iter().map(|&c| (c, None)))
        .collect();
    events.sort();
    let mut samples = 0;
    for (ms, flow) in events {
        let now = SimTime::from_millis(ms);
        net.advance(now);
        if let Some(i) = flow {
            let (_, s, d, mb, streams) = flows[i];
            net.start_flow(
                now,
                FlowSpec {
                    src: HostId(s),
                    dst: HostId(d),
                    bytes: mb as f64 * 1e6,
                    streams,
                    tag: i as u64,
                },
            );
        }
        for (id, rate, remaining, since) in net.flow_rates() {
            fnv(&mut h, id.0);
            fnv(&mut h, rate.to_bits());
            fnv(&mut h, remaining.to_bits());
            fnv(&mut h, since.as_micros());
            samples += 1;
        }
    }
    while let Some(t) = net.next_wakeup() {
        net.advance(t);
    }
    let mut recs = net.take_completed();
    recs.sort_by_key(|r| r.tag);
    for r in &recs {
        fnv(&mut h, r.tag);
        fnv(&mut h, r.activated_at.as_micros());
        fnv(&mut h, r.completed_at.as_micros());
    }
    assert_eq!(recs.len(), flows.len(), "every flow completes");
    (h, samples)
}

/// A schedule over four hosts mixing local copies, both directions of each
/// pair, and several concurrent flows per pair.
const SCHEDULE: &[(u64, u32, u32, u64, u32)] = &[
    (0, 0, 1, 40, 4),
    (0, 1, 0, 25, 2),
    (5, 0, 2, 60, 8),
    (12, 2, 2, 10, 1),
    (20, 3, 1, 30, 3),
    (33, 0, 1, 15, 1),
    (40, 1, 3, 50, 6),
    (41, 2, 0, 20, 2),
    (90, 3, 0, 35, 4),
    (150, 0, 3, 45, 5),
];
/// Every 25 ms for six seconds, past the last completion.
fn checkpoints() -> Vec<u64> {
    (1..240).map(|i| i * 25).collect()
}

fn four_hosts() -> Topology {
    let mut t = Topology::new();
    t.add_host("a", 125.0e6);
    t.add_host("b", 110.0e6);
    t.add_host("c", 60.0e6);
    t.add_host("d", 90.0e6);
    t
}

#[test]
fn flow_rates_match_golden_without_explicit_routes() {
    let (digest, samples) = digest_run(four_hosts(), SCHEDULE, &checkpoints());
    assert_eq!(
        (digest, samples),
        (GOLDEN_PLAIN, GOLDEN_PLAIN_SAMPLES),
        "{digest:#x} {samples}"
    );
}

#[test]
fn flow_rates_match_golden_with_explicit_routes() {
    let mut t = four_hosts();
    let wan = t.add_link("wan", 30.0e6, SimDuration::from_millis(40));
    let lan = t.add_link("lan", 200.0e6, SimDuration::from_micros(300));
    let hop = t.add_link("hop", 80.0e6, SimDuration::from_millis(3));
    t.set_route(HostId(0), HostId(1), vec![wan]);
    t.set_route(HostId(1), HostId(0), vec![wan, lan]);
    t.set_route(HostId(0), HostId(2), vec![lan, hop, wan, hop, lan, hop]);
    t.set_route(HostId(3), HostId(0), vec![hop, wan]);
    let (digest, samples) = digest_run(t, SCHEDULE, &checkpoints());
    assert_eq!(
        (digest, samples),
        (GOLDEN_ROUTED, GOLDEN_ROUTED_SAMPLES),
        "{digest:#x} {samples}"
    );
}

/// Printed by the engine before routes were interned.
const GOLDEN_PLAIN: u64 = 0x035b_612d_41f3_e941;
const GOLDEN_PLAIN_SAMPLES: usize = 591;
const GOLDEN_ROUTED: u64 = 0x4656_3f27_d3b5_7f5e;
const GOLDEN_ROUTED_SAMPLES: usize = 1240;
