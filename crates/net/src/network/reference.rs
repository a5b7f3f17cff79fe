//! The reference rate engine the incremental one is held to: every
//! recompute settles every link and re-runs weighted max-min over every
//! active flow with fresh buffers, and none is ever skipped. It exists for
//! the equivalence suites below and the allocator tests of
//! [`crate::sharing`] — a network built by [`Network::reference`] is routed
//! here by `Network::recompute_or_skip`, and only `cargo test` builds this
//! module.

use super::{NetEvent, Network};
use crate::flow_table::Phase;
use crate::model::StreamModel;
use crate::topology::{LinkId, Topology};
use pwm_sim::{SimDuration, SimTime};

/// A flow's demand as seen by [`max_min_rates`].
#[derive(Debug, Clone)]
pub(crate) struct FlowDemand {
    /// Fair-share weight (parallel streams).
    pub(crate) weight: f64,
    /// Upper bound on the flow's rate (bytes/sec).
    pub(crate) cap: f64,
    /// Indices into the `capacities` slice of the links this flow crosses.
    pub(crate) links: Vec<usize>,
}

/// Weighted max-min rates by naive progressive filling: every iteration
/// rebuilds the per-link weights from scratch and rescans every flow.
///
/// `capacities[l]` is the effective capacity of link `l` in bytes/sec.
/// Returns one rate per flow, in input order. Flows with zero weight or an
/// empty link list receive their cap directly (they consume no shared
/// resource in this model).
pub(crate) fn max_min_rates(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    const EPS: f64 = 1e-9;
    let mut rates = vec![0.0f64; flows.len()];
    let mut fixed = vec![false; flows.len()];
    let mut residual: Vec<f64> = capacities.to_vec();

    // Flows that use no links are bounded only by their cap.
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() || f.weight <= 0.0 {
            rates[i] = f.cap.max(0.0);
            fixed[i] = true;
        }
    }

    loop {
        // Residual weight per link over unfixed flows.
        let mut link_weight = vec![0.0f64; capacities.len()];
        let mut any_unfixed = false;
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            any_unfixed = true;
            for &l in &f.links {
                link_weight[l] += f.weight;
            }
        }
        if !any_unfixed {
            break;
        }

        // The binding constraint: the smallest per-weight share offered by
        // any loaded link, or the smallest per-weight cap of any unfixed flow.
        let mut limit = f64::INFINITY;
        let mut limit_is_link = false;
        let mut limit_link = usize::MAX;
        for (l, &w) in link_weight.iter().enumerate() {
            if w > EPS {
                let share = residual[l].max(0.0) / w;
                if share < limit - EPS {
                    limit = share;
                    limit_is_link = true;
                    limit_link = l;
                }
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            let cap_share = (f.cap - rates[i]).max(0.0) / f.weight;
            if cap_share < limit - EPS {
                limit = cap_share;
                limit_is_link = false;
            }
        }
        if !limit.is_finite() {
            // No loaded links and no finite caps: flows are unconstrained;
            // freeze them at their (infinite) caps — callers always pass
            // finite caps, so treat as done.
            break;
        }

        // Grow every unfixed flow by weight × limit.
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            let inc = f.weight * limit;
            rates[i] += inc;
            for &l in &f.links {
                residual[l] -= inc;
            }
        }

        // Freeze flows that hit the binding constraint.
        let mut froze = false;
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            let at_cap = rates[i] >= f.cap - EPS;
            let on_saturated = limit_is_link && f.links.contains(&limit_link);
            let on_any_saturated = f.links.iter().any(|&l| residual[l] <= EPS);
            if at_cap || on_saturated || on_any_saturated {
                fixed[i] = true;
                froze = true;
            }
        }
        if !froze {
            // Numerical corner: freeze everything touching the tightest link
            // to guarantee progress.
            for (i, f) in flows.iter().enumerate() {
                if !fixed[i] && (f.links.contains(&limit_link) || !limit_is_link) {
                    fixed[i] = true;
                }
            }
        }
    }
    rates
}

impl Network {
    /// A network whose every rate recomputation takes the reference path.
    pub(crate) fn reference(topology: Topology, model: StreamModel, seed: u64) -> Self {
        Network {
            reference: true,
            ..Network::with_seed(topology, model, seed)
        }
    }

    /// Write-back for the reference path: rates land unconditionally, but
    /// the ETA event and lazy-integration anchor are only disturbed when the
    /// rate's bits actually changed.
    fn write_rate_full(&mut self, slot: u32, now: SimTime, new_rate: f64) {
        let si = slot as usize;
        if new_rate != self.flows.hot[si].rate {
            let rem = self.remaining_at(si, now);
            let row = &mut self.flows.hot[si];
            row.remaining = rem;
            row.rate_since = now;
            row.rate = new_rate;
            if new_rate > 0.0 {
                let eta = now + SimDuration::from_secs_f64(rem / new_rate);
                // Re-key the pending completion in place when one exists;
                // a fresh event is only needed after a zero-rate stall.
                match row.eta() {
                    Some(h) if self.sched.reschedule(h, eta) => {}
                    _ => {
                        let h = self.sched.schedule_at(eta, NetEvent::complete(slot));
                        self.flows.hot[si].set_eta(Some(h));
                    }
                }
            } else if let Some(h) = row.take_eta() {
                self.sched.cancel(h);
            }
        }
    }

    /// The reference recompute: every flow, every link, fresh buffers on
    /// each call.
    pub(super) fn recompute_rates_full(&mut self) {
        let now = self.now;
        self.stats.recomputes += 1;
        // Fault multipliers first: the state loop below borrows the link
        // rows mutably, and faults depend only on the plan and the clock.
        let fault_factors: Vec<f64> = (0..self.links.len())
            .map(|idx| self.fault_capacity_factor(LinkId(idx as u32), now))
            .collect();
        // Effective capacity per link under current occupancy/turbulence.
        let mut capacities = Vec::with_capacity(self.links.len());
        let model = &self.model;
        for (idx, lh) in self.links.iter_mut().enumerate() {
            lh.state.settle(model, now);
            let factor = model.capacity_factor(lh.state.streams as f64, lh.state.turbulence);
            capacities.push(lh.base_capacity * factor * fault_factors[idx]);
        }
        self.prune_turbulent();

        // Full pass consumes all accumulated dirt.
        for i in 0..self.dirty_links.len() {
            let ix = self.dirty_links[i];
            self.links[ix].dirty = false;
        }
        self.dirty_links.clear();

        // Retire finished ramps so `next_wakeup`'s refresh signal converges
        // on the reference path too.
        let (model, hot) = (&self.model, &self.flows.hot);
        self.ramping
            .retain(|&(_, slot)| !model.ramp_done(now.since(hot[slot as usize].activated_at)));

        let mut slots: Vec<u32> = Vec::new();
        let mut demands = Vec::new();
        for (_, slot) in self.flows.iter() {
            let si = slot as usize;
            if self.flows.hot[si].phase == Phase::Active {
                let cold = &self.flows.cold[si];
                let rtt = self.topology.route_rtt(cold.spec.src, cold.spec.dst);
                let age = now.since(self.flows.hot[si].activated_at);
                slots.push(slot);
                demands.push(FlowDemand {
                    weight: self.flows.hot[si].weight,
                    cap: self.model.flow_cap(cold.streams(), age, rtt),
                    links: self
                        .routes
                        .links(cold.route)
                        .iter()
                        .map(|&l| l as usize)
                        .collect(),
                });
            }
        }
        if slots.is_empty() {
            return;
        }
        self.stats.component_runs += 1;
        self.stats.flows_allocated += slots.len() as u64;
        self.stats.links_allocated += capacities.len() as u64;
        let rates = max_min_rates(&capacities, &demands);
        for (i, &slot) in slots.iter().enumerate() {
            self.write_rate_full(slot, now, rates[i]);
        }
        // Keep the running totals coherent on this path too, so timelines
        // and gauges read from one source of truth.
        self.link_throughput.fill(0.0);
        for (d, r) in demands.iter().zip(rates.iter()) {
            for &ix in &d.links {
                self.link_throughput[ix] += *r;
            }
        }
        // Refresh per-link gauges with the fresh allocation.
        if let Some(o) = &self.obs {
            for (ix, (streams_gauge, throughput_gauge)) in o.link_gauges.iter().enumerate() {
                streams_gauge.set(f64::from(self.links[ix].state.streams));
                throughput_gauge.set(self.link_throughput[ix]);
            }
        }
        // Feed watched timelines with the fresh rates.
        self.record_timelines();
    }
}

/// The incremental engine against the reference, end to end, and the skip
/// rule it rests on: a full [`Network`] driven through churn produces the
/// same transfers on either path, the incremental engine does less
/// allocator work and writes (almost) no rate that did not move, and a
/// driver that asks for the same instant twice gets the first answer (and
/// pays for one). The allocator-level proptest (`crate::sharing`) already
/// shows the scratch-buffer progressive filling matches [`max_min_rates`]
/// within 1e-6 relative on random topologies.
mod tests {
    use super::*;
    use crate::{
        AllocStats, FlowId, FlowSpec, HostId, LinkFault, LinkFaultKind, TransferRecord,
        UtilizationSample,
    };
    use proptest::prelude::*;

    /// An incremental network, or the reference when `reference` is set.
    fn network(topology: Topology, model: StreamModel, seed: u64, reference: bool) -> Network {
        if reference {
            Network::reference(topology, model, seed)
        } else {
            Network::with_seed(topology, model, seed)
        }
    }

    /// A small multi-cluster topology: three disjoint host pairs with their
    /// own WAN links plus one pair sharing the first cluster's destination,
    /// so the flow↔link graph has both isolated components and a shared
    /// one. Returns the topology, the pairs, and each pair's WAN link in
    /// pair order.
    fn test_topology() -> (Topology, Vec<(HostId, HostId)>, Vec<LinkId>) {
        let mut t = Topology::new();
        let mut pairs = Vec::new();
        let mut wans = Vec::new();
        for i in 0..3 {
            let src = t.add_host(format!("src{i}"), 50.0e6 + i as f64 * 10.0e6);
            let dst = t.add_host(format!("dst{i}"), 40.0e6);
            let wan = t.add_link(
                format!("wan{i}"),
                3.0e6 + i as f64 * 2.0e6,
                SimDuration::from_millis(20 + i as u64 * 10),
            );
            t.set_route(src, dst, vec![wan]);
            pairs.push((src, dst));
            wans.push(wan);
        }
        // A fourth source funnels into dst0, entangling it with cluster 0.
        let extra = t.add_host("extra", 60.0e6);
        let dst0 = pairs[0].1;
        let wan = t.add_link("wan-extra", 4.0e6, SimDuration::from_millis(15));
        t.set_route(extra, dst0, vec![wan]);
        pairs.push((extra, dst0));
        wans.push(wan);
        (t, pairs, wans)
    }

    /// What one churn run did: every completed transfer as `(tag,
    /// completed_at, bytes)` sorted by tag, the number of `advance` calls,
    /// and the allocator's counters.
    struct Churn {
        done: Vec<(u64, SimTime, f64)>,
        events: u64,
        stats: AllocStats,
    }

    /// Drive a churn workload under `model` over the first `clusters` pairs
    /// of [`test_topology`], `per_cluster` flows each at the start — every
    /// completion replaced until 120 flows have been started, then drain.
    fn run_workload(
        model: StreamModel,
        reference: bool,
        clusters: usize,
        per_cluster: usize,
    ) -> Churn {
        let (topo, pairs, _) = test_topology();
        let mut net = network(topo, model, 99, reference);
        let total = 120u64;
        let mut next_tag = 0u64;
        let start = |net: &mut Network, cluster: usize, tag: u64| {
            let (src, dst) = pairs[cluster];
            net.start_flow(
                net.now(),
                FlowSpec {
                    src,
                    dst,
                    bytes: 8.0e6 + (tag % 7) as f64 * 3.0e6,
                    streams: 1 + (tag % 6) as u32,
                    tag: tag * 8 + cluster as u64,
                },
            );
        };
        for cluster in 0..clusters {
            for _ in 0..per_cluster {
                start(&mut net, cluster, next_tag);
                next_tag += 1;
            }
        }
        let mut done = Vec::new();
        let mut events = 0u64;
        for _ in 0..100_000 {
            let Some(t) = net.next_wakeup() else { break };
            net.advance(t);
            events += 1;
            for r in net.take_completed() {
                let cluster = (r.tag % 8) as usize;
                done.push((r.tag, r.completed_at, r.bytes));
                if next_tag < total {
                    start(&mut net, cluster, next_tag);
                    next_tag += 1;
                }
            }
            if net.live_flow_count() == 0 {
                break;
            }
        }
        assert_eq!(done.len() as u64, total, "workload must drain completely");
        done.sort_by_key(|(tag, _, _)| *tag);
        Churn {
            done,
            events,
            stats: net.alloc_stats(),
        }
    }

    /// The incremental engine and the reference agree on *what* completes
    /// and *when*. Completion times are compared at 0.1% relative: beyond
    /// float-summation noise, the incremental engine deliberately stops
    /// chasing the slow-start exponential tail once a flow is `ramp_done`
    /// (caps freeze at ≥ 99.3% of asymptote instead of being re-evaluated
    /// forever), which shifts completion times by a few parts in 1e5.
    ///
    /// Weight jitter is disabled so the per-flow RNG draw order (which can
    /// legitimately differ between the paths when near-simultaneous
    /// completions swap) cannot alter flow weights; everything else is the
    /// default model, turbulence included.
    #[test]
    fn incremental_matches_full_recompute_end_to_end() {
        let model = StreamModel {
            flow_weight_jitter: 0.0,
            ..StreamModel::default()
        };
        let incremental = run_workload(model.clone(), false, 4, 5).done;
        let full = run_workload(model, true, 4, 5).done;
        assert_eq!(
            incremental.len(),
            full.len(),
            "the paths completed different transfer counts"
        );
        for ((tag_i, at_i, bytes_i), (tag_f, at_f, bytes_f)) in incremental.iter().zip(&full) {
            assert_eq!(tag_i, tag_f, "completion order diverged");
            assert_eq!(bytes_i, bytes_f);
            let a = at_i.as_secs_f64();
            let b = at_f.as_secs_f64();
            assert!(
                (a - b).abs() <= 1e-3 * b.max(1.0),
                "flow {tag_i} completed at {a} (incremental) vs {b} (full)"
            );
        }
    }

    /// Under the default model (turbulence and slow-start on, what the
    /// figures run) the incremental engine re-writes at most about one
    /// unmoved rate per event: a ramping flow's rising cap marks its links
    /// dirty only while that cap binds. Without that gate every event
    /// re-allocates every ramping flow's component (~40 unchanged writes per
    /// event on this run). The whole-stack benchmark applies the same
    /// predicate to `netsim_turbulent`.
    ///
    /// The predicate is about crowded, link-limited clusters: ten flows on
    /// each of the three disjoint pairs. The entangled fourth pair, and
    /// clusters thin enough that a flow's own cap binds, legitimately re-run
    /// a component in which some rates stand still.
    #[test]
    fn turbulent_churn_suppresses_unchanged_writes() {
        let churn = run_workload(StreamModel::default(), false, 3, 10);
        assert!(churn.events > 0 && churn.stats.flows_allocated > 0);
        assert!(
            churn.stats.unchanged_writes <= churn.events + 32,
            "{} unchanged rate writes over {} events ({} flow slots allocated)",
            churn.stats.unchanged_writes,
            churn.events,
            churn.stats.flows_allocated,
        );
    }

    /// The incremental engine does strictly less allocation work than the
    /// reference on the same workload — the allocator's own counters must
    /// show it, not just wall-clock.
    #[test]
    fn incremental_allocates_fewer_flow_slots() {
        let run_stats = |full: bool| {
            let (topo, pairs, _) = test_topology();
            // Clean model: no turbulence or slow-start, so the only dirty
            // links are the ones membership actually changed and disjoint
            // clusters stay out of each other's components.
            let model = StreamModel {
                turbulence_per_event: 0.0,
                flow_weight_jitter: 0.0,
                ramp_tau: SimDuration::ZERO,
                ..StreamModel::default()
            };
            let mut net = network(topo, model, 7, full);
            for (cluster, &(src, dst)) in pairs.iter().enumerate() {
                for j in 0..4u64 {
                    net.start_flow(
                        net.now(),
                        FlowSpec {
                            src,
                            dst,
                            bytes: 5.0e6,
                            streams: 2 + j as u32,
                            tag: cluster as u64,
                        },
                    );
                }
            }
            net.run_to_completion(SimTime::from_secs(4000));
            assert_eq!(net.live_flow_count(), 0, "workload must drain");
            net.alloc_stats()
        };
        let inc = run_stats(false);
        let full = run_stats(true);
        assert!(
            inc.flows_allocated < full.flows_allocated,
            "incremental allocated {} flow-slots, full {}",
            inc.flows_allocated,
            full.flows_allocated
        );
        assert!(inc.skipped > 0, "no recompute was ever skipped");
    }

    /// A scripted run over [`test_topology`] under the default
    /// `StreamModel`: flows join at fixed instants (so both paths draw
    /// weight jitter in one order), one host is killed, one link fault is
    /// injected while flows are moving, and the first WAN link is watched.
    #[derive(Debug, Clone)]
    struct Script {
        /// `(at ms, pair, bytes, streams)`.
        starts: Vec<(u64, usize, f64, u32)>,
        /// `(at ms, pair)`: every flow touching the pair's source host dies.
        kill: (u64, usize),
        /// `(injected at ms, opens after ms, lasts ms, pair, degrade factor
        /// or down)`.
        fault: (u64, u64, u64, usize, Option<f64>),
        /// Extra `advance(t)` calls after each `advance(t)` of the repeating
        /// driver, cycled.
        repeats: Vec<usize>,
    }

    fn arb_script() -> impl Strategy<Value = Script> {
        (
            proptest::collection::vec((0u64..60_000, 0usize..4, 2.0e6..40.0e6, 1u32..9), 4..28),
            (5_000u64..50_000, 0usize..4),
            (
                1_000u64..40_000,
                1u64..8_000,
                500u64..20_000,
                0usize..4,
                proptest::option::of(0.1f64..0.9),
            ),
            proptest::collection::vec(1usize..4, 1..8),
        )
            .prop_map(|(starts, kill, fault, repeats)| Script {
                starts,
                kill,
                fault,
                repeats,
            })
    }

    /// Everything a driver can observe of one scripted run.
    #[derive(Debug, PartialEq)]
    struct Observed {
        completed: Vec<TransferRecord>,
        /// `(flow, tag, bytes remaining)` of every flow the kill severed.
        killed: Vec<(FlowId, u64, f64)>,
        steps: Vec<Step>,
        timeline: Vec<UtilizationSample>,
    }

    /// One driver step: the instant, the next wake-up, every active flow's
    /// rate and ETA anchor, every link's throughput.
    #[derive(Debug, PartialEq)]
    struct Step {
        at: SimTime,
        next_wakeup: Option<SimTime>,
        flows: Vec<(FlowId, f64, f64, SimTime)>,
        links: Vec<f64>,
    }

    fn drive(
        script: &Script,
        model: StreamModel,
        reference: bool,
        repeat: bool,
    ) -> (Observed, AllocStats) {
        enum Action {
            Start(usize),
            Kill,
            InjectFault,
        }
        let (topo, pairs, wans) = test_topology();
        let mut net = network(topo, model, 99, reference);
        net.watch_link(wans[0]);
        let mut actions: Vec<(SimTime, Action)> = (0..script.starts.len())
            .map(|i| (SimTime::from_millis(script.starts[i].0), Action::Start(i)))
            .collect();
        actions.push((SimTime::from_millis(script.kill.0), Action::Kill));
        actions.push((SimTime::from_millis(script.fault.0), Action::InjectFault));
        actions.sort_by_key(|a| a.0); // stable: same-instant actions keep script order
        let mut actions = actions.into_iter().peekable();

        let mut seen = Observed {
            completed: Vec::new(),
            killed: Vec::new(),
            steps: Vec::new(),
            timeline: Vec::new(),
        };
        for step in 0..200_000 {
            let due = actions.peek().map(|a| a.0);
            let Some(t) = [due, net.next_wakeup()].into_iter().flatten().min() else {
                break;
            };
            net.advance(t);
            if repeat {
                for _ in 0..script.repeats[step % script.repeats.len()] {
                    net.advance(t);
                }
            }
            while let Some((_, action)) = actions.next_if(|a| a.0 <= t) {
                match action {
                    Action::Start(i) => {
                        let (_, pair, bytes, streams) = script.starts[i];
                        let (src, dst) = pairs[pair];
                        net.start_flow(
                            t,
                            FlowSpec {
                                src,
                                dst,
                                bytes,
                                streams,
                                tag: i as u64,
                            },
                        );
                    }
                    Action::Kill => {
                        let victims = net.kill_flows_touching(t, pairs[script.kill.1].0);
                        seen.killed
                            .extend(victims.iter().map(|k| (k.flow, k.tag, k.bytes_remaining)));
                    }
                    Action::InjectFault => {
                        let (_, after, lasts, pair, degrade) = script.fault;
                        net.inject_link_fault(
                            t + SimDuration::from_millis(after),
                            SimDuration::from_millis(lasts),
                            LinkFault {
                                link: wans[pair],
                                kind: degrade.map_or(LinkFaultKind::Down, LinkFaultKind::Degrade),
                            },
                        );
                    }
                }
            }
            seen.completed.extend(net.take_completed());
            seen.steps.push(Step {
                at: t,
                next_wakeup: net.next_wakeup(),
                flows: net.flow_rates(),
                links: net.link_throughputs(),
            });
        }
        assert_eq!(net.live_flow_count(), 0, "script must drain");
        seen.timeline = net.timeline(wans[0]).expect("watched").samples().to_vec();
        (seen, net.alloc_stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: option_env!("PWM_PROPTEST_CASES")
                .and_then(|s| s.parse().ok())
                .unwrap_or(48),
        })]

        /// Asking twice changes nothing. Driver B repeats every `advance(t)`
        /// one to three more times at the same `t`; driver A does not.
        /// Whatever either can observe is equal bit for bit, B ran no
        /// recompute A did not — and the same holds on the reference path,
        /// which never skips: there the repeated recomputes do run, and still
        /// move nothing. That is the property the skip rule in
        /// `recompute_or_skip` rests on. The two paths themselves agree as
        /// closely as they ever did.
        #[test]
        fn repeating_an_advance_at_one_instant_changes_nothing(script in arb_script()) {
            let default = StreamModel::default;
            let (once, once_stats) = drive(&script, default(), false, false);
            let (again, again_stats) = drive(&script, default(), false, true);
            prop_assert_eq!(&once, &again);
            prop_assert_eq!(once_stats.recomputes, again_stats.recomputes);
            prop_assert!(again_stats.skipped > once_stats.skipped);

            let (reference, _) = drive(&script, default(), true, false);
            let (reference_again, _) = drive(&script, default(), true, true);
            prop_assert_eq!(&reference, &reference_again);

            // Incremental against the never-skipping reference: every flow
            // meets the same fate at the same time within 1 %. Equality is
            // not on offer: by design the incremental engine re-evaluates a
            // slow-start cap only while it binds, and these flows are short
            // enough to live mostly in slow start (worst seen over 10 000
            // scripts: 0.54 %; the longer flows of
            // `incremental_matches_full_recompute_end_to_end` agree at
            // 0.1 %). Weight jitter is off for this leg as it is there: with
            // it a swapped pair of near-simultaneous completions reorders the
            // RNG draws (1.6 % seen). A flow of the killed host may drain on
            // one path and die on the other only in a photo finish.
            const TOL: f64 = 1e-2;
            let model = StreamModel {
                flow_weight_jitter: 0.0,
                ..default()
            };
            let (inc, _) = drive(&script, model.clone(), false, false);
            let (full, _) = drive(&script, model, true, false);
            let kill_at = script.kill.0 as f64 / 1e3;
            let close = |a: f64, b: f64| (a - b).abs() <= TOL * b.max(1.0);
            let (inc, full) = (fates(&inc), fates(&full));
            prop_assert_eq!(inc.keys().collect::<Vec<_>>(), full.keys().collect::<Vec<_>>());
            for (tag, fate) in &inc {
                let dust = TOL * script.starts[*tag as usize].2;
                let same = match (*fate, full[tag]) {
                    (Fate::Done(a), Fate::Done(b)) => close(a, b),
                    (Fate::Killed(a), Fate::Killed(b)) => (a - b).abs() <= dust,
                    (Fate::Done(at), Fate::Killed(left)) | (Fate::Killed(left), Fate::Done(at)) => {
                        close(at, kill_at) && left <= dust
                    }
                };
                prop_assert!(same, "flow {}: {:?} incremental, {:?} full", tag, fate, full[tag]);
            }
        }
    }

    /// How a scripted flow ended: completed at (s), or killed with bytes left.
    #[derive(Debug, Clone, Copy)]
    enum Fate {
        Done(f64),
        Killed(f64),
    }

    fn fates(seen: &Observed) -> std::collections::BTreeMap<u64, Fate> {
        let done = seen
            .completed
            .iter()
            .map(|r| (r.tag, Fate::Done(r.completed_at.as_secs_f64())));
        let killed = seen.killed.iter().map(|k| (k.1, Fate::Killed(k.2)));
        done.chain(killed).collect()
    }

    /// What invalidates the last answer at an unchanged instant: a
    /// fault-plan edit and a newly watched link (membership changes and
    /// kills dirty links themselves, which the proptest above exercises).
    #[test]
    fn a_stale_answer_is_never_reused() {
        let (topo, pairs, wans) = test_topology();
        let mut net = Network::with_seed(topo, StreamModel::default(), 3);
        let (src, dst) = pairs[1];
        net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src,
                dst,
                bytes: 500.0e6,
                streams: 4,
                tag: 0,
            },
        );
        let t = SimTime::from_secs(30);
        net.advance(t);
        let moving = net.flow_rates()[0].1;
        assert!(moving > 0.0);

        net.watch_link(wans[1]);
        net.advance(t);
        let samples = net.timeline(wans[1]).expect("watched").samples();
        assert_eq!(
            samples.len(),
            1,
            "the newly watched link is sampled at once"
        );
        assert_eq!((samples[0].at, samples[0].throughput), (t, moving));

        let down = LinkFault {
            link: wans[1],
            kind: LinkFaultKind::Down,
        };
        net.inject_link_fault(t, SimDuration::from_secs(5), down);
        net.advance(t);
        assert_eq!(net.flow_rates()[0].1, 0.0, "the fault applies at once");
    }

    /// The executor's pump pops one event per loop turn and advances the
    /// network every turn, so several turns share an instant (a completion,
    /// its report, the next start). Rates are recomputed where something can
    /// have changed — the clock moved, or a kill changed membership at a
    /// standing clock — never once per turn.
    #[test]
    fn a_driver_pays_one_recompute_per_instant_not_per_call() {
        let (topo, pairs, _) = test_topology();
        let mut net = Network::with_seed(topo, StreamModel::default(), 11);
        let start = |net: &mut Network, at: SimTime, tag: u64| {
            let (src, dst) = pairs[(tag % 3) as usize];
            let spec = FlowSpec {
                src,
                dst,
                bytes: 6.0e6 + (tag % 5) as f64 * 4.0e6,
                streams: 1 + (tag % 4) as u32,
                tag,
            };
            net.start_flow(at, spec);
        };
        let (total, mut started, mut pending) = (90u64, 0u64, 0u64);
        while started < 12 {
            start(&mut net, SimTime::ZERO, started);
            started += 1;
        }
        let (mut calls, mut clock_moves, mut kills) = (0u64, 0u64, 0u64);
        let mut killed_once = false;
        while net.live_flow_count() > 0 || pending > 0 {
            // One queued driver event per turn, at the instant that queued it.
            let t = if pending > 0 {
                net.now()
            } else {
                net.next_wakeup().expect("live flows wake the network")
            };
            clock_moves += u64::from(t > net.now());
            net.advance(t);
            calls += 1;
            if pending > 0 {
                pending -= 1;
                if started < total {
                    start(&mut net, t, started);
                    started += 1;
                }
            }
            // Each completion queues a report turn and a replacement turn.
            pending += 2 * net.take_completed().len() as u64;
            if !killed_once && t >= SimTime::from_secs(40) {
                killed_once = true;
                kills += u64::from(!net.kill_flows_touching(t, pairs[0].0).is_empty());
            }
        }
        let stats = net.alloc_stats();
        assert!(
            calls > clock_moves * 5 / 4,
            "the driver must revisit instants"
        );
        assert!(
            stats.recomputes <= clock_moves + kills,
            "{} recomputes for {clock_moves} instants and {kills} kills ({calls} advance calls)",
            stats.recomputes
        );
    }
}
