//! `netsim_churn`, `netsim_churn_100k` and `netsim_turbulent` — the
//! simulator alone, driven the way the executor drives it (`next_wakeup` →
//! `advance` → `drain_completed_into` → `start_flow`), with every completed
//! transfer replaced so the flow population stays constant. No policy code
//! runs. Every repetition builds the same network from the seed, carries it
//! into steady-state churn with the clock off, and then replays the same
//! events with the clock on.
//!
//! * `netsim_churn` is disjoint host-pair clusters × 2 flows on the clean
//!   stream model: the event queue and the packed flow/link rows do the
//!   work. Its population is sized so the hot rows stay in the core's own
//!   cache; what neighbours on the host do to shared cache and memory then
//!   moves it a third as much as it moves the 100 000-flow shape, which is
//!   what lets the driver hold it to a bound.
//! * `netsim_churn_100k` is the same at the size of `netbench`'s
//!   `clustered-clean-100k` row (50 000 clusters), so its number stays
//!   comparable with the 1 M events/s bar. It is bound by memory latency and
//!   runs in the suite only.
//! * `netsim_turbulent` uses the paper's own default `StreamModel`
//!   (turbulence, weight jitter, slow-start) on 100 clusters × 10 flows:
//!   the allocator does the work and the queue is nearly idle. A queue or
//!   row-layout gain that costs the allocator shows here, and the reverse
//!   on the churn workloads. Suite only.

use crate::env;
use crate::gen::{self, Rng};
use crate::harness::{Check, CpuWindow, EndToEnd, Marks, Outcome, RepLoop, RepTiming, RunArgs};
use crate::stats::median;
use crate::trace::Recorder;
use pwm_net::{AllocStats, HostId, Network, StreamModel, Topology, TransferRecord};
use pwm_sim::{LadderQueue, SimDuration, SimTime};
use std::time::Instant;

/// Simulator events per timed batch: one slice and one latency sample of a
/// repetition is one batch. Sixteen events could be timed without the clock
/// costing a percent, but about one such batch in a hundred holds an event
/// that re-sorts a bucket of the queue and costs three batches' time, so the
/// 99th percentile would sit on that cliff and read 9 us or 17 us from one
/// seed to the next. Of 64-event batches one in twenty holds such an event,
/// and the percentile lies among them. In a traced run the first event of
/// every batch has its calls timed: one event in 64.
pub const BATCH: u64 = 64;
pub struct Shape {
    clusters: usize,
    flows_per_cluster: usize,
    turbulent: bool,
    /// Events every repetition runs untimed after starting its flows: they
    /// take every flow through connection set-up and replace the first
    /// generation, which all started at once, at scattered times (a multiple
    /// of [`BATCH`]).
    settle_events: u64,
    /// Timed events per repetition at full size (a multiple of [`BATCH`]).
    events_per_rep: u64,
}

/// `netsim_churn`.
pub const CHURN: Shape = Shape {
    clusters: 2_500,
    flows_per_cluster: 2,
    turbulent: false,
    settle_events: 512 * BATCH,
    events_per_rep: 8_192 * BATCH,
};
/// `netsim_churn_100k`. Building 100 000 flows costs as much as half a
/// million events, so its repetitions are long and few.
pub const CHURN_100K: Shape = Shape {
    clusters: 50_000,
    flows_per_cluster: 2,
    turbulent: false,
    settle_events: 6_144 * BATCH,
    events_per_rep: 8_192 * BATCH,
};
/// `netsim_turbulent`.
pub const TURBULENT: Shape = Shape {
    clusters: 100,
    flows_per_cluster: 10,
    turbulent: true,
    settle_events: 128 * BATCH,
    events_per_rep: 256 * BATCH,
};

/// Stream model with every background recompute trigger off: only
/// membership changes dirty a link.
fn clean_model() -> StreamModel {
    StreamModel {
        turbulence_per_event: 0.0,
        flow_weight_jitter: 0.0,
        ramp_tau: SimDuration::ZERO,
        ..StreamModel::default()
    }
}

/// Disjoint host pairs with heterogeneous NIC and WAN capacities, so
/// progressive filling sees many distinct bottleneck levels.
fn build_topology(clusters: usize) -> (Topology, Vec<(HostId, HostId)>) {
    let mut t = Topology::new();
    let mut pairs = Vec::with_capacity(clusters);
    for i in 0..clusters {
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

fn minus(after: AllocStats, before: AllocStats) -> AllocStats {
    AllocStats {
        recomputes: after.recomputes - before.recomputes,
        skipped: after.skipped - before.skipped,
        component_runs: after.component_runs - before.component_runs,
        flows_allocated: after.flows_allocated - before.flows_allocated,
        links_allocated: after.links_allocated - before.links_allocated,
        unchanged_writes: after.unchanged_writes - before.unchanged_writes,
    }
}

/// One repetition's results.
struct Rep {
    wall_s: f64,
    events: u64,
    completions: u64,
    /// One slice and one latency sample per batch of [`BATCH`] events.
    timing: RepTiming,
    alloc: AllocStats,
    /// Simulated state at the end: the same in every repetition, traced or
    /// not, of one seed.
    end_state: Vec<(&'static str, f64)>,
}

/// The network of one repetition and what drives it.
struct World {
    net: Network,
    pairs: Vec<(HostId, HostId)>,
    rng: Rng,
    done: Vec<TransferRecord>,
}

impl World {
    /// One simulator event, the way the executor's loop drives the network.
    /// Returns the transfers that completed (and were replaced).
    #[inline]
    fn step(&mut self) -> u64 {
        let t = self.net.next_wakeup().expect("churn never runs dry");
        self.net.advance(t);
        self.net.drain_completed_into(&mut self.done);
        let completions = self.done.len() as u64;
        for r in self.done.drain(..) {
            let (src, dst) = self.pairs[r.tag as usize];
            let spec = gen::flow_spec(r.tag as usize, src, dst, &mut self.rng);
            self.net.start_flow(self.net.now(), spec);
        }
        completions
    }

    /// [`World::step`] with each of its calls timed and recorded. The spans
    /// are written to the recorder after the event, so that inside a timed
    /// call the clock reading is the only thing added.
    fn sampled_step(
        &mut self,
        rec: &mut Recorder,
        rep_span: u32,
        id: u64,
        timed: &mut Vec<(&'static str, u64, u64)>,
    ) -> u64 {
        let start = rec.now_ns();
        let t = self.net.next_wakeup().expect("churn never runs dry");
        let woke = rec.now_ns();
        self.net.advance(t);
        let advanced = rec.now_ns();
        self.net.drain_completed_into(&mut self.done);
        let mut last = rec.now_ns();
        timed.extend([
            ("net.next_wakeup", start, woke),
            ("net.advance", woke, advanced),
            ("net.drain_completed", advanced, last),
        ]);
        let completions = self.done.len() as u64;
        for r in self.done.drain(..) {
            let (src, dst) = self.pairs[r.tag as usize];
            let spec = gen::flow_spec(r.tag as usize, src, dst, &mut self.rng);
            let before = rec.now_ns();
            self.net.start_flow(self.net.now(), spec);
            last = rec.now_ns();
            timed.push(("net.start_flow", before, last));
        }
        let event = rec.push("event", start, last, Some(rep_span), id);
        for (name, from, to) in timed.drain(..) {
            rec.push(name, from, to, Some(event), id);
        }
        completions
    }
}

pub struct Netsim {
    shape: &'static Shape,
    seed: u64,
    clusters: usize,
    events_per_rep: u64,
    /// Events timed so far, all repetitions: the id of a sampled event.
    events_run: u64,
    /// Simulated state the discarded warm-up repetition ended in; every
    /// measured one must end in it too.
    end_state: Vec<(&'static str, f64)>,
}

impl Netsim {
    /// Everything up to and including one discarded warm-up repetition.
    pub fn setup(args: &RunArgs, shape: &'static Shape, marks: &mut Marks) -> Netsim {
        let mut sim = Netsim {
            shape,
            seed: args.seed,
            clusters: args.scaled(shape.clusters, 10),
            events_per_rep: (args.scaled((shape.events_per_rep / BATCH) as usize, 4) as u64)
                * BATCH,
            events_run: 0,
            end_state: Vec::new(),
        };
        sim.end_state = sim.rep(None, Some(marks)).end_state;
        sim.events_run = 0;
        sim
    }

    fn live_flows(&self) -> usize {
        self.clusters * self.shape.flows_per_cluster
    }

    /// The network every repetition starts from: built from the seed and
    /// carried into steady-state churn. No repetition times this; a set-up
    /// does, through `marks`.
    fn world(&self, mut marks: Option<&mut Marks>) -> World {
        let mut mark = || {
            if let Some(m) = marks.as_mut() {
                m.mark();
            }
        };
        let (topo, pairs) = build_topology(self.clusters);
        mark();
        let model = if self.shape.turbulent {
            StreamModel::default()
        } else {
            clean_model()
        };
        let mut net = Network::with_seed(topo, model, self.seed);
        mark();
        let mut rng = Rng::derive(self.seed, 9, 0);
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            for _ in 0..self.shape.flows_per_cluster {
                net.start_flow(net.now(), gen::flow_spec(i, src, dst, &mut rng));
            }
            if i % 64 == 63 {
                mark();
            }
        }
        let mut world = World {
            net,
            pairs,
            rng,
            done: Vec::new(),
        };
        // Connection set-up (one event per flow, under two simulated
        // seconds) and the first generation's completions.
        for event in 0..self.shape.settle_events {
            world.step();
            if event % BATCH == BATCH - 1 {
                mark();
            }
        }
        world
    }

    /// One repetition; `setup` is the set-up's marks when this is its
    /// discarded warm-up repetition.
    fn rep(&mut self, mut recorder: Option<&mut Recorder>, mut setup: Option<&mut Marks>) -> Rep {
        let mut world = self.world(setup.as_deref_mut());
        let before = world.net.alloc_stats();
        let completed_before = world.net.total_flows_completed();
        let batches = (self.events_per_rep / BATCH) as usize;
        let mut batch_ns = Vec::with_capacity(batches);
        let mut sample = Vec::with_capacity(16);
        let mut completions = 0;
        let rep_span = recorder.as_mut().map(|r| r.open("rep", None, 0));
        let t0 = Instant::now();
        let mut b0 = t0;
        for _ in 0..batches {
            let sampled = match (&mut recorder, rep_span) {
                (Some(rec), Some(span)) => {
                    completions += world.sampled_step(rec, span, self.events_run, &mut sample);
                    1
                }
                _ => 0,
            };
            for _ in sampled..BATCH {
                completions += world.step();
            }
            self.events_run += BATCH;
            // The batches tile the repetition: one clock reading ends a
            // batch and starts the next.
            let b1 = Instant::now();
            batch_ns.push((b1 - b0).as_nanos() as u64);
            b0 = b1;
        }
        let wall_s = (b0 - t0).as_secs_f64();
        if let (Some(r), Some(s)) = (recorder, rep_span) {
            r.close(s);
        }
        if let Some(marks) = setup {
            marks.warm_up(&batch_ns);
        }
        let a = world.net.alloc_stats();
        Rep {
            wall_s,
            events: self.events_per_rep,
            completions,
            timing: RepTiming {
                samples_in_slice: vec![1; batches],
                latencies_ns: batch_ns.clone(),
                slices_ns: batch_ns,
            },
            alloc: minus(a, before),
            end_state: vec![
                ("sim_time_s", world.net.now().as_secs_f64()),
                ("completions", world.net.total_flows_completed() as f64),
                ("total_bytes_completed", world.net.total_bytes_completed()),
                (
                    "completions_while_timed",
                    (world.net.total_flows_completed() - completed_before) as f64,
                ),
                ("live_flows", world.net.live_flow_count() as f64),
                ("net_recomputes", a.recomputes as f64),
                ("net_skipped", a.skipped as f64),
                ("net_component_runs", a.component_runs as f64),
                ("net_flows_allocated", a.flows_allocated as f64),
                ("net_links_allocated", a.links_allocated as f64),
                ("net_unchanged_writes", a.unchanged_writes as f64),
            ],
        }
    }

    fn checked_rep(&mut self, recorder: Option<&mut Recorder>, out: &mut Outcome) -> Rep {
        let rep = self.rep(recorder, None);
        let state = |name: &str| rep.end_state.iter().find(|(n, _)| *n == name).map(|s| s.1);
        let mut checks = vec![
            Check::eq(
                "every completion is counted and replaced",
                (state("completions_while_timed"), state("live_flows")),
                (Some(rep.completions as f64), Some(self.live_flows() as f64)),
            ),
            Check::new(
                "transfers complete",
                rep.completions > 0,
                format!("{} completions in {} events", rep.completions, rep.events),
            ),
            Check::new(
                "simulated outcome identical to the warm-up repetition",
                rep.end_state == self.end_state,
                format!("{:?} vs {:?}", rep.end_state, self.end_state),
            ),
        ];
        if self.shape.turbulent {
            // netbench's write-suppression predicate: at most about one
            // unchanged rate write per event.
            checks.push(Check::new(
                "rate writes are suppressed (unchanged_writes <= events + 32)",
                rep.alloc.unchanged_writes <= rep.events + 32,
                format!(
                    "{} unchanged writes in {} events",
                    rep.alloc.unchanged_writes, rep.events
                ),
            ));
        }
        out.attempted += rep.events;
        if checks.iter().any(|c| !c.ok) {
            out.failed += rep.events;
        }
        out.checks.extend(checks);
        rep
    }

    /// Tracing off: the end-to-end metrics.
    pub fn measure(mut self, args: &RunArgs) -> Outcome {
        let mut out = Outcome::default();
        let mut timings = EndToEnd::new(self.events_per_rep);
        let mut reps = RepLoop::start(args.budget);
        while reps.next() {
            timings.absorb(self.checked_rep(None, &mut out).timing);
        }
        timings.finish(&mut out);
        out.notes.push((
            "load",
            format!(
                "{} flows in {} clusters, {} events per repetition after {} untimed, one latency sample = {BATCH} events",
                self.live_flows(),
                self.clusters,
                self.events_per_rep,
                self.shape.settle_events
            ),
        ));
        out.exact = self.end_state;
        out
    }

    /// Tracing on: sampled spans, the queue replay, the per-layer metrics.
    pub fn measure_traced(mut self, args: &RunArgs) -> Outcome {
        let mut out = Outcome::default();
        let mut recorder = Recorder::new(Instant::now(), 0);
        let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
        let mut alloc = AllocStats::default();
        let (mut events, mut starts) = (0u64, 0u64);
        let cpu = CpuWindow::open();
        let cpu0 = env::thread_cpu_secs();
        // Traced and untraced repetitions alternate, so the tracing overhead
        // is measured inside one process on one machine state.
        let mut reps = RepLoop::start(args.budget);
        while reps.next() {
            let rep = self.checked_rep(Some(&mut recorder), &mut out);
            let plain = self.checked_rep(None, &mut out);
            traced_wall.push(rep.wall_s);
            plain_wall.push(plain.wall_s);
            for r in [&rep, &plain] {
                events += r.events;
                starts += r.completions;
                alloc.recomputes += r.alloc.recomputes;
                alloc.skipped += r.alloc.skipped;
                alloc.component_runs += r.alloc.component_runs;
                alloc.flows_allocated += r.alloc.flows_allocated;
                alloc.unchanged_writes += r.alloc.unchanged_writes;
            }
        }
        cpu.close(&mut out, env::thread_cpu_secs() - cpu0);

        out.checks.push(Check::new(
            "spans nest inside their parents",
            recorder.validate().is_ok(),
            recorder.validate().err().unwrap_or_default(),
        ));
        let totals = recorder.totals();
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let mean_ns = |name: &str| total(name).total_ns as f64 / total(name).count.max(1) as f64;
        let sampled_events = total("event").count.max(1) as f64;
        // Time in the four calls, scaled from the sampled events to all.
        let in_calls_ns: u64 = totals
            .iter()
            .filter(|(n, _)| n.starts_with("net."))
            .map(|(_, t)| t.total_ns)
            .sum();
        let wall_per_event_ns = median(&plain_wall) * 1e9 / self.events_per_rep as f64;
        out.count(
            "trace.attributed_ratio",
            in_calls_ns as f64 / sampled_events / wall_per_event_ns,
        );
        out.count(
            "trace.overhead_ratio",
            median(&traced_wall) / median(&plain_wall) - 1.0,
        );
        out.count("net.advance_ns_per_event", mean_ns("net.advance"));
        out.count("net.start_flow_ns", mean_ns("net.start_flow"));
        let per_event = |n: u64| n as f64 / events.max(1) as f64;
        out.count("net.recomputes_per_event", per_event(alloc.recomputes));
        out.count(
            "net.skip_ratio",
            alloc.skipped as f64 / (alloc.recomputes + alloc.skipped).max(1) as f64,
        );
        out.count(
            "net.flows_per_component_run",
            alloc.flows_allocated as f64 / alloc.component_runs.max(1) as f64,
        );
        out.count(
            "net.unchanged_writes_per_event",
            per_event(alloc.unchanged_writes),
        );

        // The queue on its own, at this workload's pending population.
        let q = queue_replay(self.live_flows(), args.seed);
        out.count("sim.queue_push_ns", q.push_ns);
        out.count("sim.queue_pop_ns", q.pop_ns);
        out.count("sim.queue_reschedule_ns", q.reschedule_ns);
        out.count("sim.queue_cancel_ns", q.cancel_ns);
        // Per event the engine pops once, pushes once per started flow, and
        // respins the completion time of every flow whose rate changed.
        let respins = per_event(alloc.flows_allocated - alloc.unchanged_writes);
        out.count(
            "sim.queue_share",
            (q.pop_ns + q.push_ns * per_event(starts) + q.reschedule_ns * respins)
                / wall_per_event_ns,
        );
        out.notes.push((
            "traced_repetitions",
            format!(
                "{} traced + {} untraced, 1 event in {} sampled, {} spans, queue replayed at {} pending",
                traced_wall.len(),
                plain_wall.len(),
                BATCH,
                recorder.spans().len(),
                self.live_flows()
            ),
        ));
        out.recorder = Some(recorder);
        out.exact = self.end_state;
        out
    }
}

/// Cost of each queue operation on a `LadderQueue` holding `population`
/// pending events spread over a minute of simulated time.
struct QueueReplay {
    push_ns: f64,
    pop_ns: f64,
    reschedule_ns: f64,
    cancel_ns: f64,
}

fn queue_replay(population: usize, seed: u64) -> QueueReplay {
    const OPS: usize = 200_000;
    const HORIZON_US: u64 = 60_000_000;
    let mut rng = Rng::derive(seed, 10, 0);
    let mut q: LadderQueue<u32> = LadderQueue::new();
    let at = |q: &LadderQueue<u32>, rng: &mut Rng| {
        q.now() + SimDuration::from_micros(1 + rng.below(HORIZON_US))
    };
    let mut handles: Vec<_> = (0..population as u32)
        .map(|i| {
            let t = at(&q, &mut rng);
            q.schedule_at(t, i)
        })
        .collect();
    let per_op = |t0: Instant| t0.elapsed().as_nanos() as f64 / OPS as f64;

    // Times are drawn before the clock starts; the loop is the queue alone.
    let times: Vec<SimTime> = (0..OPS).map(|_| at(&q, &mut rng)).collect();
    let t0 = Instant::now();
    for (i, &t) in times.iter().enumerate() {
        handles.push(q.schedule_at(t, i as u32));
    }
    let push_ns = per_op(t0);

    let t0 = Instant::now();
    for _ in 0..OPS {
        std::hint::black_box(q.pop());
    }
    let pop_ns = per_op(t0);

    // Popped events' handles are stale; rebuild the population's handles.
    while q.pop().is_some() {}
    handles.clear();
    for i in 0..(population + OPS) as u32 {
        let t = at(&q, &mut rng);
        handles.push(q.schedule_at(t, i));
    }
    let picks: Vec<(usize, SimTime)> = (0..OPS)
        .map(|_| (rng.below(handles.len() as u64) as usize, at(&q, &mut rng)))
        .collect();
    let t0 = Instant::now();
    for &(k, t) in &picks {
        std::hint::black_box(q.reschedule(handles[k], t));
    }
    let reschedule_ns = per_op(t0);

    // Cancel OPS distinct events; the population ends at `population`.
    let t0 = Instant::now();
    for h in handles.drain(population..) {
        std::hint::black_box(q.cancel(h));
    }
    let cancel_ns = per_op(t0);
    assert_eq!(q.len(), population, "the replay lost or kept events");

    QueueReplay {
        push_ns,
        pop_ns,
        reschedule_ns,
        cancel_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Budget;

    fn args(seed: u64) -> RunArgs {
        RunArgs {
            seed,
            budget: Budget::Reps(2),
            trace: false,
            scale: 0.1,
            setups: Some(1),
            out_dir: std::env::temp_dir(),
        }
    }

    #[test]
    fn traced_and_untraced_runs_of_one_seed_agree_bit_for_bit() {
        let plain = Netsim::setup(&args(3), &TURBULENT, &mut Marks::start()).measure(&args(3));
        let traced =
            Netsim::setup(&args(3), &TURBULENT, &mut Marks::start()).measure_traced(&args(3));
        assert!(!plain.exact.is_empty());
        assert_eq!(plain.exact, traced.exact);
        let other = Netsim::setup(&args(4), &TURBULENT, &mut Marks::start()).measure(&args(4));
        assert_ne!(plain.exact, other.exact);
        for c in plain.checks.iter().chain(&traced.checks) {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
        traced.recorder.expect("spans").validate().unwrap();
    }

    #[test]
    fn queue_replay_leaves_the_population_intact() {
        let q = queue_replay(1_000, 1);
        assert!(q.push_ns > 0.0 && q.pop_ns > 0.0 && q.reschedule_ns > 0.0 && q.cancel_ns > 0.0);
    }
}
