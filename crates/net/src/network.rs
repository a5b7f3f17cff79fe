//! The fluid-flow network engine.
//!
//! [`Network`] holds the topology, the [`StreamModel`], and the set of live
//! flows. It is a *passive* component: a driver (the workflow executor, or a
//! test) interleaves its own events with the network's by asking
//! [`Network::next_wakeup`] for the earliest instant anything interesting
//! happens and calling [`Network::advance`] to move the engine there. Rates
//! are recomputed (weighted max-min, see [`crate::sharing`]) at every flow
//! membership change and at periodic refresh points while flows ramp or
//! links are turbulent.
//!
//! # Event-driven core
//!
//! The engine's own discontinuities — a connection finishing setup, a flow
//! draining at its current rate — live in a [`LadderQueue`] rather
//! than being rediscovered by per-flow scans. Flow state is a
//! struct-of-arrays `FlowTable`; byte progress is integrated *lazily*
//! (each slot stores `(remaining, rate, rate_since)` and the engine
//! evaluates the linear motion on demand), so advancing time is O(1) in the
//! number of flows. When an allocation actually changes a flow's rate, its
//! completion-ETA event is cancelled and rescheduled — the cancel-heavy
//! workload the queue's O(1)-locate cancellation exists for. A rate
//! that moves by less than `RATE_EPS` keeps both its value and its
//! pending ETA event untouched.
//!
//! Per-event cost is therefore O(affected component + log live-flows):
//! popping the event, updating link membership, and re-running progressive
//! filling over the connected component the membership change can reach.
//! Disjoint host-pair clusters never pay for each other's churn, and a
//! 100k-flow network costs no more per event than a 100-flow one with the
//! same cluster size.
//!
//! Determinism: every order-sensitive iteration (activation candidates,
//! completion processing, component allocation) sorts by monotonically
//! increasing [`FlowId`], so floating-point reductions are identical across
//! runs with the same schedule.
//!
//! The engine is held to a from-scratch reference — every flow, every link,
//! no skips — that lives in the test-only `reference` child module; only
//! `cargo test` builds it, and only a network it builds takes its path.

use crate::fault::{LinkFault, LinkFaultKind};
use crate::flow::{FlowId, FlowSpec, KilledFlow, TransferRecord};
use crate::flow_table::{FlowCold, FlowTable, Phase};
use crate::metrics::AllocStats;
use crate::model::{LinkState, StreamModel};
use crate::routes::RouteTable;
use crate::sharing::RateAllocator;
use crate::timeline::{LinkTimeline, UtilizationSample};
use crate::topology::{LinkId, Topology};
use pwm_obs::{Counter, Gauge, Obs, SpanId};
use pwm_sim::{FaultEvent, FaultPlan, LadderQueue, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

#[cfg(test)]
pub(crate) mod reference;

/// Completion slop: a flow whose remaining bytes drop below this is done.
const BYTE_EPS: f64 = 0.5;

/// Relative rate-change threshold below which a freshly computed rate is
/// discarded in favor of the flow's current one: sub-epsilon churn would
/// only perturb completion ETAs in their last bits and cascade pointless
/// event reschedules through the queue.
const RATE_EPS: f64 = 1e-9;

/// Relative slack when deciding whether an allocation left a flow bound by
/// its own cap (`rate ≈ cap`) rather than by a saturated link.
const CAP_BOUND_SLACK: f64 = 1e-6;

/// The engine's internal discontinuities, keyed by flow slot: connection
/// setup finishing, or a completion ETA at the flow's scheduled rate
/// (cancelled and rescheduled whenever the rate genuinely changes).
///
/// One `u32` — the slot, with the top bit set for a completion — rather than
/// a two-variant enum: it fits the queue entry's padding, so an entry is a
/// 24-byte `(at, seq, handle)` key and every bucket sort, shift and push
/// moves a quarter fewer bytes than with an 8-byte payload.
#[derive(Debug, Clone, Copy)]
struct NetEvent(u32);

impl NetEvent {
    const COMPLETE: u32 = 1 << 31;

    fn connect(slot: u32) -> Self {
        debug_assert!(slot < Self::COMPLETE);
        NetEvent(slot)
    }

    fn complete(slot: u32) -> Self {
        debug_assert!(slot < Self::COMPLETE);
        NetEvent(slot | Self::COMPLETE)
    }

    fn slot(self) -> u32 {
        self.0 & !Self::COMPLETE
    }

    fn is_complete(self) -> bool {
        self.0 & Self::COMPLETE != 0
    }
}

/// Sort `v` ascending by `key`, whose values must be unique (so the order
/// is the one any sort gives). The engine's per-event sets — activation
/// candidates, fired completions, a component's flows and links — hold two
/// to a handful of elements, where one insertion sort beats the standard
/// library's general small-sort; larger sets go to `sort_unstable_by_key`.
#[inline]
fn sort_small_by_key<T: Copy, K: Ord>(v: &mut [T], key: impl Fn(&T) -> K) {
    if v.len() > 16 {
        v.sort_unstable_by_key(key);
        return;
    }
    for i in 1..v.len() {
        let x = v[i];
        let kx = key(&x);
        let mut j = i;
        while j > 0 && key(&v[j - 1]) > kx {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// Flow slots a link holds inline in its [`LinkHot`] row before membership
/// spills to the network's per-link side table. Sized so the whole row is
/// exactly one cache line; `netsim_churn`'s links hold at most two flows.
const LINK_FLOWS_INLINE: usize = 3;

/// Per-link hot state: everything the engine touches when a flow joins or
/// leaves a link or its effective capacity refreshes, packed into one
/// 64-byte line: the capacity math, the flags, and up to
/// [`LINK_FLOWS_INLINE`] member slots.
///
/// What a link touch does not need lives beside the rows: the running
/// throughput (`Network::link_throughput`, written only by a component's
/// write-back) and the spilled membership (`Network::link_spill`). The side
/// table is reached only through the `nflows == FLOWS_SPILLED` branch
/// (`Network::member_at` and friends), never handed out as a slice, so a
/// touch of an inline link reads its row and nothing else.
#[repr(C, align(64))]
struct LinkHot {
    /// Occupancy and turbulence (streams, peak, turbulence, updated_at).
    state: LinkState,
    /// Nominal capacity from the topology; turbulence, stream counts, and
    /// faults scale it into `capacity` below.
    base_capacity: f64,
    /// Effective capacity as of the last recompute; a change marks the
    /// link dirty (covers turbulence decay, stream-count knees, and
    /// fault-window boundaries in one comparison). Kept inside the hot row
    /// so the capacity refresh and the allocator's residual seeding read
    /// the same cache line they already touched for `state`.
    capacity: f64,
    /// Membership or effective capacity changed since the last recompute
    /// (membership flag for `Network::dirty_links`).
    dirty: bool,
    /// Membership flag for `Network::turb_links`.
    turb: bool,
    /// Component-BFS visited marker; always false outside a recompute's
    /// BFS phase.
    seen: bool,
    /// Flows in `flows_inline`, or [`FLOWS_SPILLED`] when membership lives
    /// in the link's `Network::link_spill` list.
    nflows: u8,
    /// Inline membership: active flow slots on this link, sorted by the
    /// owning `FlowId`. Valid up to `nflows`.
    flows_inline: [u32; LINK_FLOWS_INLINE],
}

/// `LinkHot::nflows` marker: membership has spilled to the side table.
const FLOWS_SPILLED: u8 = u8::MAX;

// Row layouts the per-event path is costed in: a field added later must not
// quietly push a row onto a second line.
const _: () = assert!(
    std::mem::size_of::<LinkHot>() == 64,
    "LinkHot must stay exactly one cache line"
);
const _: () = assert!(
    std::mem::size_of::<LinkState>() == 24,
    "LinkState must stay 24 bytes: it opens the one-line LinkHot row"
);
const _: () = assert!(
    std::mem::size_of::<crate::Route>() == 16,
    "Route must stay 16 bytes: FlowCold and RouteTable rows hold it"
);

/// Per-host connection accounting, packed so the activation path's
/// slot-availability check and occupancy bump touch one small row instead of
/// a counter array plus the topology's (large, string-bearing) host record.
#[derive(Clone, Copy)]
struct HostSlot {
    /// Connections currently open at the host.
    active: u32,
    /// Connection limit; `u32::MAX` when the host is unlimited.
    max: u32,
}

/// The live network simulation.
pub struct Network {
    topology: Topology,
    model: StreamModel,
    /// Struct-of-arrays live-flow state (see [`FlowTable`]).
    flows: FlowTable,
    /// Connect/Complete discontinuities, indexed for O(1)-locate cancel.
    sched: LadderQueue<NetEvent>,
    /// Per-link hot state, one row per link (see [`LinkHot`]).
    links: Vec<LinkHot>,
    /// Per-link allocated throughput as of the last recompute that reached
    /// the link.
    link_throughput: Vec<f64>,
    /// Per-link membership past [`LINK_FLOWS_INLINE`]: the *entire* sorted
    /// list while the row says `FLOWS_SPILLED`, empty otherwise. A list
    /// keeps its capacity across spill episodes.
    link_spill: Vec<Vec<u32>>,
    next_flow_id: u64,
    now: SimTime,
    completed: Vec<TransferRecord>,
    total_bytes_completed: f64,
    total_flows_completed: u64,
    rng: SimRng,
    /// Per-host connection accounting (enforces per-host limits).
    hosts: Vec<HostSlot>,
    /// Every host pair's route, interned on the pair's first flow: flows
    /// keep a [`crate::Route`] into it, never a copy of their links.
    routes: RouteTable,
    /// Opt-in utilization recorders, keyed by watched link.
    timelines: BTreeMap<LinkId, LinkTimeline>,
    /// Scheduled link faults; capacities scale while a window is active.
    faults: FaultPlan<LinkFault>,
    /// Opt-in observability sinks (see [`Network::set_obs`]).
    obs: Option<NetObs>,

    // --- Incremental allocation engine ------------------------------------
    // A persistent flow↔link bipartite index (inline in the `LinkHot` rows)
    // plus a dirty-link set lets a membership change re-run progressive
    // filling over only the connected component of links/flows it can
    // actually affect; disjoint host-pair clusters never pay for each
    // other's churn.
    /// The links with `LinkHot::dirty` set (insertion-ordered, dedup'd).
    dirty_links: Vec<usize>,
    /// Active flows still in slow-start as `(id, slot)`, ascending by id.
    /// Their caps rise with age, but a recompute is only forced while a
    /// flow's cap is actually binding (see `recompute_rates` step 2).
    ramping: Vec<(FlowId, u32)>,
    /// Flows waiting for a connection slot, id → slot (FIFO = id order).
    queued: BTreeMap<FlowId, u32>,
    /// Links with nonzero stored turbulence (membership flag: `LinkHot::
    /// turb`). Invariant: any link whose stored turbulence is positive is
    /// in this list — turbulence is only injected by membership changes,
    /// which enlist the link; it leaves once settling clips the level to
    /// zero.
    turb_links: Vec<usize>,
    /// Slots that became Active already drained (zero-byte payloads): they
    /// complete in the same advance step, without a Complete event.
    done_now: Vec<u32>,
    /// Number of flows currently in [`Phase::Active`].
    active_count: usize,
    /// Reusable progressive-filling scratch (see [`RateAllocator`]).
    alloc: RateAllocator,
    /// Scratch: flow slots of the dirty component(s), sorted by id.
    comp_flows: Vec<u32>,
    /// Scratch: per-component flow caps, parallel to `comp_flows`.
    comp_caps: Vec<f64>,
    /// Scratch: links of the dirty component(s).
    comp_links: Vec<usize>,
    /// Scratch: BFS work stack of link indices. (The visited markers live
    /// as `seen` bits inside the `LinkHot`/`FlowHot` rows the BFS touches
    /// anyway, cleared via `comp_links`/`comp_flows`.)
    bfs_stack: Vec<usize>,
    /// Scratch: raw events drained from the queue in one batched pass per
    /// `advance` segment (same-timestamp coalescing).
    drain_scratch: Vec<(SimTime, NetEvent)>,
    /// Scratch: Connect events drained in the current `advance` segment.
    connect_scratch: Vec<(FlowId, u32)>,
    /// Scratch: Complete events drained in the current `advance` segment.
    complete_scratch: Vec<(FlowId, u32)>,
    /// Scratch: slots joining their links in `activate_due`.
    join_scratch: Vec<u32>,
    /// Allocation-work counters (see [`AllocStats`]).
    stats: AllocStats,
    /// Built by `Network::reference`: every recompute takes the test-only
    /// reference path.
    #[cfg(test)]
    reference: bool,
    /// The instant the rates were last recomputed at, until something other
    /// than a link's membership (which `dirty_links` already tells) makes
    /// that recompute stale: a fault-plan edit, a newly watched link.
    rates_as_of: Option<SimTime>,
    /// The last `(dt, StreamModel::decay_factor(dt))` a capacity refresh needed:
    /// one recompute's turbulent links mostly share a `dt` — and one `exp`.
    decay_memo: (SimDuration, f64),
}

/// Observability state attached by [`Network::set_obs`]: the shared handle
/// plus per-link gauge handles cached so the rate-recompute hot path never
/// touches the registry's name table.
struct NetObs {
    obs: Obs,
    /// Per-link `(streams, throughput_bps)` gauges, indexed by `LinkId`.
    link_gauges: Vec<(Gauge, Gauge)>,
    /// Sim-loop queue health, refreshed after every `advance`.
    queue: QueueObs,
    /// Trace-span parents for in-flight flows (see
    /// [`Network::set_flow_span_parent`]).
    flow_parents: BTreeMap<FlowId, SpanId>,
}

/// Cached handles for the sim-loop queue-health series. The occupancy
/// gauges expose the ladder's geometry (current bucket / rungs / overflow).
/// Every series carries the constant label `queue="ladder"`, which scrapers
/// of the exported series set key on.
struct QueueObs {
    depth: Gauge,
    current_bucket: Gauge,
    rung_events: Gauge,
    overflow_events: Gauge,
    active_rungs: Gauge,
    cancelled: Counter,
}

impl QueueObs {
    fn new(obs: &Obs) -> Self {
        let labels = [("queue", "ladder")];
        QueueObs {
            depth: obs.registry.gauge(
                "sim_queue_depth",
                "Live events pending in the simulation event queue",
                &labels,
            ),
            current_bucket: obs.registry.gauge(
                "sim_queue_current_bucket_events",
                "Events in the ladder queue's sorted current bucket",
                &labels,
            ),
            rung_events: obs.registry.gauge(
                "sim_queue_rung_events",
                "Events bucketed in ladder-queue rungs",
                &labels,
            ),
            overflow_events: obs.registry.gauge(
                "sim_queue_overflow_events",
                "Far-future events staged in the ladder queue's overflow list",
                &labels,
            ),
            active_rungs: obs.registry.gauge(
                "sim_queue_active_rungs",
                "Ladder-queue rungs currently spawned",
                &labels,
            ),
            cancelled: obs.registry.counter(
                "sim_queue_cancelled_total",
                "Events cancelled before firing over the queue's lifetime",
                &labels,
            ),
        }
    }

    fn refresh(&self, health: pwm_sim::QueueHealth) {
        self.depth.set(health.depth as f64);
        self.current_bucket.set(health.current_bucket_events as f64);
        self.rung_events.set(health.rung_events as f64);
        self.overflow_events.set(health.overflow_events as f64);
        self.active_rungs.set(health.active_rungs as f64);
        let exported = self.cancelled.get();
        self.cancelled
            .add(health.cancelled_total.saturating_sub(exported));
    }
}

impl Network {
    /// Build a network over `topology` with the given stream model and the
    /// default seed (0) for per-flow weight jitter.
    pub fn new(topology: Topology, model: StreamModel) -> Self {
        Self::with_seed(topology, model, 0)
    }

    /// Build a network with an explicit seed for per-flow weight jitter.
    pub fn with_seed(topology: Topology, model: StreamModel, seed: u64) -> Self {
        let link_count = topology.link_count();
        let links = (0..link_count)
            .map(|ix| {
                let l = topology.link(LinkId(ix as u32));
                LinkHot {
                    state: LinkState::new(),
                    base_capacity: l.capacity,
                    capacity: 0.0,
                    dirty: false,
                    turb: false,
                    seen: false,
                    nflows: 0,
                    flows_inline: [0; LINK_FLOWS_INLINE],
                }
            })
            .collect();
        // Connection limits are fixed at build time (the topology is owned
        // and never mutated after construction), so bake them into the
        // per-host accounting rows.
        let hosts = (0..topology.host_count())
            .map(|h| HostSlot {
                active: 0,
                max: topology
                    .host(crate::HostId(h as u32))
                    .max_connections
                    .unwrap_or(u32::MAX),
            })
            .collect();
        Network {
            topology,
            model,
            flows: FlowTable::new(),
            sched: LadderQueue::new(),
            links,
            link_throughput: vec![0.0; link_count],
            link_spill: vec![Vec::new(); link_count],
            next_flow_id: 0,
            now: SimTime::ZERO,
            completed: Vec::new(),
            total_bytes_completed: 0.0,
            total_flows_completed: 0,
            rng: SimRng::for_component(seed, "network-weights"),
            hosts,
            routes: RouteTable::new(),
            timelines: BTreeMap::new(),
            faults: FaultPlan::new(),
            obs: None,
            dirty_links: Vec::new(),
            ramping: Vec::new(),
            queued: BTreeMap::new(),
            turb_links: Vec::new(),
            done_now: Vec::new(),
            active_count: 0,
            alloc: RateAllocator::new(),
            comp_flows: Vec::new(),
            comp_caps: Vec::new(),
            comp_links: Vec::new(),
            bfs_stack: Vec::new(),
            drain_scratch: Vec::new(),
            connect_scratch: Vec::new(),
            complete_scratch: Vec::new(),
            join_scratch: Vec::new(),
            stats: AllocStats::default(),
            #[cfg(test)]
            reference: false,
            rates_as_of: None,
            decay_memo: (SimDuration::ZERO, 1.0),
        }
    }

    /// Allocation-work counters accumulated since construction.
    pub fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    /// Attach observability: completed flows become trace spans (category
    /// `net`, timed `activated_at → completed_at`), link fault windows
    /// become trace instants, and every rate recomputation refreshes
    /// per-link `pwm_net_link_streams` / `pwm_net_link_throughput_bps`
    /// gauges labeled with the link name.
    pub fn set_obs(&mut self, obs: Obs) {
        let link_gauges = (0..self.topology.link_count())
            .map(|ix| {
                let name = self.topology.link(LinkId(ix as u32)).name.clone();
                (
                    obs.registry.gauge(
                        "pwm_net_link_streams",
                        "Concurrent streams currently on the link",
                        &[("link", &name)],
                    ),
                    obs.registry.gauge(
                        "pwm_net_link_throughput_bps",
                        "Aggregate throughput currently allocated across the link, bytes/sec",
                        &[("link", &name)],
                    ),
                )
            })
            .collect();
        let queue = QueueObs::new(&obs);
        queue.refresh(self.sched.health());
        let net_obs = NetObs {
            obs,
            link_gauges,
            queue,
            flow_parents: BTreeMap::new(),
        };
        self.emit_fault_instants(&net_obs, self.faults.events());
        self.obs = Some(net_obs);
    }

    /// Parent the trace span of `flow` (emitted when the flow completes)
    /// under an existing span — typically the workflow executor's transfer
    /// span. No-op without observability attached.
    pub fn set_flow_span_parent(&mut self, flow: FlowId, parent: SpanId) {
        if let Some(o) = &mut self.obs {
            o.flow_parents.insert(flow, parent);
        }
    }

    /// Trace instants marking each scheduled fault window's open and close.
    fn emit_fault_instants(&self, obs: &NetObs, events: &[FaultEvent<LinkFault>]) {
        for ev in events {
            let link = self.topology.link(ev.kind.link).name.clone();
            let kind = match ev.kind.kind {
                LinkFaultKind::Down => "down".to_string(),
                LinkFaultKind::Degrade(f) => format!("degrade:{f}"),
            };
            obs.obs.tracer.instant(
                "link_fault_start",
                "net",
                ev.window.start,
                &[("link", link.clone()), ("kind", kind.clone())],
            );
            obs.obs.tracer.instant(
                "link_fault_end",
                "net",
                ev.window.end(),
                &[("link", link), ("kind", kind)],
            );
        }
    }

    /// Install a full fault plan (replacing any existing one). Must be
    /// called before the affected windows open; fault effects apply from
    /// the next rate recomputation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan<LinkFault>) {
        self.faults = plan;
        self.rates_as_of = None;
        if let Some(o) = &self.obs {
            self.emit_fault_instants(o, self.faults.events());
        }
    }

    /// Schedule one link fault active over `[start, start + duration)`.
    pub fn inject_link_fault(&mut self, start: SimTime, duration: SimDuration, fault: LinkFault) {
        self.faults.add(start, duration, fault);
        self.rates_as_of = None;
        if let Some(o) = &self.obs {
            // The plan re-sorts on add, so describe the new window directly.
            let added = [FaultEvent {
                window: pwm_sim::FaultWindow::new(start, duration),
                kind: fault,
            }];
            self.emit_fault_instants(o, &added);
        }
    }

    /// The installed fault plan (empty when no faults are scheduled).
    pub fn fault_plan(&self) -> &FaultPlan<LinkFault> {
        &self.faults
    }

    /// Capacity multiplier for `link` at `at` under the active fault
    /// windows (overlapping faults compose multiplicatively; 1.0 when the
    /// link is healthy).
    fn fault_capacity_factor(&self, link: LinkId, at: SimTime) -> f64 {
        self.faults
            .active_at(at)
            .filter(|e| e.kind.link == link)
            .map(|e| e.kind.capacity_factor())
            .product()
    }

    /// Start recording a utilization timeline for `link`.
    pub fn watch_link(&mut self, link: LinkId) {
        self.timelines.entry(link).or_default();
        self.rates_as_of = None;
    }

    /// The recorded timeline for `link`, if watched.
    pub fn timeline(&self, link: LinkId) -> Option<&LinkTimeline> {
        self.timelines.get(&link)
    }

    /// True when both endpoints have a free connection slot. A loopback
    /// flow (`src == dst`) occupies — and therefore checks — one host once.
    fn slots_available(&self, src: crate::HostId, dst: crate::HostId) -> bool {
        let free = |h: crate::HostId| {
            let s = self.hosts[h.0 as usize];
            s.active < s.max
        };
        free(src) && (src == dst || free(dst))
    }

    fn occupy_slots(&mut self, src: crate::HostId, dst: crate::HostId, delta: i64) {
        let mut bump = |h: crate::HostId| {
            let slot = &mut self.hosts[h.0 as usize].active;
            *slot = (*slot as i64 + delta).max(0) as u32;
        };
        bump(src);
        if src != dst {
            bump(dst);
        }
    }

    /// Currently active connections at a host (diagnostic).
    pub fn host_connections(&self, host: crate::HostId) -> u32 {
        self.hosts[host.0 as usize].active
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The stream model in force.
    pub fn model(&self) -> &StreamModel {
        &self.model
    }

    /// Current network-local time (last `advance` target).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of flows currently connecting or moving bytes.
    pub fn live_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The event queue's health snapshot: pending events by area and the
    /// bucket capacity it retains.
    pub fn queue_health(&self) -> pwm_sim::QueueHealth {
        self.sched.health()
    }

    /// Peak concurrent streams ever observed on `link` (Table IV check).
    pub fn peak_streams(&self, link: LinkId) -> u32 {
        self.links[link.0 as usize].state.peak_streams
    }

    /// Current concurrent streams on `link`.
    pub fn current_streams(&self, link: LinkId) -> u32 {
        self.links[link.0 as usize].state.streams
    }

    /// Current turbulence level of `link`, decayed to `now` (diagnostic).
    pub fn link_turbulence(&self, link: LinkId) -> f64 {
        let ls = &self.links[link.0 as usize].state;
        self.model
            .decay_turbulence(ls.turbulence, self.now.since(ls.updated_at))
    }

    /// What the last recompute left every active flow with, ascending by id:
    /// `(id, rate, remaining, rate_since)`, the anchor its completion ETA was
    /// scheduled from. For the equivalence suites to compare bit for bit.
    pub fn flow_rates(&self) -> Vec<(FlowId, f64, f64, SimTime)> {
        let hot = |(id, slot): (FlowId, u32)| (id, &self.flows.hot[slot as usize]);
        let rows = self.flows.iter().map(hot);
        rows.filter(|(_, h)| h.phase == Phase::Active)
            .map(|(id, h)| (id, h.rate, h.remaining, h.rate_since))
            .collect()
    }

    /// The active flows on `link` in the engine's membership order, which is
    /// ascending id (for the membership tests).
    pub fn link_flows(&self, link: LinkId) -> Vec<FlowId> {
        let ix = link.0 as usize;
        (0..self.member_count(ix))
            .map(|m| self.flows.hot[self.member_at(ix, m) as usize].id)
            .collect()
    }

    /// The connected component of the flow↔link index around `link`, as a
    /// recompute's BFS collects it: flows ascending by id, links ascending
    /// (for the membership tests). Uses the recompute's scratch and changes
    /// no simulated state.
    pub fn link_component(&mut self, link: LinkId) -> (Vec<FlowId>, Vec<LinkId>) {
        let ix = link.0 as usize;
        self.bfs_stack.clear();
        self.links[ix].seen = true;
        self.bfs_stack.push(ix);
        self.collect_component();
        let hot = &self.flows.hot;
        (
            self.comp_flows
                .iter()
                .map(|&s| hot[s as usize].id)
                .collect(),
            self.comp_links.iter().map(|&l| LinkId(l as u32)).collect(),
        )
    }

    /// Every link's allocated throughput as of the last recompute, by
    /// `LinkId` (same use as [`Self::flow_rates`]).
    pub fn link_throughputs(&self) -> Vec<f64> {
        self.link_throughput.clone()
    }

    /// Total bytes delivered by completed flows.
    pub fn total_bytes_completed(&self) -> f64 {
        self.total_bytes_completed
    }

    /// Total flows completed.
    pub fn total_flows_completed(&self) -> u64 {
        self.total_flows_completed
    }

    /// Bytes remaining for the flow in slot `si`, integrated lazily to
    /// `now` from the slot's `(remaining, rate, rate_since)` anchor.
    fn remaining_at(&self, si: usize, now: SimTime) -> f64 {
        let h = &self.flows.hot[si];
        let dt = now.since(h.rate_since).as_secs_f64();
        (h.remaining - h.rate * dt).max(0.0)
    }

    /// Begin a transfer at time `now` (which must not precede the engine's
    /// clock). The flow first spends the model's connection-setup time in
    /// `Phase::Connecting`, then joins the bandwidth-sharing set.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.start_flow_with_setup(now, spec, SimDuration::ZERO)
    }

    /// [`Self::start_flow`] with `extra` added to the connection-setup
    /// delay. Storage endpoint stages (object-store request round-trips,
    /// multipart handshakes) model their fixed per-transfer overhead here
    /// without perturbing the bandwidth-sharing phase; `extra == ZERO` is
    /// byte-identical to `start_flow`.
    pub fn start_flow_with_setup(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        extra: SimDuration,
    ) -> FlowId {
        self.advance(now);
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        // The pair's interned route: a sorted-row lookup after its first
        // flow, and the row keeps the range, not the links.
        let route = self.routes.resolve(&self.topology, spec.src, spec.dst);
        let setup = self.model.setup_time(spec.streams.max(1), route.rtt);
        let weight_factor = self.rng.jitter(self.model.flow_weight_jitter);
        let cold = FlowCold {
            spec,
            route,
            requested_at: now,
            weight_factor,
        };
        let slot = self.flows.insert(id, cold);
        let h = self
            .sched
            .schedule_at(now + setup + extra, NetEvent::connect(slot));
        // The ETA word is unused while connecting; parking the Connect
        // handle there lets a host-crash kill cancel the pending event.
        self.flows.hot[slot as usize].set_eta(Some(h));
        id
    }

    /// Drain the records of flows that finished since the last call.
    pub fn take_completed(&mut self) -> Vec<TransferRecord> {
        std::mem::take(&mut self.completed)
    }

    /// Like [`Self::take_completed`], but appends into a caller-owned
    /// buffer, preserving both sides' capacity — the allocation-free
    /// variant for drivers that drain every step.
    pub fn drain_completed_into(&mut self, out: &mut Vec<TransferRecord>) {
        // Element moves, not `append`: a step drains one or two records,
        // and `append` is a `memcpy` call for them.
        for r in self.completed.drain(..) {
            out.push(r);
        }
    }

    /// Tear down every live flow with an endpoint at `host` — the network
    /// half of a host crash. Severed flows emit no [`TransferRecord`]; the
    /// returned [`KilledFlow`]s tell the driver what was in flight so it can
    /// re-plan. Connection slots, link memberships, and pending events are
    /// released exactly as on completion, and flows that drain at precisely
    /// `now` complete normally before the kill is applied. Draws no
    /// randomness and schedules nothing: a run that never calls this is
    /// byte-identical to one on an engine without the method.
    pub fn kill_flows_touching(&mut self, now: SimTime, host: crate::HostId) -> Vec<KilledFlow> {
        self.advance(now);
        let victims: Vec<(FlowId, u32)> = self
            .flows
            .iter()
            .filter(|&(_, slot)| {
                let spec = &self.flows.cold[slot as usize].spec;
                spec.src == host || spec.dst == host
            })
            .collect();
        let mut killed = Vec::with_capacity(victims.len());
        for (id, slot) in victims {
            let si = slot as usize;
            let (src, dst, bytes, tag) = {
                let cold = &self.flows.cold[si];
                (cold.spec.src, cold.spec.dst, cold.spec.bytes, cold.spec.tag)
            };
            let bytes_remaining = match self.flows.hot[si].phase {
                Phase::Connecting => {
                    // The ETA word holds the pending Connect event.
                    if let Some(h) = self.flows.hot[si].take_eta() {
                        self.sched.cancel(h);
                    }
                    bytes
                }
                Phase::Queued => {
                    self.queued.remove(&id);
                    bytes
                }
                Phase::Active => {
                    let rem = self.remaining_at(si, now);
                    if let Some(h) = self.flows.hot[si].take_eta() {
                        self.sched.cancel(h);
                    }
                    self.occupy_slots(src, dst, -1);
                    self.active_count -= 1;
                    self.ramp_remove(id);
                    self.route_membership(slot, false);
                    rem
                }
                Phase::Vacant => continue,
            };
            if let Some(o) = &mut self.obs {
                o.flow_parents.remove(&id);
            }
            self.flows.remove(id);
            killed.push(KilledFlow {
                flow: id,
                tag,
                src,
                dst,
                bytes_remaining,
            });
        }
        if !killed.is_empty() {
            self.recompute_or_skip();
        }
        killed
    }

    /// Earliest instant at which the network's state changes discontinuously:
    /// a connection opens, a flow drains at current rates, or a refresh is
    /// due because something is ramping or turbulent. `None` when idle.
    ///
    /// O(pending-turbulent-links), not O(flows): connect/complete instants
    /// come from the event queue's peek, ramp refreshes from the `ramping`
    /// set's emptiness, turbulence refreshes from the turbulent-link list.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        // Wakeups must be strictly in the future: a completion ETA that
        // rounds down to `now` would otherwise make drivers spin forever.
        let floor = self.now + SimDuration::from_micros(1);
        let mut bump = |t: SimTime| {
            let t = t.max(floor);
            earliest = Some(match earliest {
                Some(e) if e <= t => e,
                _ => t,
            });
        };

        if let Some(t) = self.sched.peek_time() {
            bump(t);
        }
        let mut needs_refresh = !self.ramping.is_empty();
        if !needs_refresh && !self.flows.is_empty() {
            // Turbulent links also change effective rates over time.
            needs_refresh = self.turb_links.iter().any(|&ix| {
                let ls = &self.links[ix].state;
                ls.streams > 0
                    && self
                        .model
                        .decay_turbulence(ls.turbulence, self.now.since(ls.updated_at))
                        > 0.02
            });
        }
        if needs_refresh {
            bump(self.now + self.model.refresh_interval);
        }
        // Fault boundaries change effective capacities discontinuously. A
        // flow stalled on a downed link has rate 0 and therefore no ETA, so
        // the fault-clear boundary is the only wakeup that lets it progress.
        if !self.flows.is_empty() {
            if let Some(b) = self.faults.next_boundary_after(self.now) {
                bump(b);
            }
        }
        earliest
    }

    /// Advance the engine to `to`, handling activations and completions at
    /// their exact instants, and leave rates freshly computed.
    ///
    /// # Panics
    /// Panics if `to` precedes the engine clock.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.now, "network clock cannot move backwards");
        while self.now < to {
            // Next discontinuity within (now, to]: the earliest pending
            // event or fault boundary. Byte progress needs no integration
            // stop — it is evaluated lazily per flow.
            let mut seg_end = to;
            if let Some(t) = self.sched.peek_time() {
                if t > self.now && t < seg_end {
                    seg_end = t;
                }
            }
            if let Some(b) = self.faults.next_boundary_after(self.now) {
                if b < seg_end {
                    seg_end = b;
                }
            }
            self.now = seg_end;

            let mut connects = std::mem::take(&mut self.connect_scratch);
            let mut completes = std::mem::take(&mut self.complete_scratch);
            let mut drained = std::mem::take(&mut self.drain_scratch);
            connects.clear();
            completes.clear();
            drained.clear();
            // One batched peel per segment: every event due at `now` comes
            // off the queue in a single pass (the ladder serves this from
            // its sorted current bucket's tail) before any application.
            self.sched.drain_until(self.now, &mut drained);
            for &(_, ev) in &drained {
                let slot = ev.slot();
                let row = &mut self.flows.hot[slot as usize];
                row.set_eta(None);
                if ev.is_complete() {
                    completes.push((row.id, slot));
                } else {
                    connects.push((row.id, slot));
                }
            }
            self.drain_scratch = drained;
            self.activate_due(&mut connects);
            self.collect_done(&mut completes);
            // Completions free connection slots: promote queued flows now.
            connects.clear();
            self.activate_due(&mut connects);
            self.connect_scratch = connects;
            self.complete_scratch = completes;
            self.recompute_or_skip();
        }
        // `to` may equal `now` on entry (pure rate refresh: callers starting
        // flows see current conditions); after a segment above it is a skip.
        if self.active_count > 0 {
            self.recompute_or_skip();
        }
        if let Some(o) = &self.obs {
            o.queue.refresh(self.sched.health());
        }
    }

    /// Recompute rates unless it is provably a no-op (counted as a skip).
    ///
    /// A recompute is a function of the network's state and `now` alone, and
    /// idempotent: capacities settle over `dt = 0`, the allocator sees the
    /// same caps and capacities, [`Network::apply_rate`]'s hysteresis keeps
    /// every rate it kept. So one that ran at this instant stands until a
    /// link's membership changes (`dirty_links`) or `rates_as_of` is cleared.
    /// A test's reference network never skips.
    fn recompute_or_skip(&mut self) {
        #[cfg(test)]
        if self.reference {
            return self.recompute_rates_full();
        }
        let ran_at_this_instant = self.rates_as_of == Some(self.now) && self.dirty_links.is_empty();
        if ran_at_this_instant || self.recompute_is_noop() {
            self.stats.skipped += 1;
        } else {
            self.recompute_rates();
            self.rates_as_of = Some(self.now);
        }
    }

    /// True when an immediate incremental recompute would provably leave
    /// every rate, capacity, and timeline untouched: no dirty links, no
    /// ramping flows (rising caps), no turbulent links (decaying factors),
    /// no fault plan (discontinuous capacities), and no watched timelines
    /// to sample.
    fn recompute_is_noop(&self) -> bool {
        self.dirty_links.is_empty()
            && self.ramping.is_empty()
            && self.turb_links.is_empty()
            && self.faults.events().is_empty()
            && self.timelines.is_empty()
    }

    /// Activate setup-complete flows (or queue them when an endpoint's
    /// transfer server is at its connection limit), and promote queued
    /// flows into freed slots in FIFO (= id) order. `fresh` carries the
    /// flows whose Connect event fired this step.
    fn activate_due(&mut self, candidates: &mut Vec<(FlowId, u32)>) {
        let now = self.now;
        if !self.queued.is_empty() {
            candidates.extend(self.queued.iter().map(|(&id, &s)| (id, s)));
        }
        if candidates.is_empty() {
            return;
        }
        sort_small_by_key(candidates, |&(id, _)| id);
        let mut joins = std::mem::take(&mut self.join_scratch);
        joins.clear();
        for &(id, slot) in candidates.iter() {
            let si = slot as usize;
            let (src, dst) = {
                let spec = &self.flows.cold[si].spec;
                (spec.src, spec.dst)
            };
            if self.slots_available(src, dst) {
                self.occupy_slots(src, dst, 1);
                self.queued.remove(&id);
                let bytes = self.flows.cold[si].spec.bytes.max(0.0);
                let row = &mut self.flows.hot[si];
                row.phase = Phase::Active;
                row.activated_at = now;
                row.rate_since = now;
                row.remaining = bytes;
                row.rate = 0.0;
                row.cap_bound = false;
                if bytes <= BYTE_EPS {
                    // Nothing to move: complete in this same step, without
                    // waiting for a rate or an ETA event.
                    self.done_now.push(slot);
                }
                joins.push(slot);
            } else {
                self.flows.hot[si].phase = Phase::Queued;
                self.queued.insert(id, slot);
            }
        }
        for &slot in joins.iter() {
            let id = self.flows.hot[slot as usize].id;
            self.route_membership(slot, true);
            self.active_count += 1;
            if !self.model.ramp_done(SimDuration::ZERO) {
                // Ids are allocated in increasing order, so this is an
                // append unless a queued flow activates behind a younger one.
                match self.ramping.last() {
                    Some(&(last, _)) if last > id => {
                        let at = self.ramping.partition_point(|&(r, _)| r < id);
                        self.ramping.insert(at, (id, slot));
                    }
                    _ => self.ramping.push((id, slot)),
                }
            }
        }
        self.join_scratch = joins;
    }

    /// Put the flow in `slot` on (`join`) or take it off every link of its
    /// route at `now`: occupancy and turbulence, membership, dirt.
    fn route_membership(&mut self, slot: u32, join: bool) {
        let si = slot as usize;
        let id = self.flows.hot[si].id;
        let cold = &self.flows.cold[si];
        let (route, streams) = (cold.route, cold.streams() as i64);
        let delta = if join { streams } else { -streams };
        for k in 0..route.len() {
            let ix = self.routes.link_at(route, k);
            let lh = &mut self.links[ix];
            lh.state.membership_change(&self.model, self.now, delta);
            self.note_turbulence(ix);
            if join {
                self.insert_member(ix, slot, id);
            } else {
                self.remove_member(ix, slot);
            }
            self.mark_link_dirty(ix);
        }
    }

    /// Flows on link `ix`.
    #[inline]
    fn member_count(&self, ix: usize) -> usize {
        let lh = &self.links[ix];
        if lh.nflows == FLOWS_SPILLED {
            self.link_spill[ix].len()
        } else {
            lh.nflows as usize
        }
    }

    /// The `m`-th flow slot on link `ix`, in owning-`FlowId` order.
    #[inline]
    fn member_at(&self, ix: usize, m: usize) -> u32 {
        let lh = &self.links[ix];
        if lh.nflows == FLOWS_SPILLED {
            self.link_spill[ix][m]
        } else {
            debug_assert!(m < lh.nflows as usize);
            lh.flows_inline[m]
        }
    }

    /// Add flow `id` (in `slot`) to link `ix`'s id-sorted membership,
    /// spilling the whole list to the side table when the row is full. A
    /// no-op when it is already there (a route that repeats a link).
    fn insert_member(&mut self, ix: usize, slot: u32, id: FlowId) {
        let hot = &self.flows.hot;
        let by_id = |&s: &u32| hot[s as usize].id;
        let lh = &mut self.links[ix];
        if lh.nflows == FLOWS_SPILLED {
            let list = &mut self.link_spill[ix];
            if let Err(pos) = list.binary_search_by_key(&id, by_id) {
                list.insert(pos, slot);
            }
            return;
        }
        let n = lh.nflows as usize;
        let Err(pos) = lh.flows_inline[..n].binary_search_by_key(&id, by_id) else {
            return;
        };
        if n < LINK_FLOWS_INLINE {
            // A fixed-length select over the row's slots instead of
            // `copy_within`: register moves, no `memmove` call.
            let a = lh.flows_inline;
            for (i, cell) in lh.flows_inline.iter_mut().enumerate() {
                *cell = if i < pos {
                    a[i]
                } else if i == pos {
                    slot
                } else {
                    a[i - 1]
                };
            }
            lh.nflows += 1;
        } else {
            let list = &mut self.link_spill[ix];
            list.clear();
            list.extend_from_slice(&lh.flows_inline);
            list.insert(pos, slot);
            lh.nflows = FLOWS_SPILLED;
        }
    }

    /// Take the flow in `slot` off link `ix`'s membership, back into the
    /// row once a spilled list drains to half the inline slots (hysteresis,
    /// so a link riding the limit does not copy its list back and forth).
    /// A no-op when it is not there (a route that repeats a link).
    fn remove_member(&mut self, ix: usize, slot: u32) {
        let lh = &mut self.links[ix];
        if lh.nflows == FLOWS_SPILLED {
            let list = &mut self.link_spill[ix];
            let Some(pos) = list.iter().position(|&s| s == slot) else {
                return;
            };
            list.remove(pos);
            if list.len() <= LINK_FLOWS_INLINE / 2 {
                lh.nflows = list.len() as u8;
                for (cell, &s) in lh.flows_inline.iter_mut().zip(list.iter()) {
                    *cell = s;
                }
                list.clear();
            }
            return;
        }
        let n = lh.nflows as usize;
        let Some(pos) = lh.flows_inline[..n].iter().position(|&s| s == slot) else {
            return;
        };
        // The same fixed-length select as `insert_member`; lanes past the
        // new `nflows` are don't-care.
        let a = lh.flows_inline;
        for (i, cell) in lh.flows_inline.iter_mut().enumerate() {
            *cell = if i < pos {
                a[i]
            } else {
                a[(i + 1).min(LINK_FLOWS_INLINE - 1)]
            };
        }
        lh.nflows -= 1;
    }

    /// Drop `id` from the ramping set if it is there.
    fn ramp_remove(&mut self, id: FlowId) {
        if let Ok(at) = self.ramping.binary_search_by_key(&id, |&(r, _)| r) {
            self.ramping.remove(at);
        }
    }

    /// Record that a link's membership or capacity changed since the last
    /// recompute.
    fn mark_link_dirty(&mut self, ix: usize) {
        let lh = &mut self.links[ix];
        if !lh.dirty {
            lh.dirty = true;
            self.dirty_links.push(ix);
        }
    }

    /// Enlist `ix` in the turbulent-link list if its stored turbulence is
    /// positive (call after any `membership_change`).
    fn note_turbulence(&mut self, ix: usize) {
        let lh = &mut self.links[ix];
        if lh.state.turbulence > 0.0 && !lh.turb {
            lh.turb = true;
            self.turb_links.push(ix);
        }
    }

    /// Retire drained flows, record them, release their streams. `fired`
    /// carries the flows whose Complete event popped this step; zero-byte
    /// activations arrive via `done_now`.
    fn collect_done(&mut self, fired: &mut Vec<(FlowId, u32)>) {
        if !self.done_now.is_empty() {
            let drained = std::mem::take(&mut self.done_now);
            for slot in drained {
                fired.push((self.flows.hot[slot as usize].id, slot));
            }
        }
        if fired.is_empty() {
            return;
        }
        sort_small_by_key(fired, |&(id, _)| id);
        let now = self.now;
        for &(id, slot) in fired.iter() {
            let si = slot as usize;
            if self.flows.hot[si].phase != Phase::Active || self.flows.hot[si].id != id {
                debug_assert!(false, "completion event for a non-active slot");
                continue;
            }
            let rem = self.remaining_at(si, now);
            if rem > BYTE_EPS {
                // The microsecond-rounded ETA fired a hair early; push the
                // event forward and drain the last bytes next step.
                let rate = self.flows.hot[si].rate;
                debug_assert!(rate > 0.0, "early ETA with zero rate");
                let eta = (now + SimDuration::from_secs_f64(rem / rate))
                    .max(now + SimDuration::from_micros(1));
                let h = self.sched.schedule_at(eta, NetEvent::complete(slot));
                self.flows.hot[si].set_eta(Some(h));
                continue;
            }
            if let Some(h) = self.flows.hot[si].take_eta() {
                // Zero-byte completions may still carry a pending ETA.
                self.sched.cancel(h);
            }
            let (src, dst, bytes, streams, tag, requested_at) = {
                let cold = &self.flows.cold[si];
                (
                    cold.spec.src,
                    cold.spec.dst,
                    cold.spec.bytes,
                    cold.streams(),
                    cold.spec.tag,
                    cold.requested_at,
                )
            };
            let activated_at = self.flows.hot[si].activated_at;
            self.occupy_slots(src, dst, -1);
            self.active_count -= 1;
            self.ramp_remove(id);
            self.route_membership(slot, false);
            self.total_bytes_completed += bytes;
            self.total_flows_completed += 1;
            if let Some(o) = &mut self.obs {
                let parent = o.flow_parents.remove(&id);
                let src_name = self.topology.host(src).name.clone();
                let dst_name = self.topology.host(dst).name.clone();
                o.obs.tracer.complete_span(
                    format!("flow {src_name}->{dst_name}"),
                    "net",
                    parent,
                    activated_at,
                    now,
                    &[
                        ("bytes", format!("{bytes:.0}")),
                        ("streams", streams.to_string()),
                        ("tag", tag.to_string()),
                    ],
                );
            }
            self.completed.push(TransferRecord {
                flow: id,
                tag,
                src,
                dst,
                bytes,
                streams,
                requested_at,
                activated_at,
                completed_at: now,
            });
            self.flows.remove(id);
        }
    }

    /// Settle turbulence and refresh the effective capacity of one link,
    /// marking it dirty when the capacity moved.
    fn refresh_capacity(&mut self, ix: usize, now: SimTime, have_faults: bool) {
        let fault_factor = if have_faults {
            self.fault_capacity_factor(LinkId(ix as u32), now)
        } else {
            1.0
        };
        let (model, memo) = (&self.model, &mut self.decay_memo);
        let lh = &mut self.links[ix];
        lh.state.settle_with(model, now, |dt| {
            if memo.0 != dt {
                *memo = (dt, model.decay_factor(dt));
            }
            memo.1
        });
        let factor = self
            .model
            .capacity_factor(lh.state.streams as f64, lh.state.turbulence);
        let cap = lh.base_capacity * factor * fault_factor;
        if cap != lh.capacity {
            lh.capacity = cap;
            self.mark_link_dirty(ix);
        }
    }

    /// Drop settled-out links from the turbulent list (stored turbulence
    /// must be fresh, i.e. the list's links were just settled).
    fn prune_turbulent(&mut self) {
        let mut i = 0;
        while i < self.turb_links.len() {
            let ix = self.turb_links[i];
            if self.links[ix].state.turbulence == 0.0 {
                self.links[ix].turb = false;
                self.turb_links.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Write an allocated rate back to a flow: on a genuine change (beyond
    /// [`RATE_EPS`] relative), re-anchor the lazy integrator at `now` and
    /// reschedule the completion-ETA event; otherwise leave both the rate
    /// and the pending event untouched. Always refreshes the cap-bound
    /// flag used to gate ramp recomputes.
    fn apply_rate(&mut self, slot: u32, now: SimTime, new_rate: f64, cap: f64) {
        let si = slot as usize;
        let old = self.flows.hot[si].rate;
        if (new_rate - old).abs() > RATE_EPS * old.abs().max(1.0) {
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
        } else {
            self.stats.unchanged_writes += 1;
        }
        self.flows.hot[si].cap_bound = new_rate >= cap * (1.0 - CAP_BOUND_SLACK);
    }

    /// Weighted max-min over effective link capacities, incremental and
    /// allocation-local.
    ///
    /// The recompute decomposes into:
    /// 1. a capacity refresh over only the links whose effective capacity
    ///    can have moved: dirty links (membership changed) and turbulent
    ///    links (decay changes the factor). Links that are neither have
    ///    zero turbulence and unchanged occupancy, so their capacity is
    ///    provably unchanged. When a fault plan is installed every link is
    ///    scanned instead, keeping fault-boundary arithmetic exact;
    /// 2. promotion of slow-start flows — but only when a flow's rising
    ///    cap is actually *binding* (`cap_bound`). A link-limited ramping
    ///    flow's cap is monotonically rising yet non-binding, so the
    ///    previous max-min solution is still exact and nothing needs to be
    ///    marked — not even when the ramp finishes;
    /// 3. if nothing is dirty, the previous allocation is provably still
    ///    the max-min solution and the whole recompute is skipped;
    /// 4. otherwise a BFS over the flow↔link bipartite index collects the
    ///    connected component(s) reachable from dirty links, and progressive
    ///    filling re-runs over exactly those flows and links — flows in
    ///    untouched components keep their rates (max-min allocations of
    ///    disjoint components are independent).
    ///
    /// Rates that move by less than [`RATE_EPS`] (relative) keep their old
    /// value *and their pending ETA event*, so numerically-unchanged
    /// allocations cannot cascade queue churn.
    fn recompute_rates(&mut self) {
        let now = self.now;
        self.stats.recomputes += 1;

        // 1. Refresh effective capacities where they can have moved.
        let have_faults = !self.faults.events().is_empty();
        if have_faults {
            for ix in 0..self.links.len() {
                self.refresh_capacity(ix, now, true);
            }
        } else {
            // `refresh_capacity` may grow `dirty_links`; bound the loop by
            // the count of pre-existing dirt.
            let n_dirty = self.dirty_links.len();
            for i in 0..n_dirty {
                let ix = self.dirty_links[i];
                self.refresh_capacity(ix, now, false);
            }
            for i in 0..self.turb_links.len() {
                let ix = self.turb_links[i];
                self.refresh_capacity(ix, now, false);
            }
        }
        self.prune_turbulent();

        // 2. Ramping flows: caps rise with age, but only a binding cap can
        //    change the allocation — and a cap that was not binding cannot
        //    start binding by rising further, so even the ramp-done settle
        //    is skipped for link-limited flows (their last max-min solution
        //    is still exact). Finished ramps just retire from the set.
        let mut kept = 0;
        for i in 0..self.ramping.len() {
            let (id, slot) = self.ramping[i];
            let si = slot as usize;
            debug_assert_eq!(self.flows.hot[si].phase, Phase::Active);
            if !self
                .model
                .ramp_done(now.since(self.flows.hot[si].activated_at))
            {
                self.ramping[kept] = (id, slot);
                kept += 1;
            }
            if self.flows.hot[si].cap_bound {
                let route = self.flows.cold[si].route;
                for k in 0..route.len() {
                    let ix = self.routes.link_at(route, k);
                    self.mark_link_dirty(ix);
                }
            }
        }
        self.ramping.truncate(kept);

        // 3. Nothing dirty → the previous allocation still stands.
        if self.dirty_links.is_empty() {
            self.stats.skipped += 1;
            self.record_timelines();
            return;
        }

        // 4. Collect the connected component(s) around the dirty links.
        self.bfs_stack.clear();
        for i in 0..self.dirty_links.len() {
            let seed = self.dirty_links[i];
            if !self.links[seed].seen {
                self.links[seed].seen = true;
                self.bfs_stack.push(seed);
            }
        }
        self.collect_component();

        // 5. Progressive filling over the component only.
        if self.comp_flows.len() == 1 {
            // Single-flow component: by construction every link in the
            // component carries only this flow (a second tenant would have
            // been pulled in by the BFS), so max-min fairness degenerates
            // to `min(flow cap, min link capacity)` — no allocator round.
            // Over half the recomputes in a completion-driven workload are
            // this shape (a cluster draining to its last flow).
            self.stats.component_runs += 1;
            self.stats.flows_allocated += 1;
            self.stats.links_allocated += self.comp_links.len() as u64;
            let slot = self.comp_flows[0];
            let si = slot as usize;
            debug_assert_eq!(self.flows.hot[si].phase, Phase::Active);
            let age = now.since(self.flows.hot[si].activated_at);
            let cold = &self.flows.cold[si];
            let route = cold.route;
            let cap = self.model.flow_cap(cold.streams(), age, route.rtt);
            let links = &self.links;
            let rate = RateAllocator::single_flow_rate(
                self.flows.hot[si].weight,
                cap,
                self.routes
                    .links(route)
                    .iter()
                    .map(|&l| links[l as usize].capacity),
            );
            self.apply_rate(slot, now, rate, cap);
            // Same write-back shape as the allocator path: the component
            // can contain dirty links with no flows at all (they zero),
            // not just the flow's own route (which carries the rate).
            let effective = self.flows.hot[si].rate;
            for i in 0..self.comp_links.len() {
                self.link_throughput[self.comp_links[i]] = 0.0;
            }
            for k in 0..route.len() {
                let ix = self.routes.link_at(route, k);
                self.link_throughput[ix] += effective;
            }
        } else if !self.comp_flows.is_empty() {
            self.stats.component_runs += 1;
            self.stats.flows_allocated += self.comp_flows.len() as u64;
            self.stats.links_allocated += self.comp_links.len() as u64;
            // The allocator stays in place (moving its 216 bytes out of
            // `self` and back was two `memcpy` calls per recompute); its
            // rates are read back by index below. It works in the
            // component's own link space — a link's position in the sorted
            // `comp_links` — so its scratch is as small as the component;
            // it still meets the links in first-touch order, which fixes
            // every reduction and tie-break.
            self.alloc.begin(self.comp_links.len());
            self.comp_caps.clear();
            for i in 0..self.comp_flows.len() {
                let si = self.comp_flows[i] as usize;
                debug_assert_eq!(self.flows.hot[si].phase, Phase::Active);
                let age = now.since(self.flows.hot[si].activated_at);
                let cold = &self.flows.cold[si];
                let cap = self.model.flow_cap(cold.streams(), age, cold.route.rtt);
                let comp_links = &self.comp_links;
                let local = self.routes.links(cold.route).iter().map(|&l| {
                    let at = comp_links.binary_search(&(l as usize));
                    at.expect("a component flow's links are in the component") as u32
                });
                self.alloc.push_flow(self.flows.hot[si].weight, cap, local);
                self.comp_caps.push(cap);
            }
            let (links, comp_links) = (&self.links, &self.comp_links);
            self.alloc.allocate(|l| links[comp_links[l]].capacity);

            // 6. Write rates back and rebuild the component's running
            //    throughput totals (links outside the component are exact
            //    already — nothing on them changed).
            for i in 0..self.comp_links.len() {
                self.link_throughput[self.comp_links[i]] = 0.0;
            }
            for i in 0..self.comp_flows.len() {
                let slot = self.comp_flows[i];
                self.apply_rate(slot, now, self.alloc.rates()[i], self.comp_caps[i]);
                let si = slot as usize;
                let effective = self.flows.hot[si].rate;
                let route = self.flows.cold[si].route;
                for k in 0..route.len() {
                    let ix = self.routes.link_at(route, k);
                    self.link_throughput[ix] += effective;
                }
            }
        } else {
            // Dirty links with no remaining flows (e.g. the last flow on a
            // cluster finished): their allocation drops to zero.
            for i in 0..self.comp_links.len() {
                self.link_throughput[self.comp_links[i]] = 0.0;
            }
        }

        // 7. Refresh gauges for the touched links only.
        if let Some(o) = &self.obs {
            for &ix in &self.comp_links {
                let (streams_gauge, throughput_gauge) = &o.link_gauges[ix];
                streams_gauge.set(f64::from(self.links[ix].state.streams));
                throughput_gauge.set(self.link_throughput[ix]);
            }
        }

        // 8. Consume the dirty set.
        for i in 0..self.dirty_links.len() {
            let ix = self.dirty_links[i];
            self.links[ix].dirty = false;
        }
        self.dirty_links.clear();
        self.record_timelines();
    }

    /// The connected component(s) of the flow↔link index around the seed
    /// links on `bfs_stack` (already marked `seen`): their flows into
    /// `comp_flows` sorted by id (the order the reference pass uses), their
    /// links into `comp_links` ascending. Leaves every `seen` marker clear.
    fn collect_component(&mut self) {
        self.comp_flows.clear();
        self.comp_links.clear();
        while let Some(ix) = self.bfs_stack.pop() {
            self.comp_links.push(ix);
            for m in 0..self.member_count(ix) {
                let slot = self.member_at(ix, m);
                let si = slot as usize;
                if !self.flows.hot[si].seen {
                    self.flows.hot[si].seen = true;
                    self.comp_flows.push(slot);
                    let route = self.flows.cold[si].route;
                    for k in 0..route.len() {
                        let other = self.routes.link_at(route, k);
                        if !self.links[other].seen {
                            self.links[other].seen = true;
                            self.bfs_stack.push(other);
                        }
                    }
                }
            }
        }
        {
            let hot = &self.flows.hot;
            sort_small_by_key(&mut self.comp_flows, |&s| hot[s as usize].id);
        }
        sort_small_by_key(&mut self.comp_links, |&ix| ix);
        for i in 0..self.comp_links.len() {
            self.links[self.comp_links[i]].seen = false;
        }
        for i in 0..self.comp_flows.len() {
            self.flows.hot[self.comp_flows[i] as usize].seen = false;
        }
    }

    /// Feed watched timelines from the running per-link totals (O(watched),
    /// with turbulence decayed to `now` non-mutatingly — unwatched state is
    /// never touched).
    fn record_timelines(&mut self) {
        if self.timelines.is_empty() || self.active_count == 0 {
            return;
        }
        let now = self.now;
        for (link, timeline) in self.timelines.iter_mut() {
            let lh = &self.links[link.0 as usize];
            timeline.record(UtilizationSample {
                at: now,
                streams: lh.state.streams,
                turbulence: self
                    .model
                    .decay_turbulence(lh.state.turbulence, now.since(lh.state.updated_at)),
                throughput: self.link_throughput[link.0 as usize],
            });
        }
    }

    /// Run the network by itself until all flows complete or `horizon` is
    /// reached. Convenience for tests and standalone benchmarks; the workflow
    /// executor drives the network manually instead.
    pub fn run_to_completion(&mut self, horizon: SimTime) {
        while self.live_flow_count() > 0 {
            match self.next_wakeup() {
                Some(t) if t <= horizon => self.advance(t),
                _ => break,
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are tweaked per-test
mod tests {
    use super::*;
    use crate::topology::paper_testbed;

    fn lan_pair() -> (Network, crate::HostId, crate::HostId) {
        let mut t = Topology::new();
        let a = t.add_host("a", 100.0e6);
        let b = t.add_host("b", 100.0e6);
        let mut model = StreamModel::default();
        // Simplify physics for unit-level assertions.
        model.setup_base = SimDuration::ZERO;
        model.setup_per_stream = SimDuration::ZERO;
        model.setup_rtts = 0.0;
        model.ramp_tau = SimDuration::ZERO;
        model.turbulence_per_event = 0.0;
        model.flow_weight_jitter = 0.0;
        (Network::new(t, model), a, b)
    }

    fn spec(src: crate::HostId, dst: crate::HostId, bytes: f64, streams: u32) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes,
            streams,
            tag: 0,
        }
    }

    #[test]
    fn obs_emits_flow_spans_fault_instants_and_link_gauges() {
        let (mut net, a, b) = lan_pair();
        let obs = pwm_obs::Obs::new();
        net.set_obs(obs.clone());
        net.inject_link_fault(
            SimTime::from_secs(50),
            SimDuration::from_secs(5),
            LinkFault {
                link: LinkId(0),
                kind: LinkFaultKind::Down,
            },
        );
        let id = net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6, 2));
        let parent = obs
            .tracer
            .start_span("transfer", "workflow", None, SimTime::ZERO);
        net.set_flow_span_parent(id, parent);
        net.run_to_completion(SimTime::from_secs(100));
        obs.tracer.end_span(parent, net.now());

        let events = obs.tracer.events();
        let span = events
            .iter()
            .find(|e| e.name == "flow a->b")
            .expect("flow span");
        assert!(span.dur.is_some());
        assert_eq!(span.parent, Some(parent.0));
        assert!(events.iter().any(|e| e.name == "link_fault_start"));
        assert!(events.iter().any(|e| e.name == "link_fault_end"));
        let text = obs.registry.render_prometheus();
        assert!(text.contains("pwm_net_link_streams"), "{text}");
        assert!(text.contains("pwm_net_link_throughput_bps"), "{text}");
    }

    #[test]
    fn single_flow_completes_in_expected_time() {
        let (mut net, a, b) = lan_pair();
        // 2 streams × 64 MB/s/stream (1ms floor) = 128 MB/s cap, but the
        // 100 MB/s NIC binds → 100 MB in 1s.
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6, 2));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 1);
        let dur = recs[0].transfer_duration().as_secs_f64();
        assert!((dur - 1.0).abs() < 0.02, "duration {dur}");
    }

    #[test]
    fn kill_severs_active_flows_and_frees_their_slots() {
        let (mut net, a, b) = lan_pair();
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6, 2));
        // Activate at the first wakeup (drivers always step via next_wakeup).
        net.advance(net.next_wakeup().unwrap());
        let killed = net.kill_flows_touching(SimTime::from_millis(500), a);
        assert_eq!(killed.len(), 1);
        // ~50 MB moved in 0.5 s at 100 MB/s; the rest was unmoved.
        assert!(
            (killed[0].bytes_remaining - 50.0e6).abs() < 2.0e6,
            "remaining {}",
            killed[0].bytes_remaining
        );
        assert!(net.take_completed().is_empty(), "no record for a kill");
        assert_eq!(net.live_flow_count(), 0);
        assert_eq!(net.host_connections(a), 0, "slots released");
        assert_eq!(net.host_connections(b), 0);
        // The engine keeps working: a fresh flow completes normally.
        net.start_flow(SimTime::from_secs(1), spec(a, b, 10.0e6, 2));
        net.run_to_completion(SimTime::from_secs(100));
        assert_eq!(net.take_completed().len(), 1);
    }

    #[test]
    fn kill_cancels_connecting_flows_pending_event() {
        let (net, a, b) = lan_pair();
        let mut model = net.model().clone();
        model.setup_base = SimDuration::from_secs(2);
        let topo = net.topology().clone();
        let mut net = Network::new(topo, model);
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6, 2));
        let killed = net.kill_flows_touching(SimTime::from_secs(1), b);
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].bytes_remaining, 100.0e6, "never activated");
        // Advancing past the cancelled Connect instant must not resurrect it.
        net.run_to_completion(SimTime::from_secs(100));
        assert!(net.take_completed().is_empty());
        assert_eq!(net.live_flow_count(), 0);
    }

    #[test]
    fn kill_removes_queued_flows_and_spares_other_hosts() {
        let mut t = Topology::new();
        let a = t.add_host("a", 100.0e6);
        let b = t.add_host("b", 100.0e6);
        let c = t.add_host("c", 100.0e6);
        t.set_host_connection_limit(b, 1);
        let mut model = StreamModel::default();
        model.setup_base = SimDuration::ZERO;
        model.setup_per_stream = SimDuration::ZERO;
        model.setup_rtts = 0.0;
        model.ramp_tau = SimDuration::ZERO;
        model.turbulence_per_event = 0.0;
        model.flow_weight_jitter = 0.0;
        let mut net = Network::new(t, model);
        net.start_flow(SimTime::ZERO, spec(a, b, 50.0e6, 2));
        net.start_flow(SimTime::ZERO, spec(c, b, 50.0e6, 2));
        net.advance(SimTime::from_millis(1));
        // One flow holds b's single slot; the other is queued behind it.
        let killed = net.kill_flows_touching(SimTime::from_millis(1), c);
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].src, c);
        // An unrelated host kill is a no-op.
        assert!(net
            .kill_flows_touching(SimTime::from_millis(2), crate::HostId(99))
            .is_empty());
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 1, "survivor completes");
        assert_eq!(recs[0].src, a);
    }

    #[test]
    fn one_stream_flow_is_window_limited() {
        let (mut net, a, b) = lan_pair();
        // 1 stream at 1 ms floor → 65.5 MB/s cap < 100 MB/s NIC.
        net.start_flow(SimTime::ZERO, spec(a, b, 65.536e6, 1));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        let dur = recs[0].transfer_duration().as_secs_f64();
        assert!((dur - 1.0).abs() < 0.02, "duration {dur}");
    }

    #[test]
    fn two_flows_share_the_nic_fairly() {
        let (mut net, a, b) = lan_pair();
        net.start_flow(SimTime::ZERO, spec(a, b, 50.0e6, 4));
        net.start_flow(SimTime::ZERO, spec(a, b, 50.0e6, 4));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 2);
        // Equal weights: both finish together at ~1s (100 MB total / 100MB/s).
        for r in &recs {
            let dur = r.transfer_duration().as_secs_f64();
            assert!((dur - 1.0).abs() < 0.05, "duration {dur}");
        }
    }

    #[test]
    fn weighted_flows_finish_proportionally() {
        let (mut net, a, b) = lan_pair();
        // Same size, 3:1 stream weights on a 100 MB/s NIC pair.
        let fast = net.start_flow(SimTime::ZERO, spec(a, b, 60.0e6, 3));
        net.start_flow(SimTime::ZERO, spec(a, b, 60.0e6, 1));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        let fast_rec = recs.iter().find(|r| r.flow == fast).unwrap();
        let slow_rec = recs.iter().find(|r| r.flow != fast).unwrap();
        assert!(
            fast_rec.completed_at < slow_rec.completed_at,
            "3-stream flow should finish first"
        );
    }

    #[test]
    fn setup_time_delays_activation() {
        let (net, a, b) = lan_pair();
        let mut model = StreamModel::default();
        model.ramp_tau = SimDuration::ZERO;
        model.turbulence_per_event = 0.0;
        model.setup_base = SimDuration::from_secs(1);
        model.setup_per_stream = SimDuration::ZERO;
        model.setup_rtts = 0.0;
        let topo = net.topology().clone();
        let mut net = Network::new(topo, model);
        net.start_flow(SimTime::ZERO, spec(a, b, 1.0e6, 2));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].activated_at >= SimTime::from_secs(1));
        assert!(recs[0].total_duration() > recs[0].transfer_duration());
    }

    #[test]
    fn wan_transfer_matches_paper_bandwidth() {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let mut model = StreamModel::default();
        model.turbulence_per_event = 0.0;
        model.flow_weight_jitter = 0.0;
        let mut net = Network::new(topo, model);
        // 8 streams × 1.63 MB/s > 3.5 MB/s WAN → WAN-limited. 35 MB → ~10 s
        // (plus setup and ramp).
        net.start_flow(SimTime::ZERO, spec(gridftp, nfs, 35.0e6, 8));
        net.run_to_completion(SimTime::from_secs(1000));
        let recs = net.take_completed();
        let goodput = recs[0].goodput();
        assert!(
            goodput > 2.8e6 && goodput <= 3.6e6,
            "goodput {goodput} should approach the 3.5 MB/s WAN cap"
        );
    }

    #[test]
    fn peak_streams_tracked_per_link() {
        let (mut net, a, b) = lan_pair();
        net.start_flow(SimTime::ZERO, spec(a, b, 10.0e6, 4));
        net.start_flow(SimTime::ZERO, spec(a, b, 10.0e6, 6));
        let access = net.topology().host(a).access_link;
        net.run_to_completion(SimTime::from_secs(100));
        assert_eq!(net.peak_streams(access), 10);
        assert_eq!(net.current_streams(access), 0);
        assert_eq!(net.total_flows_completed(), 2);
        assert!((net.total_bytes_completed() - 20.0e6).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately_after_setup() {
        let (mut net, a, b) = lan_pair();
        net.start_flow(SimTime::ZERO, spec(a, b, 0.0, 1));
        net.run_to_completion(SimTime::from_secs(10));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn staggered_starts_preserve_causality() {
        let (mut net, a, b) = lan_pair();
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6, 2));
        net.start_flow(SimTime::from_secs(2), spec(a, b, 10.0e6, 2));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 2);
        for r in &recs {
            assert!(r.completed_at > r.requested_at);
            assert!(r.activated_at >= r.requested_at);
        }
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn advance_backwards_panics() {
        let (mut net, _a, _b) = lan_pair();
        net.advance(SimTime::from_secs(5));
        net.advance(SimTime::from_secs(1));
    }

    #[test]
    fn next_wakeup_idle_network_is_none() {
        let (net, _a, _b) = lan_pair();
        assert!(net.next_wakeup().is_none());
    }

    #[test]
    fn oversubscription_slows_aggregate_throughput() {
        // Same total bytes, same flow count; the run whose threshold admits
        // 200+ streams must take longer than the one capped near the knee.
        let run = |streams_per_flow: u32| -> f64 {
            let (topo, gridftp, _apache, nfs) = paper_testbed();
            let mut net = Network::new(topo, StreamModel::default());
            for i in 0..20 {
                net.start_flow(
                    SimTime::ZERO,
                    FlowSpec {
                        src: gridftp,
                        dst: nfs,
                        bytes: 30.0e6,
                        streams: streams_per_flow,
                        tag: i,
                    },
                );
            }
            net.run_to_completion(SimTime::from_secs(100_000));
            let recs = net.take_completed();
            assert_eq!(recs.len(), 20);
            recs.iter()
                .map(|r| r.completed_at.as_secs_f64())
                .fold(0.0, f64::max)
        };
        let healthy = run(3); // 60 total streams ≤ knee
        let thrashing = run(10); // 200 total streams
        assert!(
            thrashing > healthy * 1.1,
            "healthy {healthy}s vs thrashing {thrashing}s"
        );
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod fault_tests {
    use super::*;
    use crate::fault::{LinkFault, LinkFaultKind};

    /// Two hosts joined by their access links with clean physics, so fault
    /// arithmetic is exact.
    fn clean_pair() -> (Network, crate::HostId, crate::HostId) {
        let mut t = Topology::new();
        let a = t.add_host("a", 100.0e6);
        let b = t.add_host("b", 100.0e6);
        let mut model = StreamModel::default();
        model.setup_base = SimDuration::ZERO;
        model.setup_per_stream = SimDuration::ZERO;
        model.setup_rtts = 0.0;
        model.ramp_tau = SimDuration::ZERO;
        model.turbulence_per_event = 0.0;
        model.flow_weight_jitter = 0.0;
        (Network::new(t, model), a, b)
    }

    fn spec(src: crate::HostId, dst: crate::HostId, bytes: f64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes,
            streams: 2,
            tag: 0,
        }
    }

    #[test]
    fn mid_transfer_outage_extends_completion_by_its_duration() {
        let (mut net, a, b) = clean_pair();
        let link = net.topology().host(a).access_link;
        // 100 MB over 100 MB/s finishes at 1s unfaulted. A 2s outage in the
        // middle of the transfer stalls it and shifts completion to ~3s.
        net.inject_link_fault(
            SimTime::from_millis(500),
            SimDuration::from_secs(2),
            LinkFault {
                link,
                kind: LinkFaultKind::Down,
            },
        );
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 1);
        let end = recs[0].completed_at.as_secs_f64();
        assert!(
            (end - 3.0).abs() < 0.02,
            "completed at {end}s, expected ~3s"
        );
    }

    #[test]
    fn degradation_slows_the_window_proportionally() {
        let (mut net, a, b) = clean_pair();
        let link = net.topology().host(a).access_link;
        // Half capacity for the whole transfer: 1s of work takes ~2s.
        net.inject_link_fault(
            SimTime::ZERO,
            SimDuration::from_secs(100),
            LinkFault {
                link,
                kind: LinkFaultKind::Degrade(0.5),
            },
        );
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        let end = recs[0].completed_at.as_secs_f64();
        assert!(
            (end - 2.0).abs() < 0.02,
            "completed at {end}s, expected ~2s"
        );
    }

    #[test]
    fn flap_sequence_is_deterministic_per_plan() {
        let run = || {
            let (mut net, a, b) = clean_pair();
            let link = net.topology().host(a).access_link;
            for i in 0..4u64 {
                net.inject_link_fault(
                    SimTime::from_millis(200 + 400 * i),
                    SimDuration::from_millis(150),
                    LinkFault {
                        link,
                        kind: LinkFaultKind::Down,
                    },
                );
            }
            net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6));
            net.run_to_completion(SimTime::from_secs(100));
            (
                net.fault_plan().describe(),
                net.take_completed()[0].completed_at,
            )
        };
        let (desc1, end1) = run();
        let (desc2, end2) = run();
        assert_eq!(desc1, desc2, "fault fingerprints must match");
        assert_eq!(end1, end2, "same plan must give bit-identical completion");
        // 4 flaps × 150 ms stall the 1s transfer by 600 ms.
        let end = end1.as_secs_f64();
        assert!(
            (end - 1.6).abs() < 0.02,
            "completed at {end}s, expected ~1.6s"
        );
    }

    #[test]
    fn faults_on_other_links_are_harmless() {
        // Fault a link the flow never crosses: a third host's access link.
        let mut t = Topology::new();
        let x = t.add_host("x", 100.0e6);
        let y = t.add_host("y", 100.0e6);
        let z = t.add_host("z", 100.0e6);
        let unused = t.host(z).access_link;
        let mut model = StreamModel::default();
        model.setup_base = SimDuration::ZERO;
        model.setup_per_stream = SimDuration::ZERO;
        model.setup_rtts = 0.0;
        model.ramp_tau = SimDuration::ZERO;
        model.turbulence_per_event = 0.0;
        model.flow_weight_jitter = 0.0;
        let mut net = Network::new(t, model);
        net.inject_link_fault(
            SimTime::ZERO,
            SimDuration::from_secs(50),
            LinkFault {
                link: unused,
                kind: LinkFaultKind::Down,
            },
        );
        net.start_flow(SimTime::ZERO, spec(x, y, 100.0e6));
        net.run_to_completion(SimTime::from_secs(100));
        let recs = net.take_completed();
        let end = recs[0].completed_at.as_secs_f64();
        assert!(
            (end - 1.0).abs() < 0.02,
            "unrelated fault changed makespan: {end}s"
        );
    }

    #[test]
    fn in_flight_flows_reshare_when_capacity_drops() {
        let (mut net, a, b) = clean_pair();
        let link = net.topology().host(a).access_link;
        // Two equal flows share 100 MB/s; at t=1s the link degrades to 20%,
        // so the remaining bytes drain 5× slower.
        net.inject_link_fault(
            SimTime::from_secs(1),
            SimDuration::from_secs(100),
            LinkFault {
                link,
                kind: LinkFaultKind::Degrade(0.2),
            },
        );
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6));
        net.start_flow(SimTime::ZERO, spec(a, b, 100.0e6));
        net.run_to_completion(SimTime::from_secs(1000));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 2);
        // 200 MB total: 100 MB done in the first second, the remaining
        // 100 MB at 20 MB/s → ~6s overall.
        for r in &recs {
            let end = r.completed_at.as_secs_f64();
            assert!((end - 6.0).abs() < 0.1, "completed at {end}s, expected ~6s");
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod timeline_tests {
    use super::*;
    use crate::topology::paper_testbed;

    #[test]
    fn watched_wan_link_records_saturation() {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let wan = topo
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id)
            .unwrap();
        let mut net = Network::with_seed(topo, StreamModel::default(), 1);
        net.watch_link(wan);
        for i in 0..10 {
            net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    src: gridftp,
                    dst: nfs,
                    bytes: 20.0e6,
                    streams: 4,
                    tag: i,
                },
            );
        }
        net.run_to_completion(SimTime::from_secs(10_000));
        let tl = net.timeline(wan).expect("watched");
        assert!(!tl.samples().is_empty());
        assert_eq!(tl.peak_streams(), 40);
        // Mid-run the WAN is saturated near its 3.5 MB/s capacity.
        let peak_throughput = tl
            .samples()
            .iter()
            .map(|s| s.throughput)
            .fold(0.0, f64::max);
        assert!(
            peak_throughput > 3.0e6 && peak_throughput <= 3.6e6,
            "peak throughput {peak_throughput}"
        );
        // Unwatched links stay unrecorded.
        assert!(net.timeline(LinkId(0)).is_none());
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod connection_limit_tests {
    use super::*;
    use crate::topology::Topology;

    fn limited_pair(max: u32) -> (Network, crate::HostId, crate::HostId) {
        let mut t = Topology::new();
        let a = t.add_host("server", 100.0e6);
        let b = t.add_host("client", 100.0e6);
        t.set_host_connection_limit(a, max);
        let mut model = StreamModel::default();
        model.setup_base = SimDuration::ZERO;
        model.setup_per_stream = SimDuration::ZERO;
        model.setup_rtts = 0.0;
        model.ramp_tau = SimDuration::ZERO;
        model.turbulence_per_event = 0.0;
        model.flow_weight_jitter = 0.0;
        (Network::new(t, model), a, b)
    }

    fn spec(src: crate::HostId, dst: crate::HostId, bytes: f64, tag: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes,
            streams: 2,
            tag,
        }
    }

    #[test]
    fn connection_limit_serializes_excess_flows() {
        // Server allows 2 concurrent connections; 4 equal flows must run as
        // two consecutive pairs → ~double the unconstrained time.
        let (mut net, server, client) = limited_pair(2);
        for i in 0..4 {
            net.start_flow(SimTime::ZERO, spec(server, client, 50.0e6, i));
        }
        net.run_to_completion(SimTime::from_secs(1000));
        let recs = net.take_completed();
        assert_eq!(recs.len(), 4);
        // First pair finishes ~1s (100 MB over 100 MB/s shared by 2);
        // second pair ~2s.
        let mut ends: Vec<f64> = recs.iter().map(|r| r.completed_at.as_secs_f64()).collect();
        ends.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((ends[1] - 1.0).abs() < 0.1, "first pair at {:?}", ends);
        assert!((ends[3] - 2.0).abs() < 0.1, "second pair at {:?}", ends);
        assert_eq!(net.host_connections(server), 0, "slots drained");
    }

    #[test]
    fn queue_promotes_in_fifo_order() {
        let (mut net, server, client) = limited_pair(1);
        let first = net.start_flow(SimTime::ZERO, spec(server, client, 10.0e6, 0));
        let second = net.start_flow(SimTime::ZERO, spec(server, client, 10.0e6, 1));
        let third = net.start_flow(SimTime::ZERO, spec(server, client, 10.0e6, 2));
        net.run_to_completion(SimTime::from_secs(1000));
        let recs = net.take_completed();
        let order: Vec<FlowId> = {
            let mut r: Vec<_> = recs.iter().map(|r| (r.completed_at, r.flow)).collect();
            r.sort();
            r.into_iter().map(|(_, f)| f).collect()
        };
        assert_eq!(order, vec![first, second, third]);
    }

    #[test]
    fn unlimited_hosts_never_queue() {
        let (mut net, server, client) = {
            let mut t = Topology::new();
            let a = t.add_host("server", 100.0e6);
            let b = t.add_host("client", 100.0e6);
            let mut model = StreamModel::default();
            model.flow_weight_jitter = 0.0;
            (Network::new(t, model), a, b)
        };
        for i in 0..50 {
            net.start_flow(SimTime::ZERO, spec(server, client, 1.0e6, i));
        }
        net.run_to_completion(SimTime::from_secs(1000));
        assert_eq!(net.take_completed().len(), 50);
    }

    #[test]
    fn limit_applies_at_the_destination_too() {
        let (mut net, server, client) = {
            let mut t = Topology::new();
            let a = t.add_host("server", 100.0e6);
            let b = t.add_host("client", 100.0e6);
            t.set_host_connection_limit(b, 1);
            let mut model = StreamModel::default();
            model.setup_base = SimDuration::ZERO;
            model.setup_per_stream = SimDuration::ZERO;
            model.setup_rtts = 0.0;
            model.ramp_tau = SimDuration::ZERO;
            model.turbulence_per_event = 0.0;
            model.flow_weight_jitter = 0.0;
            (Network::new(t, model), a, b)
        };
        net.start_flow(SimTime::ZERO, spec(server, client, 100.0e6, 0));
        net.start_flow(SimTime::ZERO, spec(server, client, 100.0e6, 1));
        net.run_to_completion(SimTime::from_secs(1000));
        let recs = net.take_completed();
        // Serialized: 1s then 2s, not both at 2s.
        let mut ends: Vec<f64> = recs.iter().map(|r| r.completed_at.as_secs_f64()).collect();
        ends.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((ends[0] - 1.0).abs() < 0.05, "{ends:?}");
        assert!((ends[1] - 2.0).abs() < 0.05, "{ends:?}");
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod proptests {
    use super::*;
    use crate::topology::paper_testbed;
    use proptest::prelude::*;

    /// Arbitrary batch of flows on the paper testbed (mix of WAN and LAN).
    fn arb_flows() -> impl Strategy<Value = Vec<(bool, f64, u32, u64)>> {
        proptest::collection::vec(
            (
                any::<bool>(),   // true = WAN (gridftp→nfs), false = LAN (apache→nfs)
                1.0e4..2.0e8f64, // bytes
                1u32..16,        // streams
                0u64..10,        // start delay (seconds)
            ),
            1..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every flow eventually completes, exactly once, and the records
        /// are causally consistent.
        #[test]
        fn all_flows_complete_exactly_once(flows in arb_flows()) {
            let (topo, gridftp, apache, nfs) = paper_testbed();
            let mut net = Network::with_seed(topo, StreamModel::default(), 42);
            let n = flows.len();
            for (i, (wan, bytes, streams, delay)) in flows.into_iter().enumerate() {
                let src = if wan { gridftp } else { apache };
                net.advance(net.now().max(SimTime::from_secs(delay)));
                net.start_flow(net.now(), FlowSpec {
                    src,
                    dst: nfs,
                    bytes,
                    streams,
                    tag: i as u64,
                });
            }
            net.run_to_completion(SimTime::from_secs(1_000_000));
            let recs = net.take_completed();
            prop_assert_eq!(recs.len(), n);
            let mut tags: Vec<u64> = recs.iter().map(|r| r.tag).collect();
            tags.sort_unstable();
            let expected: Vec<u64> = (0..n as u64).collect();
            prop_assert_eq!(tags, expected);
            for r in &recs {
                prop_assert!(r.activated_at >= r.requested_at);
                prop_assert!(r.completed_at > r.activated_at || r.bytes < 1.0);
            }
        }

        /// Goodput never exceeds the bottleneck capacity of the route, and
        /// aggregate bytes accounting matches.
        #[test]
        fn goodput_bounded_by_bottleneck(flows in arb_flows()) {
            let (topo, gridftp, apache, nfs) = paper_testbed();
            let mut net = Network::with_seed(topo, StreamModel::default(), 7);
            let mut total = 0.0;
            for (i, (wan, bytes, streams, _)) in flows.iter().enumerate() {
                let src = if *wan { gridftp } else { apache };
                total += bytes;
                net.start_flow(SimTime::ZERO, FlowSpec {
                    src,
                    dst: nfs,
                    bytes: *bytes,
                    streams: *streams,
                    tag: i as u64,
                });
            }
            net.run_to_completion(SimTime::from_secs(1_000_000));
            let recs = net.take_completed();
            prop_assert!((net.total_bytes_completed() - total).abs() < 1.0);
            for r in &recs {
                let cap = if r.src == gridftp { 3.5e6 } else { 110.0e6 };
                // A single flow's goodput can never exceed its bottleneck
                // (small slack for the fluid integrator's microsecond grid).
                prop_assert!(
                    r.goodput() <= cap * 1.01 + 1.0,
                    "flow {} goodput {} over cap {}", r.tag, r.goodput(), cap
                );
            }
        }

        /// Identical inputs + identical seed ⇒ identical completion times.
        #[test]
        fn deterministic_under_fixed_seed(flows in arb_flows()) {
            let run = |seed: u64, flows: &[(bool, f64, u32, u64)]| {
                let (topo, gridftp, apache, nfs) = paper_testbed();
                let mut net = Network::with_seed(topo, StreamModel::default(), seed);
                for (i, (wan, bytes, streams, _)) in flows.iter().enumerate() {
                    let src = if *wan { gridftp } else { apache };
                    net.start_flow(SimTime::ZERO, FlowSpec {
                        src, dst: nfs, bytes: *bytes, streams: *streams, tag: i as u64,
                    });
                }
                net.run_to_completion(SimTime::from_secs(1_000_000));
                net.take_completed()
                    .into_iter()
                    .map(|r| (r.tag, r.completed_at))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(3, &flows), run(3, &flows));
        }

        /// Stream accounting: peaks never exceed the sum of all flows'
        /// streams, and every link ends idle.
        #[test]
        fn stream_accounting_is_conservative(flows in arb_flows()) {
            let (topo, gridftp, apache, nfs) = paper_testbed();
            let total_streams: u32 = flows.iter().map(|(_, _, s, _)| *s.max(&1)).sum();
            let mut net = Network::with_seed(topo, StreamModel::default(), 5);
            for (i, (wan, bytes, streams, _)) in flows.iter().enumerate() {
                let src = if *wan { gridftp } else { apache };
                net.start_flow(SimTime::ZERO, FlowSpec {
                    src, dst: nfs, bytes: *bytes, streams: *streams, tag: i as u64,
                });
            }
            net.run_to_completion(SimTime::from_secs(1_000_000));
            let links: Vec<LinkId> = net.topology().links().map(|(id, _)| id).collect();
            for link in links {
                prop_assert!(net.peak_streams(link) <= total_streams);
                prop_assert_eq!(net.current_streams(link), 0, "link {} not drained", link);
            }
        }
    }
}
