//! Weighted max-min fair bandwidth sharing with per-flow rate caps.
//!
//! Given a set of links with (effective) capacities and a set of flows, each
//! with a weight (its parallel-stream count), a rate cap (streams ×
//! per-stream rate × ramp), and the list of links it crosses, compute the
//! classic *progressive-filling* allocation: grow every flow's rate in
//! proportion to its weight until it hits its cap or a link it crosses is
//! saturated; freeze those flows and repeat with the residual capacity.
//!
//! This is the fluid-flow approximation used by network simulators for bulk
//! TCP: fast to recompute at every membership change and accurate at the
//! tens-of-seconds timescales the workflow experiments care about.

/// A reusable progressive-filling allocator.
///
/// Semantically equivalent to naive progressive filling (kept as the
/// test-only reference `max_min_rates` in the `network::reference` module,
/// which the tests below hold this allocator to), but engineered for the
/// recompute hot path:
///
/// * **No per-call allocation.** All working state — residual capacities,
///   per-link residual weights, flow tables, the flattened link lists — lives
///   in buffers that persist across calls and are reset lazily (only the
///   entries touched by the previous call are cleared).
/// * **Decremental link weights.** The naive algorithm rebuilds the
///   per-link weight sums from scratch on every filling iteration; here the
///   sums are built once and *decremented* as flows freeze.
/// * **Shrinking scan set.** Frozen flows drop out of the per-iteration
///   scans (order-preserving compaction), so late iterations touch only the
///   still-growing flows instead of re-skipping everything frozen so far.
///
/// Usage: `begin(link_count)`, then one [`RateAllocator::push_flow`] per
/// flow (in a deterministic order — the caller's iteration order fixes every
/// floating-point reduction), then [`RateAllocator::allocate`].
#[derive(Debug, Default)]
pub struct RateAllocator {
    /// Per-link working state; valid only for links in `touched`. One row
    /// per link rather than three parallel arrays: the filling loop indexes
    /// links at random, so splitting residual/weight/touched across arrays
    /// costs three cache lines per link touched where one row costs one.
    scratch: Vec<LinkScratch>,
    /// Links referenced by at least one pushed flow this round.
    touched: Vec<usize>,
    /// Per-flow weight, in push order.
    weights: Vec<f64>,
    /// Per-flow rate cap, in push order.
    caps: Vec<f64>,
    /// Flattened link lists of all pushed flows.
    links_flat: Vec<u32>,
    /// Per-flow `(start, end)` span into `links_flat`.
    spans: Vec<(u32, u32)>,
    /// Computed rates, in push order.
    rates: Vec<f64>,
    /// Per-flow frozen marker.
    fixed: Vec<bool>,
    /// Still-growing flow indices (order-preserving).
    active: Vec<usize>,
}

/// Per-link allocator working state, packed so the random-access filling
/// loops pay one cache line per link instead of three.
#[derive(Debug, Default, Clone, Copy)]
struct LinkScratch {
    /// Residual capacity, decremented as flows grow.
    residual: f64,
    /// Residual weight over unfrozen flows, decremented as flows freeze.
    weight: f64,
    /// True iff the link is in `touched` (lazily reset by `begin`).
    touched: bool,
}

impl RateAllocator {
    /// Numerical slop shared with the reference `max_min_rates`.
    const EPS: f64 = 1e-9;

    /// Fresh allocator with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new allocation round over a link space of `link_count`.
    pub fn begin(&mut self, link_count: usize) {
        // Lazily clear only what the previous round touched.
        for &l in &self.touched {
            self.scratch[l].touched = false;
        }
        self.touched.clear();
        if self.scratch.len() < link_count {
            self.scratch.resize(link_count, LinkScratch::default());
        }
        self.weights.clear();
        self.caps.clear();
        self.links_flat.clear();
        self.spans.clear();
        self.rates.clear();
        self.fixed.clear();
        self.active.clear();
    }

    /// Add one flow. `links` yields indices into the link space declared to
    /// [`RateAllocator::begin`] (`u32`, matching how callers store routes in
    /// their packed per-flow rows). The space is the caller's to number: the
    /// engine numbers a component's own links, so the per-link scratch is
    /// the component's size, not the network's.
    pub fn push_flow(&mut self, weight: f64, cap: f64, links: impl IntoIterator<Item = u32>) {
        let start = self.links_flat.len() as u32;
        for l in links {
            self.links_flat.push(l);
            let l = l as usize;
            if !self.scratch[l].touched {
                self.scratch[l].touched = true;
                self.touched.push(l);
            }
        }
        self.spans.push((start, self.links_flat.len() as u32));
        self.weights.push(weight);
        self.caps.push(cap);
        self.rates.push(0.0);
        self.fixed.push(false);
    }

    /// Run progressive filling over the pushed flows and return one rate
    /// per flow, in push order. `capacity_of(l)` yields the effective
    /// capacity of link `l` — an accessor rather than a slice so callers
    /// can keep capacities packed inside their own per-link rows (it is
    /// called once per touched link, when seeding residuals). Call it once
    /// per `begin`; the returned slice is valid until the next `begin`.
    pub fn allocate(&mut self, capacity_of: impl Fn(usize) -> f64) -> &[f64] {
        let n = self.weights.len();
        for &l in &self.touched {
            self.scratch[l].residual = capacity_of(l);
            self.scratch[l].weight = 0.0;
        }
        // Capless/linkless flows take their cap; the rest seed link weights.
        for i in 0..n {
            let (s, e) = self.spans[i];
            if s == e || self.weights[i] <= 0.0 {
                self.rates[i] = self.caps[i].max(0.0);
                self.fixed[i] = true;
            } else {
                self.active.push(i);
                for &l in &self.links_flat[s as usize..e as usize] {
                    self.scratch[l as usize].weight += self.weights[i];
                }
            }
        }

        while !self.active.is_empty() {
            // Binding constraint: the smallest per-weight share any loaded
            // link offers, or the smallest per-weight residual cap.
            let mut limit = f64::INFINITY;
            let mut limit_is_link = false;
            let mut limit_link = usize::MAX;
            for &l in &self.touched {
                let w = self.scratch[l].weight;
                if w > Self::EPS {
                    let share = self.scratch[l].residual.max(0.0) / w;
                    if share < limit - Self::EPS {
                        limit = share;
                        limit_is_link = true;
                        limit_link = l;
                    }
                }
            }
            for &i in &self.active {
                let cap_share = (self.caps[i] - self.rates[i]).max(0.0) / self.weights[i];
                if cap_share < limit - Self::EPS {
                    limit = cap_share;
                    limit_is_link = false;
                }
            }
            if !limit.is_finite() {
                break;
            }

            // Grow every active flow by weight × limit.
            for &i in &self.active {
                let inc = self.weights[i] * limit;
                self.rates[i] += inc;
                let (s, e) = self.spans[i];
                for &l in &self.links_flat[s as usize..e as usize] {
                    self.scratch[l as usize].residual -= inc;
                }
            }

            // Freeze flows that hit the binding constraint.
            let mut froze = false;
            for &i in &self.active {
                let (s, e) = self.spans[i];
                let links = &self.links_flat[s as usize..e as usize];
                let at_cap = self.rates[i] >= self.caps[i] - Self::EPS;
                let on_saturated = limit_is_link && links.contains(&(limit_link as u32));
                let on_any_saturated = links
                    .iter()
                    .any(|&l| self.scratch[l as usize].residual <= Self::EPS);
                if at_cap || on_saturated || on_any_saturated {
                    self.fixed[i] = true;
                    froze = true;
                }
            }
            if !froze {
                // Numerical corner: freeze everything touching the tightest
                // link to guarantee progress (mirrors the reference).
                for &i in &self.active {
                    let (s, e) = self.spans[i];
                    let links = &self.links_flat[s as usize..e as usize];
                    if links.contains(&(limit_link as u32)) || !limit_is_link {
                        self.fixed[i] = true;
                    }
                }
            }
            // Drop frozen flows from the scan set, returning their weight.
            // An in-place compaction rather than `retain`, whose tail
            // fix-up is a `memmove` call even when nothing is left to move.
            let mut kept = 0;
            for k in 0..self.active.len() {
                let i = self.active[k];
                if self.fixed[i] {
                    let (s, e) = self.spans[i];
                    for &l in &self.links_flat[s as usize..e as usize] {
                        self.scratch[l as usize].weight -= self.weights[i];
                    }
                } else {
                    self.active[kept] = i;
                    kept += 1;
                }
            }
            self.active.truncate(kept);
        }
        &self.rates
    }

    /// The rates of the last [`RateAllocator::allocate`], in push order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of flows pushed since the last `begin` (diagnostic).
    pub fn flow_count(&self) -> usize {
        self.weights.len()
    }

    /// Rate for a component containing exactly one flow: max-min fairness
    /// degenerates to the binding constraint of the first (and only)
    /// filling round. This mirrors [`RateAllocator::allocate`] *bit for
    /// bit* — same `EPS` guards, same `weight * limit` rounding, same
    /// iteration order over `capacities` as the `touched` list would have —
    /// so callers can take this shortcut without perturbing a single ULP
    /// relative to running the full allocator (the rate digests of
    /// `crates/net/tests/interned_routes.rs` and `link_membership.rs` pin
    /// the engine's rates bit for bit). `capacities` must yield the flow's
    /// links in route order (the order `push_flow` would have touched them).
    pub fn single_flow_rate(
        weight: f64,
        cap: f64,
        capacities: impl IntoIterator<Item = f64>,
    ) -> f64 {
        if weight <= 0.0 {
            // `allocate` fixes non-positive-weight flows at their cap.
            return cap.max(0.0);
        }
        let mut limit = f64::INFINITY;
        if weight > Self::EPS {
            for c in capacities {
                let share = c.max(0.0) / weight;
                if share < limit - Self::EPS {
                    limit = share;
                }
            }
        }
        let cap_share = cap.max(0.0) / weight;
        if cap_share < limit - Self::EPS {
            limit = cap_share;
        }
        if !limit.is_finite() {
            return 0.0;
        }
        weight * limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::reference::{max_min_rates, FlowDemand};

    fn demand(weight: f64, cap: f64, links: &[usize]) -> FlowDemand {
        FlowDemand {
            weight,
            cap,
            links: links.to_vec(),
        }
    }

    fn link_usage(capacities: &[f64], flows: &[FlowDemand], rates: &[f64]) -> Vec<f64> {
        let mut used = vec![0.0; capacities.len()];
        for (f, &r) in flows.iter().zip(rates) {
            for &l in &f.links {
                used[l] += r;
            }
        }
        used
    }

    #[test]
    fn single_flow_takes_min_of_cap_and_capacity() {
        let caps = [10.0];
        let flows = [demand(4.0, 100.0, &[0])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 10.0).abs() < 1e-6);

        let flows = [demand(4.0, 3.0, &[0])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equal_weights_split_equally() {
        let caps = [12.0];
        let flows = [demand(1.0, 100.0, &[0]), demand(1.0, 100.0, &[0])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 6.0).abs() < 1e-6);
        assert!((r[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn weights_bias_the_split() {
        let caps = [12.0];
        let flows = [demand(2.0, 100.0, &[0]), demand(1.0, 100.0, &[0])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 8.0).abs() < 1e-6);
        assert!((r[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_releases_share_to_others() {
        let caps = [12.0];
        let flows = [demand(1.0, 2.0, &[0]), demand(1.0, 100.0, &[0])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 2.0).abs() < 1e-6);
        assert!((r[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn never_exceeds_any_link_capacity() {
        let caps = [10.0, 6.0];
        let flows = [
            demand(3.0, 100.0, &[0, 1]),
            demand(1.0, 100.0, &[0]),
            demand(2.0, 100.0, &[1]),
        ];
        let r = max_min_rates(&caps, &flows);
        let used = link_usage(&caps, &flows, &r);
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-6, "used {u} > cap {c}");
        }
    }

    #[test]
    fn bottleneck_link_determines_shared_flow() {
        // Flow A crosses both links; the 6-unit link is the bottleneck it
        // shares with flow C at equal weight → A gets 2 on it (weight 1 vs 2).
        let caps = [10.0, 6.0];
        let flows = [demand(1.0, 100.0, &[0, 1]), demand(2.0, 100.0, &[1])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 2.0).abs() < 1e-6);
        assert!((r[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn flow_with_no_links_gets_its_cap() {
        let caps = [1.0];
        let flows = [demand(1.0, 42.0, &[])];
        let r = max_min_rates(&caps, &flows);
        assert_eq!(r[0], 42.0);
    }

    #[test]
    fn zero_weight_flow_gets_cap_without_consuming() {
        let caps = [10.0];
        let flows = [demand(0.0, 1.0, &[0]), demand(1.0, 100.0, &[0])];
        let r = max_min_rates(&caps, &flows);
        assert_eq!(r[0], 1.0);
        assert!((r[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs() {
        assert!(max_min_rates(&[], &[]).is_empty());
        let caps = [5.0];
        assert!(max_min_rates(&caps, &[]).is_empty());
    }

    #[test]
    fn after_unsaturated_bottleneck_rest_fills_up() {
        // Flow A capped at 1; flows B, C share the rest of a 10-unit link.
        let caps = [10.0];
        let flows = [
            demand(1.0, 1.0, &[0]),
            demand(1.0, 100.0, &[0]),
            demand(1.0, 100.0, &[0]),
        ];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 1.0).abs() < 1e-6);
        assert!((r[1] - 4.5).abs() < 1e-6);
        assert!((r[2] - 4.5).abs() < 1e-6);
    }

    #[test]
    fn many_flows_conservation_and_fairness() {
        let caps = [100.0];
        let flows: Vec<FlowDemand> = (0..20).map(|_| demand(4.0, 1e9, &[0])).collect();
        let r = max_min_rates(&caps, &flows);
        let total: f64 = r.iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
        for w in &r {
            assert!((w - 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn two_hop_route_limited_by_smaller_link() {
        let caps = [3.5, 125.0];
        let flows = [demand(8.0, 1e9, &[0, 1])];
        let r = max_min_rates(&caps, &flows);
        assert!((r[0] - 3.5).abs() < 1e-6);
    }

    fn links_u32(links: &[usize]) -> Vec<u32> {
        links.iter().map(|&l| l as u32).collect()
    }

    fn alloc_rates(caps: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
        let mut alloc = RateAllocator::new();
        alloc.begin(caps.len());
        for f in flows {
            alloc.push_flow(f.weight, f.cap, links_u32(&f.links));
        }
        alloc.allocate(|l| caps[l]).to_vec()
    }

    #[test]
    fn allocator_matches_reference_on_unit_cases() {
        let cases: Vec<(Vec<f64>, Vec<FlowDemand>)> = vec![
            (vec![10.0], vec![demand(4.0, 100.0, &[0])]),
            (
                vec![12.0],
                vec![demand(2.0, 100.0, &[0]), demand(1.0, 100.0, &[0])],
            ),
            (
                vec![12.0],
                vec![demand(1.0, 2.0, &[0]), demand(1.0, 100.0, &[0])],
            ),
            (
                vec![10.0, 6.0],
                vec![
                    demand(3.0, 100.0, &[0, 1]),
                    demand(1.0, 100.0, &[0]),
                    demand(2.0, 100.0, &[1]),
                ],
            ),
            (vec![1.0], vec![demand(1.0, 42.0, &[])]),
            (
                vec![10.0],
                vec![demand(0.0, 1.0, &[0]), demand(1.0, 100.0, &[0])],
            ),
            (vec![3.5, 125.0], vec![demand(8.0, 1e9, &[0, 1])]),
        ];
        for (caps, flows) in cases {
            let reference = max_min_rates(&caps, &flows);
            let fast = alloc_rates(&caps, &flows);
            for (a, b) in reference.iter().zip(&fast) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn allocator_is_reusable_across_rounds() {
        let mut alloc = RateAllocator::new();
        // Round 1: two flows on link 0.
        alloc.begin(3);
        alloc.push_flow(1.0, 100.0, [0u32]);
        alloc.push_flow(1.0, 100.0, [0u32]);
        let r = alloc.allocate(|l| [12.0, 5.0, 7.0][l]);
        assert!((r[0] - 6.0).abs() < 1e-9);
        // Round 2: different shape; stale state must not bleed through.
        alloc.begin(3);
        alloc.push_flow(2.0, 100.0, [1u32, 2]);
        assert_eq!(alloc.flow_count(), 1);
        let r = alloc.allocate(|l| [12.0, 5.0, 7.0][l]);
        assert!((r[0] - 5.0).abs() < 1e-9, "{r:?}");
    }
}

#[cfg(test)]
mod equivalence_proptests {
    use super::*;
    use crate::network::reference::{max_min_rates, FlowDemand};
    use proptest::prelude::*;

    /// Random abstract topologies: up to 12 links, up to 24 flows each
    /// crossing a random subset of links with random weight and cap.
    fn arb_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<FlowDemand>)> {
        (1usize..12).prop_flat_map(|nlinks| {
            let caps = proptest::collection::vec(0.5f64..200.0, nlinks..nlinks + 1);
            let flows = proptest::collection::vec(
                (
                    0.1f64..16.0,                               // weight
                    0.01f64..500.0,                             // cap
                    proptest::collection::vec(0..nlinks, 0..5), // links (may repeat)
                ),
                1..24,
            )
            .prop_map(|fs| {
                fs.into_iter()
                    .map(|(weight, cap, mut links)| {
                        links.sort_unstable();
                        links.dedup();
                        FlowDemand { weight, cap, links }
                    })
                    .collect::<Vec<_>>()
            });
            (caps, flows)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scratch-buffer incremental allocator and the naive reference
        /// agree within 1e-6 relative rate error on random topologies.
        #[test]
        fn incremental_matches_naive_reference((caps, flows) in arb_scenario()) {
            let reference = max_min_rates(&caps, &flows);
            let mut alloc = RateAllocator::new();
            alloc.begin(caps.len());
            for f in &flows {
                alloc.push_flow(f.weight, f.cap, f.links.iter().map(|&l| l as u32));
            }
            let fast = alloc.allocate(|l| caps[l]);
            for (i, (a, b)) in reference.iter().zip(fast).enumerate() {
                let tol = 1e-6 * a.abs().max(1e-9);
                prop_assert!(
                    (a - b).abs() <= tol,
                    "flow {i}: reference {a} vs incremental {b}"
                );
            }
        }

        /// Component locality: allocating two disjoint link groups together
        /// or separately gives the same rates.
        #[test]
        fn disjoint_components_allocate_independently(
            (caps_a, flows_a) in arb_scenario(),
            (caps_b, flows_b) in arb_scenario(),
        ) {
            // Shift component B's link indices past component A's.
            let offset = caps_a.len();
            let mut caps = caps_a.clone();
            caps.extend_from_slice(&caps_b);
            let shifted_b: Vec<FlowDemand> = flows_b
                .iter()
                .map(|f| FlowDemand {
                    weight: f.weight,
                    cap: f.cap,
                    links: f.links.iter().map(|l| l + offset).collect(),
                })
                .collect();
            let mut joint_flows = flows_a.clone();
            joint_flows.extend(shifted_b.iter().cloned());
            let joint = max_min_rates(&caps, &joint_flows);

            let to_u32 = |links: &[usize]| links.iter().map(|&l| l as u32).collect::<Vec<u32>>();
            let mut alloc = RateAllocator::new();
            alloc.begin(caps.len());
            for f in &flows_a {
                alloc.push_flow(f.weight, f.cap, to_u32(&f.links));
            }
            let ra = alloc.allocate(|l| caps[l]).to_vec();
            alloc.begin(caps.len());
            for f in &shifted_b {
                alloc.push_flow(f.weight, f.cap, to_u32(&f.links));
            }
            let rb = alloc.allocate(|l| caps[l]).to_vec();

            for (i, (j, s)) in joint.iter().zip(ra.iter().chain(rb.iter())).enumerate() {
                let tol = 1e-6 * j.abs().max(1e-9);
                prop_assert!(
                    (j - s).abs() <= tol,
                    "flow {i}: joint {j} vs separate {s}"
                );
            }
        }
    }
}
