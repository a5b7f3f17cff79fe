//! Interned routes: each host pair's links and RTT resolved once.
//!
//! A flow's route is fixed by its endpoints, and a workload starts many
//! flows between few pairs. [`RouteTable`] resolves a pair through
//! [`Topology::route`] the first time it is asked for, appends the links to
//! one shared pool, and answers every later ask from the table instead of
//! hashing into the topology's route map and copying the links out. Each
//! source's first destination sits in one flat per-source array, so the
//! common ask (a source that sends to one place) is a single load; further
//! destinations go to a per-source list sorted by destination. A flow row
//! keeps the returned [`Route`] (a pool range plus the precomputed RTT),
//! never a copy of its links.

use crate::topology::{HostId, Topology};
use pwm_sim::SimDuration;

/// A resolved route: `len` links starting at `start` in the table's pool,
/// and the sum of their RTTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// First link's position in [`RouteTable::links`]' pool.
    start: u32,
    /// Links in the route (access links included).
    len: u32,
    /// Round-trip time of the route.
    pub rtt: SimDuration,
}

impl Route {
    /// Links in the route.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a route with no links (never produced by a topology).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// `RouteTable::first` destination marking a source with no route yet.
const NO_DST: u32 = u32::MAX;

/// Every host pair's route asked for so far, interned.
#[derive(Debug, Default)]
pub struct RouteTable {
    /// Per source host: its first-interned `(destination, route)`, or
    /// `NO_DST` when it has none.
    first: Vec<(u32, Route)>,
    /// Per source host: every later `(destination, route)`, sorted by
    /// destination; empty for a source with one destination.
    rest: Vec<Vec<(u32, Route)>>,
    /// The links of every interned route, as raw link indices, back to back.
    pool: Vec<u32>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The route from `src` to `dst`, resolved through `topology` on the
    /// pair's first ask and read from the table after that. `topology` must
    /// be the same (unmodified) topology on every call.
    #[inline]
    pub fn resolve(&mut self, topology: &Topology, src: HostId, dst: HostId) -> Route {
        let s = src.0 as usize;
        if let Some(&(d, route)) = self.first.get(s) {
            if d == dst.0 {
                return route;
            }
            if let Some(row) = self.rest.get(s) {
                if let Ok(i) = row.binary_search_by_key(&dst.0, |&(d, _)| d) {
                    return row[i].1;
                }
            }
        }
        self.intern(topology, src, dst)
    }

    /// First ask for a pair: resolve it and keep it.
    #[cold]
    fn intern(&mut self, topology: &Topology, src: HostId, dst: HostId) -> Route {
        assert_ne!(dst.0, NO_DST, "host id reserved as the no-route marker");
        let path = topology.route(src, dst);
        let route = Route {
            start: self.pool.len() as u32,
            len: path.len() as u32,
            rtt: topology.path_rtt(&path),
        };
        self.pool.extend(path.iter().map(|l| l.0));
        let s = src.0 as usize;
        if self.first.len() <= s {
            self.first.resize(s + 1, (NO_DST, route));
        }
        if self.first[s].0 == NO_DST {
            self.first[s] = (dst.0, route);
            return route;
        }
        if self.rest.len() <= s {
            self.rest.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.rest[s];
        let at = row.partition_point(|&(d, _)| d < dst.0);
        row.insert(at, (dst.0, route));
        route
    }

    /// The links of `route` as raw link indices, in path order.
    #[inline]
    pub fn links(&self, route: Route) -> &[u32] {
        let start = route.start as usize;
        &self.pool[start..start + route.len as usize]
    }

    /// The `k`-th link of `route` as a raw index. Indexed access (rather
    /// than holding [`RouteTable::links`]) lets membership loops mutate
    /// other engine state between reads.
    #[inline]
    pub fn link_at(&self, route: Route, k: usize) -> usize {
        debug_assert!(k < route.len as usize);
        self.pool[route.start as usize + k] as usize
    }
}
