//! Hosts, links, and routes.
//!
//! The testbed in the paper is small: a GridFTP server on a FutureGrid VM at
//! TACC, a ~28 Mbit/s WAN path to ISI, and the Obelix cluster with NFS on a
//! 1 Gbit LAN. We model an arbitrary topology of hosts joined by capacity-
//! limited links; each host owns an *access link* (its NIC / server capacity)
//! and a route between two hosts is `[src access, middle links..., dst
//! access]`. Overload of "host resources" and of "the network between them"
//! (the paper's phrasing) are then the same mechanism applied to different
//! links.

use std::collections::HashMap;
use std::fmt;

/// Identifies a host in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Identifies a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// A capacity-limited, stream-aware link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Human-readable name ("wan-tacc-isi", "nic:gridftp-vm", ...).
    pub name: String,
    /// Raw capacity in bytes per second.
    pub capacity: f64,
    /// Round-trip time contribution of this link (affects per-stream caps
    /// and connection setup on routes crossing it).
    pub rtt: crate::SimDuration,
}

/// A host with a named access link.
#[derive(Debug, Clone)]
pub struct Host {
    /// Human-readable name ("gridftp-vm", "obelix-nfs", ...).
    pub name: String,
    /// The NIC/server access link owned by this host.
    pub access_link: LinkId,
    /// Maximum concurrent *connections* (flows) this host's transfer server
    /// accepts; further flows queue after their setup completes. `None` =
    /// unlimited (a well-provisioned GridFTP server).
    pub max_connections: Option<u32>,
}

/// The network graph plus explicit routes.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    hosts: Vec<Host>,
    links: Vec<Link>,
    host_by_name: HashMap<String, HostId>,
    /// Middle links (excluding both access links) per ordered host pair.
    routes: HashMap<(HostId, HostId), Vec<LinkId>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a transit link and return its id.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        capacity_bytes_per_sec: f64,
        rtt: crate::SimDuration,
    ) -> LinkId {
        assert!(
            capacity_bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            name: name.into(),
            capacity: capacity_bytes_per_sec,
            rtt,
        });
        id
    }

    /// Add a host, creating its access link with the given NIC capacity.
    pub fn add_host(&mut self, name: impl Into<String>, nic_bytes_per_sec: f64) -> HostId {
        let name = name.into();
        let access = self.add_link(
            format!("nic:{name}"),
            nic_bytes_per_sec,
            crate::SimDuration::from_micros(100),
        );
        let id = HostId(self.hosts.len() as u32);
        assert!(
            self.host_by_name.insert(name.clone(), id).is_none(),
            "duplicate host name {name}"
        );
        self.hosts.push(Host {
            name,
            access_link: access,
            max_connections: None,
        });
        id
    }

    /// Limit a host's transfer server to `max` concurrent connections
    /// (flows); additional transfers queue until a slot frees.
    pub fn set_host_connection_limit(&mut self, host: HostId, max: u32) {
        self.hosts[host.0 as usize].max_connections = Some(max.max(1));
    }

    /// Declare the middle links used between `src` and `dst`, in order.
    /// The route is installed for the `src → dst` direction only.
    pub fn set_route(&mut self, src: HostId, dst: HostId, middle: Vec<LinkId>) {
        self.routes.insert((src, dst), middle);
    }

    /// Full route (access links included) from `src` to `dst`.
    ///
    /// Transfers between a host and itself use only that host's access link
    /// (a local copy still consumes NIC/NFS bandwidth).
    pub fn route(&self, src: HostId, dst: HostId) -> Vec<LinkId> {
        let mut path = vec![self.hosts[src.0 as usize].access_link];
        if src == dst {
            return path;
        }
        if let Some(middle) = self.routes.get(&(src, dst)) {
            path.extend_from_slice(middle);
        }
        path.push(self.hosts[dst.0 as usize].access_link);
        path
    }

    /// Sum of RTTs along an already-computed route.
    pub fn path_rtt(&self, route: &[LinkId]) -> crate::SimDuration {
        route.iter().fold(crate::SimDuration::ZERO, |acc, l| {
            acc + self.links[l.0 as usize].rtt
        })
    }

    /// Sum of RTTs along the route — the base latency a new connection pays.
    pub fn route_rtt(&self, src: HostId, dst: HostId) -> crate::SimDuration {
        self.path_rtt(&self.route(src, dst))
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Find a host by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.host_by_name.get(name).copied()
    }

    /// Number of links (access + transit).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Iterate over all links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }
}

/// Build the paper's testbed: a GridFTP VM at TACC, a 28 Mbit/s WAN path, and
/// an Obelix head/NFS host on a 1 Gbit LAN, plus a local Apache host serving
/// Montage inputs. Returns `(topology, gridftp_vm, apache, obelix_nfs)`.
pub fn paper_testbed() -> (Topology, HostId, HostId, HostId) {
    let mut t = Topology::new();
    // 1 Gbit/s NIC ~ 125 MB/s; NFS write path a bit below line rate.
    let gridftp = t.add_host("gridftp-vm", 125.0e6);
    let apache = t.add_host("apache-isi", 125.0e6);
    let nfs = t.add_host("obelix-nfs", 110.0e6);
    // 28 Mbit/s ~ 3.5 MB/s observed WAN bandwidth, ~40 ms RTT.
    let wan = t.add_link("wan-tacc-isi", 3.5e6, crate::SimDuration::from_millis(40));
    t.set_route(gridftp, nfs, vec![wan]);
    t.set_route(nfs, gridftp, vec![wan]);
    // Apache → NFS stays on the 1 Gbit LAN (no middle link).
    (t, gridftp, apache, nfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn add_host_creates_access_link() {
        let mut t = Topology::new();
        let h = t.add_host("a", 1e6);
        let access = t.host(h).access_link;
        assert_eq!(t.link(access).name, "nic:a");
        assert_eq!(t.link(access).capacity, 1e6);
    }

    #[test]
    fn route_includes_both_access_links() {
        let mut t = Topology::new();
        let a = t.add_host("a", 1e6);
        let b = t.add_host("b", 1e6);
        let wan = t.add_link("wan", 5e5, SimDuration::from_millis(40));
        t.set_route(a, b, vec![wan]);
        let route = t.route(a, b);
        assert_eq!(route.len(), 3);
        assert_eq!(route[0], t.host(a).access_link);
        assert_eq!(route[1], wan);
        assert_eq!(route[2], t.host(b).access_link);
    }

    #[test]
    fn route_without_middle_links_is_direct() {
        let mut t = Topology::new();
        let a = t.add_host("a", 1e6);
        let b = t.add_host("b", 1e6);
        let route = t.route(a, b);
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn self_route_uses_single_access_link() {
        let mut t = Topology::new();
        let a = t.add_host("a", 1e6);
        let route = t.route(a, a);
        assert_eq!(route, vec![t.host(a).access_link]);
    }

    #[test]
    fn route_is_directional() {
        let mut t = Topology::new();
        let a = t.add_host("a", 1e6);
        let b = t.add_host("b", 1e6);
        let wan = t.add_link("wan", 5e5, SimDuration::from_millis(1));
        t.set_route(a, b, vec![wan]);
        assert_eq!(t.route(a, b).len(), 3);
        assert_eq!(t.route(b, a).len(), 2, "reverse route was not installed");
    }

    #[test]
    fn route_rtt_sums_links() {
        let mut t = Topology::new();
        let a = t.add_host("a", 1e6);
        let b = t.add_host("b", 1e6);
        let wan = t.add_link("wan", 5e5, SimDuration::from_millis(40));
        t.set_route(a, b, vec![wan]);
        // two access links at 100us each + 40ms
        assert_eq!(t.route_rtt(a, b), SimDuration::from_micros(40_200));
    }

    #[test]
    fn host_lookup_by_name() {
        let mut t = Topology::new();
        let a = t.add_host("alpha", 1e6);
        assert_eq!(t.host_by_name("alpha"), Some(a));
        assert_eq!(t.host_by_name("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate host name")]
    fn duplicate_host_names_rejected() {
        let mut t = Topology::new();
        t.add_host("a", 1e6);
        t.add_host("a", 1e6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut t = Topology::new();
        t.add_link("bad", 0.0, SimDuration::ZERO);
    }

    #[test]
    fn paper_testbed_shape() {
        let (t, gridftp, apache, nfs) = paper_testbed();
        assert_eq!(t.host_count(), 3);
        // WAN route crosses 3 links; LAN route 2.
        assert_eq!(t.route(gridftp, nfs).len(), 3);
        assert_eq!(t.route(apache, nfs).len(), 2);
        // The WAN link is the bottleneck.
        let wan_route = t.route(gridftp, nfs);
        let min_cap = wan_route
            .iter()
            .map(|&l| t.link(l).capacity)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_cap, 3.5e6);
    }
}
