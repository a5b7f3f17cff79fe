//! # pwm-net — network and host simulator
//!
//! The substrate standing in for the paper's physical testbed (GridFTP server
//! on a FutureGrid VM, ~28 Mbit/s WAN to ISI, Obelix cluster on a 1 Gbit
//! LAN). It simulates bulk data transfers as fluid flows over a topology of
//! capacity-limited links, with the parallel-stream effects the paper's
//! greedy/balanced policies manipulate:
//!
//! * per-stream window/RTT rate caps (why parallel streams help at all),
//! * an over-subscription knee beyond which total streams on a link *hurt*
//!   (why a greedy threshold of 200 loses to 50),
//! * churn turbulence that makes the over-subscription penalty bite hardest
//!   for workloads of many medium transfers and fade for very long ones
//!   (why the 1 GB experiments show no clear winner),
//! * per-file connection setup costs scaling with streams and RTT.
//!
//! Module map: [`topology`] (hosts/links/routes), [`routes`] (each host
//! pair's route interned once for the engine), [`model`] (the stream
//! performance model and its knobs), [`sharing`] (weighted max-min fair
//! allocation), [`flow`] (transfer state and records), [`network`] (the
//! engine), [`metrics`] (the allocator's work counters), [`fault`]
//! (deterministic link outages and degradations driven by a
//! [`pwm_sim::FaultPlan`]).
//!
//! ```
//! use pwm_net::{paper_testbed, FlowSpec, Network, StreamModel};
//! use pwm_sim::SimTime;
//!
//! let (topo, gridftp, _apache, nfs) = paper_testbed();
//! let mut net = Network::new(topo, StreamModel::default());
//! net.start_flow(SimTime::ZERO, FlowSpec {
//!     src: gridftp, dst: nfs, bytes: 10.0e6, streams: 8, tag: 1,
//! });
//! net.run_to_completion(SimTime::from_secs(3600));
//! let done = net.take_completed();
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod flow;
mod flow_table;
pub mod metrics;
pub mod model;
pub mod network;
pub mod routes;
pub mod sharing;
pub mod timeline;
pub mod topology;

pub use fault::{LinkFault, LinkFaultKind};
pub use flow::{FlowId, FlowSpec, KilledFlow, TransferRecord};
pub use metrics::AllocStats;
pub use model::{LinkState, StreamModel};
pub use network::Network;
pub use routes::{Route, RouteTable};
pub use sharing::RateAllocator;
pub use timeline::{LinkTimeline, UtilizationSample};
pub use topology::{paper_testbed, Host, HostId, Link, LinkId, Topology};

// Re-export the simulation time types used throughout this crate's API.
pub use pwm_sim::{SimDuration, SimTime};
