//! Flow (single file transfer) state.

use crate::topology::{HostId, LinkId};
use pwm_sim::{SimDuration, SimTime};

/// Identifies a flow within one [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A request to move one file between two hosts with a given number of
/// parallel streams.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Parallel streams to open (≥ 1; 0 is coerced to 1).
    pub streams: u32,
    /// Opaque tag for correlating with workflow-level transfers.
    pub tag: u64,
}

/// Lifecycle phase of a flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowPhase {
    /// Connection setup in progress; streams not yet occupying links.
    Connecting {
        /// When the data channels open.
        until: SimTime,
    },
    /// Connection setup finished but the transfer server at one endpoint is
    /// at its connection limit; waiting for a slot.
    Queued,
    /// Moving bytes.
    Active {
        /// When the data channels opened (for ramp age).
        activated_at: SimTime,
        /// Bytes still to move (fluid).
        remaining: f64,
        /// Rate assigned at the last recompute (bytes/sec).
        rate: f64,
    },
    /// All bytes delivered (awaiting collection).
    Done,
}

/// A flow plus its routing and bookkeeping.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Immutable request.
    pub spec: FlowSpec,
    /// Current phase.
    pub phase: FlowPhase,
    /// Links the flow occupies when active.
    pub route: Vec<LinkId>,
    /// `route` projected to raw link indices — cached at creation so the
    /// rate-recompute hot path never rebuilds it.
    pub links: Vec<usize>,
    /// Round-trip time of `route`, cached at creation (the route is fixed
    /// for the flow's lifetime, and therefore so is its RTT).
    pub route_rtt: SimDuration,
    /// When `start_flow` was called.
    pub requested_at: SimTime,
    /// Per-flow fair-share multiplier (TCP unfairness), drawn at start.
    pub weight_factor: f64,
}

impl Flow {
    /// Effective stream count (floor of 1).
    pub fn streams(&self) -> u32 {
        self.spec.streams.max(1)
    }

    /// Age since activation (zero while connecting).
    pub fn age(&self, now: SimTime) -> SimDuration {
        match &self.phase {
            FlowPhase::Active { activated_at, .. } => now.since(*activated_at),
            _ => SimDuration::ZERO,
        }
    }
}

/// A flow torn down by [`crate::Network::kill_flows_touching`] before it
/// finished: a host crash severs every transfer endpointed there. No
/// [`TransferRecord`] is emitted for a killed flow — the caller decides
/// whether and where to retry.
#[derive(Debug, Clone, PartialEq)]
pub struct KilledFlow {
    /// The severed flow.
    pub flow: FlowId,
    /// Caller's tag from the [`FlowSpec`].
    pub tag: u64,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Bytes still unmoved at the instant of the kill (the full payload for
    /// flows that never activated).
    pub bytes_remaining: f64,
}

/// The completed-transfer record handed back to callers.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// The finished flow.
    pub flow: FlowId,
    /// Caller's tag from the [`FlowSpec`].
    pub tag: u64,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Bytes moved.
    pub bytes: f64,
    /// Parallel streams used.
    pub streams: u32,
    /// When the transfer was requested.
    pub requested_at: SimTime,
    /// When data started moving (after connection setup).
    pub activated_at: SimTime,
    /// When the last byte arrived.
    pub completed_at: SimTime,
}

impl TransferRecord {
    /// End-to-end duration including setup.
    pub fn total_duration(&self) -> SimDuration {
        self.completed_at.since(self.requested_at)
    }

    /// Data-moving duration only.
    pub fn transfer_duration(&self) -> SimDuration {
        self.completed_at.since(self.activated_at)
    }

    /// Achieved goodput over the data phase, bytes/sec (0 for instant
    /// transfers).
    pub fn goodput(&self) -> f64 {
        let d = self.transfer_duration().as_secs_f64();
        if d <= 0.0 {
            0.0
        } else {
            self.bytes / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(req: u64, act: u64, done: u64, bytes: f64) -> TransferRecord {
        TransferRecord {
            flow: FlowId(1),
            tag: 0,
            src: HostId(0),
            dst: HostId(1),
            bytes,
            streams: 4,
            requested_at: SimTime::from_secs(req),
            activated_at: SimTime::from_secs(act),
            completed_at: SimTime::from_secs(done),
        }
    }

    #[test]
    fn durations_and_goodput() {
        let r = record(10, 12, 22, 50.0e6);
        assert_eq!(r.total_duration(), SimDuration::from_secs(12));
        assert_eq!(r.transfer_duration(), SimDuration::from_secs(10));
        assert!((r.goodput() - 5.0e6).abs() < 1.0);
    }

    #[test]
    fn instant_transfer_has_zero_goodput() {
        let r = record(5, 5, 5, 10.0);
        assert_eq!(r.goodput(), 0.0);
    }

    #[test]
    fn flow_streams_floor_at_one() {
        let f = Flow {
            spec: FlowSpec {
                src: HostId(0),
                dst: HostId(1),
                bytes: 1.0,
                streams: 0,
                tag: 0,
            },
            phase: FlowPhase::Done,
            route: vec![],
            links: vec![],
            route_rtt: SimDuration::ZERO,
            requested_at: SimTime::ZERO,
            weight_factor: 1.0,
        };
        assert_eq!(f.streams(), 1);
    }

    #[test]
    fn age_is_zero_while_connecting() {
        let f = Flow {
            spec: FlowSpec {
                src: HostId(0),
                dst: HostId(1),
                bytes: 1.0,
                streams: 2,
                tag: 0,
            },
            phase: FlowPhase::Connecting {
                until: SimTime::from_secs(3),
            },
            route: vec![],
            links: vec![],
            route_rtt: SimDuration::ZERO,
            requested_at: SimTime::ZERO,
            weight_factor: 1.0,
        };
        assert_eq!(f.age(SimTime::from_secs(2)), SimDuration::ZERO);
    }

    #[test]
    fn age_counts_from_activation() {
        let f = Flow {
            spec: FlowSpec {
                src: HostId(0),
                dst: HostId(1),
                bytes: 1.0,
                streams: 2,
                tag: 0,
            },
            phase: FlowPhase::Active {
                activated_at: SimTime::from_secs(3),
                remaining: 1.0,
                rate: 0.0,
            },
            route: vec![],
            links: vec![],
            route_rtt: SimDuration::ZERO,
            requested_at: SimTime::ZERO,
            weight_factor: 1.0,
        };
        assert_eq!(f.age(SimTime::from_secs(10)), SimDuration::from_secs(7));
    }
}
