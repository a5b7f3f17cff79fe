//! Flow (single file transfer) state.

use crate::topology::HostId;
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
}
