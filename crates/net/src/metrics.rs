//! Aggregated transfer metrics.
//!
//! [`TransferLedger`] accumulates [`TransferRecord`]s and answers the
//! questions the experiment harness asks: how long did staging take in
//! aggregate, what goodput did transfers of a given tag class achieve, what
//! did the completion timeline look like.
//!
//! This is *post-run analysis* over owned records; live instrumentation
//! (per-link gauges, flow spans, fault instants) goes through the shared
//! `pwm-obs` handle attached with `Network::set_obs`.

use crate::flow::TransferRecord;
use pwm_sim::{OnlineStats, SimTime, Summary};

/// Counters describing how much work the rate allocator actually did —
/// the observable difference between the full-recompute baseline and the
/// incremental, component-local engine (see `DESIGN.md` §8).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocStats {
    /// Rate-recomputation entry points taken (one per integration step with
    /// live flows).
    pub recomputes: u64,
    /// Recomputes that found no dirty links and skipped allocation entirely.
    pub skipped: u64,
    /// Component-local progressive-filling runs performed.
    pub component_runs: u64,
    /// Flows passed through progressive filling, summed over all runs. Under
    /// full recompute this is `recomputes × live flows`; component-local
    /// allocation only pays for flows in dirty components.
    pub flows_allocated: u64,
    /// Links touched by progressive filling, summed over all runs.
    pub links_allocated: u64,
    /// Rate writes suppressed because the fresh allocation matched the
    /// previous one within epsilon (no ETA churn, no wakeup cascade).
    pub unchanged_writes: u64,
}

/// Accumulates completed transfers for post-run analysis.
#[derive(Debug, Default)]
pub struct TransferLedger {
    records: Vec<TransferRecord>,
}

impl TransferLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb a batch of completion records.
    pub fn extend(&mut self, records: impl IntoIterator<Item = TransferRecord>) {
        self.records.extend(records);
    }

    /// All records, in completion order as absorbed.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Number of completed transfers.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no transfers completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Time the last transfer completed (ZERO when empty).
    pub fn last_completion(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Time the first transfer was requested (ZERO when empty).
    pub fn first_request(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.requested_at)
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Goodput statistics over transfers matching `pred`.
    pub fn goodput_summary(&self, pred: impl Fn(&TransferRecord) -> bool) -> Summary {
        let mut stats = OnlineStats::new();
        for r in self.records.iter().filter(|r| pred(r)) {
            let g = r.goodput();
            if g > 0.0 {
                stats.push(g);
            }
        }
        stats.summary()
    }

    /// End-to-end duration statistics (seconds) over matching transfers.
    pub fn duration_summary(&self, pred: impl Fn(&TransferRecord) -> bool) -> Summary {
        let mut stats = OnlineStats::new();
        for r in self.records.iter().filter(|r| pred(r)) {
            stats.push(r.total_duration().as_secs_f64());
        }
        stats.summary()
    }

    /// Aggregate goodput: total bytes over the staging window
    /// (first request → last completion). 0 when empty or instantaneous.
    pub fn aggregate_goodput(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let window = self
            .last_completion()
            .since(self.first_request())
            .as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            self.total_bytes() / window
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::topology::HostId;

    fn rec(tag: u64, req: u64, act: u64, done: u64, bytes: f64) -> TransferRecord {
        TransferRecord {
            flow: FlowId(tag),
            tag,
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
    fn empty_ledger_defaults() {
        let l = TransferLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.total_bytes(), 0.0);
        assert_eq!(l.aggregate_goodput(), 0.0);
        assert_eq!(l.last_completion(), SimTime::ZERO);
    }

    #[test]
    fn totals_and_window() {
        let mut l = TransferLedger::new();
        l.extend([rec(1, 0, 1, 10, 100.0), rec(2, 5, 6, 25, 300.0)]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.total_bytes(), 400.0);
        assert_eq!(l.first_request(), SimTime::ZERO);
        assert_eq!(l.last_completion(), SimTime::from_secs(25));
        assert!((l.aggregate_goodput() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn filtered_summaries() {
        let mut l = TransferLedger::new();
        l.extend([rec(1, 0, 0, 10, 100.0), rec(2, 0, 0, 20, 100.0)]);
        let all = l.duration_summary(|_| true);
        assert_eq!(all.n, 2);
        assert!((all.mean - 15.0).abs() < 1e-9);
        let one = l.duration_summary(|r| r.tag == 1);
        assert_eq!(one.n, 1);
        assert!((one.mean - 10.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_summary_ignores_instant_transfers() {
        let mut l = TransferLedger::new();
        l.extend([rec(1, 0, 5, 5, 100.0), rec(2, 0, 0, 10, 100.0)]);
        let s = l.goodput_summary(|_| true);
        assert_eq!(s.n, 1);
        assert!((s.mean - 10.0).abs() < 1e-9);
    }
}
