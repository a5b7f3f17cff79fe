//! Post-run statistics of a workflow execution.

use crate::recovery::RecoveryReport;
use pwm_net::TransferRecord;
use pwm_sim::{SimDuration, SimTime};
use pwm_storage::StorageCostReport;

/// Everything the experiment harness wants to know about one run.
///
/// `PartialEq` compares every field (floats exactly): two same-seed runs of
/// a deterministic experiment must produce `==` stats, and the determinism
/// suite asserts exactly that.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock (virtual) time from release of the first job to completion
    /// of the last — the quantity plotted in Figures 5–9.
    pub makespan: SimDuration,
    /// Whether every job completed (false → a job exhausted its retries).
    pub success: bool,
    /// Jobs by category.
    pub compute_jobs: usize,
    /// Stage-in + stage-out jobs executed.
    pub staging_jobs: usize,
    /// Cleanup jobs executed.
    pub cleanup_jobs: usize,
    /// Total payload bytes moved by staging.
    pub bytes_staged: f64,
    /// Completed transfer records (for goodput analysis).
    pub transfers: Vec<TransferRecord>,
    /// Transfers skipped on policy advice (duplicates / already staged).
    pub transfers_skipped: usize,
    /// Transfer attempts that failed (failure injection) and were retried.
    pub transfer_retries: u64,
    /// Jobs that permanently failed.
    pub failed_jobs: usize,
    /// Wire calls made to the policy service: one per transport invocation
    /// — advice requests, report windows (a window carries every outcome of
    /// its instant), resync attempts and health reports — not one per job
    /// event.
    pub policy_calls: u64,
    /// Sum of busy core-seconds across compute jobs.
    pub compute_core_seconds: f64,
    /// Peak concurrent streams observed on the WAN bottleneck link (`None`
    /// when the run had no WAN transfers) — the simulator-side check of
    /// Table IV.
    pub peak_wan_streams: Option<u32>,
    /// Largest number of bytes simultaneously resident on site scratch —
    /// the finite-storage pressure that motivates cleanup jobs.
    pub peak_scratch_bytes: f64,
    /// Bytes left on scratch at the end (0 when cleanup is enabled and
    /// every cleanup ran).
    pub final_scratch_bytes: f64,
    /// Virtual time the run finished.
    pub finished_at: SimTime,
    /// Dollar-cost accounting of the storage backends (`None` when the run
    /// had no storage layer attached).
    pub storage: Option<StorageCostReport>,
    /// What the recovery plane did (`None` when no — or an inert — recovery
    /// config was attached).
    pub recovery: Option<RecoveryReport>,
}

impl RunStats {
    /// Makespan in seconds (convenience for plotting).
    pub fn makespan_secs(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// Aggregate staging goodput in bytes/sec over the staging window.
    pub fn staging_goodput(&self) -> f64 {
        if self.transfers.is_empty() {
            return 0.0;
        }
        let start = self
            .transfers
            .iter()
            .map(|t| t.requested_at)
            .min()
            .unwrap_or(SimTime::ZERO);
        let end = self
            .transfers
            .iter()
            .map(|t| t.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let window = end.since(start).as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            self.bytes_staged / window
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> RunStats {
        RunStats {
            makespan: SimDuration::from_secs(100),
            success: true,
            finished_at: SimTime::from_secs(100),
            ..RunStats::default()
        }
    }

    #[test]
    fn makespan_secs_converts() {
        assert_eq!(empty().makespan_secs(), 100.0);
    }

    #[test]
    fn goodput_of_no_transfers_is_zero() {
        assert_eq!(empty().staging_goodput(), 0.0);
    }

    #[test]
    fn goodput_uses_staging_window() {
        use pwm_net::{FlowId, HostId};
        let mut s = empty();
        s.bytes_staged = 100.0;
        s.transfers.push(TransferRecord {
            flow: FlowId(0),
            tag: 0,
            src: HostId(0),
            dst: HostId(1),
            bytes: 100.0,
            streams: 1,
            requested_at: SimTime::from_secs(10),
            activated_at: SimTime::from_secs(10),
            completed_at: SimTime::from_secs(20),
        });
        assert!((s.staging_goodput() - 10.0).abs() < 1e-9);
    }
}
