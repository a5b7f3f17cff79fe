//! Human-readable run reports (the `pegasus-statistics` analogue).
//!
//! Renders a [`RunStats`] into the summary an operator would read after a
//! run: job counts, staging breakdown, transfer-duration and goodput
//! distributions, policy interaction counters.

use crate::planner::{ExecutablePlan, PlanJobKind};
use crate::stats::RunStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render the post-run report.
pub fn render_report(plan: &ExecutablePlan, stats: &RunStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Workflow run report: {}", plan.name);
    let _ = writeln!(out, "{}", "=".repeat(60));
    let _ = writeln!(
        out,
        "outcome: {}   makespan: {:.1}s   finished at t={:.1}s",
        if stats.success { "SUCCESS" } else { "FAILED" },
        stats.makespan.as_secs_f64(),
        stats.finished_at.as_secs_f64()
    );

    // Job table by kind and transformation.
    let mut by_transformation: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for job in plan.jobs() {
        if let PlanJobKind::Compute {
            transformation,
            runtime_s,
            ..
        } = &job.kind
        {
            let entry = by_transformation.entry(transformation).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += runtime_s;
        }
    }
    let _ = writeln!(out, "\njobs:");
    let _ = writeln!(
        out,
        "  compute {}   staging {}   cleanup {}   failed {}",
        stats.compute_jobs, stats.staging_jobs, stats.cleanup_jobs, stats.failed_jobs
    );
    let _ = writeln!(
        out,
        "\n  {:<18}{:>8}{:>16}",
        "transformation", "count", "mean runtime(s)"
    );
    for (t, (count, total)) in &by_transformation {
        let _ = writeln!(
            out,
            "  {:<18}{:>8}{:>16.1}",
            t,
            count,
            total / *count as f64
        );
    }

    // Staging summary.
    let _ = writeln!(out, "\nstaging:");
    let _ = writeln!(
        out,
        "  transfers {}   bytes {:.2} GB   skipped (policy) {}   retries {}",
        stats.transfers.len(),
        stats.bytes_staged / 1e9,
        stats.transfers_skipped,
        stats.transfer_retries
    );
    let _ = writeln!(
        out,
        "  aggregate staging goodput: {:.2} MB/s",
        stats.staging_goodput() / 1e6
    );
    if let Some(peak) = stats.peak_wan_streams {
        let _ = writeln!(out, "  peak concurrent WAN streams: {peak}");
    }
    let _ = writeln!(
        out,
        "  scratch footprint: peak {:.2} GB, final {:.2} GB",
        stats.peak_scratch_bytes / 1e9,
        stats.final_scratch_bytes / 1e9
    );
    let _ = writeln!(out, "  policy-service wire calls: {}", stats.policy_calls);

    // Distributions of the transfers of at least 1 MB: the many small ones
    // would drown them.
    let large: Vec<_> = stats
        .transfers
        .iter()
        .filter(|t| t.bytes >= 1.0e6)
        .collect();
    if !large.is_empty() {
        let _ = writeln!(
            out,
            "\ntransfer durations (s), {} transfers of ≥ 1 MB:",
            large.len()
        );
        let durations: Vec<f64> = large
            .iter()
            .map(|t| t.total_duration().as_secs_f64())
            .collect();
        render_buckets(&mut out, &durations);
        let _ = writeln!(out, "per-transfer goodput (MB/s):");
        let goodputs: Vec<f64> = large.iter().map(|t| t.goodput() / 1e6).collect();
        render_buckets(&mut out, &goodputs);
    }
    out
}

/// Eight uniform buckets over `[0, 1.01 × max)`, the range at least
/// `[0, 1.01)`, so every non-negative value lands in one. A row per bucket:
/// its range, its count, and a bar of up to 30 `#` scaled to the fullest.
fn render_buckets(out: &mut String, values: &[f64]) {
    const BUCKETS: usize = 8;
    let hi = values.iter().copied().fold(0.0f64, f64::max).max(1.0) * 1.01;
    let mut counts = [0usize; BUCKETS];
    for &v in values {
        counts[((v / hi * BUCKETS as f64) as usize).min(BUCKETS - 1)] += 1;
    }
    let fullest = counts.iter().copied().max().unwrap_or(0).max(1);
    let width = hi / BUCKETS as f64;
    for (i, &c) in counts.iter().enumerate() {
        let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
        let bar = "#".repeat(c * 30 / fullest);
        let _ = writeln!(out, "{lo:>10.1} - {hi:<10.1} {c:>6} {bar}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ComputeSite, ReplicaCatalog};
    use crate::dag::{AbstractJob, AbstractWorkflow};
    use crate::executor::{ExecutorConfig, WorkflowExecutor};
    use crate::planner::{plan, PlannerConfig};
    use pwm_core::transport::NoPolicyTransport;
    use pwm_net::{paper_testbed, Network, StreamModel};

    fn run_small() -> (ExecutablePlan, RunStats) {
        let (topo, gridftp, _apache, nfs) = paper_testbed();
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 2,
            cores_per_node: 2,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let mut wf = AbstractWorkflow::new("report-test");
        for i in 0..4 {
            wf.add_job(AbstractJob {
                name: format!("work_{i}").into(),
                transformation: "work".into(),
                runtime_s: 3.0,
                inputs: vec![format!("in_{i}").into()],
                outputs: vec![format!("out_{i}").into()],
            });
            wf.set_file_size(format!("in_{i}"), 10_000_000);
            wf.set_file_size(format!("out_{i}"), 1_000);
        }
        let mut rc = ReplicaCatalog::new();
        for i in 0..4 {
            rc.insert(
                format!("in_{i}"),
                pwm_core::Url::new("gsiftp", "gridftp-vm", format!("/d/in_{i}")),
                gridftp,
            );
        }
        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
        let network = Network::with_seed(topo, StreamModel::default(), 1);
        let exec = WorkflowExecutor::new(
            &p,
            &site,
            network,
            Box::new(NoPolicyTransport::new(4)),
            ExecutorConfig::default(),
        );
        let (stats, _) = exec.run();
        (p, stats)
    }

    #[test]
    fn report_contains_all_sections() {
        let (plan, stats) = run_small();
        let text = render_report(&plan, &stats);
        assert!(text.contains("SUCCESS"));
        assert!(text.contains("transformation"));
        assert!(text.contains("work"));
        assert!(text.contains("staging:"));
        assert!(text.contains("transfer durations"));
        assert!(text.contains("goodput"));
        assert!(text.contains("scratch footprint"));
    }

    /// The distributions count every transfer of at least 1 MB: one at
    /// 10 MB/s, faster than any fixed goodput range made for the WAN
    /// link, lands in the top bucket rather than outside the bars.
    #[test]
    fn every_large_transfer_is_in_a_bucket() {
        use pwm_net::{FlowId, HostId, TransferRecord};
        use pwm_sim::SimTime;
        let (plan, mut stats) = run_small();
        stats.transfers.push(TransferRecord {
            flow: FlowId(999),
            tag: 0,
            src: HostId(0),
            dst: HostId(1),
            bytes: 40.0e6,
            streams: 1,
            requested_at: SimTime::from_secs(1),
            activated_at: SimTime::from_secs(2),
            completed_at: SimTime::from_secs(6),
        });
        let large = stats.transfers.iter().filter(|t| t.bytes >= 1.0e6).count();
        let text = render_report(&plan, &stats);
        assert!(
            text.contains(&format!("{large} transfers of ≥ 1 MB:")),
            "{text}"
        );
        let counts = |block: &str| -> Vec<usize> {
            block
                .lines()
                .map(|row| row.split_whitespace().nth(3).unwrap().parse().unwrap())
                .collect()
        };
        let (durations, goodputs) = text
            .split_once("transfers of ≥ 1 MB:\n")
            .unwrap()
            .1
            .split_once("per-transfer goodput (MB/s):\n")
            .unwrap();
        for block in [durations, goodputs] {
            let counts = counts(block);
            assert_eq!(counts.len(), 8, "{text}");
            assert_eq!(counts.iter().sum::<usize>(), large, "{text}");
        }
        assert_eq!(
            counts(goodputs)[7],
            1,
            "the 10 MB/s transfer is in the top bucket"
        );
    }

    #[test]
    fn report_marks_failures() {
        let (plan, mut stats) = run_small();
        stats.success = false;
        stats.failed_jobs = 2;
        let text = render_report(&plan, &stats);
        assert!(text.contains("FAILED"));
        assert!(text.contains("failed 2"));
    }
}
