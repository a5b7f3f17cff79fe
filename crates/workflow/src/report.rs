//! Human-readable run reports (the `pegasus-statistics` analogue).
//!
//! Renders a [`RunStats`] into the summary an operator would read after a
//! run: job counts, staging breakdown, transfer-duration and goodput
//! distributions, policy interaction counters.

use crate::planner::{ExecutablePlan, PlanJobKind};
use crate::stats::RunStats;
use pwm_sim::histogram::Histogram;
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

    // Distributions (WAN-scale transfers only; LAN blips would drown them).
    let wan: Vec<_> = stats
        .transfers
        .iter()
        .filter(|t| t.bytes >= 1.0e6)
        .collect();
    if !wan.is_empty() {
        let max_dur = wan
            .iter()
            .map(|t| t.total_duration().as_secs_f64())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut durations = Histogram::new(0.0, max_dur * 1.01, 8);
        let mut goodputs = Histogram::new(0.0, 4.0, 8); // MB/s, WAN-scale
        for t in &wan {
            durations.record(t.total_duration().as_secs_f64());
            goodputs.record(t.goodput() / 1e6);
        }
        let _ = writeln!(
            out,
            "\ntransfer durations (s), {} WAN transfers:",
            wan.len()
        );
        out.push_str(&durations.render(30));
        let _ = writeln!(out, "per-transfer goodput (MB/s):");
        out.push_str(&goodputs.render(30));
    }
    out
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
