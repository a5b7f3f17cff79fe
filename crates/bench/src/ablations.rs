//! `repro ablations`: six sim-time studies of the design choices DESIGN.md
//! calls out, each a table of makespans over seeds 1 and 2 (or one seeded
//! run where the study says so).
//!
//! 1. **Clustering factor** — per-job init overhead amortization (Fig. 2's
//!    motivation for task clustering).
//! 2. **Greedy vs balanced** — Section III.b: balanced reserves per-cluster
//!    shares so late clusters are not starved.
//! 3. **Structure-based priorities** — Section III.c's four algorithms.
//! 4. **Shared staging across workflows** — Table I's duplicate removal and
//!    refcounted resources: a second identical workflow through the same
//!    session stages nothing.
//! 5. **Policy callout latency** — the cost the paper attributes to calling
//!    an external service.
//! 6. **Workload shapes** — the same policy on CyberShake-, Epigenomics- and
//!    Montage-shaped workflows.
//!
//! Violations: a run that did not complete, and a second sharing workflow
//! that staged any byte.

use crate::experiment::{mb, MontageExperiment, PaperWorld, PolicyMode};
use crate::SuiteOutput;
use pwm_core::transport::{InProcessTransport, NoPolicyTransport, PolicyTransport};
use pwm_core::{PolicyConfig, PolicyController, PriorityAlgorithm, WorkflowId, DEFAULT_SESSION};
use pwm_montage::{
    cybershake_like, epigenomics_like, single_source_replicas, CyberShakeConfig, EpigenomicsConfig,
};
use pwm_net::{Network, StreamModel};
use pwm_sim::{SimDuration, Summary};
use pwm_workflow::{plan, ExecutorConfig, PlannerConfig, RunStats, WorkflowExecutor};
use std::fmt::Write;

/// The seeds every multi-seed study averages over.
const SEEDS: [u64; 2] = [1, 2];

/// What the studies print and every violation they found.
#[derive(Default)]
struct Studies {
    text: String,
    violations: Vec<String>,
}

impl Studies {
    /// Record a violation for each run of `study`/`label` that did not
    /// complete.
    fn require_success(&mut self, study: &str, label: &str, runs: &[RunStats]) {
        let failed = runs.iter().filter(|r| !r.success).count();
        if failed > 0 {
            self.violations.push(format!(
                "{study} {label}: {failed} of {} runs failed",
                runs.len()
            ));
        }
    }

    /// Run `exp` over [`SEEDS`], checking every run completed.
    fn run_seeds(
        &mut self,
        study: &str,
        label: &str,
        exp: &MontageExperiment,
    ) -> (Summary, Vec<RunStats>) {
        let (summary, runs) = exp.run_seeds(&SEEDS);
        self.require_success(study, label, &runs);
        (summary, runs)
    }

    /// The sharing study's violations: a run that did not complete, or a
    /// second workflow that staged any byte.
    fn check_sharing(&mut self, runs: &[RunStats]) {
        self.require_success("sharing", "wf0/wf1", runs);
        if runs[1].bytes_staged > 0.0 {
            self.violations.push(format!(
                "sharing wf1: staged {:.0} bytes; the second workflow should share every file",
                runs[1].bytes_staged
            ));
        }
    }
}

fn greedy_50(extra_mb: u64) -> MontageExperiment {
    MontageExperiment::paper_setup(mb(extra_mb), 8, PolicyMode::Greedy { threshold: 50 })
}

fn clustering(s: &mut Studies) {
    let _ = writeln!(
        s.text,
        "== Ablation: task clustering factor (100 MB extras, greedy-50 @8) ==\n{:<14}{:>12}{:>16}",
        "clustering", "makespan(s)", "staging jobs"
    );
    for factor in [None, Some(2), Some(4), Some(8), Some(16)] {
        let label = factor.map_or_else(|| "none".into(), |f| f.to_string());
        let mut exp = greedy_50(100);
        exp.clustering_factor = factor;
        let (summary, runs) = s.run_seeds("clustering", &label, &exp);
        let _ = writeln!(
            s.text,
            "{:<14}{:>12.0}{:>16}",
            label, summary.mean, runs[0].staging_jobs
        );
    }
    s.text.push('\n');
}

fn balanced(s: &mut Studies) {
    let _ = writeln!(
        s.text,
        "== Ablation: greedy vs balanced (100 MB extras, clustering 4, threshold 48) ==\n{:<22}{:>12}",
        "policy", "makespan(s)"
    );
    for mode in [
        PolicyMode::Greedy { threshold: 48 },
        PolicyMode::Balanced {
            threshold: 48,
            cluster_factor: 4,
        },
    ] {
        let mut exp = MontageExperiment::paper_setup(mb(100), 8, mode);
        exp.clustering_factor = Some(4);
        let (summary, _) = s.run_seeds("balanced", &mode.label(), &exp);
        let _ = writeln!(s.text, "{:<22}{:>12.0}", mode.label(), summary.mean);
    }
    s.text.push('\n');
}

fn priorities(s: &mut Studies) {
    let _ = writeln!(
        s.text,
        "== Ablation: structure-based priorities (100 MB extras, greedy-50 @8) ==\n{:<20}{:>12}",
        "algorithm", "makespan(s)"
    );
    for (label, algo) in [
        ("none", None),
        ("breadth-first", Some(PriorityAlgorithm::BreadthFirst)),
        ("depth-first", Some(PriorityAlgorithm::DepthFirst)),
        ("direct-dependent", Some(PriorityAlgorithm::DirectDependent)),
        ("dependent", Some(PriorityAlgorithm::Dependent)),
    ] {
        let mut exp = greedy_50(100);
        exp.priority = algo;
        let (summary, _) = s.run_seeds("priorities", label, &exp);
        let _ = writeln!(s.text, "{:<20}{:>12.0}", label, summary.mean);
    }
    s.text.push('\n');
}

/// Two identical workflows (50 MB extras, cleanup off so the first one's
/// files stay) staged back to back through one policy session, seeds 1 and
/// 2: the second one's WAN staging is deduplicated against the first's.
fn sharing_runs() -> Vec<RunStats> {
    let world = PaperWorld::testbed();
    let planner_cfg = PlannerConfig {
        cleanup: false,
        ..Default::default()
    };
    // Same generator seed → identical file names → shareable staging.
    let executable = world.plan_montage(mb(50), 1, &planner_cfg);
    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50),
    );
    (0..2u64)
        .map(|wf| {
            let network =
                Network::with_seed(world.topology.clone(), StreamModel::default(), wf + 1);
            let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
            let cfg = ExecutorConfig {
                seed: wf + 1,
                workflow_id: WorkflowId(wf),
                policy_call_latency: SimDuration::from_millis(75),
                ..Default::default()
            };
            WorkflowExecutor::new(&executable, &world.site, network, transport, cfg)
                .run()
                .0
        })
        .collect()
}

fn sharing(s: &mut Studies) {
    let _ = writeln!(
        s.text,
        "== Ablation: staged-file sharing across workflows (50 MB extras) ==\n{:<12}{:>12}{:>16}{:>10}",
        "workflow", "makespan(s)", "bytes staged", "skipped"
    );
    let runs = sharing_runs();
    for (wf, stats) in runs.iter().enumerate() {
        let _ = writeln!(
            s.text,
            "{:<12}{:>12.0}{:>16.0}{:>10}",
            format!("wf{wf}"),
            stats.makespan_secs(),
            stats.bytes_staged,
            stats.transfers_skipped
        );
    }
    s.check_sharing(&runs);
    s.text.push('\n');
}

fn callout_latency(s: &mut Studies) {
    let _ = writeln!(
        s.text,
        "== Ablation: policy callout latency (10 MB extras, greedy-50 @8) ==\n{:<14}{:>12}",
        "latency", "makespan(s)"
    );
    for ms in [0u64, 75, 300, 1000] {
        let label = format!("{ms} ms");
        let mut exp = greedy_50(10);
        exp.policy_call_latency = SimDuration::from_millis(ms);
        let (summary, _) = s.run_seeds("callout latency", &label, &exp);
        let _ = writeln!(s.text, "{:<14}{:>12.0}", label, summary.mean);
    }
    s.text.push('\n');
}

/// No policy (4 streams) against greedy-50 @8 on three workflow shapes, one
/// run each at seed 3. CyberShake's shared strain-green-tensor inputs make
/// policy dedup decisive; Epigenomics stages only at lane heads and barely
/// cares.
fn workload_shapes(s: &mut Studies) {
    let _ = writeln!(
        s.text,
        "== Ablation: policy value across workload shapes ==\n{:<22}{:>14}{:>14}{:>16}",
        "workload", "no-policy(s)", "greedy-50(s)", "dedup-saved(GB)"
    );
    let world = PaperWorld::testbed();
    let single_source = |wf: pwm_workflow::AbstractWorkflow| {
        let rc = single_source_replicas(&wf, "gridftp-vm", world.gridftp);
        plan(&wf, &world.site, &rc, &PlannerConfig::default()).unwrap()
    };
    let workloads = [
        (
            "cybershake (shared)",
            single_source(cybershake_like(&CyberShakeConfig::default())),
        ),
        (
            "epigenomics (lanes)",
            single_source(epigenomics_like(&EpigenomicsConfig::default())),
        ),
        (
            "montage 10MB aug",
            world.plan_montage(mb(10), 1, &PlannerConfig::default()),
        ),
    ];
    for (label, p) in workloads {
        let runs = [false, true].map(|policy| {
            let transport: Box<dyn PolicyTransport> = if policy {
                let controller = PolicyController::new(
                    PolicyConfig::default()
                        .with_default_streams(8)
                        .with_threshold(50),
                );
                Box::new(InProcessTransport::new(controller, DEFAULT_SESSION))
            } else {
                Box::new(NoPolicyTransport::new(4))
            };
            let network = Network::with_seed(world.topology.clone(), StreamModel::default(), 3);
            let cfg = ExecutorConfig {
                seed: 3,
                ..Default::default()
            };
            WorkflowExecutor::new(&p, &world.site, network, transport, cfg)
                .run()
                .0
        });
        s.require_success("workload shapes", label, &runs);
        let [no_policy, greedy] = &runs;
        let _ = writeln!(
            s.text,
            "{:<22}{:>14.0}{:>14.0}{:>16.2}",
            label,
            no_policy.makespan_secs(),
            greedy.makespan_secs(),
            (no_policy.bytes_staged - greedy.bytes_staged) / 1e9,
        );
    }
    s.text.push('\n');
}

/// `repro ablations`: the six studies' tables, in order, and every
/// violation they found.
pub fn repro() -> SuiteOutput {
    let mut s = Studies::default();
    for study in [
        clustering,
        balanced,
        priorities,
        sharing,
        callout_latency,
        workload_shapes,
    ] {
        study(&mut s);
    }
    SuiteOutput {
        text: s.text,
        json: None,
        violations: s.violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_second_sharing_workflow_stages_nothing_and_skips_every_transfer() {
        let runs = sharing_runs();
        assert!(runs.iter().all(|r| r.success));
        assert!(runs[0].bytes_staged > 0.0);
        assert_eq!(runs[1].bytes_staged, 0.0);
        assert_eq!(runs[1].transfers_skipped, 198);

        let mut clean = Studies::default();
        clean.check_sharing(&runs);
        assert_eq!(clean.violations, Vec::<String>::new());

        // A second workflow that stages one byte, or a run that fails, is
        // a violation.
        let mut restaged = runs.clone();
        restaged[1].bytes_staged = 1.0;
        let mut failed = runs;
        failed[0].success = false;
        for runs in [restaged, failed] {
            let mut s = Studies::default();
            s.check_sharing(&runs);
            assert_eq!(s.violations.len(), 1, "{:?}", s.violations);
        }
    }
}
