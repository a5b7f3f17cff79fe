//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! `cargo bench --bench ablations` prints five studies:
//!
//! 1. **Clustering factor** — per-job init overhead amortization (Fig. 2's
//!    motivation for task clustering).
//! 2. **Greedy vs balanced** — Section III.b: balanced reserves per-cluster
//!    shares so late clusters are not starved.
//! 3. **Structure-based priorities** — Section III.c's four algorithms.
//! 4. **Shared staging across workflows** — Table I's duplicate removal and
//!    refcounted resources.
//! 5. **Policy callout overhead** — the cost the paper attributes to calling
//!    an external service.

use criterion::{criterion_group, criterion_main, Criterion};
use pwm_bench::{mb, MontageExperiment, PaperWorld, PolicyMode};
use pwm_core::transport::InProcessTransport;
use pwm_core::{PolicyConfig, PolicyController, PriorityAlgorithm, WorkflowId, DEFAULT_SESSION};
use pwm_net::{Network, StreamModel};
use pwm_sim::SimDuration;
use pwm_workflow::{plan, ExecutorConfig, PlannerConfig, WorkflowExecutor};
use std::hint::black_box;

fn seeds() -> Vec<u64> {
    vec![1, 2]
}

fn ablation_clustering() {
    println!("== Ablation: task clustering factor (100 MB extras, greedy-50 @8) ==");
    println!(
        "{:<14}{:>12}{:>16}",
        "clustering", "makespan(s)", "staging jobs"
    );
    for factor in [None, Some(2), Some(4), Some(8), Some(16)] {
        let mut exp =
            MontageExperiment::paper_setup(mb(100), 8, PolicyMode::Greedy { threshold: 50 });
        exp.clustering_factor = factor;
        let (summary, runs) = exp.run_seeds(&seeds());
        let label = factor
            .map(|f| f.to_string())
            .unwrap_or_else(|| "none".into());
        println!(
            "{:<14}{:>12.0}{:>16}",
            label, summary.mean, runs[0].staging_jobs
        );
    }
    println!();
}

fn ablation_balanced() {
    println!("== Ablation: greedy vs balanced (100 MB extras, clustering 4, threshold 48) ==");
    println!("{:<22}{:>12}", "policy", "makespan(s)");
    for mode in [
        PolicyMode::Greedy { threshold: 48 },
        PolicyMode::Balanced {
            threshold: 48,
            cluster_factor: 4,
        },
    ] {
        let mut exp = MontageExperiment::paper_setup(mb(100), 8, mode);
        exp.clustering_factor = Some(4);
        let (summary, _) = exp.run_seeds(&seeds());
        println!("{:<22}{:>12.0}", mode.label(), summary.mean);
    }
    println!();
}

fn ablation_priority() {
    println!("== Ablation: structure-based priorities (100 MB extras, greedy-50 @8) ==");
    println!("{:<20}{:>12}", "algorithm", "makespan(s)");
    for (label, algo) in [
        ("none", None),
        ("breadth-first", Some(PriorityAlgorithm::BreadthFirst)),
        ("depth-first", Some(PriorityAlgorithm::DepthFirst)),
        ("direct-dependent", Some(PriorityAlgorithm::DirectDependent)),
        ("dependent", Some(PriorityAlgorithm::Dependent)),
    ] {
        let mut exp =
            MontageExperiment::paper_setup(mb(100), 8, PolicyMode::Greedy { threshold: 50 });
        exp.priority = algo;
        let (summary, _) = exp.run_seeds(&seeds());
        println!("{:<20}{:>12.0}", label, summary.mean);
    }
    println!();
}

/// Two identical workflows staged back-to-back through one policy session:
/// the second workflow's WAN staging is deduplicated against the first's
/// staged files.
fn ablation_sharing() {
    println!("== Ablation: staged-file sharing across workflows (50 MB extras) ==");
    let world = PaperWorld::testbed();
    // Same generator seed → identical file names → shareable staging.
    let planner_cfg = PlannerConfig {
        cleanup: false, // keep files so the second workflow can share them
        ..Default::default()
    };
    let executable = world.plan_montage(mb(50), 1, &planner_cfg);

    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50),
    );
    println!(
        "{:<12}{:>12}{:>16}{:>10}",
        "workflow", "makespan(s)", "bytes staged", "skipped"
    );
    for wf in 0..2u64 {
        let network = Network::with_seed(world.topology.clone(), StreamModel::default(), wf + 1);
        let transport = Box::new(InProcessTransport::new(controller.clone(), DEFAULT_SESSION));
        let cfg = ExecutorConfig {
            seed: wf + 1,
            workflow_id: WorkflowId(wf),
            policy_call_latency: SimDuration::from_millis(75),
            ..Default::default()
        };
        let exec = WorkflowExecutor::new(&executable, &world.site, network, transport, cfg);
        let (stats, _) = exec.run();
        println!(
            "{:<12}{:>12.0}{:>16.0}{:>10}",
            format!("wf{wf}"),
            stats.makespan_secs(),
            stats.bytes_staged,
            stats.transfers_skipped
        );
        assert!(stats.success);
        if wf == 1 {
            assert!(
                stats.transfers_skipped > 0,
                "second workflow should share staged files"
            );
        }
    }
    println!();
}

fn ablation_overhead() {
    println!("== Ablation: policy callout latency (10 MB extras, greedy-50 @8) ==");
    println!("{:<14}{:>12}", "latency", "makespan(s)");
    for ms in [0u64, 75, 300, 1000] {
        let mut exp =
            MontageExperiment::paper_setup(mb(10), 8, PolicyMode::Greedy { threshold: 50 });
        exp.policy_call_latency = SimDuration::from_millis(ms);
        let (summary, _) = exp.run_seeds(&seeds());
        println!("{:<14}{:>12.0}", format!("{ms} ms"), summary.mean);
    }
    println!();
}

/// The paper's scalability question: "we will study the scalability of the
/// centralized policy service when planning multiple complex workflows."
/// Wall-clock cost of one advice round-trip while N workflows share the
/// session, as a function of resident policy-memory size.
fn ablation_scalability(c: &mut Criterion) {
    use pwm_core::{TransferSpec, Url};
    println!("== Ablation: centralized service scalability (resident facts vs advice latency) ==");
    let mut group = c.benchmark_group("service_scalability");
    for resident_files in [0usize, 100, 500, 2000] {
        let controller = PolicyController::new(
            PolicyConfig::default()
                .with_default_streams(8)
                .with_threshold(1_000_000),
        );
        // Pre-populate policy memory with staged files from other workflows.
        {
            let mut t = InProcessTransport::new(controller.clone(), DEFAULT_SESSION);
            use pwm_core::transport::PolicyTransport;
            for chunk in 0..(resident_files / 50).max(if resident_files > 0 { 1 } else { 0 }) {
                let batch: Vec<TransferSpec> = (0..50.min(resident_files))
                    .map(|i| TransferSpec {
                        source: Url::new(
                            "gsiftp",
                            "gridftp-vm",
                            format!("/data/resident_{chunk}_{i}.dat"),
                        ),
                        dest: Url::new(
                            "file",
                            "obelix-nfs",
                            format!("/scratch/resident_{chunk}_{i}.dat"),
                        ),
                        bytes: 1,
                        requested_streams: None,
                        workflow: WorkflowId(chunk as u64),
                        cluster: None,
                        priority: None,
                    })
                    .collect();
                let advice = t.evaluate_transfers(batch).unwrap();
                t.report_transfers(
                    advice
                        .iter()
                        .map(|a| pwm_core::TransferOutcome {
                            id: a.id,
                            success: true,
                        })
                        .collect(),
                )
                .unwrap();
            }
        }
        let mut counter = 0u64;
        group.bench_function(
            format!("lifecycle_with_{resident_files}_resident_files"),
            |b| {
                use pwm_core::transport::PolicyTransport;
                let mut t = InProcessTransport::new(controller.clone(), DEFAULT_SESSION);
                b.iter(|| {
                    // One complete transfer lifecycle (advice → completion →
                    // cleanup advice → cleanup completion): policy memory
                    // returns to its resident baseline, so iterations are
                    // independent and the measurement reflects the cost of the
                    // four REST operations at this memory size.
                    counter += 1;
                    let src = Url::new("gsiftp", "gridftp-vm", format!("/data/q{counter}.dat"));
                    let dst = Url::new("file", "obelix-nfs", format!("/scratch/q{counter}.dat"));
                    let advice = t
                        .evaluate_transfers(vec![TransferSpec {
                            source: src,
                            dest: dst.clone(),
                            bytes: 1,
                            requested_streams: None,
                            workflow: WorkflowId(9999),
                            cluster: None,
                            priority: None,
                        }])
                        .unwrap();
                    t.report_transfers(vec![pwm_core::TransferOutcome {
                        id: advice[0].id,
                        success: true,
                    }])
                    .unwrap();
                    let cleanups = t
                        .evaluate_cleanups(vec![pwm_core::CleanupSpec {
                            file: dst,
                            workflow: WorkflowId(9999),
                        }])
                        .unwrap();
                    t.report_cleanups(vec![pwm_core::CleanupOutcome {
                        id: cleanups[0].id,
                        success: true,
                    }])
                    .unwrap();
                    black_box(advice)
                })
            },
        );
    }
    group.finish();
}

/// Cross-workload study: the same policy on three canonical workflow
/// shapes. CyberShake's shared strain-green-tensor inputs make policy dedup
/// decisive; Epigenomics stages only at lane heads and barely cares.
fn ablation_workloads() {
    use pwm_core::transport::{NoPolicyTransport, PolicyTransport};
    use pwm_montage::{
        cybershake_like, epigenomics_like, single_source_replicas, CyberShakeConfig,
        EpigenomicsConfig,
    };
    println!("== Ablation: policy value across workload shapes ==");
    println!(
        "{:<22}{:>14}{:>14}{:>16}",
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
        let mut results = Vec::new();
        for policy in [false, true] {
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
            let exec = WorkflowExecutor::new(
                &p,
                &world.site,
                network,
                transport,
                ExecutorConfig {
                    seed: 3,
                    ..Default::default()
                },
            );
            let (stats, _) = exec.run();
            assert!(stats.success, "{label} run failed");
            results.push(stats);
        }
        let saved_gb = (results[0].bytes_staged - results[1].bytes_staged) / 1e9;
        println!(
            "{:<22}{:>14.0}{:>14.0}{:>16.2}",
            label,
            results[0].makespan_secs(),
            results[1].makespan_secs(),
            saved_gb,
        );
    }
    println!();
}

fn bench_ablations(c: &mut Criterion) {
    ablation_clustering();
    ablation_balanced();
    ablation_priority();
    ablation_sharing();
    ablation_overhead();
    ablation_workloads();
    ablation_scalability(c);

    // Time the clustered configuration as the representative measurement.
    let mut exp = MontageExperiment::paper_setup(mb(10), 8, PolicyMode::Greedy { threshold: 50 });
    exp.clustering_factor = Some(4);
    c.bench_function("ablations/clustered_10mb_run", |b| {
        b.iter(|| black_box(exp.run_once(1)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
