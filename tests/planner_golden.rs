//! Planner goldens: `plan` and `merge_plans` are pinned output-for-output.
//!
//! The digests below were printed by the commit *before* `AbstractWorkflow`
//! grew its dense file index and `plan` stopped re-deriving producers, edges
//! and levels per use. They cover everything an executor can observe of a
//! plan, in order — job names, kinds, transfer URLs and bytes, parents,
//! children, levels, priorities, workflow ids — so a planner change that
//! reorders one edge or renames one job fails here rather than as a shifted
//! makespan three layers up. Never regenerate them to make a refactor pass;
//! a change that means to alter plans says which digests moved and why.

use pwm_core::PriorityAlgorithm;
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::paper_testbed;
use pwm_workflow::{
    merge_plans, plan, AbstractJob, AbstractWorkflow, ComputeSite, ExecutablePlan, PlanJobKind,
    PlannedTransfer, PlannerConfig, ReplicaCatalog,
};
use std::fmt::Write;

/// A plan index rendered as the digests were printed, when jobs held their
/// edges as `Vec<PlanJobId>`.
#[derive(Debug)]
struct PlanJobId(#[allow(dead_code)] usize);

/// FNV-1a over a canonical rendering of every observable field of the plan.
fn digest(plan: &ExecutablePlan) -> u64 {
    let mut text = format!("plan {}\n", plan.name);
    let transfers = |text: &mut String, list: &[PlannedTransfer]| {
        for t in list {
            let (src, dst) = (t.src_host.0, t.dst_host.0);
            writeln!(
                text,
                " {} {} {} {} {src} {dst}",
                t.file, t.bytes, t.source, t.dest
            )
            .unwrap();
        }
    };
    for (i, job) in plan.jobs().iter().enumerate() {
        let parents: Vec<PlanJobId> = plan.parents(i).map(PlanJobId).collect();
        let children: Vec<PlanJobId> = plan.children(i).map(PlanJobId).collect();
        writeln!(
            text,
            "job {} level {} priority {} workflow {:?} parents {parents:?} children {children:?}",
            plan.job_name(i),
            job.level,
            job.priority,
            plan.workflow(i)
        )
        .unwrap();
        match &job.kind {
            PlanJobKind::StageIn {
                transfers: list,
                cluster,
            } => {
                writeln!(text, "stage-in cluster {cluster:?}").unwrap();
                transfers(&mut text, list);
            }
            PlanJobKind::Compute {
                transformation,
                runtime_s,
                output_bytes,
            } => writeln!(text, "compute {transformation} {runtime_s} {output_bytes}").unwrap(),
            PlanJobKind::StageOut { transfers: list } => {
                writeln!(text, "stage-out").unwrap();
                transfers(&mut text, list);
            }
            PlanJobKind::Cleanup { files } => {
                for (url, bytes) in files {
                    writeln!(text, "cleanup {url} {bytes}").unwrap();
                }
            }
        }
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn site() -> ComputeSite {
    let (_topo, _gridftp, _apache, nfs) = paper_testbed();
    ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    }
}

/// The augmented 1-degree Montage workflow of `seed`, planned under `config`.
fn montage_plan(seed: u64, config: &PlannerConfig) -> ExecutablePlan {
    let (_topo, gridftp, apache, _nfs) = paper_testbed();
    let workflow = montage_workflow(&MontageConfig {
        extra_file_bytes: 10_000_000,
        seed,
        ..Default::default()
    });
    let replicas = montage_replicas(&workflow, ("apache-isi", apache), ("gridftp-vm", gridftp));
    plan(&workflow, &site(), &replicas, config).expect("montage plans")
}

/// The planner configurations the goldens cover, by name.
fn configs() -> Vec<(&'static str, PlannerConfig)> {
    let (_topo, gridftp, _apache, _nfs) = paper_testbed();
    let archive = Some(("gridftp-vm".to_string(), gridftp, "/results".to_string()));
    let base = PlannerConfig::default();
    vec![
        ("default", base.clone()),
        (
            "clustered",
            PlannerConfig {
                clustering_factor: Some(4),
                ..base.clone()
            },
        ),
        (
            "stage_out",
            PlannerConfig {
                stage_out: true,
                output_site: archive.clone(),
                ..base.clone()
            },
        ),
        (
            "priorities",
            PlannerConfig {
                priority: Some(PriorityAlgorithm::Dependent),
                ..base.clone()
            },
        ),
        (
            "everything",
            PlannerConfig {
                clustering_factor: Some(3),
                cleanup: true,
                stage_out: true,
                output_site: archive,
                priority: Some(PriorityAlgorithm::BreadthFirst),
            },
        ),
        (
            "no_cleanup",
            PlannerConfig {
                cleanup: false,
                ..base
            },
        ),
    ]
}

/// One row per configuration, one digest per Montage seed 1–5.
const GOLDEN: [(&str, [u64; 5]); 6] = [
    (
        "default",
        [
            0x3ea069e4335f3144,
            0xb3823f42a6694aea,
            0x7668d89f25eb1e6a,
            0x0ef9a537281d7ee2,
            0x2ddf42d9da76697c,
        ],
    ),
    (
        "clustered",
        [
            0xfd6ba44caea6e1c0,
            0x0f3de38ec021e9b0,
            0x6ae09a8d863bb67a,
            0x984b1ae164230d0c,
            0xfab457cd75b10cda,
        ],
    ),
    (
        "stage_out",
        [
            0x2ef5541d07c5a577,
            0x7154dbf10a8ef625,
            0xbf62d39d6b861cbf,
            0xe02d27fdbca40dfb,
            0x720e905be9116819,
        ],
    ),
    (
        "priorities",
        [
            0x88db411166182398,
            0xf77e38e4b364a0c0,
            0x7d6f07f64de7e050,
            0xe39ccc87b3ff0566,
            0xb895caaed18b2518,
        ],
    ),
    (
        "everything",
        [
            0x22cbbe0f3f1364c6,
            0x80292bd94c899da2,
            0x7c9e21bd2684c05e,
            0xa93dc272988360fa,
            0x4bf2d424e9df87e2,
        ],
    ),
    (
        "no_cleanup",
        [
            0xe75b2d3b63e7b0a3,
            0x4e777da486cb03b8,
            0xfba4e493db74b323,
            0x1285130584ab0781,
            0x7391f116a7268c0e,
        ],
    ),
];

/// `merge_plans` of seeds 1–3 under the default, clustered and stage-out
/// configurations (base workflow id 7).
const GOLDEN_MERGED: u64 = 0xaf70916e89376634;

#[test]
fn montage_plans_match_the_committed_digests() {
    for ((name, config), (golden_name, golden)) in configs().iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        let got: Vec<u64> = (1..=5)
            .map(|seed| digest(&montage_plan(seed, config)))
            .collect();
        assert_eq!(
            got, golden,
            "plans under `{name}` differ from the committed digests: {got:#x?}"
        );
    }
}

#[test]
fn merged_plans_match_the_committed_digest() {
    let configs = configs();
    let plans: Vec<ExecutablePlan> = (1..=3u64)
        .map(|seed| montage_plan(seed, &configs[seed as usize - 1].1))
        .collect();
    let merged = merge_plans(&plans.iter().collect::<Vec<_>>(), 7);
    assert_eq!(
        digest(&merged),
        GOLDEN_MERGED,
        "merged plan differs from the committed digest: {:#x}",
        digest(&merged)
    );
}

/// A job that lists one input twice reads it once: one data edge from the
/// producer, one cleanup edge from the reader — the case `plan`'s
/// `children.contains` scan used to cover.
#[test]
fn an_input_listed_twice_gets_one_edge_of_each_kind() {
    let mut wf = AbstractWorkflow::new("twice");
    let job = |name: &str, inputs: &[&str], outputs: &[&str]| AbstractJob {
        name: name.into(),
        transformation: "t".into(),
        runtime_s: 1.0,
        inputs: inputs.iter().map(|&f| f.into()).collect(),
        outputs: outputs.iter().map(|&f| f.into()).collect(),
    };
    wf.add_job(job("make", &["raw", "raw"], &["mid"]));
    wf.add_job(job("use", &["mid", "mid"], &["out"]));
    for file in ["raw", "mid", "out"] {
        wf.set_file_size(file, 1_000);
    }
    let mut replicas = ReplicaCatalog::new();
    replicas.insert_bulk(["raw"], "http", "apache-isi", "/d", pwm_net::HostId(1));
    let plan = plan(&wf, &site(), &replicas, &PlannerConfig::default()).unwrap();
    plan.validate().unwrap();
    let named = |name: &str| {
        plan.jobs()
            .iter()
            .position(|j| j.name == name)
            .unwrap_or_else(|| panic!("no job {name}"))
    };
    let names = |ids: &mut dyn Iterator<Item = usize>| -> Vec<&str> {
        ids.map(|id| plan.job(id).name.as_str()).collect()
    };
    assert_eq!(names(&mut plan.parents(named("use"))), ["make"]);
    assert_eq!(names(&mut plan.parents(named("cleanup_mid"))), ["use"]);
    assert_eq!(names(&mut plan.parents(named("cleanup_raw"))), ["make"]);
    assert_eq!(
        names(&mut plan.children(named("make"))),
        ["use", "cleanup_raw"]
    );
    assert_eq!(
        names(&mut plan.children(named("use"))),
        ["cleanup_mid", "cleanup_out"]
    );
    // Each mention is still a transfer request of its own: the Policy
    // Service, not the planner, decides that the second one is a duplicate.
    match &plan.job(named("stage_in_make")).kind {
        PlanJobKind::StageIn { transfers, .. } => assert_eq!(transfers.len(), 2),
        other => panic!("stage_in_make is {other:?}"),
    }
}
