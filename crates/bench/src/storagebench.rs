//! Storage-backend frontier benchmark (`repro storage`).
//!
//! Runs one wide staging-heavy workflow against the `pwm-storage` ec2 trio
//! of backends (shared NFS / parallel FS / object store) on a LAN topology
//! where the *backend envelope* — not the WAN — is the bottleneck, and maps
//! the makespan-versus-dollar-cost frontier recorded in
//! `BENCH_storage.json`:
//!
//! * three **fixed-backend** comparators (the policy may only pick the one
//!   registered backend — what a site pinned to each backend would pay);
//! * **policy-picked** runs: greedy-cheapest, latency-floor, and
//!   budget-capped storage selection over all three backends at once.
//!
//! Every run is fully simulated (virtual time, seeded jitter), so the
//! committed report is deterministic and diffable. The figure-shape
//! invariants the CI smoke job enforces with a nonzero exit:
//!
//! * per-run cost accounting is internally consistent (component sums,
//!   metered bytes == staged bytes);
//! * the Pareto frontier is monotone (more dollars only ever buy a shorter
//!   makespan) and spans at least two points;
//! * at least one policy-picked run beats the worst fixed backend on cost
//!   at equal-or-better makespan — the reason the policy family exists.

use pwm_core::{
    InProcessTransport, PolicyConfig, PolicyController, StoragePolicy, Url, DEFAULT_SESSION,
};
use pwm_net::{Network, StreamModel, Topology};
use pwm_obs::{global_logger, JsonValue};
use pwm_storage::{ec2_trio, BackendSpec, StorageCostReport, StorageLayer};
use pwm_workflow::{
    plan, AbstractJob, AbstractWorkflow, ComputeSite, ExecutorConfig, PlannerConfig,
    ReplicaCatalog, StorageRuntime, WorkflowExecutor,
};

/// One storage-site workload, shared with [`crate::resilience`]: a wide fan
/// of independent staging+compute jobs, every input pulled from a data
/// source on the site LAN.
#[derive(Debug, Clone)]
pub struct StoragebenchScenario {
    /// Scenario name as it appears in the JSON report.
    pub label: String,
    /// Independent compute jobs (each stages one input file).
    pub jobs: usize,
    /// Bytes per staged input file.
    pub file_bytes: u64,
    /// Master seed (runtime jitter, network RNG, corruption draws).
    pub seed: u64,
}

impl StoragebenchScenario {
    /// The fan: job `work_i` (5 s) reads `in_i` (`file_bytes`, to be given
    /// a replica by the caller) and writes a 1 kB `out_i`.
    pub(crate) fn workflow(&self, name: &str) -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new(name);
        for i in 0..self.jobs {
            wf.add_job(AbstractJob {
                name: format_args!("work_{i}").into(),
                transformation: "work".into(),
                runtime_s: 5.0,
                inputs: vec![format_args!("in_{i}").into()],
                outputs: vec![format_args!("out_{i}").into()],
            });
            wf.set_file_size(format!("in_{i}"), self.file_bytes);
            wf.set_file_size(format!("out_{i}"), 1_000);
        }
        wf
    }
}

/// The committed-report scenario: 24 × 64 MB keeps every backend envelope
/// busy (the object store needs 2 multipart chunks per file) while the run
/// stays sub-second in wall clock.
pub fn standard_scenario() -> StoragebenchScenario {
    StoragebenchScenario {
        label: "wide-24x64MB".into(),
        jobs: 24,
        file_bytes: 64_000_000,
        seed: 42,
    }
}

/// The CI smoke scenario: same shape, a third of the work.
pub fn smoke_scenario() -> StoragebenchScenario {
    StoragebenchScenario {
        label: "wide-8x64MB".into(),
        jobs: 8,
        file_bytes: 64_000_000,
        seed: 42,
    }
}

/// One point of the makespan-vs-cost frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Run label (`fixed-<backend>` or `policy-<strategy>`).
    pub label: String,
    /// True for the pinned single-backend comparators.
    pub fixed: bool,
    /// Virtual makespan, seconds.
    pub makespan_secs: f64,
    /// Total storage dollars of the run.
    pub dollars: f64,
    /// Payload bytes staged.
    pub bytes_staged: f64,
    /// The full cost breakdown.
    pub report: StorageCostReport,
    /// Whether every job completed.
    pub success: bool,
}

/// The budget given to the budget-capped policy run: enough forecast
/// dollars to put roughly half the standard workload on the fast parallel
/// FS before degrading to the cheapest backend.
pub fn half_fleet_budget(s: &StoragebenchScenario, backends: &[BackendSpec]) -> f64 {
    let fastest = backends
        .iter()
        .max_by(|a, b| a.effective_bandwidth().total_cmp(&b.effective_bandwidth()))
        .expect("at least one backend");
    pwm_core::estimated_dollars(fastest, s.file_bytes) * (s.jobs as f64 / 2.0)
}

/// Add the site storage frontend to `topo` (after the caller's data
/// sources), install `backends` behind it, and return the compute site in
/// front of it. Every staged flow's bottleneck is the chosen backend's
/// envelope link.
pub(crate) fn install_site(
    topo: &mut Topology,
    backends: &[BackendSpec],
) -> (ComputeSite, StorageLayer) {
    let frontend = topo.add_host("site-nfs", 1.0e9);
    let layer = StorageLayer::install(topo, frontend, backends);
    let site = ComputeSite {
        name: "site".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: frontend,
        storage_host_name: "site-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    (site, layer)
}

/// Run one (scenario, backend subset, policy) combination to a frontier
/// point. Fixed-backend comparators register a single profile under
/// greedy-cheapest — with one candidate the policy must pick it.
pub fn run_point(
    s: &StoragebenchScenario,
    label: &str,
    fixed: bool,
    profiles: &[BackendSpec],
    policy: StoragePolicy,
) -> FrontierPoint {
    // The topology always installs the full trio so every run shares one
    // network shape; only the *registered profiles* differ.
    let trio = ec2_trio();
    let mut topo = Topology::new();
    let datasrc = topo.add_host("datasrc", 1.0e9); // fat NIC: never the bottleneck
    let (site, layer) = install_site(&mut topo, &trio);
    let network = Network::with_seed(topo, StreamModel::default(), s.seed);

    let wf = s.workflow("storagebench");
    let mut rc = ReplicaCatalog::new();
    for i in 0..s.jobs {
        rc.insert(
            format!("in_{i}"),
            Url::new("gsiftp", "datasrc", format!("/data/in_{i}")),
            datasrc,
        );
    }
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).expect("plan storagebench workflow");

    let mut config = PolicyConfig::default().with_storage(policy);
    for spec in profiles {
        config = config.with_backend(spec.clone(), site.storage_host_name.as_str());
    }
    let controller = PolicyController::new(config);
    let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));
    let cfg = ExecutorConfig {
        seed: s.seed,
        storage: Some(StorageRuntime::new(layer)),
        ..ExecutorConfig::default()
    };
    let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
    let (stats, _net) = exec.run();
    let report = stats.storage.clone().expect("storage metering attached");
    FrontierPoint {
        label: label.to_string(),
        fixed,
        makespan_secs: stats.makespan_secs(),
        dollars: report.dollars_total,
        bytes_staged: stats.bytes_staged,
        report,
        success: stats.success,
    }
}

/// Run the full frontier for one scenario: the three fixed-backend
/// comparators plus the three policy-picked strategies.
pub fn run_suite(s: &StoragebenchScenario) -> Vec<FrontierPoint> {
    let log = global_logger();
    let trio = ec2_trio();
    let budget = half_fleet_budget(s, &trio);
    let mut points = Vec::new();
    for spec in &trio {
        let label = format!("fixed-{}", spec.name);
        log.info(&format!("storagebench: {} — {}", s.label, label));
        points.push(run_point(
            s,
            &label,
            true,
            std::slice::from_ref(spec),
            StoragePolicy::GreedyCheapest,
        ));
    }
    let policy_runs: Vec<(&str, StoragePolicy)> = vec![
        ("policy-greedy-cheapest", StoragePolicy::GreedyCheapest),
        (
            "policy-latency-floor",
            StoragePolicy::LatencyFloor {
                max_setup_s: 0.01,
                min_bandwidth_bps: 100.0e6,
            },
        ),
        (
            "policy-budget-capped",
            StoragePolicy::BudgetCapped {
                budget_dollars: budget,
            },
        ),
    ];
    for (label, policy) in policy_runs {
        log.info(&format!("storagebench: {} — {}", s.label, label));
        points.push(run_point(s, label, false, &trio, policy));
    }
    for p in &points {
        log.info(&format!(
            "storagebench: {:>22}: makespan {:8.2}s  cost ${:.6}",
            p.label, p.makespan_secs, p.dollars
        ));
    }
    points
}

/// Indices of the Pareto-optimal points (no other point is at least as
/// good on both axes and strictly better on one), sorted by makespan.
pub fn pareto_frontier(points: &[FrontierPoint]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| {
            !points.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.makespan_secs <= points[i].makespan_secs
                    && q.dollars <= points[i].dollars
                    && (q.makespan_secs < points[i].makespan_secs || q.dollars < points[i].dollars)
            })
        })
        .collect();
    frontier.sort_by(|&a, &b| points[a].makespan_secs.total_cmp(&points[b].makespan_secs));
    frontier
}

/// The figure-shape invariants the smoke job enforces. Returns every
/// violation found (empty = healthy).
pub fn check_invariants(points: &[FrontierPoint]) -> Vec<String> {
    let mut violations = Vec::new();
    let eps = 1e-9;
    for p in points {
        if !p.success {
            violations.push(format!("{}: run failed", p.label));
        }
        let row_sum: f64 = p.report.backends.iter().map(|b| b.dollars_total).sum();
        if (row_sum - p.report.dollars_total).abs() > eps {
            violations.push(format!(
                "{}: backend rows sum to ${row_sum} but dollars_total is ${}",
                p.label, p.report.dollars_total
            ));
        }
        for b in &p.report.backends {
            let parts = b.dollars_resident + b.dollars_requests + b.dollars_egress;
            if (parts - b.dollars_total).abs() > eps {
                violations.push(format!(
                    "{}/{}: components sum to ${parts} but dollars_total is ${}",
                    p.label, b.backend, b.dollars_total
                ));
            }
        }
        let metered: f64 = p.report.backends.iter().map(|b| b.bytes_put).sum();
        if (metered - p.bytes_staged).abs() > 1.0 {
            violations.push(format!(
                "{}: metered {metered} bytes but staged {}",
                p.label, p.bytes_staged
            ));
        }
    }
    let frontier = pareto_frontier(points);
    if frontier.len() < 2 {
        violations.push(format!(
            "frontier has {} point(s); expected a real makespan/cost trade-off",
            frontier.len()
        ));
    }
    for w in frontier.windows(2) {
        let (a, b) = (&points[w[0]], &points[w[1]]);
        if b.dollars > a.dollars + eps {
            violations.push(format!(
                "frontier not monotone: {} (${}) precedes {} (${}) at longer makespan",
                a.label, a.dollars, b.label, b.dollars
            ));
        }
    }
    if !policy_beats_worst_fixed(points) {
        violations.push(
            "no policy-picked run beats the worst fixed backend on cost at \
             equal-or-better makespan"
                .into(),
        );
    }
    violations
}

/// True when some policy-picked run is strictly cheaper than the
/// costliest fixed backend without being slower.
pub fn policy_beats_worst_fixed(points: &[FrontierPoint]) -> bool {
    let Some(worst) = points
        .iter()
        .filter(|p| p.fixed)
        .max_by(|a, b| a.dollars.total_cmp(&b.dollars))
    else {
        return false;
    };
    points
        .iter()
        .any(|p| !p.fixed && p.dollars < worst.dollars && p.makespan_secs <= worst.makespan_secs)
}

fn point_json(p: &FrontierPoint, on_frontier: bool) -> JsonValue {
    let backends = p
        .report
        .backends
        .iter()
        .filter(|b| b.bytes_put > 0.0)
        .map(|b| {
            JsonValue::Obj(vec![
                ("backend".into(), JsonValue::Str(b.backend.clone())),
                ("bytes_put".into(), JsonValue::Float(b.bytes_put)),
                ("put_requests".into(), JsonValue::Int(b.put_requests as i64)),
                ("gb_hours".into(), JsonValue::Float(b.gb_hours)),
                (
                    "dollars_resident".into(),
                    JsonValue::Float(b.dollars_resident),
                ),
                (
                    "dollars_requests".into(),
                    JsonValue::Float(b.dollars_requests),
                ),
                ("dollars_egress".into(), JsonValue::Float(b.dollars_egress)),
                ("dollars_total".into(), JsonValue::Float(b.dollars_total)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("label".into(), JsonValue::Str(p.label.clone())),
        ("fixed_backend".into(), JsonValue::Bool(p.fixed)),
        ("makespan_secs".into(), JsonValue::Float(p.makespan_secs)),
        ("dollars_total".into(), JsonValue::Float(p.dollars)),
        ("bytes_staged".into(), JsonValue::Float(p.bytes_staged)),
        ("on_frontier".into(), JsonValue::Bool(on_frontier)),
        ("backends".into(), JsonValue::Arr(backends)),
    ])
}

/// Render a result set as the `BENCH_storage.json` document.
pub fn report_json(s: &StoragebenchScenario, points: &[FrontierPoint]) -> JsonValue {
    let frontier = pareto_frontier(points);
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("storagebench".into())),
        (
            "units".into(),
            JsonValue::Str(
                "makespan_secs: virtual seconds; dollars_total: storage cost \
                 (residency + requests + egress)"
                    .into(),
            ),
        ),
        ("scenario".into(), JsonValue::Str(s.label.clone())),
        ("jobs".into(), JsonValue::Int(s.jobs as i64)),
        ("file_bytes".into(), JsonValue::Int(s.file_bytes as i64)),
        ("seed".into(), JsonValue::Int(s.seed as i64)),
        (
            "frontier".into(),
            JsonValue::Arr(
                frontier
                    .iter()
                    .map(|&i| JsonValue::Str(points[i].label.clone()))
                    .collect(),
            ),
        ),
        (
            "policy_beats_worst_fixed".into(),
            JsonValue::Bool(policy_beats_worst_fixed(points)),
        ),
        (
            "points".into(),
            JsonValue::Arr(
                points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| point_json(p, frontier.contains(&i)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(label: &str, fixed: bool, makespan: f64, dollars: f64) -> FrontierPoint {
        FrontierPoint {
            label: label.into(),
            fixed,
            makespan_secs: makespan,
            dollars,
            bytes_staged: 0.0,
            report: StorageCostReport::default(),
            success: true,
        }
    }

    #[test]
    fn pareto_frontier_drops_dominated_points() {
        let points = vec![
            synthetic("slow-cheap", true, 100.0, 1.0),
            synthetic("fast-pricey", true, 10.0, 50.0),
            synthetic("dominated", true, 120.0, 60.0),
            synthetic("mid", false, 50.0, 5.0),
        ];
        let f = pareto_frontier(&points);
        let labels: Vec<&str> = f.iter().map(|&i| points[i].label.as_str()).collect();
        assert_eq!(labels, vec!["fast-pricey", "mid", "slow-cheap"]);
    }

    #[test]
    fn policy_beats_worst_fixed_needs_both_axes() {
        let worst = synthetic("fixed-obj", true, 50.0, 10.0);
        // Cheaper but slower: no.
        assert!(!policy_beats_worst_fixed(&[
            worst.clone(),
            synthetic("policy", false, 60.0, 1.0),
        ]));
        // Cheaper and faster: yes.
        assert!(policy_beats_worst_fixed(&[
            worst,
            synthetic("policy", false, 40.0, 1.0),
        ]));
    }

    #[test]
    fn smoke_suite_has_figure_shape() {
        // The real end-to-end frontier at smoke scale: three fixed
        // comparators, three policy runs, every invariant green.
        let s = smoke_scenario();
        let points = run_suite(&s);
        assert_eq!(points.len(), 6);
        assert_eq!(points.iter().filter(|p| p.fixed).count(), 3);
        let violations = check_invariants(&points);
        assert!(violations.is_empty(), "invariants violated: {violations:?}");

        let by_label = |l: &str| points.iter().find(|p| p.label == l).unwrap();
        let nfs = by_label("fixed-nfs-std");
        let pfs = by_label("fixed-pfs-lustre");
        let obj = by_label("fixed-obj-s3");
        // Envelope ordering: the parallel FS is the fastest fixed choice,
        // the shared NFS the slowest; the object store pays real dollars.
        assert!(pfs.makespan_secs < obj.makespan_secs);
        assert!(obj.makespan_secs < nfs.makespan_secs);
        assert!(obj.dollars > 100.0 * nfs.dollars.max(f64::MIN_POSITIVE));
        // Greedy-cheapest lands on the cheapest fixed point's backend.
        let greedy = by_label("policy-greedy-cheapest");
        assert!((greedy.dollars - nfs.dollars).abs() / nfs.dollars < 0.5);
        // The latency-floor run concentrates on the parallel FS: as fast
        // as the fixed-pfs comparator, orders cheaper than the object
        // store.
        let floor = by_label("policy-latency-floor");
        assert!((floor.makespan_secs - pfs.makespan_secs).abs() < 1.0);
        assert!(floor.dollars < obj.dollars / 10.0);

        let doc = report_json(&s, &points);
        let parsed = JsonValue::parse(&doc.render()).expect("storagebench JSON parses");
        assert_eq!(
            parsed
                .get("policy_beats_worst_fixed")
                .and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn suite_is_deterministic_given_seed() {
        let s = smoke_scenario();
        let a = run_suite(&s);
        let b = run_suite(&s);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.makespan_secs, y.makespan_secs);
            assert_eq!(x.dollars, y.dollars);
            assert_eq!(x.report, y.report);
        }
    }

    #[test]
    fn committed_report_matches_figure_shape() {
        // BENCH_storage.json is a committed artifact; its shape must stay
        // consistent with what this module generates and asserts.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_storage.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_storage.json");
        let doc = JsonValue::parse(&text).expect("committed report parses");
        let points = doc.get("points").and_then(|p| p.as_arr()).expect("points");
        let fixed = points
            .iter()
            .filter(|p| p.get("fixed_backend").and_then(|v| v.as_bool()) == Some(true))
            .count();
        assert!(fixed >= 3, "frontier must span at least 3 fixed backends");
        assert!(
            points.len() > fixed,
            "report must include policy-picked runs"
        );
        assert_eq!(
            doc.get("policy_beats_worst_fixed")
                .and_then(|v| v.as_bool()),
            Some(true),
            "committed run must show the policy win"
        );
        let frontier = doc
            .get("frontier")
            .and_then(|f| f.as_arr())
            .expect("frontier");
        assert!(frontier.len() >= 2, "committed frontier must trade off");
    }
}
