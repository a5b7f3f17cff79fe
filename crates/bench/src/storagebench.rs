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
//! invariants `repro storage` enforces with a nonzero exit:
//!
//! * per-run cost accounting is internally consistent (component sums,
//!   metered bytes == staged bytes);
//! * the Pareto frontier is monotone (more dollars only ever buy a shorter
//!   makespan) and spans at least two points;
//! * at least one policy-picked run beats the worst fixed backend on cost
//!   at equal-or-better makespan — the reason the policy family exists.
//!
//! `run_site` is the one storage-site run: this frontier's points and
//! [`crate::resilience`]'s cells are both built by it.

use crate::resilience::{Intensity, OUTAGE_BACKEND};
use crate::SuiteOutput;
use pwm_core::{
    InProcessTransport, PolicyConfig, PolicyController, StoragePolicy, Url, DEFAULT_SESSION,
};
use pwm_net::{Network, StreamModel, Topology};
use pwm_obs::global_logger;
use pwm_storage::{ec2_trio, BackendSpec, CorruptionModel, StorageLayer};
use pwm_workflow::{
    plan, AbstractJob, AbstractWorkflow, ComputeSite, CrashTarget, ExecutorConfig, PlannerConfig,
    RecoveryConfig, ReplicaCatalog, RunStats, StorageRuntime, WorkflowExecutor,
};
use serde::Serialize;

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

/// One point of the makespan-vs-cost frontier, as `BENCH_storage.json`
/// records it.
#[derive(Debug, Clone, Serialize)]
pub struct FrontierPoint {
    /// Run label (`fixed-<backend>` or `policy-<strategy>`).
    pub label: String,
    /// True for the pinned single-backend comparators.
    pub fixed_backend: bool,
    /// Virtual makespan, seconds.
    pub makespan_secs: f64,
    /// Total storage dollars of the run.
    pub dollars_total: f64,
    /// Payload bytes staged.
    pub bytes_staged: f64,
    /// Whether no other point of the suite dominates this one.
    pub on_frontier: bool,
    /// The cost rows of the backends the run staged onto.
    pub backends: Vec<BackendRow>,
}

/// A [`pwm_storage::BackendCost`] row as the report records it.
#[derive(Debug, Clone, Serialize)]
pub struct BackendRow {
    backend: String,
    bytes_put: f64,
    put_requests: u64,
    gb_hours: f64,
    dollars_resident: f64,
    dollars_requests: f64,
    dollars_egress: f64,
    dollars_total: f64,
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

/// Where a storage-site run's inputs live: the preferred source's NIC, and
/// a mirror of every input when one is wanted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sources {
    /// `datasrc`'s NIC, bytes/s.
    pub datasrc_bps: f64,
    /// `mirrorsrc`'s NIC, bytes/s.
    pub mirror_bps: Option<f64>,
}

/// Run `s`'s fan workflow (named `workflow`) on the storage site once.
///
/// The topology is the data sources, then the site storage frontend with
/// the full ec2 trio behind it, so every run shares one network shape; only
/// the `profiles` registered with the `policy` differ. Every staged flow's
/// bottleneck is the chosen backend's envelope link. With `faults`, the
/// intensity's crash and outage windows go to the recovery plane
/// (policy-guided when the flag is set, naive retry otherwise), which takes
/// the downed hosts' access links down with them.
pub(crate) fn run_site(
    s: &StoragebenchScenario,
    workflow: &str,
    sources: Sources,
    profiles: &[BackendSpec],
    policy: StoragePolicy,
    faults: Option<(&Intensity, bool)>,
) -> RunStats {
    let mut topo = Topology::new();
    let datasrc = topo.add_host("datasrc", sources.datasrc_bps);
    let mirror = sources
        .mirror_bps
        .map(|bps| topo.add_host("mirrorsrc", bps));
    let frontend = topo.add_host("site-nfs", 1.0e9);
    let layer = StorageLayer::install(&mut topo, frontend, &ec2_trio());
    let site = ComputeSite {
        name: "site".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: frontend,
        storage_host_name: "site-nfs".into(),
        scratch_dir: "/scratch".into(),
    };

    // The fan: job `work_i` (5 s) reads `in_i`, preferred replica first
    // (planning uses it), mirror second (failover walks the rest), and
    // writes a 1 kB `out_i`.
    let mut wf = AbstractWorkflow::new(workflow);
    let mut rc = ReplicaCatalog::new();
    for i in 0..s.jobs {
        wf.add_job(AbstractJob {
            name: format_args!("work_{i}").into(),
            transformation: "work".into(),
            runtime_s: 5.0,
            inputs: vec![format_args!("in_{i}").into()],
            outputs: vec![format_args!("out_{i}").into()],
        });
        wf.set_file_size(format!("in_{i}"), s.file_bytes);
        wf.set_file_size(format!("out_{i}"), 1_000);
        rc.insert(
            format!("in_{i}"),
            Url::new("gsiftp", "datasrc", format!("/data/in_{i}")),
            datasrc,
        );
        if let Some(mirror) = mirror {
            rc.insert(
                format!("in_{i}"),
                Url::new("http", "mirrorsrc", format!("/mirror/in_{i}")),
                mirror,
            );
        }
    }
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).expect("plan the storage-site fan");

    let mut config = PolicyConfig::default().with_storage(policy);
    for spec in profiles {
        config = config.with_backend(spec.clone(), site.storage_host_name.as_str());
    }
    let transport = Box::new(InProcessTransport::new(
        PolicyController::new(config),
        DEFAULT_SESSION,
    ));

    // Physical faults are identical in both recovery modes; only
    // `report_health` differs.
    let recovery = faults.map(|(it, guided)| {
        let mut corruption = CorruptionModel::new(s.seed);
        if it.corruption_prob > 0.0 {
            corruption.set_host_prob("datasrc", it.corruption_prob);
        }
        let mut config = RecoveryConfig {
            report_health: guided,
            replicas: rc,
            corruption,
            ..RecoveryConfig::default()
        };
        if let Some((at, restart_after)) = it.crash {
            let name = "datasrc".into();
            let target = CrashTarget::Host {
                host: datasrc,
                name,
            };
            config.faults.add(at, restart_after, target);
        }
        if let Some((from, duration)) = it.outage {
            let backend = OUTAGE_BACKEND.into();
            let host = layer.backend(OUTAGE_BACKEND).expect("trio backend").host;
            config
                .faults
                .add(from, duration, CrashTarget::Backend { backend, host });
        }
        config
    });
    let network = Network::with_seed(topo, StreamModel::default(), s.seed);

    let cfg = ExecutorConfig {
        seed: s.seed,
        storage: Some(StorageRuntime::new(layer)),
        recovery,
        ..ExecutorConfig::default()
    };
    WorkflowExecutor::new(&p, &site, network, transport, cfg)
        .run()
        .0
}

/// Run the full frontier for one scenario — the three fixed-backend
/// comparators plus the three policy-picked strategies — and check each
/// run's cost accounting: it completed, its backend rows and their
/// components sum to its total, and it metered exactly the bytes it staged.
pub fn run_suite(s: &StoragebenchScenario) -> (Vec<FrontierPoint>, Vec<String>) {
    let log = global_logger();
    let trio = ec2_trio();
    let budget = half_fleet_budget(s, &trio);
    let mut violations = Vec::new();
    // One point: `profiles` registered under `policy`, inputs on a fat-NIC
    // source that is never the bottleneck. Fixed-backend comparators
    // register a single profile under greedy-cheapest — with one candidate
    // the policy must pick it.
    let mut run_point = |label: String, fixed_backend, profiles: &[BackendSpec], policy| {
        log.info(&format!("storagebench: {} — {}", s.label, label));
        let sources = Sources {
            datasrc_bps: 1.0e9,
            mirror_bps: None,
        };
        let stats = run_site(s, "storagebench", sources, profiles, policy, None);
        let report = stats.storage.clone().expect("storage metering attached");
        // The run's cost accounting: it completed, the backend rows sum to
        // the total, each row's components to the row, and the meter saw
        // exactly the staged bytes.
        if !stats.success {
            violations.push(format!("{label}: run failed"));
        }
        let row_sum: f64 = report.backends.iter().map(|b| b.dollars_total).sum();
        if (row_sum - report.dollars_total).abs() > EPS {
            violations.push(format!(
                "{label}: backend rows sum to ${row_sum} but dollars_total is ${}",
                report.dollars_total
            ));
        }
        for b in &report.backends {
            let parts = b.dollars_resident + b.dollars_requests + b.dollars_egress;
            if (parts - b.dollars_total).abs() > EPS {
                violations.push(format!(
                    "{label}/{}: components sum to ${parts} but dollars_total is ${}",
                    b.backend, b.dollars_total
                ));
            }
        }
        let metered: f64 = report.backends.iter().map(|b| b.bytes_put).sum();
        if (metered - stats.bytes_staged).abs() > 1.0 {
            violations.push(format!(
                "{label}: metered {metered} bytes but staged {}",
                stats.bytes_staged
            ));
        }
        FrontierPoint {
            label,
            fixed_backend,
            makespan_secs: stats.makespan_secs(),
            dollars_total: report.dollars_total,
            bytes_staged: stats.bytes_staged,
            on_frontier: false,
            backends: report
                .backends
                .into_iter()
                .filter(|b| b.bytes_put > 0.0)
                .map(|b| BackendRow {
                    backend: b.backend,
                    bytes_put: b.bytes_put,
                    put_requests: b.put_requests,
                    gb_hours: b.gb_hours,
                    dollars_resident: b.dollars_resident,
                    dollars_requests: b.dollars_requests,
                    dollars_egress: b.dollars_egress,
                    dollars_total: b.dollars_total,
                })
                .collect(),
        }
    };
    let mut points = Vec::new();
    for spec in &trio {
        let profiles = std::slice::from_ref(spec);
        let policy = StoragePolicy::GreedyCheapest;
        points.push(run_point(
            format!("fixed-{}", spec.name),
            true,
            profiles,
            policy,
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
        points.push(run_point(label.into(), false, &trio, policy));
    }
    for i in pareto_frontier(&points) {
        points[i].on_frontier = true;
    }
    for p in &points {
        log.info(&format!(
            "storagebench: {:>22}: makespan {:8.2}s  cost ${:.6}",
            p.label, p.makespan_secs, p.dollars_total
        ));
    }
    (points, violations)
}

/// Dollar tolerance of the cost invariants.
const EPS: f64 = 1e-9;

/// Indices of the Pareto-optimal points (no other point is at least as
/// good on both axes and strictly better on one), sorted by makespan.
pub fn pareto_frontier(points: &[FrontierPoint]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| {
            !points.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.makespan_secs <= points[i].makespan_secs
                    && q.dollars_total <= points[i].dollars_total
                    && (q.makespan_secs < points[i].makespan_secs
                        || q.dollars_total < points[i].dollars_total)
            })
        })
        .collect();
    frontier.sort_by(|&a, &b| points[a].makespan_secs.total_cmp(&points[b].makespan_secs));
    frontier
}

/// The frontier-shape invariants `repro storage` enforces: a real
/// trade-off, monotone, and a policy-picked run beating the worst fixed
/// backend. Returns every violation found (empty = healthy).
pub fn check_frontier(points: &[FrontierPoint]) -> Vec<String> {
    let mut violations = Vec::new();
    let frontier = pareto_frontier(points);
    if frontier.len() < 2 {
        violations.push(format!(
            "frontier has {} point(s); expected a real makespan/cost trade-off",
            frontier.len()
        ));
    }
    for w in frontier.windows(2) {
        let (a, b) = (&points[w[0]], &points[w[1]]);
        if b.dollars_total > a.dollars_total + EPS {
            violations.push(format!(
                "frontier not monotone: {} (${}) precedes {} (${}) at longer makespan",
                a.label, a.dollars_total, b.label, b.dollars_total
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
        .filter(|p| p.fixed_backend)
        .max_by(|a, b| a.dollars_total.total_cmp(&b.dollars_total))
    else {
        return false;
    };
    points.iter().any(|p| {
        !p.fixed_backend
            && p.dollars_total < worst.dollars_total
            && p.makespan_secs <= worst.makespan_secs
    })
}

/// The `BENCH_storage.json` document.
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    units: &'static str,
    scenario: String,
    jobs: usize,
    file_bytes: u64,
    seed: u64,
    frontier: Vec<String>,
    policy_beats_worst_fixed: bool,
    points: Vec<FrontierPoint>,
}

/// Render a result set as the `BENCH_storage.json` document.
pub fn report_json(s: &StoragebenchScenario, points: &[FrontierPoint]) -> String {
    let report = Report {
        bench: "storagebench",
        units: "makespan_secs: virtual seconds; dollars_total: storage cost \
                (residency + requests + egress)",
        scenario: s.label.clone(),
        jobs: s.jobs,
        file_bytes: s.file_bytes,
        seed: s.seed,
        frontier: pareto_frontier(points)
            .into_iter()
            .map(|i| points[i].label.clone())
            .collect(),
        policy_beats_worst_fixed: policy_beats_worst_fixed(points),
        points: points.to_vec(),
    };
    serde_json::to_string(&report).expect("storagebench report serializes")
}

/// `repro storage`: the standard frontier as `BENCH_storage.json`, every
/// run's accounting violations and every [`check_frontier`] miss.
pub fn repro() -> SuiteOutput {
    let s = standard_scenario();
    let (points, mut violations) = run_suite(&s);
    violations.extend(check_frontier(&points));
    SuiteOutput {
        text: String::new(),
        json: Some(report_json(&s, &points)),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(label: &str, fixed: bool, makespan: f64, dollars: f64) -> FrontierPoint {
        FrontierPoint {
            label: label.into(),
            fixed_backend: fixed,
            makespan_secs: makespan,
            dollars_total: dollars,
            bytes_staged: 0.0,
            on_frontier: false,
            backends: Vec::new(),
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
    fn suite_is_deterministic_given_seed() {
        let s = standard_scenario();
        let (a, b) = (run_suite(&s).0, run_suite(&s).0);
        assert_eq!(report_json(&s, &a), report_json(&s, &b));
    }

    /// The figure's shape: three fixed comparators and three policy runs,
    /// the backend envelopes in order, and each policy landing where its
    /// objective says.
    fn assert_figure_shape(points: &[FrontierPoint]) {
        assert_eq!(points.len(), 6);
        assert_eq!(points.iter().filter(|p| p.fixed_backend).count(), 3);
        let by_label = |l: &str| points.iter().find(|p| p.label == l).unwrap();
        let nfs = by_label("fixed-nfs-std");
        let pfs = by_label("fixed-pfs-lustre");
        let obj = by_label("fixed-obj-s3");
        // Envelope ordering: the parallel FS is the fastest fixed choice,
        // the shared NFS the slowest; the object store pays real dollars.
        assert!(pfs.makespan_secs < obj.makespan_secs);
        assert!(obj.makespan_secs < nfs.makespan_secs);
        assert!(obj.dollars_total > 100.0 * nfs.dollars_total.max(f64::MIN_POSITIVE));
        // Greedy-cheapest lands on the cheapest fixed point's backend.
        let greedy = by_label("policy-greedy-cheapest");
        assert!((greedy.dollars_total - nfs.dollars_total).abs() / nfs.dollars_total < 0.5);
        // The latency-floor run concentrates on the parallel FS: as fast
        // as the fixed-pfs comparator, orders cheaper than the object
        // store.
        let floor = by_label("policy-latency-floor");
        assert!((floor.makespan_secs - pfs.makespan_secs).abs() < 1.0);
        assert!(floor.dollars_total < obj.dollars_total / 10.0);
        assert!(policy_beats_worst_fixed(points));
    }

    #[test]
    fn smoke_suite_has_figure_shape() {
        // The real end-to-end frontier at a third of the standard work:
        // the shape does not depend on the committed scale.
        let s = StoragebenchScenario {
            label: "wide-8x64MB".into(),
            jobs: 8,
            ..standard_scenario()
        };
        let (points, mut violations) = run_suite(&s);
        violations.extend(check_frontier(&points));
        assert!(violations.is_empty(), "invariants violated: {violations:?}");
        assert_figure_shape(&points);
    }

    #[test]
    fn committed_report_matches_figure_shape() {
        // BENCH_storage.json is a committed artifact: this module must
        // regenerate it byte for byte, with every invariant green.
        let s = standard_scenario();
        let (points, mut violations) = run_suite(&s);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_storage.json");
        let committed = std::fs::read_to_string(path).expect("committed BENCH_storage.json");
        assert_eq!(committed, format!("{}\n", report_json(&s, &points)));
        violations.extend(check_frontier(&points));
        assert!(violations.is_empty(), "invariants violated: {violations:?}");
        assert_figure_shape(&points);
    }
}
