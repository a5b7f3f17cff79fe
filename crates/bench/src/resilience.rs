//! Resilience benchmark (`repro resilience`): end-to-end failure
//! domains under policy-guided versus naive-retry recovery.
//!
//! One staging-heavy workflow runs against the `pwm-storage` ec2 trio while
//! a deterministic fault plan lands all three failure domains at once:
//!
//! * the preferred data source **crashes** mid-staging (its flows are
//!   killed and its access link goes physically down until restart);
//! * the cheapest storage backend suffers an **outage window** (its access
//!   link goes down for the window);
//! * reads from the preferred source suffer seeded **silent corruption**
//!   surfaced by the transfer tool's completion checksum.
//!
//! Every fault is *physically identical* in both recovery modes — same
//! link-fault windows, same crash schedule, same corruption draws. The only
//! difference is what the executor does about it:
//!
//! * **policy-guided** (`report_health = true`) — health events flow to the
//!   Policy Service, whose recovery facts steer the next advice batch:
//!   quarantined / down sources are suppressed (the executor fails over to
//!   a mirror replica), down backends leave the placement candidates.
//! * **naive** (`report_health = false`) — classic retry-with-backoff
//!   against the original plan; stalled flows wait out the fault windows.
//!
//! The sweep runs a fault-intensity ladder (calm → rough → turbulent) ×
//! both modes, each cell twice to prove per-seed determinism, and records
//! `BENCH_resilience.json`. Invariants enforced by the CI smoke job:
//!
//! * every run completes at every intensity (`success`), staging exactly
//!   one clean copy of every input byte;
//! * same-seed runs are bit-identical (`RunStats` equality);
//! * in the turbulent cell, policy-guided recovery beats naive retry on
//!   makespan by at least [`MIN_TURBULENT_SPEEDUP`].

use crate::storagebench::{install_site, StoragebenchScenario};
use pwm_core::{
    InProcessTransport, PolicyConfig, PolicyController, StoragePolicy, Url, DEFAULT_SESSION,
};
use pwm_net::fault::{LinkFault, LinkFaultKind};
use pwm_net::{Network, StreamModel, Topology};
use pwm_obs::{global_logger, JsonValue};
use pwm_sim::{FaultPlan, SimDuration, SimTime};
use pwm_storage::{ec2_trio, CorruptionModel};
use pwm_workflow::{
    plan, BackendOutage, CrashTarget, ExecutorConfig, HostCrash, PlannerConfig, RecoveryConfig,
    ReplicaCatalog, RunStats, StorageRuntime, WorkflowExecutor,
};

/// Makespan ratio (naive / guided) the turbulent cell must reach — the
/// headline claim the committed report asserts.
pub const MIN_TURBULENT_SPEEDUP: f64 = 1.2;

/// The backend the outage window takes down (the greedy-cheapest pick, so
/// naive placement funnels straight into the fault).
pub const OUTAGE_BACKEND: &str = "nfs-std";

/// The committed-report scenario: storagebench's wide fan, 16 × 24 MB over
/// a 12.5 MB/s source NIC, keeps staging alive past every fault-window start.
pub fn standard_scenario() -> StoragebenchScenario {
    StoragebenchScenario {
        label: "wide-16x24MB".into(),
        jobs: 16,
        file_bytes: 24_000_000,
        seed: 42,
    }
}

/// The CI smoke scenario: same shape, half the jobs.
pub fn smoke_scenario() -> StoragebenchScenario {
    StoragebenchScenario {
        label: "wide-8x24MB".into(),
        jobs: 8,
        file_bytes: 24_000_000,
        seed: 42,
    }
}

/// One rung of the fault-intensity ladder.
#[derive(Debug, Clone)]
pub struct Intensity {
    /// Rung name (`calm`, `rough`, `turbulent`).
    pub name: &'static str,
    /// Source-host crash window (start, downtime), if any.
    pub crash: Option<(SimTime, SimDuration)>,
    /// [`OUTAGE_BACKEND`] outage window (start, duration), if any.
    pub outage: Option<(SimTime, SimDuration)>,
    /// Per-read silent-corruption probability on the preferred source.
    pub corruption_prob: f64,
}

/// The swept ladder. Fault windows start a few seconds in — staging is
/// still running then for both the standard and the smoke scenario.
pub fn intensity_ladder() -> Vec<Intensity> {
    vec![
        Intensity {
            name: "calm",
            crash: None,
            outage: None,
            corruption_prob: 0.0,
        },
        Intensity {
            name: "rough",
            crash: Some((SimTime::from_secs(5), SimDuration::from_secs(90))),
            outage: None,
            corruption_prob: 0.25,
        },
        Intensity {
            name: "turbulent",
            crash: Some((SimTime::from_secs(5), SimDuration::from_secs(150))),
            outage: Some((SimTime::from_secs(4), SimDuration::from_secs(120))),
            corruption_prob: 0.5,
        },
    ]
}

/// One (intensity, mode) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ResilienceCell {
    /// Intensity rung name.
    pub intensity: String,
    /// True for policy-guided recovery, false for naive retry.
    pub guided: bool,
    /// The run's statistics (including the recovery report).
    pub stats: RunStats,
    /// Whether the same-seed re-run reproduced the stats bit-for-bit.
    pub deterministic: bool,
}

impl ResilienceCell {
    /// Mode label as it appears in the report.
    pub fn mode(&self) -> &'static str {
        if self.guided {
            "policy-guided"
        } else {
            "naive-retry"
        }
    }
}

/// Run one cell once. Everything physical — topology, fault windows,
/// corruption draws — is identical across modes; only `report_health`
/// differs.
pub fn run_cell(s: &StoragebenchScenario, it: &Intensity, guided: bool) -> RunStats {
    let trio = ec2_trio();
    let mut topo = Topology::new();
    // The preferred source is the slow path; the mirror is 4× faster, so
    // failing over is worth it even without a fault.
    let datasrc = topo.add_host("datasrc", 12.5e6);
    let mirror = topo.add_host("mirrorsrc", 50.0e6);
    let (site, layer) = install_site(&mut topo, &trio);
    let datasrc_link = topo.host(datasrc).access_link;
    let outage_backend = layer.backend(OUTAGE_BACKEND).expect("trio backend");
    let outage_link = topo.host(outage_backend.host).access_link;
    let outage_host = outage_backend.host;

    // Physical fault plan: identical in both modes.
    let mut faults = FaultPlan::new();
    if let Some((at, downtime)) = it.crash {
        faults.add(
            at,
            downtime,
            LinkFault {
                link: datasrc_link,
                kind: LinkFaultKind::Down,
            },
        );
    }
    if let Some((from, duration)) = it.outage {
        faults.add(
            from,
            duration,
            LinkFault {
                link: outage_link,
                kind: LinkFaultKind::Down,
            },
        );
    }
    let mut network = Network::with_seed(topo, StreamModel::default(), s.seed);
    network.set_fault_plan(faults);

    let wf = s.workflow("resilience");
    let mut rc = ReplicaCatalog::new();
    for i in 0..s.jobs {
        // Preferred replica first (planning uses it), mirror second
        // (failover walks the rest).
        rc.insert(
            format!("in_{i}"),
            Url::new("gsiftp", "datasrc", format!("/data/in_{i}")),
            datasrc,
        );
        rc.insert(
            format!("in_{i}"),
            Url::new("http", "mirrorsrc", format!("/mirror/in_{i}")),
            mirror,
        );
    }
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).expect("plan resilience workflow");

    let mut policy = PolicyConfig::default().with_storage(StoragePolicy::GreedyCheapest);
    for spec in &trio {
        policy = policy.with_backend(spec.clone(), site.storage_host_name.as_str());
    }
    let controller = PolicyController::new(policy);
    let transport = Box::new(InProcessTransport::new(controller, DEFAULT_SESSION));

    let mut recovery = RecoveryConfig {
        report_health: guided,
        ..RecoveryConfig::default()
    };
    recovery.replicas = rc;
    recovery.corruption = CorruptionModel::new(s.seed);
    if it.corruption_prob > 0.0 {
        recovery
            .corruption
            .set_host_prob("datasrc", it.corruption_prob);
    }
    if let Some((at, downtime)) = it.crash {
        recovery.crashes.push(HostCrash {
            target: CrashTarget::Host {
                host: datasrc,
                name: "datasrc".into(),
            },
            at,
            restart_after: downtime,
        });
    }
    if let Some((from, duration)) = it.outage {
        recovery.backend_outages.push(BackendOutage {
            backend: OUTAGE_BACKEND.into(),
            host: outage_host,
            from,
            duration,
        });
    }

    let cfg = ExecutorConfig {
        seed: s.seed,
        storage: Some(StorageRuntime::new(layer)),
        recovery: Some(recovery),
        ..ExecutorConfig::default()
    };
    let exec = WorkflowExecutor::new(&p, &site, network, transport, cfg);
    let (stats, _net) = exec.run();
    stats
}

/// Run the full sweep: every intensity × both modes, each cell twice for
/// the determinism check.
pub fn run_suite(s: &StoragebenchScenario) -> Vec<ResilienceCell> {
    let log = global_logger();
    let mut cells = Vec::new();
    for it in intensity_ladder() {
        for guided in [true, false] {
            let first = run_cell(s, &it, guided);
            let second = run_cell(s, &it, guided);
            let cell = ResilienceCell {
                intensity: it.name.into(),
                guided,
                deterministic: first == second,
                stats: first,
            };
            log.info(&format!(
                "resiliencebench: {:>9}/{:<13} makespan {:8.2}s  success {}  deterministic {}",
                it.name,
                cell.mode(),
                cell.stats.makespan_secs(),
                cell.stats.success,
                cell.deterministic
            ));
            cells.push(cell);
        }
    }
    cells
}

/// Makespan speedup (naive / guided) at one intensity; `None` when either
/// cell is missing.
pub fn speedup_at(cells: &[ResilienceCell], intensity: &str) -> Option<f64> {
    let find = |guided: bool| {
        cells
            .iter()
            .find(|c| c.intensity == intensity && c.guided == guided)
            .map(|c| c.stats.makespan_secs())
    };
    let guided = find(true)?;
    let naive = find(false)?;
    (guided > 0.0).then(|| naive / guided)
}

/// Check every committed-report invariant; returns human-readable
/// violations (empty ⇒ the report is sound).
pub fn check_invariants(s: &StoragebenchScenario, cells: &[ResilienceCell]) -> Vec<String> {
    let mut violations = Vec::new();
    let expected_bytes = (s.jobs as u64 * s.file_bytes) as f64;
    for c in cells {
        let tag = format!("{}/{}", c.intensity, c.mode());
        if !c.stats.success {
            violations.push(format!("{tag}: workflow did not complete"));
        }
        if !c.deterministic {
            violations.push(format!("{tag}: same-seed re-run diverged"));
        }
        // Byte-correctness: exactly one clean copy of every input was
        // accepted — corrupt reads never count toward staged bytes.
        if (c.stats.bytes_staged - expected_bytes).abs() > 0.5 {
            violations.push(format!(
                "{tag}: staged {} bytes, expected exactly {expected_bytes}",
                c.stats.bytes_staged
            ));
        }
    }
    match speedup_at(cells, "turbulent") {
        Some(ratio) if ratio >= MIN_TURBULENT_SPEEDUP => {}
        Some(ratio) => violations.push(format!(
            "turbulent: policy-guided speedup {ratio:.2}x below the {MIN_TURBULENT_SPEEDUP}x floor"
        )),
        None => violations.push("turbulent: missing guided or naive cell".into()),
    }
    violations
}

fn cell_json(c: &ResilienceCell) -> JsonValue {
    let rec = c.stats.recovery.clone().unwrap_or_default();
    JsonValue::Obj(vec![
        ("intensity".into(), JsonValue::Str(c.intensity.clone())),
        ("mode".into(), JsonValue::Str(c.mode().into())),
        (
            "makespan_secs".into(),
            JsonValue::Float(c.stats.makespan_secs()),
        ),
        ("success".into(), JsonValue::Bool(c.stats.success)),
        ("deterministic".into(), JsonValue::Bool(c.deterministic)),
        (
            "bytes_staged".into(),
            JsonValue::Float(c.stats.bytes_staged),
        ),
        (
            "transfer_retries".into(),
            JsonValue::Int(c.stats.transfer_retries as i64),
        ),
        (
            "recovery".into(),
            JsonValue::Obj(vec![
                (
                    "host_crashes".into(),
                    JsonValue::Int(rec.host_crashes as i64),
                ),
                (
                    "flows_killed".into(),
                    JsonValue::Int(rec.flows_killed as i64),
                ),
                (
                    "backend_outages".into(),
                    JsonValue::Int(rec.backend_outages as i64),
                ),
                (
                    "corrupt_reads".into(),
                    JsonValue::Int(rec.corrupt_reads as i64),
                ),
                ("quarantines".into(), JsonValue::Int(rec.quarantines as i64)),
                (
                    "replica_failovers".into(),
                    JsonValue::Int(rec.replica_failovers as i64),
                ),
                (
                    "producer_reruns".into(),
                    JsonValue::Int(rec.producer_reruns as i64),
                ),
                (
                    "health_reports".into(),
                    JsonValue::Int(rec.health_reports as i64),
                ),
                (
                    "waits_for_restart".into(),
                    JsonValue::Int(rec.waits_for_restart as i64),
                ),
            ]),
        ),
    ])
}

/// Render a result set as the `BENCH_resilience.json` document.
pub fn report_json(s: &StoragebenchScenario, cells: &[ResilienceCell]) -> JsonValue {
    let speedups: Vec<JsonValue> = intensity_ladder()
        .iter()
        .filter_map(|it| {
            speedup_at(cells, it.name).map(|ratio| {
                JsonValue::Obj(vec![
                    ("intensity".into(), JsonValue::Str(it.name.into())),
                    ("naive_over_guided".into(), JsonValue::Float(ratio)),
                ])
            })
        })
        .collect();
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("resiliencebench".into())),
        (
            "units".into(),
            JsonValue::Str(
                "makespan_secs: virtual seconds; speedup: naive-retry makespan / \
                 policy-guided makespan at the same fault intensity"
                    .into(),
            ),
        ),
        ("scenario".into(), JsonValue::Str(s.label.clone())),
        ("jobs".into(), JsonValue::Int(s.jobs as i64)),
        ("file_bytes".into(), JsonValue::Int(s.file_bytes as i64)),
        ("seed".into(), JsonValue::Int(s.seed as i64)),
        (
            "min_turbulent_speedup".into(),
            JsonValue::Float(MIN_TURBULENT_SPEEDUP),
        ),
        ("speedups".into(), JsonValue::Arr(speedups)),
        (
            "cells".into(),
            JsonValue::Arr(cells.iter().map(cell_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StoragebenchScenario {
        StoragebenchScenario {
            label: "tiny-4x6MB".into(),
            jobs: 4,
            file_bytes: 6_000_000,
            seed: 9,
        }
    }

    #[test]
    fn calm_cell_modes_are_identical() {
        let s = tiny();
        let calm = &intensity_ladder()[0];
        let guided = run_cell(&s, calm, true);
        let naive = run_cell(&s, calm, false);
        assert!(guided.success && naive.success);
        // No faults ⇒ the recovery plane is inert in both modes and the
        // runs are the same run.
        assert_eq!(guided, naive);
        assert!(guided.recovery.is_none());
    }

    #[test]
    fn turbulent_guided_beats_naive_and_both_complete() {
        let s = tiny();
        let turbulent = intensity_ladder()
            .into_iter()
            .find(|i| i.name == "turbulent")
            .unwrap();
        let guided = run_cell(&s, &turbulent, true);
        let naive = run_cell(&s, &turbulent, false);
        assert!(guided.success, "guided run must complete");
        assert!(naive.success, "naive run must complete");
        let rec = guided.recovery.as_ref().expect("guided recovery report");
        assert!(rec.host_crashes == 1 && rec.backend_outages == 1);
        assert!(
            rec.replica_failovers > 0 || rec.waits_for_restart > 0,
            "guided recovery must have re-planned"
        );
        assert!(
            naive.makespan_secs() / guided.makespan_secs() >= MIN_TURBULENT_SPEEDUP,
            "guided {:.1}s vs naive {:.1}s",
            guided.makespan_secs(),
            naive.makespan_secs()
        );
    }

    #[test]
    fn invariants_pass_on_a_sound_synthetic_sweep() {
        let s = tiny();
        let stats_with = |makespan: f64| {
            let mut st = run_cell(&s, &intensity_ladder()[0], true);
            st.makespan = pwm_sim::SimDuration::from_secs_f64(makespan);
            st
        };
        let mk = |intensity: &str, guided: bool, makespan: f64| ResilienceCell {
            intensity: intensity.into(),
            guided,
            stats: stats_with(makespan),
            deterministic: true,
        };
        let cells = vec![
            mk("calm", true, 30.0),
            mk("calm", false, 30.0),
            mk("turbulent", true, 40.0),
            mk("turbulent", false, 90.0),
        ];
        assert!(check_invariants(&s, &cells).is_empty());
        assert!((speedup_at(&cells, "turbulent").unwrap() - 2.25).abs() < 1e-9);

        // Break the speedup floor and the determinism bit.
        let mut bad = cells.clone();
        bad[2].stats.makespan = pwm_sim::SimDuration::from_secs(89);
        bad[3].deterministic = false;
        let violations = check_invariants(&s, &bad);
        assert!(violations.iter().any(|v| v.contains("speedup")));
        assert!(violations.iter().any(|v| v.contains("diverged")));
    }
}
