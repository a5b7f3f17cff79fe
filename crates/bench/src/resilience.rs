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
//! crash and outage windows (each takes its host's access link down with
//! it), same corruption draws. The only difference is what the executor
//! does about it:
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
//! `BENCH_resilience.json`. Invariants `repro resilience` enforces with a
//! nonzero exit:
//!
//! * every run completes at every intensity (`success`), staging exactly
//!   one clean copy of every input byte;
//! * same-seed runs are bit-identical (`RunStats` equality);
//! * in the turbulent cell, policy-guided recovery beats naive retry on
//!   makespan by at least [`MIN_TURBULENT_SPEEDUP`].
//!
//! A cell is [`crate::storagebench`]'s storage-site run with a mirror
//! source, the intensity's faults and a recovery plane attached.

use crate::storagebench::{run_site, Sources, StoragebenchScenario};
use crate::SuiteOutput;
use pwm_core::StoragePolicy;
use pwm_obs::global_logger;
use pwm_sim::{SimDuration, SimTime};
use pwm_storage::ec2_trio;
use pwm_workflow::RunStats;
use serde::Serialize;

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

/// The swept ladder. Fault windows start a few seconds in, while staging
/// is still running.
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

/// The report's mode label of policy-guided recovery.
const GUIDED: &str = "policy-guided";
/// The report's mode label of naive retry.
const NAIVE: &str = "naive-retry";

/// One (intensity, mode) cell of the sweep, as `BENCH_resilience.json`
/// records it.
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceCell {
    /// Intensity rung name.
    pub intensity: &'static str,
    /// `policy-guided` or `naive-retry`.
    pub mode: &'static str,
    /// Virtual makespan, seconds.
    pub makespan_secs: f64,
    /// Whether the workflow completed.
    pub success: bool,
    /// Whether the same-seed re-run reproduced the stats bit-for-bit.
    pub deterministic: bool,
    /// Payload bytes staged.
    pub bytes_staged: f64,
    /// Transfer retries performed.
    pub transfer_retries: u64,
    /// What the recovery plane did (all zero when nothing happened).
    pub recovery: RecoveryCounts,
}

/// The [`pwm_workflow::RecoveryReport`] counters the report records.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryCounts {
    host_crashes: u32,
    flows_killed: u32,
    backend_outages: u32,
    corrupt_reads: u32,
    quarantines: u32,
    replica_failovers: u32,
    producer_reruns: u32,
    health_reports: u32,
    waits_for_restart: u32,
}

/// The sources of every cell: the preferred source is the slow path; the
/// mirror is 4× faster, so failing over is worth it even without a fault.
const SOURCES: Sources = Sources {
    datasrc_bps: 12.5e6,
    mirror_bps: Some(50.0e6),
};

/// Run one cell once. Everything physical — topology, fault windows,
/// corruption draws — is identical across modes; only `report_health`
/// differs.
pub fn run_cell(s: &StoragebenchScenario, it: &Intensity, guided: bool) -> RunStats {
    let policy = StoragePolicy::GreedyCheapest;
    run_site(
        s,
        "resilience",
        SOURCES,
        &ec2_trio(),
        policy,
        Some((it, guided)),
    )
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
            let rec = first.recovery.clone().unwrap_or_default();
            let cell = ResilienceCell {
                intensity: it.name,
                mode: if guided { GUIDED } else { NAIVE },
                makespan_secs: first.makespan_secs(),
                success: first.success,
                deterministic: first == second,
                bytes_staged: first.bytes_staged,
                transfer_retries: first.transfer_retries,
                recovery: RecoveryCounts {
                    host_crashes: rec.host_crashes,
                    flows_killed: rec.flows_killed,
                    backend_outages: rec.backend_outages,
                    corrupt_reads: rec.corrupt_reads,
                    quarantines: rec.quarantines,
                    replica_failovers: rec.replica_failovers,
                    producer_reruns: rec.producer_reruns,
                    health_reports: rec.health_reports,
                    waits_for_restart: rec.waits_for_restart,
                },
            };
            log.info(&format!(
                "resiliencebench: {:>9}/{:<13} makespan {:8.2}s  success {}  deterministic {}",
                cell.intensity, cell.mode, cell.makespan_secs, cell.success, cell.deterministic
            ));
            cells.push(cell);
        }
    }
    cells
}

/// Makespan speedup (naive / guided) at one intensity; `None` when either
/// cell is missing.
pub fn speedup_at(cells: &[ResilienceCell], intensity: &str) -> Option<f64> {
    let find = |mode: &str| {
        cells
            .iter()
            .find(|c| c.intensity == intensity && c.mode == mode)
            .map(|c| c.makespan_secs)
    };
    let guided = find(GUIDED)?;
    let naive = find(NAIVE)?;
    (guided > 0.0).then(|| naive / guided)
}

/// Check every committed-report invariant; returns human-readable
/// violations (empty ⇒ the report is sound).
pub fn check_invariants(s: &StoragebenchScenario, cells: &[ResilienceCell]) -> Vec<String> {
    let mut violations = Vec::new();
    let expected_bytes = (s.jobs as u64 * s.file_bytes) as f64;
    for c in cells {
        let tag = format!("{}/{}", c.intensity, c.mode);
        if !c.success {
            violations.push(format!("{tag}: workflow did not complete"));
        }
        if !c.deterministic {
            violations.push(format!("{tag}: same-seed re-run diverged"));
        }
        // Byte-correctness: exactly one clean copy of every input was
        // accepted — corrupt reads never count toward staged bytes.
        if (c.bytes_staged - expected_bytes).abs() > 0.5 {
            violations.push(format!(
                "{tag}: staged {} bytes, expected exactly {expected_bytes}",
                c.bytes_staged
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

/// The `BENCH_resilience.json` document.
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    units: &'static str,
    scenario: String,
    jobs: usize,
    file_bytes: u64,
    seed: u64,
    min_turbulent_speedup: f64,
    speedups: Vec<SpeedupRow>,
    cells: Vec<ResilienceCell>,
}

/// Naive over guided makespan at one intensity.
#[derive(Serialize)]
struct SpeedupRow {
    intensity: &'static str,
    naive_over_guided: f64,
}

/// Render a result set as the `BENCH_resilience.json` document.
pub fn report_json(s: &StoragebenchScenario, cells: &[ResilienceCell]) -> String {
    let report = Report {
        bench: "resiliencebench",
        units: "makespan_secs: virtual seconds; speedup: naive-retry makespan / \
                policy-guided makespan at the same fault intensity",
        scenario: s.label.clone(),
        jobs: s.jobs,
        file_bytes: s.file_bytes,
        seed: s.seed,
        min_turbulent_speedup: MIN_TURBULENT_SPEEDUP,
        speedups: intensity_ladder()
            .iter()
            .filter_map(|it| {
                speedup_at(cells, it.name).map(|naive_over_guided| SpeedupRow {
                    intensity: it.name,
                    naive_over_guided,
                })
            })
            .collect(),
        cells: cells.to_vec(),
    };
    serde_json::to_string(&report).expect("resilience report serializes")
}

/// `repro resilience`: the standard sweep as `BENCH_resilience.json`, and
/// every [`check_invariants`] miss.
pub fn repro() -> SuiteOutput {
    let s = standard_scenario();
    let cells = run_suite(&s);
    SuiteOutput {
        text: String::new(),
        json: Some(report_json(&s, &cells)),
        violations: check_invariants(&s, &cells),
    }
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
        let mk = |intensity, mode, makespan_secs| ResilienceCell {
            intensity,
            mode,
            makespan_secs,
            success: true,
            deterministic: true,
            bytes_staged: (s.jobs as u64 * s.file_bytes) as f64,
            transfer_retries: 0,
            recovery: RecoveryCounts::default(),
        };
        let cells = vec![
            mk("calm", GUIDED, 30.0),
            mk("calm", NAIVE, 30.0),
            mk("turbulent", GUIDED, 40.0),
            mk("turbulent", NAIVE, 90.0),
        ];
        assert!(check_invariants(&s, &cells).is_empty());
        assert!((speedup_at(&cells, "turbulent").unwrap() - 2.25).abs() < 1e-9);

        // Break the speedup floor and the determinism bit.
        let mut bad = cells.clone();
        bad[2].makespan_secs = 89.0;
        bad[3].deterministic = false;
        let violations = check_invariants(&s, &bad);
        assert!(violations.iter().any(|v| v.contains("speedup")));
        assert!(violations.iter().any(|v| v.contains("diverged")));
    }
}
