//! # pwm-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation, and holds
//! the two sim-time layer benchmarks whose reports are committed as
//! `BENCH_*.json`. Everything here is simulated time: seeded and
//! byte-reproducible. Wall-clock throughput is measured in `benchmark/`.
//!
//! * [`table4`] — "Maximum streams for simultaneous transfers", computed
//!   both analytically and through the full Policy Service; both must match
//!   the paper's printed numbers exactly.
//! * [`figures`] — Figures 5–9: augmented-Montage makespans versus default
//!   streams per transfer, across extra-file sizes and greedy thresholds,
//!   with the no-policy comparator.
//! * [`experiment`] — the paper world ([`experiment::PaperWorld`]: testbed
//!   topology, Obelix site, 89-staging-job Montage plan) and the shared
//!   runner on top of it (staging-job limit 20, retries 5, cleanup on,
//!   seeded ≥ 5×).
//! * [`chaos`] — the fault-injection scenario: the same Montage run under
//!   seeded WAN flaps/degradations and policy-service outages, with a
//!   per-fault-class ablation of the makespan inflation.
//! * [`crash`] — a mid-run Policy Service death on the same run: cold
//!   (empty-memory) versus warm (log-shipped) backup recovery and the
//!   recovery invariants. Both Montage fault scenarios run on one stack,
//!   built by `chaos`.
//! * [`storagebench`] — the makespan-versus-dollar-cost frontier over the
//!   `pwm-storage` backend trio: fixed-backend comparators against
//!   policy-picked (greedy-cheapest / latency-floor / budget-capped)
//!   staging (`BENCH_storage.json`).
//! * [`resilience`] — the fault-intensity ladder, policy-guided versus
//!   naive-retry recovery (`BENCH_resilience.json`). Its cells and the
//!   frontier's points are one storage-site run, built by `storagebench`.
//!
//! * [`ablations`] — six sim-time studies of the design choices: clustering
//!   factor, greedy vs balanced, priorities, shared staging across
//!   workflows, policy callout latency, and workload shapes.
//!
//! Each of the four suites, and the ablation studies, hands `repro` one
//! [`SuiteOutput`]: its stdout text, its JSON report if it has one, and the
//! invariants it missed.
//!
//! One front end reaches all of it: `cargo run --release -p pwm-bench --bin
//! repro -- all` prints every table/figure, `repro storage|resilience
//! [--out PATH]` runs a layer benchmark and prints its JSON report, and
//! `repro ablations` prints the six studies.

#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod crash;
pub mod experiment;
pub mod figures;
pub mod resilience;
pub mod storagebench;
pub mod table4;

pub use chaos::{chaos_ablation, render_ablation, run_chaos, ChaosConfig, ChaosReport};
pub use crash::{
    grant_bounds, render_crash, run_crash, CrashConfig, CrashReport, CrashRunReport, WarmRecovery,
};
pub use experiment::{default_seeds, mb, MontageExperiment, PaperWorld, PolicyMode};
pub use figures::{
    fig5, fig6, fig7, fig8, fig9, fig_balanced, point, render as render_figure, render_csv, Figure,
    Series,
};
pub use table4::{render as render_table4, table4_analytic, table4_via_service, Table4Row};

/// What one `repro` fault or cost suite produced.
#[derive(Debug)]
pub struct SuiteOutput {
    /// Everything the suite prints on stdout before its report.
    pub text: String,
    /// The suite's JSON report (`BENCH_*.json`), printed and written to
    /// `--out`.
    pub json: Option<String>,
    /// Every invariant the run missed, one line each.
    pub violations: Vec<String>,
}
