//! Allocator throughput benchmark — see `pwm_bench::netbench`.
//!
//! ```text
//! netbench [smoke] [--only LABEL] [--out PATH]
//!          [--min-events-per-sec N] [--micro [ROUNDS]]
//! ```
//!
//! Runs the standard scenario suite (100 / 1k / 10k / 100k concurrent
//! flows, plus turbulent and shared-backbone honesty checks), comparing the
//! incremental component-local allocator against the pre-change
//! full-recompute baseline (skipped where `steps_full == 0`; at 100k flows
//! only the absolute incremental throughput is meaningful). `smoke` runs
//! only the 1k-flow configuration with reduced step budgets (the CI job).
//! `--min-events-per-sec N` makes the run exit nonzero if any scenario's
//! *incremental* events/s falls below N — the CI floor against
//! order-of-magnitude engine regressions. Every turbulent scenario is
//! additionally checked for rate-write suppression (unchanged writes ≈ 0);
//! a failure there exits nonzero too. Progress goes to stderr through the
//! `pwm-obs` leveled logger (`PWM_LOG=debug` for more); the
//! machine-readable JSON report is printed to stdout and, with `--out`,
//! also written to PATH (conventionally `BENCH_net.json`).
//!
//! `--micro [ROUNDS]` skips the scenario suite entirely and runs the queue
//! micro-benchmark (`pwm_bench::queuebench`, default 1M rounds per probe) —
//! per-operation event-queue costs at the 100k pending-event population,
//! the machine-speed row of the EXPERIMENTS.md calibration protocol.

use pwm_bench::netbench::{
    report_json, run_scenario, smoke_suite, standard_suite, write_suppression_ok,
};
use pwm_bench::queuebench;
use pwm_obs::global_logger;

fn main() {
    let log = global_logger();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut min_events_per_sec: Option<f64> = None;
    let mut only: Option<String> = None;
    let mut micro: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "smoke" => smoke = true,
            "--micro" => {
                // Optional round count; any non-numeric next token belongs
                // to another flag.
                micro = Some(match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n > 0 => {
                        i += 1;
                        n
                    }
                    _ => 1_000_000,
                });
            }
            "--only" => {
                i += 1;
                match args.get(i) {
                    Some(l) => only = Some(l.clone()),
                    None => {
                        log.error("--only requires a scenario label");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p.clone()),
                    None => {
                        log.error("--out requires a path argument");
                        std::process::exit(2);
                    }
                }
            }
            "--min-events-per-sec" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(n) if n >= 0.0 => min_events_per_sec = Some(n),
                    _ => {
                        log.error("--min-events-per-sec requires a non-negative number");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                log.error(&format!("unknown argument: {other}"));
                eprintln!(
                    "usage: netbench [smoke] [--only LABEL] [--out PATH] \
                     [--min-events-per-sec N] [--micro [ROUNDS]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(rounds) = micro {
        log.info(&format!(
            "netbench: queue micro-benchmark, {rounds} rounds per probe"
        ));
        let results = queuebench::run_suite(rounds);
        for r in &results {
            log.info(&format!(
                "queuebench: {:<16} {:>12.0} ops/s ({:.1} ns/op)",
                r.op,
                r.ops_per_sec,
                r.ns_per_op(),
            ));
        }
        let text = queuebench::report_json(&results).render();
        println!("{text}");
        if let Some(path) = out {
            if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
                log.error(&format!("failed to write {path}: {e}"));
                std::process::exit(1);
            }
            log.info(&format!("netbench: micro report written to {path}"));
        }
        return;
    }

    let mut suite = if smoke {
        smoke_suite()
    } else {
        standard_suite()
    };
    if let Some(label) = &only {
        suite.retain(|s| &s.label == label);
        if suite.is_empty() {
            log.error(&format!("--only {label}: no such scenario in the suite"));
            std::process::exit(2);
        }
    }
    log.info(&format!(
        "netbench: running {} scenario(s){}",
        suite.len(),
        if smoke { " (smoke)" } else { "" }
    ));
    let reports: Vec<_> = suite.iter().map(run_scenario).collect();
    let doc = report_json(&reports);
    let text = doc.render();
    println!("{text}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
            log.error(&format!("failed to write {path}: {e}"));
            std::process::exit(1);
        }
        log.info(&format!("netbench: report written to {path}"));
    }

    let mut failed = false;
    if let Some(floor) = min_events_per_sec {
        for r in &reports {
            if r.incremental.events_per_sec < floor {
                log.error(&format!(
                    "netbench: {} incremental {:.0} events/s is below the floor of {:.0}",
                    r.scenario.label, r.incremental.events_per_sec, floor
                ));
                failed = true;
            }
        }
    }
    for r in reports.iter().filter(|r| r.scenario.turbulent) {
        if !write_suppression_ok(&r.incremental) {
            log.error(&format!(
                "netbench: {} wrote {} unchanged rates over {} events \
                 (expected ≲ 1 per event; rate-write suppression regressed)",
                r.scenario.label, r.incremental.stats.unchanged_writes, r.incremental.events,
            ));
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
