//! The one front end of `pwm-bench`: the paper's tables and figures as
//! text, the fault scenarios, and the two sim-time layer benchmarks.
//!
//! ```text
//! repro table4            # Table IV (analytic + via the full service)
//! repro fig5 [seeds]      # Fig. 5 (threshold 50, sizes 0..1 GB)
//! repro fig6..fig9|figb   # threshold comparisons at 10/100/500/1000 MB; balanced
//! repro all [seeds]       # everything (default 5 seeds per point)
//! repro csv [seeds]       # every figure as plotting-ready CSV
//! repro shapes [seeds]    # the headline shape comparisons only (fast)
//! repro timeline [MB]     # WAN utilization of one greedy-50 run
//! repro chaos [seed]      # fault-injection scenario + per-fault-class ablation
//! repro crash [seed]      # mid-run policy-service crash: cold vs warm recovery
//! repro ablations         # six design-choice studies (clustering .. workload shapes)
//! repro --trace <out.json> [seed]   # traced paper-setup run → Chrome-trace JSON
//! repro validate-trace <path>       # check a Chrome-trace export (CI gate)
//! repro scrape-metrics              # run + scrape /metrics over HTTP (CI gate)
//!
//! repro storage    [--out PATH]
//! repro resilience [--out PATH]
//! ```
//!
//! Every result is simulated time: seeded, and byte-identical run to run.
//! Wall-clock throughput of the service, the simulator and the event queue
//! is measured by `benchmark/run.sh`, not here. An unknown target is a usage
//! error (exit 2), and so is a numeric argument that is present but does not
//! parse.
//!
//! `chaos`, `crash`, `storage` and `resilience` are the four fault and cost
//! suites; `ablations` goes through the same tail. Each prints its text —
//! the two cost suites their JSON report, which `--out` also writes to PATH
//! (conventionally `BENCH_storage.json`, `BENCH_resilience.json`) — then
//! logs every invariant it missed and exits 1 if there was one. What each
//! checks is documented on its module
//! (`pwm_bench::{chaos, crash, storagebench, resilience, ablations}`).
//!
//! Progress and diagnostics (each suite's per-row results included) go to
//! stderr through the `pwm-obs` leveled logger
//! (`PWM_LOG=error|warn|info|debug`); results stay on stdout.

use pwm_bench::{
    ablations, chaos, crash, fig5, fig6, fig7, fig8, fig9, fig_balanced, point, render_csv,
    render_figure, render_table4, resilience, storagebench, table4_analytic, table4_via_service,
    Figure, SuiteOutput,
};
use pwm_obs::global_logger;

type FigureFn = fn(usize) -> Figure;
/// A subcommand's handler, given the arguments after its name.
type Handler = fn(&[String]);

/// Every figure `all` and `csv` regenerate.
const FIGURES: [(&str, FigureFn); 6] = [
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("figb", fig_balanced),
];

/// Every subcommand. `main` dispatches through this table and [`usage`] is
/// built from it, so the usage line cannot fall behind what is accepted.
const SUBCOMMANDS: [(&str, Handler); 18] = [
    ("table4", |_| table4()),
    ("fig5", |rest| figure(fig5(seeds(rest)))),
    ("fig6", |rest| figure(fig6(seeds(rest)))),
    ("fig7", |rest| figure(fig7(seeds(rest)))),
    ("fig8", |rest| figure(fig8(seeds(rest)))),
    ("fig9", |rest| figure(fig9(seeds(rest)))),
    ("figb", |rest| figure(fig_balanced(seeds(rest)))),
    ("all", |rest| {
        let seeds = seeds(rest);
        table4();
        for (name, fig) in FIGURES {
            global_logger().info(&format!("rendering {name} ({seeds} seeds per point)"));
            figure(fig(seeds));
        }
    }),
    ("csv", |rest| {
        for (_, fig) in FIGURES {
            print!("{}", render_csv(&fig(seeds(rest))));
        }
    }),
    ("shapes", |rest| shapes(seeds(rest))),
    ("timeline", |rest| timeline(arg_or(rest.first(), 100))),
    ("chaos", |rest| {
        finish("chaos", chaos::repro(arg_or(rest.first(), 7)), None)
    }),
    ("crash", |rest| {
        finish("crash", crash::repro(arg_or(rest.first(), 7)), None)
    }),
    ("ablations", |rest| {
        no_args(rest).unwrap_or_else(|e| die(2, &format!("{e}; usage: repro ablations")));
        finish("ablations", ablations::repro(), None)
    }),
    ("storage", |rest| {
        let out = out_path("storage", rest);
        finish("storage", storagebench::repro(), out)
    }),
    ("resilience", |rest| {
        let out = out_path("resilience", rest);
        finish("resilience", resilience::repro(), out)
    }),
    ("validate-trace", |rest| match rest.first() {
        Some(path) => validate_trace(path),
        None => die(2, "validate-trace requires a path"),
    }),
    ("scrape-metrics", |_| scrape_metrics()),
];

fn usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [{}] [args] | repro --trace OUT.json [seed]",
        names.join("|")
    )
}

/// Log `message` at error level and exit with `code` (1: the run failed or
/// missed a floor or invariant; 2: usage error).
fn die(code: i32, message: &str) -> ! {
    global_logger().error(message);
    std::process::exit(code)
}

/// A numeric argument: `default` when absent, `Err` when present but
/// unparsable — `chaos 7x` must not quietly run seed 7.
fn parse_or<T: std::str::FromStr>(arg: Option<&String>, default: T) -> Result<T, String> {
    match arg {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("argument {text:?} is not a number")),
    }
}

/// [`parse_or`], with a parse failure reported as a usage error (exit 2).
fn arg_or<T: std::str::FromStr>(arg: Option<&String>, default: T) -> T {
    parse_or(arg, default).unwrap_or_else(|e| die(2, &format!("{e}; {}", usage())))
}

/// Seeds per figure point (default 5, at least 1).
fn seeds(rest: &[String]) -> usize {
    arg_or(rest.first(), 5).max(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `repro --trace <out.json> [seed]`: one traced run, exported and exit.
    if let Some(ix) = args.iter().position(|a| a == "--trace") {
        let Some(path) = args.get(ix + 1) else {
            die(2, "--trace requires an output path");
        };
        traced_run(path, arg_or(args.get(ix + 2), 1));
        return;
    }

    let what = args.first().map(String::as_str).unwrap_or("all");
    match SUBCOMMANDS.iter().find(|(name, _)| *name == what) {
        Some((_, run)) => run(args.get(1..).unwrap_or_default()),
        None => die(2, &format!("unknown target {what:?}; {}", usage())),
    }
}

/// What follows `repro storage|resilience`: nothing, or `--out PATH`.
/// `Err` is a usage error (exit 2).
fn parse_out(args: &[String]) -> Result<Option<String>, String> {
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out requires a path argument")?.clone()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(out)
}

/// What follows `repro ablations`: nothing. `Err` is a usage error (exit 2).
fn no_args(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(arg) => Err(format!("unknown argument: {arg}")),
    }
}

/// [`parse_out`], with a parse failure reported as a usage error (exit 2).
fn out_path(sub: &str, args: &[String]) -> Option<String> {
    parse_out(args).unwrap_or_else(|e| die(2, &format!("{e}; usage: repro {sub} [--out PATH]")))
}

/// The tail every fault and cost suite shares: print its text and JSON
/// report, write the report to `out`, log every invariant miss, and exit 1
/// if there was one.
fn finish(sub: &str, suite: SuiteOutput, out: Option<String>) {
    let log = global_logger();
    print!("{}", suite.text);
    if let Some(json) = &suite.json {
        println!("{json}");
        if let Some(path) = &out {
            std::fs::write(path, format!("{json}\n"))
                .unwrap_or_else(|e| die(1, &format!("failed to write {path}: {e}")));
            log.info(&format!("repro {sub}: report written to {path}"));
        }
    }
    for v in &suite.violations {
        log.error(&format!("repro {sub}: {v}"));
    }
    if !suite.violations.is_empty() {
        std::process::exit(1);
    }
}

/// One traced paper-setup run (greedy-50 @8 streams, 100 MB extras),
/// exported as Chrome-trace JSON for Perfetto / `chrome://tracing`.
fn traced_run(path: &str, seed: u64) {
    use pwm_bench::{mb, MontageExperiment, PolicyMode};
    let log = global_logger();
    log.info(&format!(
        "traced run: greedy-50 @8 streams, 100 MB extras, seed {seed}"
    ));
    let exp = MontageExperiment::paper_setup(mb(100), 8, PolicyMode::Greedy { threshold: 50 });
    let (stats, obs) = exp.run_once_traced(seed);
    let trace = obs.tracer.chrome_trace_json();
    let events = pwm_obs::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| die(1, &format!("exported trace failed validation: {e}")));
    std::fs::write(path, &trace).unwrap_or_else(|e| die(1, &format!("cannot write {path}: {e}")));
    log.info(&format!("wrote {events} events to {path}"));
    log.debug(&format!(
        "metrics after run:\n{}",
        obs.registry.render_prometheus()
    ));
    println!(
        "trace {path} events {events} makespan_s {:.0} success {}",
        stats.makespan_secs(),
        stats.success
    );
}

/// Validate a Chrome-trace export on disk; nonzero exit on failure.
fn validate_trace(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(1, &format!("cannot read {path}: {e}")));
    match pwm_obs::validate_chrome_trace(&text) {
        Ok(events) => println!("valid {path} events {events}"),
        Err(e) => die(1, &format!("invalid trace {path}: {e}")),
    }
}

/// Drive a few policy calls through the REST stack and scrape `/metrics`;
/// nonzero exit when the scrape fails or lacks the expected families.
fn scrape_metrics() {
    use pwm_core::{PolicyConfig, PolicyController, PolicyTransport, DEFAULT_SESSION};
    use pwm_rest::{PolicyRestClient, PolicyRestServer};
    let controller = PolicyController::new(PolicyConfig::default());
    let server = PolicyRestServer::start(controller)
        .unwrap_or_else(|e| die(1, &format!("cannot start REST server: {e}")));
    let mut client = PolicyRestClient::new(server.addr(), DEFAULT_SESSION);
    let spec = pwm_core::TransferSpec {
        source: pwm_core::Url::new("gsiftp", "gridftp-vm", "/data/f1"),
        dest: pwm_core::Url::new("file", "obelix-nfs", "/scratch/f1"),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: pwm_core::WorkflowId(1),
        cluster: None,
        priority: None,
    };
    if let Err(e) = client.evaluate_transfers(vec![spec]) {
        die(1, &format!("policy call failed: {e}"));
    }
    let text = client
        .metrics()
        .unwrap_or_else(|e| die(1, &format!("/metrics scrape failed: {e}")));
    if !text.contains("pwm_policy_transfer_requests_total{session=\"default\"} 1") {
        die(1, &format!("scrape missing expected counter:\n{text}"));
    }
    global_logger().info("scrape ok");
    print!("{text}");
}

/// WAN utilization timeline for one greedy-50 run at the given extra size.
fn timeline(extra_mb: u64) {
    use pwm_bench::{mb, MontageExperiment, PolicyMode};
    let exp = MontageExperiment::paper_setup(mb(extra_mb), 8, PolicyMode::Greedy { threshold: 50 });
    let (stats, network, wan) = exp.run_once_detailed(1);
    let tl = network.timeline(wan).expect("timeline recorded");
    println!(
        "WAN utilization, greedy-50 @8 streams, {} MB extras ({} samples, makespan {:.0}s):",
        extra_mb,
        tl.samples().len(),
        stats.makespan_secs()
    );
    println!(
        "  mean throughput {:.2} MB/s   peak streams {}   turbulent fraction {:.0}%",
        tl.mean_throughput() / 1e6,
        tl.peak_streams(),
        tl.turbulent_fraction(0.2) * 100.0
    );
    // Coarse time series: decade buckets of the run.
    let n = tl.samples().len().max(1);
    let per = (n / 10).max(1);
    println!(
        "  {:<12}{:>10}{:>14}{:>12}",
        "t(s)", "streams", "thru(MB/s)", "turb"
    );
    for chunk in tl.samples().chunks(per) {
        let t = chunk[0].at.as_secs_f64();
        let streams = chunk.iter().map(|s| s.streams).max().unwrap_or(0);
        let thru = chunk.iter().map(|s| s.throughput).sum::<f64>() / chunk.len() as f64;
        let turb = chunk.iter().map(|s| s.turbulence).sum::<f64>() / chunk.len() as f64;
        println!(
            "  {:<12.0}{:>10}{:>14.2}{:>12.2}",
            t,
            streams,
            thru / 1e6,
            turb
        );
    }
    println!();
}

fn table4() {
    println!("{}", render_table4(&table4_analytic()));
    println!(
        "(verified identical when driven through the full Policy Service: {})",
        table4_via_service() == table4_analytic()
    );
    println!();
}

fn figure(f: Figure) {
    println!("{}", render_figure(&f));
    headline(&f);
    println!();
}

/// Print the paper's headline comparisons for a threshold-comparison figure.
fn headline(f: &Figure) {
    let (Some(g50), Some(np)) = (point(f, "greedy-50", 8), point(f, "no-policy", 4)) else {
        return;
    };
    let g200 = point(f, "greedy-200", 8);
    println!(
        "  greedy-50 @8 vs no-policy: {:+.1}%  (negative = policy faster)",
        (g50.mean / np.mean - 1.0) * 100.0
    );
    if let Some(g200) = g200 {
        println!(
            "  greedy-200 @8 vs greedy-50 @8: {:+.1}%  (positive = 200 slower)",
            (g200.mean / g50.mean - 1.0) * 100.0
        );
    }
}

/// Quick shape check across the four sizes at default 8 streams.
fn shapes(seeds: usize) {
    for (name, f) in [
        ("fig6 (10MB)", fig6(seeds)),
        ("fig7 (100MB)", fig7(seeds)),
        ("fig8 (500MB)", fig8(seeds)),
        ("fig9 (1GB)", fig9(seeds)),
    ] {
        println!("== {name} ==");
        for label in ["greedy-50", "greedy-100", "greedy-200"] {
            if let Some(s) = point(&f, label, 8) {
                println!("  {label:<12} @8  {:>10.0}s ±{:.0}", s.mean, s.stddev);
            }
        }
        if let Some(s) = point(&f, "no-policy", 4) {
            println!(
                "  {:<12} @4  {:>10.0}s ±{:.0}",
                "no-policy", s.mean, s.stddev
            );
        }
        headline(&f);
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_and_strays_parse_alike_for_every_bench_subcommand() {
        let parse =
            |args: &[&str]| parse_out(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--out", "r.json"]), Ok(Some("r.json".into())));
        assert_eq!(
            parse(&["--out"]).unwrap_err(),
            "--out requires a path argument"
        );
        for strays in [&["smoke"][..], &["--out", "r.json", "--frobnicate"]] {
            let err = parse(strays).unwrap_err();
            assert_eq!(err, format!("unknown argument: {}", strays.last().unwrap()));
        }
        // `repro ablations` takes no argument at all.
        assert_eq!(no_args(&[]), Ok(()));
        assert_eq!(
            no_args(&["3".to_string()]),
            Err("unknown argument: 3".into())
        );
    }

    #[test]
    fn an_absent_number_is_the_default_and_an_unparsable_one_an_error() {
        assert_eq!(parse_or(None, 7u64), Ok(7));
        assert_eq!(parse_or(Some(&"12".to_string()), 7u64), Ok(12));
        for bad in ["7x", "many", "abc", "-1", ""] {
            let err = parse_or(Some(&bad.to_string()), 7u64).unwrap_err();
            assert_eq!(err, format!("argument {bad:?} is not a number"));
        }
    }

    #[test]
    fn usage_lists_every_subcommand_once() {
        let usage = usage();
        let listed: Vec<&str> = usage
            .split(['[', ']'])
            .nth(1)
            .expect("usage brackets the subcommand list")
            .split('|')
            .collect();
        assert_eq!(listed.len(), SUBCOMMANDS.len());
        for (i, (name, _)) in SUBCOMMANDS.iter().enumerate() {
            assert_eq!(listed[i], *name);
            assert!(!listed[..i].contains(name), "{name} is listed twice");
        }
        // The bench front ends and every figure `all` / `csv` loop over are
        // subcommands.
        for name in ["storage", "resilience"]
            .into_iter()
            .chain(FIGURES.map(|(name, _)| name))
        {
            assert!(listed.contains(&name), "{name} is not a subcommand");
        }
    }
}
