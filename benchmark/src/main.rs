//! `e2ebench` — the repository's whole-stack benchmark.
//!
//! ```text
//! e2ebench run --workload W --seed N (--seconds S | --reps R) --trace 0|1
//!              [--scale F] [--setups K] [--out DIR] [--detail FILE]
//! e2ebench suite [--seed N] [--smoke] [--out DIR]
//! e2ebench compare A.json B.json [--exact-only]
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of its output, the one-line JSON result the benchmark driver reads.
//! `suite` runs every workload in a process of its own — untraced for the
//! end-to-end metrics, then traced for the per-layer ones — with a fixed
//! amount of work, cross-checks the two, prints every metric by name and
//! writes `results.json`. See `benchmark/README.md`.

mod advice;
mod campaign;
mod env;
mod gen;
mod harness;
mod netsim;
mod replay;
mod report;
mod stats;
mod trace;

use advice::Advice;
use campaign::Campaign;
use harness::{Budget, Check, Marks, Outcome, Quiet, RepTiming, RunArgs};
use netsim::Netsim;
use pwm_obs::JsonValue;
use report::{RunDetail, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Unless `--setups` fixes their number, a run sets up again and again for
/// this many seconds, at least `MIN_SETUPS` and at most `MAX_SETUPS` times:
/// every slice of the set-up should meet a quiet moment in one of them, and
/// a cheap set-up can afford more tries than five.
const SETUP_SECONDS: f64 = 6.0;
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 30;

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.first().is_some_and(|a| !a.starts_with("--")) {
        argv.remove(0)
    } else {
        "run".to_string()
    };
    let flags = Flags(argv);
    let result = match command.as_str() {
        "run" => run(&flags),
        "suite" => suite(&flags),
        "compare" => compare(&flags.0),
        other => Err(format!("unknown command {other:?} (run, suite, compare)")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------------- run

/// Set up several times (timed; all but the last world are dropped before
/// the next is built, so peak memory is one world's), then measure: with
/// tracing off for the end-to-end metrics, on for the per-layer ones.
/// An untraced run reports `setup_s`: every set-up does the same work, so
/// the value is the quiet estimate over them, beside each one's own time.
fn measure<W>(
    args: &RunArgs,
    setup: impl Fn(&RunArgs, &mut Marks) -> W,
    untraced: fn(W, &RunArgs) -> Outcome,
    traced: fn(W, &RunArgs) -> Outcome,
) -> Outcome {
    let mut setup_s = Vec::new();
    let mut quiet = Quiet::default();
    let mut world = None;
    let mut warm_up_from = 0;
    let started = Instant::now();
    let another = |done: usize| match args.setups {
        Some(fixed) => done < fixed,
        None => {
            done < MIN_SETUPS
                || (done < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
        }
    };
    while another(setup_s.len()) {
        drop(world.take());
        let mut marks = Marks::start();
        world = Some(setup(args, &mut marks));
        marks.mark();
        warm_up_from = marks.warm_up_from;
        let timing = RepTiming::of_slices(marks.slices_ns);
        setup_s.push(timing.wall_s());
        quiet.absorb(&timing);
    }
    let world = world.expect("at least one set-up");
    let mut outcome = if args.trace {
        traced(world, args)
    } else {
        untraced(world, args)
    };
    outcome.checks.push(Check::eq(
        "every set-up is cut into the same slices",
        quiet.reps(),
        (setup_s.len(), 0),
    ));
    if !args.trace {
        // The warm-up repetition of a set-up is the work of every measured
        // repetition: its slices also take the times those found.
        if let Some(measured) = &outcome.quiet {
            quiet.fold(warm_up_from, measured);
        }
        let summary = Summary::reporting(quiet.total_s(), &setup_s);
        outcome.metrics.push(("setup_s", summary));
        outcome.per_rep.push(("setup_s", setup_s));
    }
    outcome
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.get("--workload").ok_or("run needs --workload")?;
    let budget = match (
        flags.parsed::<usize>("--reps")?,
        flags.parsed::<f64>("--seconds")?,
    ) {
        (Some(reps), _) => Budget::Reps(reps.max(1)),
        (None, Some(seconds)) => Budget::Seconds(seconds),
        (None, None) => return Err("run needs --seconds or --reps".into()),
    };
    let args = RunArgs {
        seed: flags.parsed("--seed")?.unwrap_or(1),
        budget,
        trace: flags.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        scale: flags.parsed("--scale")?.unwrap_or(1.0),
        setups: flags.parsed::<usize>("--setups")?.map(|n| n.max(1)),
        out_dir: PathBuf::from(flags.get("--out").unwrap_or("benchmark/out")),
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;

    let mut outcome = match workload {
        "campaign" => measure(
            &args,
            Campaign::setup,
            Campaign::measure,
            Campaign::measure_traced,
        ),
        "advice_hot" | "advice_durable" => measure(
            &args,
            |a, m| Advice::setup(a, workload == "advice_durable", m),
            Advice::measure,
            Advice::measure_traced,
        ),
        "netsim_churn" | "netsim_churn_100k" | "netsim_turbulent" => measure(
            &args,
            |a, m| {
                let shape = match workload {
                    "netsim_churn" => &netsim::CHURN,
                    "netsim_churn_100k" => &netsim::CHURN_100K,
                    _ => &netsim::TURBULENT,
                };
                Netsim::setup(a, shape, m)
            },
            Netsim::measure,
            Netsim::measure_traced,
        ),
        other => return Err(format!("unknown workload {other:?}")),
    };

    // The contract's metric set, in table order: every end-to-end metric
    // from an untraced run, every per-layer metric from a traced one (0
    // where the layer does no work on this workload).
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        outcome
            .metrics
            .push(("peak_rss_mb", Summary::exact(env::peak_rss_mb())));
    }
    let metrics: Vec<(&'static str, Summary)> = defs
        .iter()
        .map(|d| {
            let reported = outcome.metrics.iter().find(|(n, _)| *n == d.name);
            (
                d.name,
                reported.map_or(Summary::exact(0.0), |(_, s)| s.clone()),
            )
        })
        .collect();
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("{workload} reported {stray}, which is in no table"));
    }

    let trace_file = match outcome.recorder.take() {
        Some(recorder) => {
            let path = args.out_dir.join(format!("trace-{workload}.json"));
            std::fs::write(&path, recorder.chrome_trace_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Some(path.display().to_string())
        }
        None => None,
    };
    let correct = outcome.checks.iter().all(|c| c.ok) && outcome.failed == 0;
    let detail = RunDetail {
        workload,
        seed: args.seed,
        trace: args.trace,
        scale: args.scale,
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: &metrics,
        per_rep: &outcome.per_rep,
        exact: &outcome.exact,
        notes: &outcome.notes,
        checks: &outcome.checks,
        // One scrape per workload is enough to audit the counts by; the
        // untraced run is the one the end-to-end numbers come from.
        metrics_text: outcome.metrics_text.as_deref().filter(|_| !args.trace),
        trace_file,
    };

    println!(
        "{workload} (seed {}, {}, tracing {}): {}",
        args.seed,
        match args.budget {
            Budget::Seconds(s) => format!("{s} s"),
            Budget::Reps(r) => format!("{r} repetitions"),
        },
        if args.trace { "on" } else { "off" },
        WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .map_or(String::new(), |w| format!(
                "{} ({})",
                w.unit_of_work,
                if w.gated {
                    "in BENCHMARK.json: the driver holds later changes to its bounds"
                } else {
                    "suite only: reported, not gated"
                }
            )),
    );
    for (name, s) in &metrics {
        println!("{}", report::metric_line(name, s));
    }
    for (k, v) in &outcome.notes {
        println!("  note {k}: {v}");
    }
    println!(
        "  operations: {} attempted, {} succeeded, {} failed",
        detail.attempted,
        detail.attempted - detail.failed,
        detail.failed
    );
    for (name, passed, failed, first_failure) in report::fold_checks(&outcome.checks) {
        if failed == 0 {
            println!("  check ok    {name} (x{passed})");
        } else {
            println!(
                "  check FAIL  {name} ({failed} of {}): {first_failure}",
                passed + failed
            );
        }
    }
    // The suite asks for the full result in a file; the benchmark driver
    // reads the one-line result off the end of the output.
    match flags.get("--detail") {
        Some(path) => std::fs::write(path, detail.to_json().render())
            .map_err(|e| format!("write {path}: {e}"))?,
        None => println!("{}", detail.driver_line()),
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

// ----------------------------------------------------------------- suite

/// `--smoke` does about a twentieth of the work: a fifth of the
/// repetitions at a quarter of the size.
const SMOKE_SCALE: f64 = 0.25;
const SMOKE_REPS_DIVISOR: usize = 5;
/// The traced run of the suite makes a quarter of the untraced run's
/// repetitions (each traced one paired with an untraced one).
const TRACED_REPS_DIVISOR: usize = 4;

fn suite(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let smoke = flags.has("--smoke");
    let out_dir = PathBuf::from(flags.get("--out").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    // A smoke run sets up once; a full one as often as a driver's run.
    let (reps_divisor, scale, setups) = if smoke {
        (SMOKE_REPS_DIVISOR, SMOKE_SCALE, Some("1"))
    } else {
        (1, 1.0, None)
    };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let started = Instant::now();
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for def in WORKLOADS {
        let workload = def.name;
        let reps = (def.suite_reps / reps_divisor).max(2);
        let traced_reps = (reps / TRACED_REPS_DIVISOR).max(1);
        let mut runs = Vec::new();
        for (label, trace, reps) in [("untraced", 0, reps), ("traced", 1, traced_reps)] {
            let detail_path = out_dir.join(format!("detail-{workload}-{label}.json"));
            // One process per run: peak RSS, CPU time and the page cache
            // state of one workload do not leak into the next.
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--reps", &reps.to_string()])
                .args(["--trace", &trace.to_string()])
                .args(["--scale", &scale.to_string()])
                .args(setups.iter().flat_map(|n| ["--setups", n]))
                .arg("--out")
                .arg(&out_dir)
                .arg("--detail")
                .arg(&detail_path)
                .status()
                .map_err(|e| format!("start {workload}: {e}"))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&detail_path)
                .map_err(|e| format!("{workload} ({label}) wrote no result: {e}"))?;
            let detail = JsonValue::parse(&text).map_err(|e| format!("{workload}: {e}"))?;
            let _ = std::fs::remove_file(&detail_path);
            runs.push((label.to_string(), detail));
        }
        // Tracing must not change what the program computes.
        let exact = |i: usize| runs[i].1.get("exact").map(JsonValue::render);
        let same = exact(0) == exact(1);
        println!(
            "  check {}  {workload}: traced and untraced runs agree on every count and simulated statistic",
            if same { "ok   " } else { "FAIL " }
        );
        all_ok &= same;
        runs.push(("traced_equals_untraced".into(), JsonValue::Bool(same)));
        workloads.push((workload.to_string(), JsonValue::Obj(runs)));
        println!();
    }
    let doc = JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("e2ebench".into())),
        ("seed".into(), JsonValue::Int(seed as i64)),
        (
            "mode".into(),
            JsonValue::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("scale".into(), JsonValue::Float(scale)),
        ("env".into(), env::fingerprint(&out_dir)),
        (
            "wall_s".into(),
            JsonValue::Float(started.elapsed().as_secs_f64()),
        ),
        ("workloads".into(), JsonValue::Obj(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "e2ebench suite: {} in {:.0} s, results in {}",
        if all_ok {
            "every check passed"
        } else {
            "FAILED"
        },
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

// --------------------------------------------------------------- compare

fn compare(args: &[String]) -> Result<ExitCode, String> {
    // `--exact-only`: timings are printed but only differing counts fail
    // (for runs too short to judge a timing by).
    let exact_only = args.iter().any(|a| a == "--exact-only");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("compare needs two result files".into());
    };
    let load = |p: &String| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let mut text = String::new();
    let (worse, differing) = report::compare(&load(a)?, &load(b)?, &mut text)?;
    print!("{text}");
    println!("compare: {worse} cells worse than their bound allows, {differing} counts differ");
    let bad = differing + if exact_only { 0 } else { worse };
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
