//! The metric tables (names, units, directions, regression bounds), the
//! result documents, and `compare`.

use crate::harness::Check;
use crate::stats::{num, Summary};
use pwm_obs::JsonValue;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark's contract (`BENCHMARK.json` lists the same
/// names, units, directions and bounds; a unit test holds the two equal).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which a later change may worsen the
    /// metric (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Derived from counts only: two fixed-work runs of one seed must
    /// report the same value to the last bit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A per-layer metric that is a count or a ratio of counts.
const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off, on every
/// workload; `ops_per_s` and the latencies are in the workload's own unit of
/// work (see `WORKLOADS`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, from the traced run. A layer that does no work on a
/// workload reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("rest.residual_us_per_req", "us", Lower),
    layer("rest.wakeups_per_req", "count", Lower),
    layer("rest.client_codec_ns_per_req", "ns", Lower),
    layer("rest.http_parse_ns_per_req", "ns", Lower),
    layer("rest.json_decode_ns_per_req", "ns", Lower),
    layer("rest.json_encode_ns_per_resp", "ns", Lower),
    count("rest.fastjson_fallback_ratio", "ratio", Lower),
    layer("rest.batch_ratio", "ratio", Higher),
    layer("core.service_us_per_req", "us", Lower),
    layer("core.service_p99_us", "us", Lower),
    count("core.rule_firings_per_req", "count", Lower),
    count("core.suppressed_ratio", "ratio", Higher),
    layer("core.shard_overhead_us_per_req", "us", Lower),
    layer("core.route_ns_per_spec", "ns", Lower),
    count("core.shard_fanout", "count", Lower),
    layer("core.wal_us_per_req", "us", Lower),
    layer("core.wal_write_bytes_per_req", "B", Lower),
    layer("core.wal_write_syscalls_per_req", "count", Lower),
    layer("core.recover_ms", "ms", Lower),
    layer("rules.eval_us_per_req", "us", Lower),
    count("rules.evaluations_per_req", "count", Lower),
    count("rules.firing_yield", "ratio", Higher),
    layer("rules.share_of_service", "ratio", Lower),
    layer("workflow.plan_ms_per_wf", "ms", Lower),
    layer("workflow.exec_net_self_ms_per_wf", "ms", Lower),
    layer("workflow.transport_share", "ratio", Lower),
    count("workflow.policy_calls_per_wf", "count", Lower),
    count("workflow.makespan_sim_s", "sim_s", Lower),
    layer("net.advance_ns_per_event", "ns", Lower),
    layer("net.start_flow_ns", "ns", Lower),
    count("net.recomputes_per_event", "count", Lower),
    count("net.skip_ratio", "ratio", Higher),
    count("net.flows_per_component_run", "count", Lower),
    count("net.unchanged_writes_per_event", "count", Lower),
    layer("sim.queue_push_ns", "ns", Lower),
    layer("sim.queue_pop_ns", "ns", Lower),
    layer("sim.queue_reschedule_ns", "ns", Lower),
    layer("sim.queue_cancel_ns", "ns", Lower),
    layer("sim.queue_share", "ratio", Lower),
    layer("proc.cpu_busy_cores", "cores", Higher),
    layer("loadgen.cpu_share", "ratio", Lower),
    layer("trace.attributed_ratio", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// A workload of the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    /// The unit of work `ops_per_s` and `op_p*_us` count in.
    pub unit_of_work: &'static str,
    /// Repetitions of the suite's fixed-work untraced run: ten to twenty
    /// seconds of measuring on the reference sandbox.
    pub suite_reps: usize,
    /// Listed in `BENCHMARK.json`: the benchmark driver runs it and holds
    /// later changes to its bounds. The others run in the suite only; their
    /// runs of one commit spread wider than a bound in this sandbox, or the
    /// driver's time limit has no room for them (see README).
    pub gated: bool,
}

const fn workload(
    name: &'static str,
    unit_of_work: &'static str,
    suite_reps: usize,
    gated: bool,
) -> WorkloadDef {
    WorkloadDef {
        name,
        unit_of_work,
        suite_reps,
        gated,
    }
}

pub const WORKLOADS: &[WorkloadDef] = &[
    workload(
        "campaign",
        "op = one Montage workflow; latency = one policy call round trip",
        30,
        true,
    ),
    workload(
        "advice_hot",
        "op = one HTTP advice request; latency = its round trip",
        60,
        true,
    ),
    workload(
        "netsim_churn",
        "op = one simulator event; latency = one batch of 64 events",
        40,
        true,
    ),
    workload(
        "advice_durable",
        "op = one HTTP advice request; latency = its round trip",
        10,
        false,
    ),
    workload(
        "netsim_churn_100k",
        "op = one simulator event; latency = one batch of 64 events",
        16,
        false,
    ),
    workload(
        "netsim_turbulent",
        "op = one simulator event; latency = one batch of 64 events",
        60,
        false,
    ),
];

/// The document one run writes (`--detail`) and the suite collects.
pub struct RunDetail<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub scale: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: &'a [(&'static str, Summary)],
    pub per_rep: &'a [(&'static str, Vec<f64>)],
    pub exact: &'a [(&'static str, f64)],
    pub notes: &'a [(&'static str, String)],
    pub checks: &'a [Check],
    pub metrics_text: Option<&'a str>,
    pub trace_file: Option<String>,
}

/// Checks run once per repetition; fold them by name.
pub fn fold_checks(checks: &[Check]) -> Vec<(&'static str, usize, usize, String)> {
    let mut folded: Vec<(&'static str, usize, usize, String)> = Vec::new();
    for c in checks {
        let entry = match folded.iter_mut().find(|f| f.0 == c.name) {
            Some(e) => e,
            None => {
                folded.push((c.name, 0, 0, String::new()));
                folded.last_mut().expect("just pushed")
            }
        };
        if c.ok {
            entry.1 += 1;
        } else {
            entry.2 += 1;
            if entry.3.is_empty() {
                entry.3 = c.detail.clone();
            }
        }
    }
    folded
}

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

impl RunDetail<'_> {
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let def = def_of(name).expect("every reported metric is in the tables");
                let mut o = vec![
                    ("unit".to_string(), JsonValue::Str(def.unit.into())),
                    (
                        "better".to_string(),
                        JsonValue::Str(def.better.as_str().into()),
                    ),
                ];
                if let JsonValue::Obj(fields) = s.to_json() {
                    o.extend(fields);
                }
                (name.to_string(), JsonValue::Obj(o))
            })
            .collect();
        let pairs = |items: &[(&'static str, f64)]| {
            JsonValue::Obj(
                items
                    .iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::Float(*v)))
                    .collect(),
            )
        };
        JsonValue::Obj(vec![
            ("workload".into(), JsonValue::Str(self.workload.into())),
            ("seed".into(), JsonValue::Int(self.seed as i64)),
            ("trace".into(), JsonValue::Bool(self.trace)),
            ("scale".into(), JsonValue::Float(self.scale)),
            ("correct".into(), JsonValue::Bool(self.correct)),
            ("attempted".into(), JsonValue::Int(self.attempted as i64)),
            (
                "succeeded".into(),
                JsonValue::Int((self.attempted - self.failed) as i64),
            ),
            ("failed".into(), JsonValue::Int(self.failed as i64)),
            (
                "ops_failed_ratio".into(),
                JsonValue::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics".into(), JsonValue::Obj(metrics)),
            (
                "per_rep".into(),
                JsonValue::Obj(
                    self.per_rep
                        .iter()
                        .map(|(k, v)| {
                            let values = v.iter().map(|x| JsonValue::Float(*x)).collect();
                            (k.to_string(), JsonValue::Arr(values))
                        })
                        .collect(),
                ),
            ),
            ("exact".into(), pairs(self.exact)),
            (
                "notes".into(),
                JsonValue::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), JsonValue::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "checks".into(),
                JsonValue::Arr(
                    fold_checks(self.checks)
                        .into_iter()
                        .map(|(name, passed, failed, detail)| {
                            JsonValue::Obj(vec![
                                ("name".into(), JsonValue::Str(name.into())),
                                ("passed".into(), JsonValue::Int(passed as i64)),
                                ("failed".into(), JsonValue::Int(failed as i64)),
                                ("first_failure".into(), JsonValue::Str(detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "trace_file".into(),
                self.trace_file
                    .clone()
                    .map_or(JsonValue::Null, JsonValue::Str),
            ),
            (
                "metrics_text".into(),
                self.metrics_text
                    .map_or(JsonValue::Null, |t| JsonValue::Str(t.into())),
            ),
        ])
    }

    /// The one-line result the benchmark driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let def = def_of(name).expect("every reported metric is in the tables");
                (
                    name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Float(s.value)),
                        ("unit".into(), JsonValue::Str(def.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct)),
            ("attempted".into(), JsonValue::Int(self.attempted as i64)),
            ("failed".into(), JsonValue::Int(self.failed as i64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
        .render()
    }
}

/// Human-readable metric line.
pub fn metric_line(name: &str, s: &Summary) -> String {
    let def = def_of(name).expect("every reported metric is in the tables");
    let bound = def
        .bound
        .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
    let head = format!("  {name:<34} {:>14.4} {:<6}", s.value, def.unit);
    // Only the quiet estimates come with repetitions beside them.
    if s.n > 1 {
        format!(
            "{head} (quiet estimate of {} repetitions; median {:.4}, q1 {:.4}, q3 {:.4}; {} is better){bound}",
            s.n,
            s.median,
            s.q1,
            s.q3,
            def.better.as_str()
        )
    } else {
        format!("{head} ({} is better){bound}", def.better.as_str())
    }
}

// --------------------------------------------------------------- compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's value is worse than A's by more than the bound.
    Worse,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
        }
    }
}

/// Judge one (metric, workload) cell: `a` is the parent, `b` the change.
/// The values are quiet estimates (or, for memory, a single reading): how
/// far two runs of one commit spread is not in a result file but in the
/// README's A/A table, a fifth of the bound at most, so a cell is judged by
/// its two values alone.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let worse_by = match def.better {
        Better::Higher => (a.value - b.value) / a.value.abs(),
        Better::Lower => (b.value - a.value) / a.value.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The untraced end-to-end summaries and the exact counts of a result file,
/// per workload.
type Cells = BTreeMap<String, (BTreeMap<String, Summary>, BTreeMap<String, f64>)>;

fn cells(doc: &JsonValue) -> Result<(i64, Cells), String> {
    let seed = doc
        .get("seed")
        .and_then(JsonValue::as_int)
        .ok_or("no seed")?;
    let JsonValue::Obj(workloads) = doc.get("workloads").ok_or("no workloads")? else {
        return Err("workloads is not an object".into());
    };
    let mut out = Cells::new();
    for (name, w) in workloads {
        let mut metrics = BTreeMap::new();
        let mut exact = BTreeMap::new();
        for (run, keep_metrics) in [("untraced", true), ("traced", false)] {
            let Some(run) = w.get(run) else { continue };
            if let Some(JsonValue::Obj(m)) = run.get("metrics") {
                for (k, v) in m {
                    let s = Summary::from_json(v).ok_or(format!("bad metric {k}"))?;
                    if keep_metrics {
                        metrics.insert(k.clone(), s);
                    } else if def_of(k).is_some_and(|d| d.exact) {
                        exact.insert(format!("traced:{k}"), s.median);
                    }
                }
            }
            if let Some(JsonValue::Obj(e)) = run.get("exact") {
                for (k, v) in e {
                    exact.insert(k.clone(), num(v).ok_or(format!("bad count {k}"))?);
                }
            }
        }
        out.insert(name.clone(), (metrics, exact));
    }
    Ok((seed, out))
}

/// Compare two result files; prints one row per (end-to-end metric,
/// workload). Returns the number of `worse` (or missing) cells and, when
/// the seeds are equal, the number of exact counts that differ.
pub fn compare(a: &JsonValue, b: &JsonValue, out: &mut String) -> Result<(usize, usize), String> {
    use std::fmt::Write as _;
    let (seed_a, a) = cells(a)?;
    let (seed_b, b) = cells(b)?;
    let (mut bad, mut counts_differing) = (0, 0);
    let _ = writeln!(
        out,
        "{:<17} {:<12} {:>13} {:>13} {:>22} {:>13} {:>13} {:>22} {:>6}  verdict",
        "workload",
        "metric",
        "A value",
        "A median",
        "A q1..q3",
        "B value",
        "B median",
        "B q1..q3",
        "bound"
    );
    for (workload, (metrics_a, exact_a)) in &a {
        let Some((metrics_b, exact_b)) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: missing from B");
            bad += 1;
            continue;
        };
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                let _ = writeln!(out, "{workload} {}: missing", def.name);
                bad += 1;
                continue;
            };
            let verdict = judge(def, sa, sb);
            bad += (verdict == Verdict::Worse) as usize;
            let _ = writeln!(
                out,
                "{workload:<17} {:<12} {:>13.4} {:>13.4} {:>22} {:>13.4} {:>13.4} {:>22} {:>5.0}%  {}",
                def.name,
                sa.value,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.value,
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
        }
        if seed_a == seed_b {
            let differing: Vec<String> = exact_a
                .iter()
                .filter(|(k, v)| exact_b.get(*k).map(|w| w.to_bits()) != Some(v.to_bits()))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", exact_b.get(k)))
                .collect();
            let _ = writeln!(
                out,
                "{workload:<17} exact counts and simulated statistics: {} compared, {} differ",
                exact_a.len(),
                differing.len()
            );
            for d in &differing {
                let _ = writeln!(out, "    {d}");
            }
            counts_differing += differing.len();
        }
    }
    if seed_a != seed_b {
        let _ = writeln!(
            out,
            "seeds differ ({seed_a} vs {seed_b}): exact counts not compared"
        );
    }
    Ok((bad, counts_differing))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary that reports `value` beside the given repetitions.
    fn s(value: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value,
            median: (q1 + q3) / 2.0,
            q1,
            q3,
            min: q1,
            max: q3,
            n: 15,
        }
    }

    #[test]
    fn judge_knows_which_direction_is_worse() {
        let tput = &END_TO_END[1];
        assert_eq!((tput.name, tput.bound), ("ops_per_s", Some(0.25)));
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(judge(tput, &a, &s(90.0, 89.0, 91.0)), Verdict::Ok);
        assert_eq!(judge(tput, &a, &s(70.0, 69.0, 71.0)), Verdict::Worse);
        assert_eq!(judge(tput, &a, &s(150.0, 149.0, 151.0)), Verdict::Ok);
        let p50 = &END_TO_END[2];
        assert_eq!((p50.name, p50.bound), ("op_p50_us", Some(0.25)));
        assert_eq!(judge(p50, &a, &s(130.0, 129.0, 131.0)), Verdict::Worse);
        assert_eq!(judge(p50, &a, &s(80.0, 79.0, 81.0)), Verdict::Ok);
        // Noisy repetitions do not unsettle a quiet estimate.
        assert_eq!(judge(p50, &a, &s(100.0, 105.0, 140.0)), Verdict::Ok);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert_eq!(END_TO_END.len(), 5);
        assert_eq!(PER_LAYER.len(), 43);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` at the repository root is written by hand; it must
    /// say what these tables say.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(JsonValue::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                let field = |k| l.get(k).and_then(JsonValue::as_str);
                assert_eq!(field("name"), Some(d.name));
                assert_eq!(field("unit"), Some(d.unit), "{}", d.name);
                assert_eq!(field("better"), Some(d.better.as_str()), "{}", d.name);
                assert_eq!(l.get("bound").and_then(num), d.bound, "{}", d.name);
            }
        }
        let listed = doc.get("workloads").and_then(JsonValue::as_arr).unwrap();
        let names: Vec<_> = listed
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let gated: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names, gated);
    }

    #[test]
    fn compare_flags_a_worse_cell_and_a_differing_count() {
        let doc = |tput: f64, calls: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|d| {
                    let v = if d.name == "ops_per_s" { tput } else { 10.0 };
                    (d.name.to_string(), s(v, v * 0.99, v * 1.01).to_json())
                })
                .collect();
            JsonValue::Obj(vec![
                ("seed".into(), JsonValue::Int(1)),
                (
                    "workloads".into(),
                    JsonValue::Obj(vec![(
                        "campaign".into(),
                        JsonValue::Obj(vec![(
                            "untraced".into(),
                            JsonValue::Obj(vec![
                                ("metrics".into(), JsonValue::Obj(metrics)),
                                (
                                    "exact".into(),
                                    JsonValue::Obj(vec![(
                                        "policy_calls".into(),
                                        JsonValue::Float(calls),
                                    )]),
                                ),
                            ]),
                        )]),
                    )]),
                ),
            ])
        };
        let mut text = String::new();
        assert_eq!(
            compare(&doc(30.0, 7.0), &doc(30.5, 7.0), &mut text),
            Ok((0, 0))
        );
        assert!(text.contains("ok") && !text.contains("worse"));
        let mut text = String::new();
        assert_eq!(
            compare(&doc(30.0, 7.0), &doc(20.0, 8.0), &mut text),
            Ok((1, 1))
        );
        assert!(text.contains("worse") && text.contains("policy_calls: 7 vs Some(8.0)"));
    }
}
