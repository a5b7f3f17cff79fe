//! What every workload shares: the arguments of one run, the repetition
//! loop of the noise protocol, and the shape of a run's outcome.

use crate::env;
use crate::stats::{percentile_in_place, tail_percentile, Summary};
use crate::trace::Recorder;
use std::path::PathBuf;
use std::time::Instant;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Repeat until this many seconds of measuring have passed (the
    /// benchmark driver's `--seconds`).
    Seconds(f64),
    /// A fixed number of repetitions, so that two runs of one seed do
    /// exactly the same work and every count repeats (`run.sh`).
    Reps(usize),
}

/// Repetitions a timed run makes at the least, however slow the machine.
pub const MIN_REPS: usize = 5;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Share of the full per-repetition work and working set (1.0 = the
    /// sizes the README states; `--smoke` uses less).
    pub scale: f64,
    /// Times the set-up is done and timed, if fixed (`--setups`); otherwise
    /// the run decides by the clock. `setup_s` is the quiet estimate over
    /// them.
    pub setups: Option<usize>,
    /// Where traces and WAL directories go (inside the checkout).
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// `full` scaled, but never below `floor`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(floor)
    }
}

/// Decides after each repetition whether another one follows.
#[derive(Debug)]
pub struct RepLoop {
    budget: Budget,
    started: Instant,
    done: usize,
}

impl RepLoop {
    pub fn start(budget: Budget) -> RepLoop {
        RepLoop {
            budget,
            started: Instant::now(),
            done: 0,
        }
    }

    /// True while another repetition is due; counts the one it grants.
    pub fn next(&mut self) -> bool {
        let more = match self.budget {
            Budget::Reps(n) => self.done < n,
            Budget::Seconds(s) => self.done < MIN_REPS || self.started.elapsed().as_secs_f64() < s,
        };
        self.done += more as usize;
        more
    }
}

/// One output check; a failed check fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(name: &'static str, got: T, want: T) -> Check {
        Check::new(name, got == want, format!("got {got:?}, want {want:?}"))
    }
}

/// What a workload hands back after measuring.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured repetitions (the workload's own
    /// unit: workflows, HTTP requests, simulator events).
    pub attempted: u64,
    /// Operations that failed (non-200, transport error, unsuccessful
    /// workflow).
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The workload's metrics by name: end-to-end ones from an untraced
    /// run, per-layer ones from a traced run. `setup_s`, `peak_rss_mb` and
    /// the process-level layer metrics are added by the caller.
    pub metrics: Vec<(&'static str, Summary)>,
    /// The per-repetition values behind every summarised metric, so that a
    /// result file shows the bursts its medians hide.
    pub per_rep: Vec<(&'static str, Vec<f64>)>,
    /// Counts and simulated statistics of one repetition. They must be the
    /// same in the untraced and the traced run and in any two runs of one
    /// seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Free-form facts printed beside the metrics (sample counts, the
    /// percentile actually reported, the WAL's filesystem).
    pub notes: Vec<(&'static str, String)>,
    /// `/metrics` text scraped after the run (REST workloads).
    pub metrics_text: Option<String>,
    /// Spans of a traced run.
    pub recorder: Option<Recorder>,
    /// The quiet repetition of an untraced run.
    pub quiet: Option<Quiet>,
}

impl Outcome {
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, Summary::exact(value)));
    }
}

/// How one repetition (or one set-up) spent its time. `slices_ns` cut its
/// whole wall time into consecutive pieces; `latencies_ns` are its latency
/// samples in the order they were taken, `samples_in_slice[i]` of them
/// inside slice `i`. All three have the same length and meaning in every
/// repetition of a run.
#[derive(Debug, Default, Clone)]
pub struct RepTiming {
    pub slices_ns: Vec<u64>,
    pub latencies_ns: Vec<u64>,
    pub samples_in_slice: Vec<u32>,
}

impl RepTiming {
    /// Slices with no latency samples (a set-up).
    pub fn of_slices(slices_ns: Vec<u64>) -> RepTiming {
        RepTiming {
            samples_in_slice: vec![0; slices_ns.len()],
            slices_ns,
            latencies_ns: Vec::new(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.slices_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// The quiet-machine estimate behind the gated timings.
///
/// Every repetition of a run replays the same work, cut into the same fine
/// slices (one policy call, one exchange with the advice server, one batch
/// of simulator events). For each slice the fastest time it took in any
/// repetition is kept, with the latency samples taken inside it that time.
/// What the host's other tenants do to this sandbox only ever slows a slice
/// down, in bursts that are short beside a repetition and dense for minutes
/// at a time: no repetition escapes them, but every slice does in some
/// repetition. The sum of the kept times is what one repetition costs when
/// nothing interferes, and it repeats from run to run where the median and
/// even the best whole repetition do not (see the README).
///
/// A slice must end where the work done so far is the same in every
/// repetition: time that two threads can shift between two slices would be
/// counted in neither.
#[derive(Debug, Default)]
pub struct Quiet {
    best: RepTiming,
    reps: usize,
    /// Repetitions cut otherwise than the first one: they did not replay
    /// the same work and were left out.
    mismatched: usize,
}

impl Quiet {
    pub fn absorb(&mut self, rep: &RepTiming) {
        if self.reps == 0 {
            self.best = rep.clone();
        } else if rep.samples_in_slice != self.best.samples_in_slice
            || rep.slices_ns.len() != self.best.slices_ns.len()
            || rep.latencies_ns.len() != self.best.latencies_ns.len()
        {
            self.mismatched += 1;
            return;
        } else {
            let mut at = 0;
            for (i, &t) in rep.slices_ns.iter().enumerate() {
                let samples = at..at + rep.samples_in_slice[i] as usize;
                at = samples.end;
                if t < self.best.slices_ns[i] {
                    self.best.slices_ns[i] = t;
                    self.best.latencies_ns[samples.clone()]
                        .copy_from_slice(&rep.latencies_ns[samples]);
                }
            }
        }
        self.reps += 1;
    }

    /// Let the slices from `from` on also take the times `later` found for
    /// the same work (a set-up's warm-up repetition is the work of every
    /// measured repetition).
    pub fn fold(&mut self, from: usize, later: &Quiet) {
        for (best, &t) in self.best.slices_ns[from..]
            .iter_mut()
            .zip(&later.best.slices_ns)
        {
            *best = (*best).min(t);
        }
    }

    /// The quiet time of one repetition, in seconds.
    pub fn total_s(&self) -> f64 {
        self.best.wall_s()
    }

    /// The `p`-quantile over the latency samples of the quiet repetition,
    /// in microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile_in_place(&mut self.best.latencies_ns.clone(), p) as f64 / 1e3
    }

    /// Slices and latency samples of one repetition.
    pub fn shape(&self) -> (usize, usize) {
        (self.best.slices_ns.len(), self.best.latencies_ns.len())
    }

    /// Repetitions absorbed, and repetitions left out because they were cut
    /// otherwise than the first.
    pub fn reps(&self) -> (usize, usize) {
        (self.reps, self.mismatched)
    }
}

/// Cuts a set-up into slices: the time between consecutive marks. Every
/// set-up of a run does the same work and sets the same marks, so a run's
/// set-ups feed a [`Quiet`] the way its repetitions do.
#[derive(Debug)]
pub struct Marks {
    last: Instant,
    pub slices_ns: Vec<u64>,
    /// Where the slices of the discarded warm-up repetition begin.
    pub warm_up_from: usize,
}

impl Marks {
    pub fn start() -> Marks {
        Marks {
            last: Instant::now(),
            slices_ns: Vec::new(),
            warm_up_from: 0,
        }
    }

    pub fn mark(&mut self) {
        let now = Instant::now();
        self.slices_ns.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }

    /// Take over the slices of the warm-up repetition, which timed itself,
    /// and go on from now.
    pub fn warm_up(&mut self, slices_ns: &[u64]) {
        self.warm_up_from = self.slices_ns.len();
        self.slices_ns.extend_from_slice(slices_ns);
        self.last = Instant::now();
    }
}

/// Collects the repetitions of an untraced run into the three gated timings.
#[derive(Debug)]
pub struct EndToEnd {
    ops_per_rep: u64,
    quiet: Quiet,
    per_s: Vec<f64>,
    p50_us: Vec<f64>,
    tail_us: Vec<f64>,
}

impl EndToEnd {
    pub fn new(ops_per_rep: u64) -> EndToEnd {
        EndToEnd {
            ops_per_rep,
            quiet: Quiet::default(),
            per_s: Vec::new(),
            p50_us: Vec::new(),
            tail_us: Vec::new(),
        }
    }

    pub fn absorb(&mut self, mut rep: RepTiming) {
        self.quiet.absorb(&rep);
        self.per_s.push(self.ops_per_rep as f64 / rep.wall_s());
        let tail_p = tail_percentile(rep.latencies_ns.len());
        let us = |ns: u64| ns as f64 / 1e3;
        self.p50_us
            .push(us(percentile_in_place(&mut rep.latencies_ns, 0.50)));
        self.tail_us
            .push(us(percentile_in_place(&mut rep.latencies_ns, tail_p)));
    }

    /// Report `ops_per_s`, `op_p50_us` and `op_p99_us`: the quiet estimate
    /// as the value, the per-repetition statistics beside it. The estimate
    /// itself goes to `out.quiet` for the set-up to share.
    pub fn finish(self, out: &mut Outcome) {
        let (slices, samples) = self.quiet.shape();
        let tail_p = tail_percentile(samples);
        for (name, value, per_rep) in [
            (
                "ops_per_s",
                self.ops_per_rep as f64 / self.quiet.total_s(),
                &self.per_s,
            ),
            ("op_p50_us", self.quiet.latency_us(0.50), &self.p50_us),
            ("op_p99_us", self.quiet.latency_us(tail_p), &self.tail_us),
        ] {
            out.metrics.push((name, Summary::reporting(value, per_rep)));
            out.per_rep.push((name, per_rep.clone()));
        }
        let (reps, mismatched) = self.quiet.reps();
        out.checks.push(Check::eq(
            "every repetition replays the same slices and latency samples",
            mismatched,
            0,
        ));
        out.notes.push((
            "quiet_estimate",
            format!(
                "fastest of {reps} repetitions for each of {slices} slices, {samples} latency samples; tail = p{:.0}",
                tail_p * 100.0
            ),
        ));
        out.quiet = Some(self.quiet);
    }
}

/// CPU use of a measured phase: cores kept busy by the whole process, and
/// the share of that CPU the benchmark's own client threads took.
#[derive(Debug, Clone, Copy)]
pub struct CpuWindow {
    wall: Instant,
    process: f64,
}

impl CpuWindow {
    pub fn open() -> CpuWindow {
        CpuWindow {
            wall: Instant::now(),
            process: env::process_cpu_secs(),
        }
    }

    /// `client_cpu_secs` is what the client threads measured on themselves.
    pub fn close(self, out: &mut Outcome, client_cpu_secs: f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let process = env::process_cpu_secs() - self.process;
        out.count("proc.cpu_busy_cores", process / wall.max(1e-9));
        out.count(
            "loadgen.cpu_share",
            if process > 0.0 {
                (client_cpu_secs / process).min(1.0)
            } else {
                0.0
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_budget_grants_exactly_its_repetitions() {
        let mut l = RepLoop::start(Budget::Reps(3));
        assert!(l.next() && l.next() && l.next());
        assert!(!l.next());
    }

    #[test]
    fn a_timed_budget_grants_the_minimum_even_when_time_is_up() {
        let mut l = RepLoop::start(Budget::Seconds(0.0));
        for _ in 0..MIN_REPS {
            assert!(l.next());
        }
        assert!(!l.next());
    }

    /// A repetition whose every slice holds one latency sample.
    fn rep(slices_ns: &[u64], latencies_ns: &[u64]) -> RepTiming {
        RepTiming {
            slices_ns: slices_ns.to_vec(),
            latencies_ns: latencies_ns.to_vec(),
            samples_in_slice: vec![1; slices_ns.len()],
        }
    }

    #[test]
    fn quiet_keeps_every_slice_at_its_fastest_with_the_samples_it_had_then() {
        let mut q = Quiet::default();
        // A burst on the second slice, then one on the first.
        q.absorb(&rep(&[10_000, 50_000, 30_000], &[9_000, 45_000, 20_000]));
        q.absorb(&rep(&[40_000, 20_000, 30_000], &[8_000, 15_000, 25_000]));
        assert_eq!(q.total_s(), 60_000.0 / 1e9);
        // The first slice keeps the sample of its fast repetition although
        // the slow one read lower; the tie on the third keeps the first.
        assert_eq!(q.best.latencies_ns, [9_000, 15_000, 20_000]);
        assert_eq!(q.latency_us(0.50), 15.0);
        assert_eq!((q.reps(), q.shape()), ((2, 0), (3, 3)));
        // A repetition that did other work is not mixed in.
        q.absorb(&rep(&[1, 1], &[1, 1]));
        assert_eq!((q.reps(), q.total_s()), ((2, 1), 60_000.0 / 1e9));
    }

    #[test]
    fn samples_follow_the_slice_they_were_taken_in() {
        // One exchange of three answers, then one of a single answer.
        let exchange = |slices: [u64; 2], latencies: [u64; 4]| RepTiming {
            slices_ns: slices.to_vec(),
            latencies_ns: latencies.to_vec(),
            samples_in_slice: vec![3, 1],
        };
        let mut q = Quiet::default();
        q.absorb(&exchange([900, 100], [300, 600, 900, 100]));
        q.absorb(&exchange([700, 400], [650, 660, 670, 50]));
        assert_eq!(q.best.slices_ns, [700, 100]);
        assert_eq!(q.best.latencies_ns, [650, 660, 670, 100]);
    }

    #[test]
    fn a_set_up_shares_what_the_repetitions_found_for_its_warm_up() {
        let mut m = Marks::start();
        m.mark();
        m.warm_up(&[500, 700]);
        m.mark();
        assert_eq!((m.slices_ns.len(), m.warm_up_from), (4, 1));
        assert_eq!(m.slices_ns[1..3], [500, 700]);
        let mut setup = Quiet::default();
        setup.absorb(&RepTiming::of_slices(vec![90, 500, 700, 10]));
        let mut reps = Quiet::default();
        reps.absorb(&RepTiming::of_slices(vec![400, 900]));
        setup.fold(1, &reps);
        assert_eq!(setup.best.slices_ns, [90, 400, 700, 10]);
    }

    #[test]
    fn end_to_end_reports_the_quiet_value_beside_the_per_repetition_ones() {
        let mut e = EndToEnd::new(4);
        // 2000 slices with a latency sample each, so the tail is p99.
        let run = |slow: u64| {
            let slices: Vec<u64> = (0..2000).map(|i| 1000 + slow * (i % 2)).collect();
            let latencies: Vec<u64> = (1..=2000).map(|i| i * 1000 + slow).collect();
            rep(&slices, &latencies)
        };
        e.absorb(run(0));
        e.absorb(run(500));
        e.absorb(run(1000));
        let mut out = Outcome::default();
        e.finish(&mut out);
        let get = |name| &out.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        let tput = get("ops_per_s");
        assert_eq!(tput.value, 4.0 / 0.002, "the quiet repetition is the first");
        assert_eq!((tput.n, tput.max), (3, 4.0 / 0.002));
        assert!(tput.median < tput.value);
        assert_eq!(get("op_p50_us").value, 1000.0);
        assert_eq!(get("op_p50_us").median, 1000.5);
        assert_eq!(get("op_p99_us").value, 1980.0);
        assert!(out.checks.iter().all(|c| c.ok));
        assert!(out.quiet.is_some());
    }

    #[test]
    fn few_latency_samples_lower_the_tail_percentile() {
        let mut e = EndToEnd::new(1);
        let latencies: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        e.absorb(rep(&latencies, &latencies));
        let mut out = Outcome::default();
        e.finish(&mut out);
        let tail = &out
            .metrics
            .iter()
            .find(|(n, _)| *n == "op_p99_us")
            .unwrap()
            .1;
        assert_eq!(tail.value, 90.0, "p90 of 100 samples");
        assert!(out.notes.iter().any(|(_, v)| v.ends_with("tail = p90")));
    }

    #[test]
    fn scaled_sizes_respect_their_floor() {
        let args = RunArgs {
            seed: 1,
            budget: Budget::Reps(1),
            trace: false,
            scale: 0.05,
            setups: Some(1),
            out_dir: PathBuf::from("out"),
        };
        assert_eq!(args.scaled(10_000, 1), 500);
        assert_eq!(args.scaled(16, 2), 2);
    }
}
