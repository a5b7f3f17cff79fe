//! Event-queue micro-benchmark: the operations the network engine's hot
//! loop is made of, at the 100k pending-event population the netbench 100k
//! scenario sustains, run as one reportable suite (`repro net --micro`). It
//! touches nothing but the queue, so it doubles as the machine-speed row
//! of the EXPERIMENTS.md calibration protocol.
//!
//! Each probe drives a deterministic op sequence, isolating data-structure
//! cost from engine overhead. Probes:
//!
//! * `pop_push` — pop the earliest event, schedule a replacement a short
//!   pseudo-random delay out (the completion→replacement churn cycle).
//! * `pop_push_far` — same, with replacements spread over a wide horizon
//!   (rung placements across the whole ladder).
//! * `reschedule` — move a random pending event to a new far-future time
//!   (the completion-ETA respin on every rate change).
//! * `cancel_schedule` — cancel a random pending event and schedule a
//!   replacement (the cancel-heavy pattern reschedule replaced in PR 7).

use crate::netbench::Lcg;
use pwm_obs::JsonValue;
use pwm_sim::{LadderQueue, SimDuration, SimTime};
use std::time::Instant;

/// Pending-event population every probe sustains.
const POPULATION: usize = 100_000;

/// One probe's measurement.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Probe name.
    pub op: &'static str,
    /// Operations in the timed window.
    pub rounds: u64,
    /// Wall-clock seconds for the window.
    pub wall_secs: f64,
    /// Operations per wall-clock second.
    pub ops_per_sec: f64,
}

impl MicroResult {
    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_secs / self.rounds as f64 * 1e9
    }
}

fn measure(
    op: &'static str,
    rounds: u64,
    q: &mut LadderQueue<u32>,
    mut body: impl FnMut(&mut LadderQueue<u32>),
) -> MicroResult {
    let started = Instant::now();
    for _ in 0..rounds {
        body(q);
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    MicroResult {
        op,
        rounds,
        wall_secs,
        ops_per_sec: rounds as f64 / wall_secs,
    }
}

/// Fill `q` with [`POPULATION`] events spread over ~600 simulated seconds
/// and return their handles.
fn populate(q: &mut LadderQueue<u32>, rng: &mut Lcg) -> Vec<pwm_sim::EventHandle> {
    (0..POPULATION as u32)
        .map(|i| {
            let t = SimTime::from_micros(1 + rng.next() % 600_000_000);
            q.schedule_at(t, i)
        })
        .collect()
}

/// Run every probe, `rounds` operations each (the `--micro` default is 1M;
/// tests use a small budget).
pub fn run_suite(rounds: u64) -> Vec<MicroResult> {
    let mut out = Vec::new();

    // pop_push: replacements land a short delay out (≤ 2 simulated
    // seconds), the near-future half of the engine's churn.
    {
        let mut rng = Lcg::new(42);
        let mut q = LadderQueue::new();
        populate(&mut q, &mut rng);
        out.push(measure("pop_push", rounds, &mut q, |q| {
            let (t, v) = q.pop().expect("population never drains");
            q.schedule_at(t + SimDuration::from_micros(1 + rng.next() % 2_000_000), v);
        }));
    }

    // pop_push_far: replacements spread over the full 600 s horizon.
    {
        let mut rng = Lcg::new(42);
        let mut q = LadderQueue::new();
        populate(&mut q, &mut rng);
        out.push(measure("pop_push_far", rounds, &mut q, |q| {
            let (t, v) = q.pop().expect("population never drains");
            q.schedule_at(
                t + SimDuration::from_micros(1 + rng.next() % 600_000_000),
                v,
            );
        }));
    }

    // reschedule: respin a random pending event to a fresh far time.
    {
        let mut rng = Lcg::new(7);
        let mut q = LadderQueue::new();
        let handles = populate(&mut q, &mut rng);
        out.push(measure("reschedule", rounds, &mut q, |q| {
            let k = (rng.next() as usize) % POPULATION;
            let t = SimTime::from_micros(1 + rng.next() % 600_000_000);
            assert!(q.reschedule(handles[k], t));
        }));
    }

    // cancel_schedule: the pre-reschedule churn pattern.
    {
        let mut rng = Lcg::new(7);
        let mut q = LadderQueue::new();
        let mut handles = populate(&mut q, &mut rng);
        out.push(measure("cancel_schedule", rounds, &mut q, |q| {
            let k = (rng.next() as usize) % POPULATION;
            assert!(q.cancel(handles[k]));
            let t = SimTime::from_micros(1 + rng.next() % 600_000_000);
            handles[k] = q.schedule_at(t, k as u32);
        }));
    }

    out
}

/// Render micro-bench results as a JSON document (the `--micro` output).
pub fn report_json(results: &[MicroResult]) -> JsonValue {
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("queuebench".into())),
        (
            "units".into(),
            JsonValue::Str("ops_per_sec: queue operations per wall-clock second".into()),
        ),
        ("population".into(), JsonValue::Int(POPULATION as i64)),
        (
            "results".into(),
            JsonValue::Arr(
                results
                    .iter()
                    .map(|r| {
                        JsonValue::Obj(vec![
                            ("op".into(), JsonValue::Str(r.op.into())),
                            ("rounds".into(), JsonValue::Int(r.rounds as i64)),
                            ("wall_secs".into(), JsonValue::Float(r.wall_secs)),
                            ("ops_per_sec".into(), JsonValue::Float(r.ops_per_sec)),
                            ("ns_per_op".into(), JsonValue::Float(r.ns_per_op())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_every_probe() {
        let results = run_suite(2_000);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.ops_per_sec > 0.0, "{} measured nothing", r.op);
        }
        let doc = report_json(&results);
        let parsed = JsonValue::parse(&doc.render()).expect("queuebench JSON must parse");
        assert_eq!(
            parsed
                .get("results")
                .and_then(|r| r.as_arr())
                .map(|a| a.len()),
            Some(4)
        );
    }
}
