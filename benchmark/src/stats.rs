//! Order statistics for the noise protocol: every timing metric is computed
//! once per repetition; its median, quartiles, extremes and sample count are
//! kept beside the value the run reports, which is their median or, for the
//! gated timings, the quiet-machine estimate of `harness::Quiet`.

use pwm_obs::JsonValue;

/// Samples that must lie beyond a reported tail percentile.
const TAIL_FLOOR: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses — the benchmark driver computes
/// its spreads that way, so `compare` and the A/A calibration must too.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |q: usize| {
        // Position q·(n+1)/4 in 1-based ranks; at the ends the segment is
        // clamped to the sample and the value extrapolated, as Python does.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Order statistics of one metric's per-repetition values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// What the run reports for the metric: the median over repetitions
    /// unless [`Summary::reporting`] put another estimate in its place.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            value: median(values),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// The per-repetition statistics of `values` beside a reported `value`
    /// that was estimated across repetitions.
    pub fn reporting(value: f64, values: &[f64]) -> Summary {
        Summary {
            value,
            ..Summary::of(values)
        }
    }

    /// A value that is not a distribution (a count, a ratio of counts).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("value".into(), JsonValue::Float(self.value)),
            ("median".into(), JsonValue::Float(self.median)),
            ("q1".into(), JsonValue::Float(self.q1)),
            ("q3".into(), JsonValue::Float(self.q3)),
            ("min".into(), JsonValue::Float(self.min)),
            ("max".into(), JsonValue::Float(self.max)),
            ("n".into(), JsonValue::Int(self.n as i64)),
        ])
    }

    pub fn from_json(v: &JsonValue) -> Option<Summary> {
        Some(Summary {
            value: num(v.get("value")?)?,
            median: num(v.get("median")?)?,
            q1: num(v.get("q1")?)?,
            q3: num(v.get("q3")?)?,
            min: num(v.get("min")?)?,
            max: num(v.get("max")?)?,
            n: v.get("n")?.as_int()? as usize,
        })
    }
}

/// A JSON number as `f64` (the writer prints integral floats without a
/// decimal point, so they parse back as integers).
pub fn num(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// The highest of the percentiles 99, 95, 90, 75, 50 that has at least
/// [`TAIL_FLOOR`] samples beyond it in a sample of `n` — a p99 of 300
/// samples is three values and says nothing.
pub fn tail_percentile(n: usize) -> f64 {
    for (p, percent_beyond) in [(0.99, 1), (0.95, 5), (0.90, 10), (0.75, 25)] {
        if n * percent_beyond / 100 >= TAIL_FLOOR {
            return p;
        }
    }
    0.50
}

/// The `p`-quantile (nearest rank) of an unsorted latency sample; sorts in
/// place so repetitions can reuse one buffer.
pub fn percentile_in_place(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_over_repetitions_ignores_an_isolated_burst() {
        // 15 repetitions, one of them a 3x burst: the median does not move.
        let mut reps = vec![0.50; 15];
        reps[7] = 1.5;
        assert_eq!(median(&reps), 0.50);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn a_summary_keeps_the_reported_value_beside_the_repetitions() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert_eq!(s.value, s.median);
        let quiet = Summary::reporting(0.9, &v);
        assert_eq!((quiet.value, quiet.median, quiet.n), (0.9, s.median, 10));
        let back = Summary::from_json(&JsonValue::parse(&s.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile_in_place(&mut v, 0.50), 500);
        assert_eq!(percentile_in_place(&mut v, 0.99), 990);
        assert_eq!(percentile_in_place(&mut v, 1.0), 1000);
        assert_eq!(percentile_in_place(&mut [7], 0.99), 7);
    }
}
