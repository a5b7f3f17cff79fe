//! Online and batch statistics used by the experiment harness.
//!
//! The paper reports each experimental point as the mean of at least five
//! runs with standard-deviation error bars; [`OnlineStats`] (Welford's
//! algorithm) provides exactly that without storing samples, and [`Summary`]
//! is the value the harness prints per figure point.

/// Numerically stable running mean/variance (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (parallel-friendly; Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Snapshot into a plain [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            stddev: self.stddev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Immutable summary of a sample set — one figure point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of runs behind this point.
    pub n: u64,
    /// Mean value.
    pub mean: f64,
    /// Sample standard deviation (the paper's error bars).
    pub stddev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Summary {
    /// Summarize a slice in one pass.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = OnlineStats::new();
        for &x in samples {
            s.push(x);
        }
        s.summary()
    }
}

/// Percentile of a sample slice using linear interpolation between ranks.
/// `q` in `[0, 1]`. Returns 0 for empty input.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn known_mean_and_stddev() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population stddev of this classic set is 2; sample stddev is
        // sqrt(32/7).
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn summary_of_slice() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_basics() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 5.0);
        assert_eq!(percentile(&data, 0.5), 3.0);
        assert!((percentile(&data, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert!((percentile(&data, 0.75) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_q() {
        let data = [1.0, 2.0];
        assert_eq!(percentile(&data, -0.5), 1.0);
        assert_eq!(percentile(&data, 1.5), 2.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        (mean, var)
    }

    proptest! {
        /// Welford matches the two-pass textbook computation.
        #[test]
        fn welford_matches_naive(xs in proptest::collection::vec(-1.0e6..1.0e6f64, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs {
                s.push(x);
            }
            let (mean, var) = naive_mean_var(&xs);
            let scale = 1.0 + mean.abs().max(var.abs());
            prop_assert!((s.mean() - mean).abs() / scale < 1e-9);
            prop_assert!((s.variance() - var).abs() / scale.powi(2).max(1.0) < 1e-6);
        }

        /// Merging any split equals processing the whole slice.
        #[test]
        fn merge_equals_sequential(
            xs in proptest::collection::vec(-1.0e3..1.0e3f64, 2..120),
            split_frac in 0.0f64..1.0,
        ) {
            let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
            let mut whole = OnlineStats::new();
            for &x in &xs {
                whole.push(x);
            }
            let mut a = OnlineStats::new();
            let mut b = OnlineStats::new();
            for &x in &xs[..split] { a.push(x); }
            for &x in &xs[split..] { b.push(x); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
            prop_assert!((a.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance().abs()));
        }

        /// Percentiles are monotone in q and bounded by min/max.
        #[test]
        fn percentile_monotone_and_bounded(
            xs in proptest::collection::vec(-1.0e3..1.0e3f64, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = (q1.min(q2), q1.max(q2));
            let p_lo = percentile(&xs, lo);
            let p_hi = percentile(&xs, hi);
            prop_assert!(p_lo <= p_hi + 1e-12);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p_lo >= min - 1e-12 && p_hi <= max + 1e-12);
        }
    }
}
