//! The mean ± standard deviation of one figure point.
//!
//! The paper reports each experimental point as the mean of at least five
//! runs with standard-deviation error bars; [`Summary::of`] computes that
//! in one pass (Welford's algorithm) and is the value the harness prints.

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
    /// Summarize a slice in one pass (Welford's running mean and variance).
    /// An empty slice gives all zeros; fewer than two samples a zero stddev.
    pub fn of(samples: &[f64]) -> Summary {
        let (mut n, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in samples {
            n += 1;
            let delta = x - mean;
            mean += delta / n as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let variance = if n < 2 { 0.0 } else { m2 / (n - 1) as f64 };
        let (min, max) = if n == 0 { (0.0, 0.0) } else { (min, max) };
        Summary {
            n,
            mean,
            stddev: variance.sqrt(),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn known_mean_and_stddev() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population stddev of this classic set is 2; sample stddev is
        // sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn summary_of_slice() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
    }

    /// Every figure's `mean ± stddev` comes from here, so the arithmetic is
    /// pinned to the bit: the literals were printed by the accumulator this
    /// function replaced, on the same inputs.
    #[test]
    fn summary_bits_are_pinned() {
        let bits = |s: Summary| (s.n, [s.mean, s.stddev, s.min, s.max].map(f64::to_bits));
        assert_eq!(bits(Summary::of(&[])), (0, [0; 4]));
        let x = 0x400d_9999_9999_999a; // 3.7
        assert_eq!(bits(Summary::of(&[3.7])), (1, [x, 0, x, x]));
        assert_eq!(
            bits(Summary::of(&[
                812.4, 0.1, 97.03, 1.0e-3, 455.5, 3.3, 61.25, 0.7
            ])),
            (
                8,
                [
                    0x4066_591f_be76_c8b4, // 178.785125
                    0x4072_acae_2ff6_7533, // 298.79252620956976
                    0x3f50_624d_d2f1_a9fc, // 0.001
                    0x4089_6333_3333_3333, // 812.4
                ]
            )
        );
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
            let s = Summary::of(&xs);
            let (mean, var) = naive_mean_var(&xs);
            let scale = 1.0 + mean.abs().max(var.abs());
            prop_assert!((s.mean - mean).abs() / scale < 1e-9);
            prop_assert!((s.stddev.powi(2) - var).abs() / scale.powi(2).max(1.0) < 1e-6);
        }
    }
}
