//! Seeded, stream-splittable randomness for reproducible experiments.
//!
//! Every experiment run is driven by a single `u64` master seed. Components
//! derive independent sub-streams by hashing the master seed with a string
//! label ([`derive_seed`]), so adding a new randomized component never
//! perturbs the draws seen by existing ones — the property that keeps a
//! five-seed figure reproducible while the codebase evolves.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Mix a master seed with a component label into an independent sub-seed.
///
/// Uses the SplitMix64 finalizer over an FNV-1a pass of the label: cheap,
/// well-distributed, and stable across platforms and compiler versions.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(master ^ h)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible RNG owned by one simulation component.
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create from a raw seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Create a labelled sub-stream of a master seed.
    pub fn for_component(master: u64, label: &str) -> Self {
        Self::seed_from_u64(derive_seed(master, label))
    }

    /// Uniform draw in `[lo, hi)`. Returns `lo` when the range is empty or
    /// inverted, so degenerate configs (zero jitter) never panic.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            self.inner.random_range(lo..hi)
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            self.inner.random_range(lo..=hi)
        }
    }

    /// A multiplicative jitter factor in `[1 - f, 1 + f]`, `f` clamped to
    /// `[0, 0.99]`. Used to perturb job runtimes and transfer overheads the
    /// way real testbeds do between repetitions.
    pub fn jitter(&mut self, f: f64) -> f64 {
        let f = f.clamp(0.0, 0.99);
        self.uniform(1.0 - f, 1.0 + f)
    }

    /// Standard normal via Box-Muller (two uniforms), no extra crates.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1: f64 = self.uniform(f64::MIN_POSITIVE, 1.0);
        let u2: f64 = self.uniform(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with mean/σ, truncated below at `floor` (re-draw free: clamp).
    pub fn normal_clamped(&mut self, mean: f64, sigma: f64, floor: f64) -> f64 {
        (mean + sigma * self.standard_normal()).max(floor)
    }

    /// Exponential with the given mean, via inverse CDF.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = self.uniform(f64::MIN_POSITIVE, 1.0);
        -mean * u.ln()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.random_range(0.0..1.0) < p
        }
    }

    /// Raw access for callers needing other distributions.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        let a = derive_seed(42, "network");
        let b = derive_seed(42, "network");
        let c = derive_seed(42, "runtime");
        let d = derive_seed(43, "network");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut r1 = SimRng::for_component(7, "x");
        let mut r2 = SimRng::for_component(7, "x");
        for _ in 0..100 {
            assert_eq!(r1.uniform_u64(0, 1_000_000), r2.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_labels_give_different_streams() {
        let mut r1 = SimRng::for_component(7, "a");
        let mut r2 = SimRng::for_component(7, "b");
        let s1: Vec<u64> = (0..10).map(|_| r1.uniform_u64(0, u64::MAX - 1)).collect();
        let s2: Vec<u64> = (0..10).map(|_| r2.uniform_u64(0, u64::MAX - 1)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn uniform_handles_degenerate_ranges() {
        let mut r = SimRng::seed_from_u64(1);
        assert_eq!(r.uniform(5.0, 5.0), 5.0);
        assert_eq!(r.uniform(5.0, 4.0), 5.0);
        assert_eq!(r.uniform_u64(9, 9), 9);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            let n = r.uniform_u64(10, 20);
            assert!((10..=20).contains(&n));
        }
    }

    #[test]
    fn jitter_centers_on_one() {
        let mut r = SimRng::seed_from_u64(3);
        let mean: f64 = (0..10_000).map(|_| r.jitter(0.2)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "jitter mean {mean}");
    }

    #[test]
    fn jitter_clamps_factor() {
        let mut r = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = r.jitter(5.0); // clamped to 0.99
            assert!(v > 0.0 && v < 2.0);
        }
    }

    #[test]
    fn normal_clamped_respects_floor() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(r.normal_clamped(1.0, 10.0, 0.25) >= 0.25);
        }
    }

    #[test]
    fn exponential_has_roughly_right_mean() {
        let mut r = SimRng::seed_from_u64(6);
        let mean: f64 = (0..20_000).map(|_| r.exponential(4.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 4.0).abs() < 0.15, "exp mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }

    /// Certain outcomes draw nothing: a run that asks `chance(0.0)` (say,
    /// `transfer_failure_prob: 0.0`) draws what a run that never asks does.
    #[test]
    fn chance_extremes_leave_the_stream_untouched() {
        let mut asked = SimRng::seed_from_u64(7);
        let mut twin = SimRng::seed_from_u64(7);
        for _ in 0..10 {
            assert!(!asked.chance(0.0));
            assert!(asked.chance(1.0));
            assert_eq!(
                asked.uniform_u64(0, u64::MAX),
                twin.uniform_u64(0, u64::MAX)
            );
        }
    }
}
