//! Virtual time for the discrete-event simulator.
//!
//! Time is kept as an integer number of **microseconds** since the start of
//! the simulation. Integer time makes event ordering exact and reproducible
//! across platforms (no floating-point drift), while one-microsecond
//! resolution is fine enough for network events (a single 1500-byte packet at
//! 1 Gbit/s lasts 12 us) and coarse enough that multi-hour workflow runs fit
//! comfortably in a `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_micros(s))
    }

    /// Raw microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time since start as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Saturates to zero if `earlier` is
    /// actually later, which keeps bookkeeping code panic-free in the face of
    /// simultaneous events.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds (negative values clamp to zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_to_micros(s))
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale the duration by a non-negative factor, saturating on overflow.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "duration scale factor must be non-negative");
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(scaled as u64)
        }
    }
}

/// Fractional seconds to whole microseconds, rounding half away from zero
/// (what `f64::round` does) without the libm call. Exact: below 2^53
/// `us - t` is computed without error, so the comparison with 0.5 is the
/// true fractional part's; from 2^53 up every `f64` is an integer and the
/// fraction is zero.
#[inline]
fn secs_to_micros(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        let us = s * 1e6;
        if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            let t = us as u64;
            if us - t as f64 >= 0.5 {
                t + 1
            } else {
                t
            }
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-2.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn addition_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(1))
            .is_some());
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_secs(1).mul_f64(-1.0);
    }

    /// The reference: what `secs_to_micros` computed with libm's `round`.
    fn micros_via_round(s: f64) -> u64 {
        if s <= 0.0 {
            0
        } else {
            let us = s * 1e6;
            if us >= u64::MAX as f64 {
                u64::MAX
            } else {
                us.round() as u64
            }
        }
    }

    #[test]
    fn secs_to_micros_rounds_exactly_like_f64_round() {
        let two52 = 2f64.powi(52);
        let two53 = 2f64.powi(53);
        let us = |x: f64| x / 1e6;
        let mut inputs = vec![
            // Ties round away from zero, including the even ones.
            us(0.5),
            us(1.5),
            us(2.5),
            // The largest double below one half must round down.
            us(0.499_999_999_999_999_94),
            0.5e-6,
            1.5e-6,
            2.5e-6,
            0.499_999_999_999_999_94,
            // Around the end of the exactly-fractional range.
            us(two52 - 0.5),
            us(two52 + 0.5),
            us(two53),
            us(two53 + 2.0),
            // Near the saturation edge.
            us(u64::MAX as f64),
            us(u64::MAX as f64) * (1.0 - f64::EPSILON),
            us(u64::MAX as f64) * (1.0 + f64::EPSILON),
            us(2f64.powi(63)),
            // Subnormals, zeros and the infinities.
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5e-6,
        ];
        // The two ULP neighbours of every hand-picked value too.
        for x in inputs.clone() {
            if x.is_finite() && x > 0.0 {
                inputs.push(f64::from_bits(x.to_bits() - 1));
                inputs.push(f64::from_bits(x.to_bits() + 1));
            }
        }
        for &x in &inputs {
            assert_eq!(secs_to_micros(x), micros_via_round(x), "s = {x:e}");
        }
        // A seeded sweep: uniform bit patterns (every exponent), halves
        // near small integers, and values on the microsecond grid.
        let mut rng = crate::SimRng::seed_from_u64(0x5eed_0001);
        let mut bits = || rng.uniform_u64(0, u64::MAX);
        for i in 0..1_200_000u64 {
            let x = match i % 3 {
                0 => f64::from_bits(bits() >> 1),
                1 => us((bits() % 1_000_000) as f64 + 0.5),
                _ => bits() as f64 / 2f64.powi(40),
            };
            assert_eq!(secs_to_micros(x), micros_via_round(x), "s = {x:e}");
        }
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.000250s");
    }

    #[test]
    fn ordering_is_chronological() {
        let mut ts = vec![
            SimTime::from_secs(5),
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimTime::from_secs(1),
        ];
        ts.sort();
        assert_eq!(
            ts,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(1),
                SimTime::from_secs(5),
            ]
        );
    }
}
