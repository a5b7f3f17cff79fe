//! Per-link utilization timelines.
//!
//! An opt-in recorder ([`crate::Network::watch_link`]) that samples a link's
//! stream occupancy, turbulence, and instantaneous throughput at every rate
//! recomputation. Bounded by decimation: when the buffer fills, every other
//! sample is dropped and the sampling stride doubles, so arbitrarily long
//! runs keep a uniform ~half-full buffer.
//!
//! A timeline is a step function of simulated time, not a log of how often
//! the driver looked: an instant keeps one sample (its last), and the
//! aggregates weight each sample by how long it held.

use pwm_sim::SimTime;

/// One observation of a link's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Concurrent streams on the link.
    pub streams: u32,
    /// Turbulence level at the sample instant.
    pub turbulence: f64,
    /// Sum of the rates of flows crossing the link (bytes/sec).
    pub throughput: f64,
}

/// A bounded, self-decimating sample series for one link.
#[derive(Debug, Clone)]
pub struct LinkTimeline {
    samples: Vec<UtilizationSample>,
    capacity: usize,
    stride: u64,
    counter: u64,
    /// Instant of the last sample offered, and whether the stride kept it.
    last: Option<(SimTime, bool)>,
}

impl LinkTimeline {
    /// A timeline retaining at most `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        LinkTimeline {
            samples: Vec::new(),
            capacity: capacity.max(8),
            stride: 1,
            counter: 0,
            last: None,
        }
    }

    /// Offer a sample; kept only when the current stride admits it. A second
    /// sample at one instant takes the first one's place (or its rejection)
    /// without advancing the stride.
    pub fn record(&mut self, sample: UtilizationSample) {
        if let Some((_, kept)) = self.last.filter(|(at, _)| *at == sample.at) {
            if kept {
                *self.samples.last_mut().expect("kept sample") = sample;
            }
            return;
        }
        let admit = self.counter.is_multiple_of(self.stride);
        self.counter += 1;
        self.last = Some((sample.at, admit));
        if !admit {
            return;
        }
        if self.samples.len() == self.capacity {
            // Decimate in place: keep every other sample, double the stride.
            let mut i = 0;
            self.samples.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride *= 2;
        }
        self.samples.push(sample);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Time-weighted mean of `value` over the retained samples: each sample
    /// holds until the next one, and the last (which has held for no time
    /// yet) carries no weight. 0 when the samples span no time.
    fn time_weighted(&self, value: impl Fn(&UtilizationSample) -> f64) -> f64 {
        let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) else {
            return 0.0;
        };
        let span = last.at.since(first.at).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let held = |w: &[UtilizationSample]| value(&w[0]) * w[1].at.since(w[0].at).as_secs_f64();
        self.samples.windows(2).map(held).sum::<f64>() / span
    }

    /// Mean throughput over the time the retained samples span (bytes/sec).
    pub fn mean_throughput(&self) -> f64 {
        self.time_weighted(|s| s.throughput)
    }

    /// Largest stream count observed in the retained samples.
    pub fn peak_streams(&self) -> u32 {
        self.samples.iter().map(|s| s.streams).max().unwrap_or(0)
    }

    /// Fraction of the spanned time spent with turbulence above `level`.
    pub fn turbulent_fraction(&self, level: f64) -> f64 {
        self.time_weighted(|s| f64::from(u8::from(s.turbulence > level)))
    }
}

impl Default for LinkTimeline {
    fn default() -> Self {
        Self::with_capacity(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, streams: u32, throughput: f64) -> UtilizationSample {
        UtilizationSample {
            at: SimTime::from_secs(t),
            streams,
            turbulence: 0.0,
            throughput,
        }
    }

    #[test]
    fn records_until_capacity() {
        let mut tl = LinkTimeline::with_capacity(8);
        for t in 0..8 {
            tl.record(sample(t, 1, 1.0));
        }
        assert_eq!(tl.samples().len(), 8);
    }

    #[test]
    fn decimates_and_doubles_stride() {
        let mut tl = LinkTimeline::with_capacity(8);
        for t in 0..64 {
            tl.record(sample(t, 1, 1.0));
        }
        // Never exceeds capacity and coverage spans the whole range.
        assert!(tl.samples().len() <= 8);
        let first = tl.samples().first().unwrap().at;
        let last = tl.samples().last().unwrap().at;
        assert_eq!(first, SimTime::from_secs(0));
        assert!(last >= SimTime::from_secs(48), "last kept sample {last}");
        // Samples remain time-ordered.
        for w in tl.samples().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    /// The aggregates weight each sample by the time it held.
    #[test]
    fn aggregates() {
        let mut tl = LinkTimeline::default();
        tl.record(sample(0, 4, 10.0));
        tl.record(UtilizationSample {
            at: SimTime::from_secs(1),
            streams: 9,
            turbulence: 0.8,
            throughput: 30.0,
        });
        // One sample spans no time yet; the second has held for none.
        assert!((tl.mean_throughput() - 10.0).abs() < 1e-9);
        assert_eq!(tl.turbulent_fraction(0.5), 0.0);
        tl.record(sample(4, 2, 0.0));
        // 10 B/s for 1 s, then 30 B/s (turbulent) for 3 s.
        assert!((tl.mean_throughput() - 25.0).abs() < 1e-9);
        assert_eq!(tl.peak_streams(), 9);
        assert!((tl.turbulent_fraction(0.5) - 0.75).abs() < 1e-9);
    }

    /// A driver that looks twice at one instant records what a driver that
    /// looks once records — before and after the stride starts rejecting.
    #[test]
    fn an_instant_keeps_one_sample_however_often_it_is_offered() {
        let mut once = LinkTimeline::with_capacity(8);
        let mut often = LinkTimeline::with_capacity(8);
        for t in 0..40u64 {
            once.record(sample(t, 2, t as f64));
            for repeat in 0..=(t % 3) {
                // Earlier offers at the instant differ; the last one stands.
                let stale = if repeat == t % 3 { 0.0 } else { 99.0 };
                often.record(sample(t, 2, t as f64 + stale));
            }
        }
        assert!(once.samples().len() <= 8);
        assert_eq!(once.samples(), often.samples());
        assert_eq!(once.mean_throughput(), often.mean_throughput());
        assert_eq!(once.turbulent_fraction(0.5), often.turbulent_fraction(0.5));
    }

    #[test]
    fn empty_timeline_defaults() {
        let tl = LinkTimeline::default();
        assert_eq!(tl.mean_throughput(), 0.0);
        assert_eq!(tl.peak_streams(), 0);
        assert_eq!(tl.turbulent_fraction(0.0), 0.0);
    }
}
