//! The parallel-stream performance model.
//!
//! This module encodes the physics the paper's greedy policy exploits. Three
//! empirically motivated effects, each with a tunable knob:
//!
//! 1. **Per-stream throughput cap** — a TCP stream moves at most
//!    `window / RTT`; parallel streams exist precisely to aggregate past this
//!    cap. More streams help until the link itself saturates.
//! 2. **Over-subscription decay** — beyond a *knee* of total concurrent
//!    streams on a link, effective capacity declines (receiver/NIC thrash,
//!    loss synchronization). This is the paper's observation that a greedy
//!    threshold of 200 *hurts*: "the greedy algorithm can over-allocate the
//!    number of streams ... resulting in worse performance".
//! 3. **Churn turbulence** — the decay only bites while the flow population
//!    is in flux: every flow arrival/departure perturbs congestion control
//!    and the disturbance takes `turbulence_tau` to die out. Workloads with
//!    many medium transfers churn constantly and feel the full decay; very
//!    long transfers (the paper's 1 GB case) give TCP time to converge, which
//!    is why Fig. 9 shows "no clear advantage ... regardless of the policy
//!    used". A small `steady_overload_frac` of the decay applies even in
//!    steady state.
//!
//! On top of these, each file transfer pays a **connection setup** cost
//! (`setup_base + setup_per_stream × streams`, scaled by route RTT) and a
//! **slow-start ramp**: a freshly activated flow reaches its per-stream cap
//! exponentially with time constant `ramp_tau`.

use pwm_sim::{SimDuration, SimTime};

/// Tunable constants of the stream performance model.
///
/// Defaults are calibrated (see `pwm-bench`) so the paper-testbed topology
/// reproduces the orderings and rough factors of Figures 5–9.
#[derive(Debug, Clone)]
pub struct StreamModel {
    /// TCP window per stream, bytes. A stream's rate cap is
    /// `window_bytes / max(route RTT, min_rtt)`.
    pub window_bytes: f64,
    /// RTT floor so LAN routes don't get infinite per-stream caps.
    pub min_rtt: SimDuration,
    /// Total concurrent streams a link carries without degradation.
    pub knee_streams: f64,
    /// Logistic center of the over-subscription severity curve, expressed in
    /// streams *beyond* the knee.
    pub overload_center: f64,
    /// Logistic width of the severity curve (streams).
    pub overload_width: f64,
    /// Maximum fraction of link capacity lost to over-subscription.
    pub overload_max: f64,
    /// Turbulence added to a link by one flow arrival/departure.
    pub turbulence_per_event: f64,
    /// Exponential decay time of turbulence.
    pub turbulence_tau: SimDuration,
    /// Fraction of the severity applied even with zero turbulence.
    pub steady_overload_frac: f64,
    /// Per-flow fair-share weight jitter (TCP unfairness): each flow's
    /// effective weight is `streams × U(1-j, 1+j)`. This desynchronizes the
    /// completion times of equal-sized transfers, which is what keeps churn
    /// — and therefore the over-subscription penalty — continuous for
    /// medium transfers while very long transfers settle between events.
    pub flow_weight_jitter: f64,
    /// Fixed part of per-file connection setup (authentication, control
    /// channel), independent of RTT.
    pub setup_base: SimDuration,
    /// Additional setup per parallel stream opened.
    pub setup_per_stream: SimDuration,
    /// Number of route RTTs a connection handshake costs.
    pub setup_rtts: f64,
    /// Slow-start ramp time constant for a new flow.
    pub ramp_tau: SimDuration,
    /// How often rates are refreshed while flows ramp or links are turbulent.
    pub refresh_interval: SimDuration,
}

impl Default for StreamModel {
    fn default() -> Self {
        StreamModel {
            // 64 KiB window over ~40 ms → ~1.6 MB/s per stream, matching the
            // paper's need for several streams to fill a 3.5 MB/s WAN path.
            window_bytes: 65_536.0,
            min_rtt: SimDuration::from_millis(1),
            knee_streams: 66.0,
            overload_center: 55.0,
            overload_width: 40.0,
            overload_max: 0.5,
            turbulence_per_event: 0.5,
            turbulence_tau: SimDuration::from_secs(28),
            steady_overload_frac: 0.05,
            flow_weight_jitter: 0.22,
            setup_base: SimDuration::from_millis(350),
            setup_per_stream: SimDuration::from_millis(45),
            setup_rtts: 3.0,
            ramp_tau: SimDuration::from_secs(2),
            refresh_interval: SimDuration::from_secs(2),
        }
    }
}

impl StreamModel {
    /// Over-subscription severity for `n` total streams on a link: 0 up to
    /// the knee, rising along a logistic toward `overload_max`.
    pub fn severity(&self, n_streams: f64) -> f64 {
        if n_streams <= self.knee_streams {
            return 0.0;
        }
        let x = (n_streams - self.knee_streams - self.overload_center) / self.overload_width;
        self.overload_max / (1.0 + (-x).exp())
    }

    /// Effective capacity multiplier for a link given total streams and the
    /// current turbulence level (`0 ≤ turbulence`, saturating at 1).
    pub fn capacity_factor(&self, n_streams: f64, turbulence: f64) -> f64 {
        let sev = self.severity(n_streams);
        let agitation = self.steady_overload_frac
            + (1.0 - self.steady_overload_frac) * turbulence.clamp(0.0, 1.0);
        (1.0 - sev * agitation).max(0.05)
    }

    /// Per-stream rate cap for a route with the given RTT (window / RTT).
    pub fn per_stream_rate(&self, rtt: SimDuration) -> f64 {
        let rtt = rtt.max(self.min_rtt).as_secs_f64();
        self.window_bytes / rtt
    }

    /// Slow-start multiplier for a flow that activated `age` ago. Floored at
    /// 0.3: TCP moves data from the first RTT, and the fluid model's rates
    /// are only refreshed at discrete instants.
    pub fn ramp_factor(&self, age: SimDuration) -> f64 {
        let tau = self.ramp_tau.as_secs_f64();
        if tau <= 0.0 {
            return 1.0;
        }
        (1.0 - (-age.as_secs_f64() / tau).exp()).max(0.3)
    }

    /// True once a flow's ramp factor is effectively 1.
    pub fn ramp_done(&self, age: SimDuration) -> bool {
        age >= self.ramp_tau * 5
    }

    /// Per-file connection setup time for `streams` parallel streams over a
    /// route with round-trip `rtt`.
    pub fn setup_time(&self, streams: u32, rtt: SimDuration) -> SimDuration {
        self.setup_base + self.setup_per_stream * streams as u64 + rtt.mul_f64(self.setup_rtts)
    }

    /// Turbulence remaining after `dt` of decay from level `t0`.
    pub fn decay_turbulence(&self, t0: f64, dt: SimDuration) -> f64 {
        if t0 == 0.0 {
            return 0.0;
        }
        self.decayed(t0, self.decay_factor(dt))
    }

    /// Share of a turbulence level left after `dt` of decay.
    pub(crate) fn decay_factor(&self, dt: SimDuration) -> f64 {
        let tau = self.turbulence_tau.as_secs_f64();
        if tau <= 0.0 {
            return 0.0;
        }
        (-dt.as_secs_f64() / tau).exp()
    }

    /// Level `t0` scaled by a [`Self::decay_factor`], clipped to zero.
    pub(crate) fn decayed(&self, t0: f64, factor: f64) -> f64 {
        let t = t0 * factor;
        if t < 1e-4 {
            0.0
        } else {
            t
        }
    }

    /// Maximum rate of a flow with `streams` streams at `age` since
    /// activation over a route with round-trip `rtt`, before link sharing.
    pub fn flow_cap(&self, streams: u32, age: SimDuration, rtt: SimDuration) -> f64 {
        streams as f64 * self.per_stream_rate(rtt) * self.ramp_factor(age)
    }
}

/// Per-link dynamic state: stream occupancy and turbulence. 24 bytes, the
/// first part of the engine's one-line link row.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Total streams of flows currently active on this link.
    pub streams: u32,
    /// Current turbulence level (decays exponentially).
    pub turbulence: f64,
    /// When `turbulence` was last brought up to date.
    pub updated_at: SimTime,
    /// High-water mark of concurrent streams (Table IV cross-check).
    pub peak_streams: u32,
}

impl LinkState {
    /// Fresh, idle link state.
    pub fn new() -> Self {
        LinkState {
            streams: 0,
            turbulence: 0.0,
            updated_at: SimTime::ZERO,
            peak_streams: 0,
        }
    }

    /// Decay turbulence up to `now`.
    pub fn settle(&mut self, model: &StreamModel, now: SimTime) {
        self.settle_with(model, now, |dt| model.decay_factor(dt));
    }

    /// [`Self::settle`] with `model.decay_factor(dt)` supplied by `factor` (a memo).
    pub(crate) fn settle_with(
        &mut self,
        model: &StreamModel,
        now: SimTime,
        factor: impl FnOnce(SimDuration) -> f64,
    ) {
        if now > self.updated_at {
            if self.turbulence != 0.0 {
                self.turbulence = model.decayed(self.turbulence, factor(now - self.updated_at));
            }
            self.updated_at = now;
        }
    }

    /// Register a flow joining/leaving with `streams` streams: adjusts the
    /// stream count and injects turbulence proportional to how loaded the
    /// link already is (a churn event on a crowded link is more disruptive).
    pub fn membership_change(&mut self, model: &StreamModel, now: SimTime, delta: i64) {
        self.settle(model, now);
        let new = (self.streams as i64 + delta).max(0) as u32;
        self.streams = new;
        self.peak_streams = self.peak_streams.max(new);
        // A model without turbulence skips the injection: `load` is finite
        // and in [0, 3], so it would add +0.0 to a level that never exceeds
        // the 1.5 clip, which changes no bit.
        if model.turbulence_per_event != 0.0 {
            let load = (self.streams as f64 / model.knee_streams.max(1.0)).min(3.0);
            self.turbulence = (self.turbulence + model.turbulence_per_event * load).min(1.5);
        }
    }
}

impl Default for LinkState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> StreamModel {
        StreamModel::default()
    }

    #[test]
    fn severity_is_zero_below_knee() {
        let m = m();
        assert_eq!(m.severity(0.0), 0.0);
        assert_eq!(m.severity(66.0), 0.0);
        assert!(m.severity(67.0) > 0.0);
    }

    #[test]
    fn severity_increases_with_streams() {
        let m = m();
        let s80 = m.severity(80.0);
        let s110 = m.severity(110.0);
        let s160 = m.severity(160.0);
        let s203 = m.severity(203.0);
        assert!(s80 < s110 && s110 < s160 && s160 < s203);
        assert!(s203 <= m.overload_max);
    }

    #[test]
    fn severity_saturates_at_overload_max() {
        let m = m();
        assert!((m.severity(10_000.0) - m.overload_max).abs() < 1e-3);
    }

    #[test]
    fn capacity_factor_full_when_healthy() {
        let m = m();
        assert_eq!(m.capacity_factor(50.0, 1.0), 1.0);
    }

    #[test]
    fn capacity_factor_depends_on_turbulence() {
        let m = m();
        let calm = m.capacity_factor(160.0, 0.0);
        let turbulent = m.capacity_factor(160.0, 1.0);
        assert!(turbulent < calm, "turbulence should deepen the penalty");
        // Even calm links keep a small steady-state penalty.
        assert!(calm < 1.0);
    }

    #[test]
    fn capacity_factor_floor() {
        let mut m = m();
        m.overload_max = 1.0;
        m.steady_overload_frac = 1.0;
        m.knee_streams = 1.0;
        assert!(m.capacity_factor(10_000.0, 1.0) >= 0.05);
    }

    #[test]
    fn ramp_rises_to_one_with_floor() {
        let m = m();
        assert_eq!(m.ramp_factor(SimDuration::ZERO), 0.3);
        let half = m.ramp_factor(m.ramp_tau);
        assert!((half - 0.632).abs() < 0.01);
        assert!(m.ramp_factor(m.ramp_tau * 10) > 0.999);
        assert!(m.ramp_done(m.ramp_tau * 5));
        assert!(!m.ramp_done(m.ramp_tau * 4));
    }

    #[test]
    fn per_stream_rate_uses_rtt_with_floor() {
        let m = m();
        let wan = m.per_stream_rate(SimDuration::from_millis(40));
        assert!((wan - 65_536.0 / 0.040).abs() < 1.0);
        // Sub-floor RTTs clamp to min_rtt.
        let lan = m.per_stream_rate(SimDuration::from_micros(10));
        assert!((lan - 65_536.0 / 0.001).abs() < 1.0);
    }

    #[test]
    fn setup_time_scales_with_streams_and_rtt() {
        let m = m();
        let rtt = SimDuration::from_millis(40);
        let s4 = m.setup_time(4, rtt);
        let s12 = m.setup_time(12, rtt);
        assert!(s12 > s4);
        assert_eq!(s12 - s4, m.setup_per_stream * 8);
        let far = m.setup_time(4, SimDuration::from_millis(400));
        assert!(far > s4);
    }

    #[test]
    fn turbulence_decays_and_clips_to_zero() {
        let m = m();
        let t = m.decay_turbulence(1.0, m.turbulence_tau);
        assert!((t - 0.3679).abs() < 0.01);
        assert_eq!(
            m.decay_turbulence(1.0, SimDuration::from_secs(100_000)),
            0.0
        );
        assert_eq!(m.decay_turbulence(0.0, SimDuration::from_secs(1)), 0.0);
    }

    #[test]
    fn flow_cap_scales_with_streams() {
        let m = m();
        let age = m.ramp_tau * 20;
        let rtt = SimDuration::from_millis(40);
        let c1 = m.flow_cap(1, age, rtt);
        let c4 = m.flow_cap(4, age, rtt);
        assert!((c4 / c1 - 4.0).abs() < 1e-9);
        assert!((c1 - m.per_stream_rate(rtt)).abs() < 1.0);
    }

    #[test]
    fn link_state_tracks_streams_and_peak() {
        let m = m();
        let mut ls = LinkState::new();
        ls.membership_change(&m, SimTime::from_secs(1), 8);
        ls.membership_change(&m, SimTime::from_secs(2), 4);
        assert_eq!(ls.streams, 12);
        assert_eq!(ls.peak_streams, 12);
        ls.membership_change(&m, SimTime::from_secs(3), -8);
        assert_eq!(ls.streams, 4);
        assert_eq!(ls.peak_streams, 12);
    }

    #[test]
    fn link_state_never_goes_negative() {
        let m = m();
        let mut ls = LinkState::new();
        ls.membership_change(&m, SimTime::from_secs(1), -5);
        assert_eq!(ls.streams, 0);
    }

    #[test]
    fn membership_change_injects_turbulence_proportional_to_load() {
        let m = m();
        let mut light = LinkState::new();
        light.membership_change(&m, SimTime::from_secs(1), 4);
        let mut heavy = LinkState::new();
        heavy.membership_change(&m, SimTime::from_secs(1), 200);
        assert!(heavy.turbulence > light.turbulence);
        assert!(heavy.turbulence <= 1.5);
    }

    #[test]
    fn settle_decays_between_events() {
        let m = m();
        let mut ls = LinkState::new();
        ls.membership_change(&m, SimTime::from_secs(0), 100);
        let t0 = ls.turbulence;
        ls.settle(&m, SimTime::from_secs(200));
        assert!(ls.turbulence < t0 * 0.05);
    }
}
