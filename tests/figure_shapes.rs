//! Shape assertions for the paper's figures: who wins, by roughly what
//! factor, and where the effects vanish. These are the reproduction
//! contract — absolute seconds are simulator-specific, orderings are not.
//!
//! Kept to two seeds and the @8-streams cut of each figure so the suite
//! stays minutes, not hours; the `repro` binary regenerates the full grids.

use pwm_bench::{mb, MontageExperiment, PolicyMode};

fn makespan(extra: u64, streams: u32, mode: PolicyMode) -> f64 {
    let exp = MontageExperiment::paper_setup(extra, streams, mode);
    let (summary, _) = exp.run_seeds(&[1, 2]);
    summary.mean
}

/// Fig. 7 (100 MB): threshold 50 beats no-policy; threshold 200 is much
/// worse than 50 ("28.8% worse" in the paper; we require > 12%).
#[test]
fn fig7_shape_100mb() {
    let g50 = makespan(mb(100), 8, PolicyMode::Greedy { threshold: 50 });
    let g200 = makespan(mb(100), 8, PolicyMode::Greedy { threshold: 200 });
    let np = makespan(mb(100), 4, PolicyMode::NoPolicy);
    assert!(
        g50 < np,
        "greedy-50 ({g50:.0}s) must beat no-policy ({np:.0}s) at 100 MB"
    );
    assert!(
        np < g50 * 1.12,
        "no-policy should trail by a modest margin, not {:.1}%",
        (np / g50 - 1.0) * 100.0
    );
    assert!(
        g200 > g50 * 1.12,
        "greedy-200 ({g200:.0}s) must be substantially worse than greedy-50 ({g50:.0}s)"
    );
}

/// Fig. 8 (500 MB): thresholds 50 and 100 both beat no-policy; 200 degrades
/// at high stream defaults. The no-policy gap is pinned from both sides: the
/// paper has 14 %, this stream model 2.5 % (EXPERIMENTS.md, Deviation 1).
#[test]
fn fig8_shape_500mb() {
    let g50 = makespan(mb(500), 8, PolicyMode::Greedy { threshold: 50 });
    let g100 = makespan(mb(500), 8, PolicyMode::Greedy { threshold: 100 });
    let np = makespan(mb(500), 4, PolicyMode::NoPolicy);
    let g200_high = makespan(mb(500), 12, PolicyMode::Greedy { threshold: 200 });
    assert!(g50 < np, "greedy-50 must beat no-policy at 500 MB");
    assert!(
        np < g50 * 1.06,
        "no-policy trails greedy-50 by {:.1}% at 500 MB. EXPERIMENTS.md Deviation 1 records \
         2.5% (the paper: 14%) and names the cause: a single-knee, partly churn-gated \
         over-subscription penalty. If a calibration of that penalty widened the gap on \
         purpose, update Deviation 1 with the new figure, move this bound, and regenerate \
         the committed sim-time results once; otherwise the stream model moved by accident.",
        (np / g50 - 1.0) * 100.0
    );
    assert!(
        g100 < np * 1.04,
        "greedy-100 ({g100:.0}s) should stay competitive with no-policy ({np:.0}s)"
    );
    assert!(
        g200_high > g50 * 1.08,
        "greedy-200 at 12 streams ({g200_high:.0}s) must degrade vs greedy-50 ({g50:.0}s)"
    );
}

/// Fig. 9 (1 GB): "no clear advantage to using any of the greedy threshold
/// values over the default Pegasus performance" — everything within a
/// narrow band.
#[test]
fn fig9_shape_1gb() {
    let g50 = makespan(mb(1000), 8, PolicyMode::Greedy { threshold: 50 });
    let g100 = makespan(mb(1000), 8, PolicyMode::Greedy { threshold: 100 });
    let np = makespan(mb(1000), 4, PolicyMode::NoPolicy);
    for (label, v) in [("greedy-100", g100), ("no-policy", np)] {
        let gap = (v / g50 - 1.0).abs();
        assert!(
            gap < 0.06,
            "{label} differs from greedy-50 by {:.1}% at 1 GB; the paper finds no clear winner",
            gap * 100.0
        );
    }
}

/// Fig. 6 (10 MB): "not much difference in the behavior" — policy vs
/// no-policy within a few percent.
#[test]
fn fig6_shape_10mb() {
    let g50 = makespan(mb(10), 8, PolicyMode::Greedy { threshold: 50 });
    let np = makespan(mb(10), 4, PolicyMode::NoPolicy);
    let gap = (g50 / np - 1.0).abs();
    assert!(
        gap < 0.08,
        "10 MB extras: policy and no-policy should be close (gap {:.1}%)",
        gap * 100.0
    );
}

/// Fig. 5's two claims: execution time rises strongly with extra-file size
/// beyond 100 MB, and the default-streams setting has little impact when
/// the threshold caps total streams at 50.
#[test]
fn fig5_shape_size_dominates_streams() {
    let sizes = [0u64, mb(10), mb(100), mb(500)];
    let mut last = 0.0;
    for &size in &sizes {
        let m = makespan(size, 8, PolicyMode::Greedy { threshold: 50 });
        assert!(
            m > last,
            "makespan must grow with extra-file size ({size} bytes → {m:.0}s ≤ {last:.0}s)"
        );
        last = m;
    }
    // 500 MB ≫ 10 MB: the "significant effect ... for file sizes over 100
    // Megabytes".
    let m10 = makespan(mb(10), 8, PolicyMode::Greedy { threshold: 50 });
    let m500 = makespan(mb(500), 8, PolicyMode::Greedy { threshold: 50 });
    assert!(m500 > m10 * 10.0);

    // Default streams 4 vs 12 at threshold 50: small impact ("increasing
    // the default number of streams per transfer has relatively little
    // impact on performance").
    let s4 = makespan(mb(100), 4, PolicyMode::Greedy { threshold: 50 });
    let s12 = makespan(mb(100), 12, PolicyMode::Greedy { threshold: 50 });
    let gap = (s12 / s4 - 1.0).abs();
    assert!(
        gap < 0.06,
        "default streams should barely matter at threshold 50 (gap {:.1}%)",
        gap * 100.0
    );
}

/// Table IV, simulated: the peak concurrent streams observed on the WAN
/// never exceed the paper's allocation bound for the configuration.
#[test]
fn table4_bounds_hold_in_simulation() {
    for (threshold, default, bound) in [(50, 8, 63), (50, 12, 65), (100, 10, 110)] {
        let exp = MontageExperiment::paper_setup(mb(10), default, PolicyMode::Greedy { threshold });
        let stats = exp.run_once(1);
        let peak = stats.peak_wan_streams.unwrap();
        assert!(
            peak <= bound,
            "threshold {threshold}, default {default}: WAN peak {peak} > Table IV bound {bound}"
        );
    }
}
