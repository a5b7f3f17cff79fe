//! Figure definitions: the exact parameter grids of Figures 5–9.
//!
//! Each function returns the figure's series as `(series label, points)`,
//! where a point is `(default streams per transfer, makespan summary)` —
//! the same axes the paper plots.

use crate::experiment::{default_seeds, mb, MontageExperiment, PolicyMode};
use pwm_sim::Summary;

/// Default-streams sweep common to all figures.
pub const DEFAULT_STREAMS: [u32; 5] = [4, 6, 8, 10, 12];
/// The greedy thresholds compared in Figures 6–9.
pub const THRESHOLDS: [u32; 3] = [50, 100, 200];
/// The extra-file sizes of Figure 5 (bytes); 0 = unaugmented.
pub fn fig5_sizes() -> [u64; 5] {
    [0, mb(10), mb(100), mb(500), mb(1000)]
}

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(default streams, makespan seconds)` points.
    pub points: Vec<(u32, Summary)>,
}

/// A whole figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// "Fig. 5" ... "Fig. 9".
    pub name: String,
    /// What the figure shows.
    pub caption: String,
    /// All series.
    pub series: Vec<Series>,
}

/// One series: `mode` swept over [`DEFAULT_STREAMS`], on the workflow
/// clustered by `clustering` (`None` = the paper's unclustered Montage).
fn sweep(extra_bytes: u64, mode: PolicyMode, clustering: Option<u32>, seeds: &[u64]) -> Series {
    let points = DEFAULT_STREAMS
        .iter()
        .map(|&d| {
            let mut exp = MontageExperiment::paper_setup(extra_bytes, d, mode);
            exp.clustering_factor = clustering;
            let (summary, _) = exp.run_seeds(seeds);
            (d, summary)
        })
        .collect();
    Series {
        label: mode.label(),
        points,
    }
}

/// The single no-policy point (the paper plots it at 4 streams/transfer:
/// "the single point for the no-policy case, where default Pegasus runs
/// with 4 streams per transfer").
fn no_policy_point(extra_bytes: u64, seeds: &[u64]) -> Series {
    let exp = MontageExperiment::paper_setup(extra_bytes, 4, PolicyMode::NoPolicy);
    let (summary, _) = exp.run_seeds(seeds);
    Series {
        label: "no-policy".to_string(),
        points: vec![(4, summary)],
    }
}

/// Fig. 5: threshold fixed at 50, extra-file size varied 0 → 1 GB.
pub fn fig5(seeds_per_point: usize) -> Figure {
    let seeds = default_seeds(seeds_per_point);
    let series = fig5_sizes()
        .iter()
        .map(|&bytes| {
            let mut s = sweep(bytes, PolicyMode::Greedy { threshold: 50 }, None, &seeds);
            s.label = if bytes == 0 {
                "no extra data".to_string()
            } else {
                format!("{} MB extra", bytes / 1_000_000)
            };
            s
        })
        .collect();
    Figure {
        name: "Fig. 5".into(),
        caption: "Workflow execution time vs default streams per transfer; greedy \
                  threshold 50; extra staged file size varied"
            .into(),
        series,
    }
}

fn threshold_comparison_figure(name: &str, extra_bytes: u64, seeds_per_point: usize) -> Figure {
    let seeds = default_seeds(seeds_per_point);
    let mut series: Vec<Series> = THRESHOLDS
        .iter()
        .map(|&t| {
            sweep(
                extra_bytes,
                PolicyMode::Greedy { threshold: t },
                None,
                &seeds,
            )
        })
        .collect();
    series.push(no_policy_point(extra_bytes, &seeds));
    Figure {
        name: name.into(),
        caption: format!(
            "Workflow performance with additional {} MB files; greedy thresholds \
             50/100/200 vs default Pegasus (no policy, 4 streams)",
            extra_bytes / 1_000_000
        ),
        series,
    }
}

/// Fig. 6: 10 MB extra files.
pub fn fig6(seeds_per_point: usize) -> Figure {
    threshold_comparison_figure("Fig. 6", mb(10), seeds_per_point)
}

/// Fig. 7: 100 MB extra files.
pub fn fig7(seeds_per_point: usize) -> Figure {
    threshold_comparison_figure("Fig. 7", mb(100), seeds_per_point)
}

/// Fig. 8: 500 MB extra files.
pub fn fig8(seeds_per_point: usize) -> Figure {
    threshold_comparison_figure("Fig. 8", mb(500), seeds_per_point)
}

/// Fig. 9: 1 GB extra files.
pub fn fig9(seeds_per_point: usize) -> Figure {
    threshold_comparison_figure("Fig. 9", mb(1000), seeds_per_point)
}

/// Extension figure (the paper's future work: "much more extensive
/// performance evaluation of ... the balanced allocation"): greedy vs
/// balanced at matched thresholds on the clustered workflow, 100 MB extras.
pub fn fig_balanced(seeds_per_point: usize) -> Figure {
    let seeds = default_seeds(seeds_per_point);
    let cluster_factor = 4;
    let series = [
        PolicyMode::Greedy { threshold: 48 },
        PolicyMode::Balanced {
            threshold: 48,
            cluster_factor,
        },
    ]
    .into_iter()
    .map(|mode| sweep(mb(100), mode, Some(cluster_factor), &seeds))
    .collect();
    Figure {
        name: "Ext. Fig. B".into(),
        caption: "Greedy vs balanced allocation at matched thresholds; clustered \
                  Montage (factor 4), 100 MB extras"
            .into(),
        series,
    }
}

/// Render a figure as CSV (one row per series × x, plotting-ready).
pub fn render_csv(figure: &Figure) -> String {
    let mut out = String::from("figure,series,default_streams,mean_s,stddev_s,n\n");
    for series in &figure.series {
        for (x, s) in &series.points {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{}\n",
                figure.name, series.label, x, s.mean, s.stddev, s.n
            ));
        }
    }
    out
}

/// Render a figure as an aligned text table (series × default streams).
pub fn render(figure: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}: {}\n", figure.name, figure.caption));
    out.push_str(&format!("{:<18}", "series \\ streams"));
    for d in DEFAULT_STREAMS {
        out.push_str(&format!("{:>16}", d));
    }
    out.push('\n');
    for series in &figure.series {
        out.push_str(&format!("{:<18}", series.label));
        let mut by_x: std::collections::BTreeMap<u32, &Summary> = Default::default();
        for (x, s) in &series.points {
            by_x.insert(*x, s);
        }
        for d in DEFAULT_STREAMS {
            match by_x.get(&d) {
                Some(s) => out.push_str(&format!("{:>9.0}±{:<6.0}", s.mean, s.stddev)),
                None => out.push_str(&format!("{:>16}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Look up a series point (for shape assertions).
pub fn point(figure: &Figure, label: &str, streams: u32) -> Option<Summary> {
    figure
        .series
        .iter()
        .find(|s| s.label == label)?
        .points
        .iter()
        .find(|(x, _)| *x == streams)
        .map(|(_, s)| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_has_three_thresholds_and_no_policy() {
        // 1 seed to keep unit tests quick; integration tests use more.
        let f = fig6(1);
        assert_eq!(f.series.len(), 4);
        let labels: Vec<&str> = f.series.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"greedy-50"));
        assert!(labels.contains(&"no-policy"));
        // Threshold series sweep all 5 stream counts; no-policy is a point.
        assert_eq!(f.series[0].points.len(), 5);
        assert_eq!(f.series[3].points.len(), 1);
    }

    #[test]
    fn render_contains_all_series() {
        let f = fig6(1);
        let text = render(&f);
        for s in &f.series {
            assert!(text.contains(&s.label));
        }
    }

    #[test]
    fn point_lookup_works() {
        let f = fig6(1);
        assert!(point(&f, "greedy-50", 8).is_some());
        assert!(point(&f, "greedy-50", 99).is_none());
        assert!(point(&f, "nonexistent", 8).is_none());
        assert!(point(&f, "no-policy", 4).is_some());
    }
}
