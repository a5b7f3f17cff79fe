//! Bench + regeneration of Figures 5–9.
//!
//! `cargo bench --bench figures` prints each figure's regenerated series
//! (mean ± stddev per point, `REPRO_SEEDS` seeds per point, default 2 for
//! bench runs; the `repro` binary uses 5) and times one representative
//! simulation run per figure. To regenerate a single figure, use
//! `repro figN`.

use criterion::{criterion_group, criterion_main, Criterion};
use pwm_bench::{
    fig5, fig6, fig7, fig8, fig9, mb, render_figure, Figure, MontageExperiment, PolicyMode,
};
use std::hint::black_box;

type FigureFn = fn(usize) -> Figure;

/// Figure, its generator, and the extra-file size (MB) of its timed point:
/// Fig. 5 sweeps sizes and is timed at 100 MB; Figs. 6–9 at their own size.
const FIGURES: [(&str, FigureFn, u64); 5] = [
    ("fig5", fig5, 100),
    ("fig6", fig6, 10),
    ("fig7", fig7, 100),
    ("fig8", fig8, 500),
    ("fig9", fig9, 1000),
];

fn bench_figures(c: &mut Criterion) {
    let seeds = std::env::var("REPRO_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    for (name, figure, extra_mb) in FIGURES {
        println!("{}", render_figure(&figure(seeds)));

        // Time one representative point of the figure.
        let exp =
            MontageExperiment::paper_setup(mb(extra_mb), 8, PolicyMode::Greedy { threshold: 50 });
        c.bench_function(format!("{name}/greedy50_8streams_one_run"), |b| {
            b.iter(|| black_box(exp.run_once(1)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_figures
}
criterion_main!(benches);
