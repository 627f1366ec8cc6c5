//! Criterion microbenchmarks of the analysis kernels on
//! campaign-shaped data.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn noisy_piecewise_data(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| {
            let base = if x < n as f64 / 2.0 { 2.0 * x } else { n as f64 + 5.0 * x };
            base + ((x * 12.9898).sin() * 43758.5453).fract()
        })
        .collect();
    (xs, ys)
}

fn regression(c: &mut Criterion) {
    let (xs, ys) = noisy_piecewise_data(1000);
    c.bench_function("ols_1k", |b| {
        b.iter(|| black_box(charm_analysis::regression::ols(&xs, &ys).unwrap()))
    });
}

fn segmentation(c: &mut Criterion) {
    let (xs, ys) = noisy_piecewise_data(200);
    c.bench_function("free_segmentation_200", |b| {
        b.iter(|| {
            black_box(
                charm_analysis::segmented::segment(
                    &xs,
                    &ys,
                    &charm_analysis::segmented::SegmentConfig::default(),
                )
                .unwrap(),
            )
        })
    });
}

fn loess(c: &mut Criterion) {
    let (xs, ys) = noisy_piecewise_data(500);
    c.bench_function("loess_500", |b| {
        b.iter(|| {
            black_box(
                charm_analysis::loess::loess(
                    &xs,
                    &ys,
                    &xs,
                    &charm_analysis::loess::LoessConfig::default(),
                )
                .unwrap(),
            )
        })
    });
}

/// Figure 8's shape: one stride's 30 sizes × 42 replicates, smoothed at
/// span 0.4 with one robustness iteration and evaluated at the 30 sizes.
fn loess_fig08_shape(c: &mut Criterion) {
    let sizes: Vec<f64> = (1..=30).map(|kb| (kb * 1024) as f64).collect();
    let xs: Vec<f64> = (0..42).flat_map(|_| sizes.iter().copied()).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            9000.0 - 0.1 * x + 3000.0 * ((i as f64 * 12.9898).sin() * 43758.5453).fract()
        })
        .collect();
    let config = charm_analysis::loess::LoessConfig { span: 0.4, robustness_iters: 1 };
    let mut g = c.benchmark_group("loess");
    g.bench_function("fig08_shape", |b| {
        b.iter(|| black_box(charm_analysis::loess::loess(&xs, &ys, &sizes, &config).unwrap()))
    });
    g.finish();
}

/// The fleet report's shape: 120 paired cells of 20 vs 20 samples,
/// 1000 bootstrap replicates each (one metric of the report).
fn speedup_fleet(c: &mut Criterion) {
    use charm_analysis::speedup::{compare_cells, Direction, PairedCell, SpeedupConfig};
    let sample = |cell: usize, side: f64| -> Vec<f64> {
        (0..20).map(|i| 100.0 + side + ((cell * 20 + i) as f64 * 0.7).sin().abs() * 10.0).collect()
    };
    let cells: Vec<PairedCell> = (0..120)
        .map(|k| PairedCell {
            name: format!("size={}", 64 * (k + 1)),
            baseline: sample(k, 0.0),
            candidate: sample(k, 2.0),
        })
        .collect();
    let cfg = SpeedupConfig::default();
    let mut g = c.benchmark_group("speedup");
    g.sample_size(10);
    g.bench_function("fleet", |b| {
        b.iter(|| black_box(compare_cells(&cells, Direction::LowerIsBetter, &cfg).unwrap()))
    });
    g.finish();
}

fn modes(c: &mut Criterion) {
    let vals: Vec<f64> =
        (0..2000).map(|i| if i % 5 == 0 { 300.0 } else { 1500.0 } + (i % 13) as f64).collect();
    c.bench_function("two_means_2k", |b| {
        b.iter(|| black_box(charm_analysis::modes::two_means(&vals).unwrap()))
    });
}

criterion_group!(benches, regression, segmentation, loess, loess_fig08_shape, speedup_fleet, modes);
criterion_main!(benches);
