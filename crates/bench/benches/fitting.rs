//! Criterion micro-benchmarks of the regression substrate — the fitting
//! cost bounds how fast the measurement-based provisioning loop the paper
//! proposes could run online.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipso_fit::{fit_line, fit_power_law, fit_two_segment, levenberg_marquardt, NonlinearOptions};

fn data(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (1..=n).map(|v| v as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| 0.36 * x - 0.11 + 0.01 * (x * 12.9898).sin())
        .collect();
    (xs, ys)
}

fn bench_linear(c: &mut Criterion) {
    let (xs, ys) = data(64);
    c.bench_function("fit_line_64", |b| {
        b.iter(|| fit_line(black_box(&xs), black_box(&ys)).expect("fits"))
    });
}

fn bench_power_law(c: &mut Criterion) {
    let xs: Vec<f64> = (1..=64).map(|v| v as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 0.0061 * x * x).collect();
    c.bench_function("fit_power_law_64", |b| {
        b.iter(|| fit_power_law(black_box(&xs), black_box(&ys)).expect("fits"))
    });
}

fn bench_segmented(c: &mut Criterion) {
    let xs: Vec<f64> = (1..=64).map(|v| v as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| {
            if x <= 15.0 {
                0.15 * x + 0.85
            } else {
                0.25 * x + 1.5
            }
        })
        .collect();
    c.bench_function("fit_two_segment_64", |b| {
        b.iter(|| fit_two_segment(black_box(&xs), black_box(&ys), 3).expect("fits"))
    });
}

fn bench_levenberg_marquardt(c: &mut Criterion) {
    let xs = [10.0, 30.0, 60.0, 90.0];
    let ys: Vec<f64> = xs.iter().map(|&n| 1800.0 / n + 12.0).collect();
    c.bench_function("lm_hyperbola_4pt", |b| {
        b.iter(|| {
            levenberg_marquardt(
                |p, n| p[0] / n + p[1],
                black_box(&xs),
                black_box(&ys),
                &[1000.0, 0.0],
                &NonlinearOptions::default(),
            )
            .expect("converges")
        })
    });
}

criterion_group!(
    benches,
    bench_linear,
    bench_power_law,
    bench_segmented,
    bench_levenberg_marquardt
);
criterion_main!(benches);
