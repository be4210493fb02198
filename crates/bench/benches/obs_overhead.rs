//! Overhead of the observability layer on the MapReduce engine.
//!
//! The design contract of `ipso-obs` is that disabled instrumentation
//! costs one thread-local load per touch point. This bench measures
//! the engine with tracing off and on, measures the disabled check
//! itself, and **asserts** that the disabled-mode instrumentation cost
//! stays below 5% of the engine's runtime.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipso_workloads::sort;

fn run_once() {
    let spec = sort::job_spec(16);
    let splits = sort::make_splits(16, 1);
    black_box(
        ipso_mapreduce::try_run_scale_out(
            black_box(&spec),
            &sort::SortMapper,
            &sort::SortReducer,
            black_box(&splits),
        )
        .expect("fault-free run"),
    );
}

fn bench_disabled_vs_enabled(c: &mut Criterion) {
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    c.bench_function("mapreduce_sort_n16_tracing_off", |b| b.iter(run_once));

    ipso_obs::set_enabled(true);
    c.bench_function("mapreduce_sort_n16_tracing_on", |b| {
        b.iter(|| {
            ipso_obs::reset();
            run_once()
        })
    });
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
}

/// Counts how many times the engine touches the observability layer in
/// one fully-enabled run: every recorded span, instant, counter
/// increment, gauge write and histogram sample corresponds to at most
/// one `ipso_obs::enabled()` check on the disabled path (guard blocks
/// cover several recordings with a single check, so this over-counts).
fn count_touch_points() -> u64 {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    run_once();
    let events = ipso_obs::take_events().len() as u64;
    let snap = ipso_obs::snapshot();
    // A count-style counter's value equals its number of increments; a
    // `*_bytes` counter's value is a byte total, and its increments are
    // paired 1:1 with a sibling count counter under the same guard.
    let counters: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| !name.ends_with("_bytes"))
        .map(|(_, v)| v)
        .sum();
    let gauges = snap.gauges.len() as u64;
    let samples: u64 = snap.histograms.values().map(|h| h.count).sum();
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    events + counters + gauges + samples
}

fn assert_disabled_overhead_below_5_percent(c: &mut Criterion) {
    // Engine runtime with tracing disabled.
    ipso_obs::set_enabled(false);
    let runs = 20u32;
    let start = Instant::now();
    for _ in 0..runs {
        run_once();
    }
    let per_run = start.elapsed().as_secs_f64() / f64::from(runs);

    // Cost of one disabled check, measured in a tight loop.
    let checks = 4_000_000u64;
    let start = Instant::now();
    for _ in 0..checks {
        black_box(ipso_obs::enabled());
    }
    let per_check = start.elapsed().as_secs_f64() / checks as f64;

    let touches = count_touch_points();
    let disabled_cost = touches as f64 * per_check;
    let share = disabled_cost / per_run;
    c.bench_function("obs_disabled_check", |b| {
        b.iter(|| black_box(ipso_obs::enabled()))
    });
    println!(
        "obs overhead: {touches} touch points x {:.2} ns/check = {:.3} us \
         over a {:.3} ms run = {:.4}% (budget 5%)",
        per_check * 1e9,
        disabled_cost * 1e6,
        per_run * 1e3,
        share * 100.0
    );
    assert!(
        share < 0.05,
        "disabled instrumentation costs {:.2}% of the engine runtime (budget 5%)",
        share * 100.0
    );
}

criterion_group!(
    benches,
    bench_disabled_vs_enabled,
    assert_disabled_overhead_below_5_percent
);
criterion_main!(benches);
