//! Overhead of the observability layer on the MapReduce engine.
//!
//! The design contract of `ipso-obs` is that disabled instrumentation
//! costs one thread-local load per touch point. This bench measures
//! the engine with tracing off and on, measures the disabled check
//! itself, and **asserts** that the disabled-mode instrumentation cost
//! stays below 5% of the engine's runtime.
//!
//! It also prints, without a gate, what a traced Sort and WordCount
//! sweep pays per recorded event: to record it (`record_span` and
//! `record_instant`), to snapshot it (`snapshot_events`) and to export
//! it (`export_chrome_trace`).
//!
//! ```text
//! cargo bench -p ipso-bench --bench obs_overhead
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use ipso_obs::SpanKind;
use ipso_workloads::{sort, wordcount};

/// Wall-clock time each of the tracing-off and tracing-on timings runs.
const BUDGET: Duration = Duration::from_millis(200);

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

/// Runs `f` for [`BUDGET`]; returns its mean time per run in ns and
/// the number of runs.
fn mean_ns(mut f: impl FnMut()) -> (f64, u64) {
    let start = Instant::now();
    let mut runs = 0u64;
    while start.elapsed() < BUDGET {
        f();
        runs += 1;
    }
    (start.elapsed().as_secs_f64() * 1e9 / runs as f64, runs)
}

/// Runs `f` for [`BUDGET`] and prints its mean time per run.
fn time_runs(name: &str, f: impl FnMut()) {
    let (mean_ns, runs) = mean_ns(f);
    println!("bench {name:<40} {mean_ns:>12.1} ns/iter ({runs} iters)");
}

/// Scale-out degrees of the traced sweep.
const SWEEP_NS: [u32; 3] = [8, 32, 128];

/// Sort and WordCount over [`SWEEP_NS`], each point run scaled out and
/// sequentially: the MapReduce half of perfbench's `trace_export`.
fn sweep() {
    black_box(sort::sweep(&SWEEP_NS));
    black_box(wordcount::sweep(&SWEEP_NS));
}

/// Prints the traced sweep's record, snapshot and export costs per
/// event. Recording is timed by replaying the sweep's events into the
/// recorder, labels cloned as the engines hand them over (a borrowed
/// label for free, a built one by copy): against the sweep itself, the
/// recorder's share is below the host's run-to-run noise.
fn print_per_event_costs() {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    sweep();
    let events = ipso_obs::take_events();
    let (record, _) = mean_ns(|| {
        ipso_obs::reset();
        for e in &events {
            let (track, name) = (e.track.clone(), e.name.clone());
            match e.kind {
                SpanKind::Complete { start, end } => {
                    ipso_obs::record_span(track, name, e.cat, start, end);
                }
                SpanKind::Instant { at } => ipso_obs::record_instant(track, name, e.cat, at),
            }
        }
    });
    let (snapshot, _) = mean_ns(|| {
        black_box(ipso_obs::snapshot_events());
    });
    let (export, _) = mean_ns(|| {
        black_box(ipso_obs::export_chrome_trace(black_box(&events)));
    });
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    let per_event = |ns: f64| ns / events.len() as f64;
    println!(
        "obs per event: {} events per traced sweep; record {:.1} ns, snapshot {:.1} ns, export {:.1} ns",
        events.len(),
        per_event(record),
        per_event(snapshot),
        per_event(export),
    );
}

fn time_disabled_vs_enabled() {
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    time_runs("mapreduce_sort_n16_tracing_off", run_once);

    ipso_obs::set_enabled(true);
    time_runs("mapreduce_sort_n16_tracing_on", || {
        ipso_obs::reset();
        run_once()
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

fn assert_disabled_overhead_below_5_percent() {
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

fn main() {
    // `cargo test --benches` passes libtest-style flags; they are
    // ignored, and the budget is asserted either way.
    time_disabled_vs_enabled();
    print_per_event_costs();
    assert_disabled_overhead_below_5_percent();
}
