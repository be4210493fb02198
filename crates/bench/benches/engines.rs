//! Criterion benchmarks of the full engines plus a regression harness.
//!
//! Two layers share this binary (`harness = false`):
//!
//! 1. Criterion-style benches of one MapReduce job (map + shuffle +
//!    merge + reduce with real record processing), one Spark job (stage
//!    DAG with broadcast and shuffles) and an end-to-end scaling sweep.
//! 2. A regression harness that times the seed's ordered-map data path
//!    ([`ipso_bench::reference`], the `btree_seq` rows) against the
//!    engine's (`sortmerge_seq`) in alternating rounds, plus one QMC-Pi
//!    scale-out data path (the Halton kernel) — and writes the
//!    wall-clock samples with their median and IQR, and each workload's
//!    per-round speedup ratios with their median and IQR, to
//!    `BENCH_engines.json` at the repository root so CI can assert the
//!    optimised data path never regresses.

use criterion::{black_box, criterion_group, Criterion};
use ipso_bench::{reference, SweepRunner};
use ipso_mapreduce::{Mapper, OutputScaling, Reducer};
use ipso_spark::try_run_job;
use ipso_workloads::{bayes, qmc, sort, terasort, wordcount};
use serde::Serialize;
use std::time::{Duration, Instant};

/// The seed's WordCount mapper, kept verbatim as the regression
/// baseline: every token allocates a fresh `String` key.
/// Run through [`reference::run`] this is exactly the pre-optimization
/// data path.
struct SeedWordCountMapper;

impl Mapper for SeedWordCountMapper {
    type Input = String;
    type Key = String;
    type Value = u64;

    fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in line.split_whitespace() {
            emit(word.to_string(), 1);
        }
    }

    fn combine(&self, _key: &String, values: &mut Vec<u64>) {
        let sum = values.iter().sum();
        values.clear();
        values.push(sum);
    }

    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Saturating
    }
}

struct SeedWordCountReducer;

impl Reducer for SeedWordCountReducer {
    type Key = String;
    type Value = u64;
    type Output = (String, u64);

    fn reduce(&self, key: String, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
        emit((key, values.iter().sum()));
    }
}

/// Where the regression record lands: the workspace root, NOT
/// `results/` (CI checks `git diff --exit-code results/`, and bench
/// timings are host-dependent by nature).
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engines.json");

/// The number of map tasks the regression harness pins for the
/// MapReduce workloads (the acceptance point for the speedup targets).
const MAP_TASKS: u32 = 8;

/// The seeded inputs the WordCount row rotates through, 256 distinct
/// splits in all. Timing one input over and over lets the branch
/// predictor learn its text, which a sweep never maps twice.
const WORDCOUNT_INPUTS: u64 = 32;

/// Returns `inputs` one per call, in turn.
fn cycle<'a, T>(inputs: &'a [T]) -> impl FnMut() -> &'a T {
    let mut i = 0;
    move || {
        i = (i + 1) % inputs.len();
        &inputs[i]
    }
}

#[derive(Debug, Serialize)]
struct BenchRecord {
    name: String,
    engine: &'static str,
    workload: &'static str,
    config: &'static str,
    /// Mean of the per-sample ns per iteration.
    mean_ns: f64,
    /// Median of the per-sample ns per iteration.
    median_ns: f64,
    /// Interquartile range of the per-sample ns per iteration.
    iqr_ns: f64,
    /// Every sample's ns per iteration, in the order taken.
    samples_ns: Vec<f64>,
    /// Iterations over all samples.
    iters: u64,
}

#[derive(Debug, Serialize)]
struct SpeedupRecord {
    engine: &'static str,
    workload: &'static str,
    baseline: &'static str,
    optimized: &'static str,
    /// Median of the per-round ratios.
    ratio: f64,
    /// Interquartile range of the per-round ratios.
    ratio_iqr: f64,
    /// Each round's baseline ns per iteration over its optimized ns per
    /// iteration, both timed back to back.
    ratios: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: &'static str,
    map_tasks: u32,
    host_threads: usize,
    benches: Vec<BenchRecord>,
    speedups: Vec<SpeedupRecord>,
}

/// Independent timing samples per unpaired bench.
const SAMPLES: usize = 7;
/// Rounds of a paired bench: each times one batch of either side.
const ROUNDS: usize = 15;
/// Wall-clock time one batch aims for.
const SAMPLE_TIME: Duration = Duration::from_millis(90);

/// The timing fields of one [`BenchRecord`].
struct Timing {
    mean_ns: f64,
    median_ns: f64,
    iqr_ns: f64,
    samples_ns: Vec<f64>,
    iters: u64,
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly
/// between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median and interquartile range of `values`.
fn median_iqr(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
    )
}

/// Sizes a batch of `f` to fill one [`SAMPLE_TIME`]: a warm-up doubles
/// the batch until one batch takes a quarter of it.
fn calibrate<T>(f: &mut impl FnMut() -> T) -> u64 {
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE_TIME / 4 || batch >= 1 << 20 {
            let scale = SAMPLE_TIME.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            return ((batch as f64 * scale).ceil() as u64).max(1);
        }
        batch *= 2;
    }
}

/// Times one batch of `f`, in ns per iteration.
fn time_batch<T>(f: &mut impl FnMut() -> T, batch: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / batch as f64
}

/// The record fields of `samples_ns`, each a batch of `batch` iterations.
fn timing(samples_ns: Vec<f64>, batch: u64) -> Timing {
    let (median_ns, iqr_ns) = median_iqr(&samples_ns);
    Timing {
        mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
        median_ns,
        iqr_ns,
        iters: batch * samples_ns.len() as u64,
        samples_ns,
    }
}

/// Times `f` in [`SAMPLES`] independent batches.
fn measure<T>(mut f: impl FnMut() -> T) -> Timing {
    let batch = calibrate(&mut f);
    let samples = (0..SAMPLES).map(|_| time_batch(&mut f, batch)).collect();
    timing(samples, batch)
}

/// Times `base` and `opt` in [`ROUNDS`] rounds of one batch each, back
/// to back, and returns both timings and each round's ratio of the
/// baseline's time to the optimized one's. A host that slows down for
/// a while slows both sides of the rounds it hits, so the ratios
/// spread far less than the times do.
fn measure_pair<A, B>(
    mut base: impl FnMut() -> A,
    mut opt: impl FnMut() -> B,
) -> (Timing, Timing, Vec<f64>) {
    let (base_batch, opt_batch) = (calibrate(&mut base), calibrate(&mut opt));
    let mut base_ns = Vec::with_capacity(ROUNDS);
    let mut opt_ns = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate which side goes first, so that neither always runs
        // on the cache state or clock speed the other left behind.
        if round % 2 == 0 {
            base_ns.push(time_batch(&mut base, base_batch));
            opt_ns.push(time_batch(&mut opt, opt_batch));
        } else {
            opt_ns.push(time_batch(&mut opt, opt_batch));
            base_ns.push(time_batch(&mut base, base_batch));
        }
    }
    let ratios = base_ns.iter().zip(&opt_ns).map(|(b, o)| b / o).collect();
    (
        timing(base_ns, base_batch),
        timing(opt_ns, opt_batch),
        ratios,
    )
}

/// Prints one bench's timing and wraps it in its record.
fn record(
    engine: &'static str,
    workload: &'static str,
    config: &'static str,
    t: Timing,
) -> BenchRecord {
    let name = format!("{engine}_{workload}_n{MAP_TASKS}_{config}");
    println!(
        "bench {name:<40} {:>12.1} ns/iter median, IQR {:.1} ({} samples, {} iters)",
        t.median_ns,
        t.iqr_ns,
        t.samples_ns.len(),
        t.iters
    );
    BenchRecord {
        name,
        engine,
        workload,
        config,
        mean_ns: t.mean_ns,
        median_ns: t.median_ns,
        iqr_ns: t.iqr_ns,
        samples_ns: t.samples_ns,
        iters: t.iters,
    }
}

/// Times the reference data path (`btree_seq`) against the engine
/// (`sortmerge_seq`) in paired rounds, records both and their speedup.
fn paired<A, B>(
    workload: &'static str,
    base: impl FnMut() -> A,
    opt: impl FnMut() -> B,
    records: &mut Vec<BenchRecord>,
    speedups: &mut Vec<SpeedupRecord>,
) {
    let (base, opt, ratios) = measure_pair(base, opt);
    records.push(record("mapreduce", workload, "btree_seq", base));
    records.push(record("mapreduce", workload, "sortmerge_seq", opt));
    let (ratio, ratio_iqr) = median_iqr(&ratios);
    speedups.push(SpeedupRecord {
        engine: "mapreduce",
        workload,
        baseline: "btree_seq",
        optimized: "sortmerge_seq",
        ratio,
        ratio_iqr,
        ratios,
    });
}

fn bench_regression_grid() -> (Vec<BenchRecord>, Vec<SpeedupRecord>) {
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    // MapReduce: sort, wordcount and terasort at MAP_TASKS map tasks, the
    // seed's data path against the engine's.
    let spec = sort::job_spec(MAP_TASKS);
    let splits = sort::make_splits(MAP_TASKS, 1);
    paired(
        "sort",
        || reference::run(&sort::SortMapper, &sort::SortReducer, &splits),
        || {
            ipso_mapreduce::try_run_scale_out(&spec, &sort::SortMapper, &sort::SortReducer, &splits)
                .expect("fault-free run")
        },
        &mut records,
        &mut speedups,
    );

    // The baseline pairs the reference data path with the seed's
    // allocating mapper — the true pre-optimization path; the engine
    // runs the shipping rank-keyed mapper. Both sides rotate through
    // WORDCOUNT_INPUTS seeded inputs, as a sweep maps distinct text.
    let spec = wordcount::job_spec(MAP_TASKS);
    let inputs: Vec<_> = (1..=WORDCOUNT_INPUTS)
        .map(|seed| wordcount::make_splits(MAP_TASKS, seed))
        .collect();
    let (mut base_input, mut opt_input) = (cycle(&inputs), cycle(&inputs));
    let mapper = wordcount::WordCountMapper::new();
    paired(
        "wordcount",
        || reference::run(&SeedWordCountMapper, &SeedWordCountReducer, base_input()),
        || {
            let splits = opt_input();
            ipso_mapreduce::try_run_scale_out(&spec, &mapper, &wordcount::WordCountReducer, splits)
                .expect("fault-free run")
        },
        &mut records,
        &mut speedups,
    );

    // TeraSort's own sorts against the reference's per-record map and
    // ordered-map grouping.
    let spec = terasort::job_spec(MAP_TASKS);
    let splits = terasort::make_splits(MAP_TASKS, 1);
    paired(
        "terasort",
        || {
            reference::run(
                &terasort::TeraSortMapper,
                &terasort::TeraSortReducer,
                &splits,
            )
        },
        || {
            ipso_mapreduce::try_run_scale_out(
                &spec,
                &terasort::TeraSortMapper,
                &terasort::TeraSortReducer,
                &splits,
            )
            .expect("fault-free run")
        },
        &mut records,
        &mut speedups,
    );

    // QMC-Pi: one scale-out data path. Its cost is the Halton kernel,
    // which the reference path shares, so it has no baseline and no
    // speedup ratio.
    let spec = qmc::job_spec(MAP_TASKS);
    let splits = qmc::make_splits(MAP_TASKS);
    let timing = measure(|| {
        ipso_mapreduce::try_run_scale_out(&spec, &qmc::QmcMapper, &qmc::QmcReducer, &splits)
            .expect("fault-free run")
    });
    records.push(record("mapreduce", "qmc", "sortmerge_seq", timing));
    (records, speedups)
}

fn run_regression_harness() {
    let (benches, speedups) = bench_regression_grid();
    let report = BenchReport {
        schema: "ipso-bench-engines/v2",
        map_tasks: MAP_TASKS,
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        benches,
        speedups,
    };
    for s in &report.speedups {
        println!(
            "speedup {}/{}: {} -> {}: {:.2}x (IQR {:.3})",
            s.engine, s.workload, s.baseline, s.optimized, s.ratio, s.ratio_iqr
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(REPORT_PATH, json + "\n").expect("write BENCH_engines.json");
    println!("wrote {REPORT_PATH}");
}

fn bench_mapreduce_jobs(c: &mut Criterion) {
    let splits = sort::make_splits(16, 1);
    let spec = sort::job_spec(16);
    c.bench_function("mapreduce_sort_n16", |b| {
        b.iter(|| {
            ipso_mapreduce::try_run_scale_out(
                black_box(&spec),
                &sort::SortMapper,
                &sort::SortReducer,
                black_box(&splits),
            )
            .expect("fault-free run")
        })
    });

    let wc_splits = wordcount::make_splits(8, 1);
    let wc_spec = wordcount::job_spec(8);
    let mapper = wordcount::WordCountMapper::new();
    c.bench_function("mapreduce_wordcount_n8", |b| {
        b.iter(|| {
            ipso_mapreduce::try_run_scale_out(
                black_box(&wc_spec),
                &mapper,
                &wordcount::WordCountReducer,
                black_box(&wc_splits),
            )
            .expect("fault-free run")
        })
    });
}

fn bench_spark_job(c: &mut Criterion) {
    let job = bayes::job(256, 64);
    c.bench_function("spark_bayes_n256_m64", |b| {
        b.iter(|| try_run_job(black_box(&job)).expect("fault-free run"))
    });
}

fn bench_full_sweep(c: &mut Criterion) {
    c.bench_function("sort_sweep_to_n16", |b| {
        b.iter(|| sort::sweep(black_box(&[1, 2, 4, 8, 16])))
    });

    // The same sweep decomposed into per-n grid points through the
    // deterministic runner: jobs = 1 measures the runner's overhead over
    // the plain loop, jobs = 0 (all hardware threads) its speedup.
    let cases = [
        ("sort_sweep_to_n16_runner_seq", 1usize),
        ("sort_sweep_to_n16_runner_par", 0),
    ];
    for (label, jobs) in cases {
        let runner = SweepRunner::new(jobs);
        c.bench_function(label, |b| {
            b.iter(|| {
                runner
                    .map(black_box(vec![1u32, 2, 4, 8, 16]), |n| {
                        sort::sweep(&[n]).points
                    })
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
            })
        });
    }
}

criterion_group!(
    benches,
    bench_mapreduce_jobs,
    bench_spark_job,
    bench_full_sweep
);

fn main() {
    // `cargo test --benches` invokes bench binaries with libtest-style
    // flags; accept and ignore them.
    benches();
    run_regression_harness();
}
