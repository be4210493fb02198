//! Criterion benchmarks of the full engines plus a regression harness.
//!
//! Two layers share this binary (`harness = false`):
//!
//! 1. Criterion-style benches of one MapReduce job (map + shuffle +
//!    merge + reduce with real record processing), one Spark job (stage
//!    DAG with broadcast and shuffles) and an end-to-end scaling sweep.
//! 2. A regression harness that times the seed's ordered-map data path
//!    ([`ipso_bench::reference`], the `btree_seq` rows) against the
//!    engine's sort-based shuffle, sequential and with the full host —
//!    and writes the wall-clock numbers (independent samples per bench
//!    with their median and IQR) and the speedup ratios of the medians
//!    to `BENCH_engines.json` at the repository root so CI can assert
//!    the optimised data path never regresses.

use criterion::{black_box, criterion_group, Criterion};
use ipso_bench::{reference, SweepRunner};
use ipso_mapreduce::{Mapper, OutputScaling, Reducer};
use ipso_spark::try_run_job;
use ipso_workloads::{bayes, sort, wordcount};
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

    fn reduce(&self, key: &String, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
        emit((key.clone(), values.iter().sum()));
    }
}

/// Where the regression record lands: the workspace root, NOT
/// `results/` (CI checks `git diff --exit-code results/`, and bench
/// timings are host-dependent by nature).
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engines.json");

/// The number of map tasks the regression harness pins for the
/// MapReduce workloads (the acceptance point for the speedup targets).
const MAP_TASKS: u32 = 8;

#[derive(Debug, Serialize)]
struct BenchRecord {
    name: String,
    engine: &'static str,
    workload: &'static str,
    config: &'static str,
    threads: usize,
    /// Total sampled time over total iterations.
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
    /// Baseline median over optimized median.
    ratio: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: &'static str,
    map_tasks: u32,
    host_threads: usize,
    benches: Vec<BenchRecord>,
    speedups: Vec<SpeedupRecord>,
}

/// Independent timing samples per bench.
const SAMPLES: usize = 7;
/// Wall-clock time one sample aims for.
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

/// Times `f`: a warm-up that doubles the batch until one batch takes a
/// quarter of [`SAMPLE_TIME`] sizes the batch to fill a sample, then
/// [`SAMPLES`] batches are timed independently.
fn measure<T, F: FnMut() -> T>(mut f: F) -> Timing {
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE_TIME / 4 || batch >= 1 << 20 {
            let scale = SAMPLE_TIME.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            batch = ((batch as f64 * scale).ceil() as u64).max(1);
            break;
        }
        batch *= 2;
    }
    let mut total = Duration::ZERO;
    let samples_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            total += elapsed;
            elapsed.as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    let mut sorted = samples_ns.clone();
    sorted.sort_by(f64::total_cmp);
    let iters = batch * SAMPLES as u64;
    Timing {
        mean_ns: total.as_secs_f64() * 1e9 / iters as f64,
        median_ns: quantile(&sorted, 0.5),
        iqr_ns: quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
        samples_ns,
        iters,
    }
}

/// The regression grid: (config label, threads). `btree_seq` times the
/// reference data path on one thread; the others time the engine, and
/// `threads = 0` means every hardware thread.
const CONFIGS: [(&str, usize); 3] = [("btree_seq", 1), ("sortmerge_seq", 1), ("sortmerge_par", 0)];

/// Prints one bench's timing and wraps it in its record.
fn record(
    name: String,
    engine: &'static str,
    workload: &'static str,
    config: &'static str,
    threads: usize,
    t: Timing,
) -> BenchRecord {
    println!(
        "bench {name:<40} {:>12.1} ns/iter median, IQR {:.1} ({SAMPLES} samples, {} iters)",
        t.median_ns, t.iqr_ns, t.iters
    );
    BenchRecord {
        name,
        engine,
        workload,
        config,
        threads,
        mean_ns: t.mean_ns,
        median_ns: t.median_ns,
        iqr_ns: t.iqr_ns,
        samples_ns: t.samples_ns,
        iters: t.iters,
    }
}

fn bench_regression_grid(records: &mut Vec<BenchRecord>) {
    // MapReduce: sort and wordcount at MAP_TASKS map tasks, running the
    // real record path through each configuration.
    for (config, threads) in CONFIGS {
        let seed_path = config == "btree_seq";
        let mut spec = sort::job_spec(MAP_TASKS);
        spec.engine.threads = threads;
        let splits = sort::make_splits(MAP_TASKS, 1);
        let timing = if seed_path {
            measure(|| reference::run(&sort::SortMapper, &sort::SortReducer, &splits))
        } else {
            measure(|| {
                ipso_mapreduce::try_run_scale_out(
                    &spec,
                    &sort::SortMapper,
                    &sort::SortReducer,
                    &splits,
                )
                .expect("fault-free run")
            })
        };
        records.push(record(
            format!("mapreduce_sort_n{MAP_TASKS}_{config}"),
            "mapreduce",
            "sort",
            config,
            threads,
            timing,
        ));

        let mut wc_spec = wordcount::job_spec(MAP_TASKS);
        wc_spec.engine.threads = threads;
        let wc_splits = wordcount::make_splits(MAP_TASKS, 1);
        // The baseline configuration pairs the reference data path with
        // the seed's allocating mapper — the true pre-optimization path;
        // the optimized configurations use the shipping rank-keyed mapper.
        let mapper = wordcount::WordCountMapper::new();
        let timing = if seed_path {
            measure(|| reference::run(&SeedWordCountMapper, &SeedWordCountReducer, &wc_splits))
        } else {
            measure(|| {
                ipso_mapreduce::try_run_scale_out(
                    &wc_spec,
                    &mapper,
                    &wordcount::WordCountReducer,
                    &wc_splits,
                )
                .expect("fault-free run")
            })
        };
        records.push(record(
            format!("mapreduce_wordcount_n{MAP_TASKS}_{config}"),
            "mapreduce",
            "wordcount",
            config,
            threads,
            timing,
        ));
    }

    // Spark: the Bayes stage DAG with the host-side stage executor
    // sequential and parallel (the shuffle grid does not apply).
    for (config, threads) in [("seq", 1usize), ("par", 0)] {
        let mut job = bayes::job(256, 64);
        job.engine.threads = threads;
        let timing = measure(|| try_run_job(&job).expect("fault-free run"));
        records.push(record(
            format!("spark_bayes_n256_m64_{config}"),
            "spark",
            "bayes",
            config,
            threads,
            timing,
        ));
    }
}

/// Derives the speedup ratios the harness exists to defend, from the
/// median timings: the reference data path on one thread vs. the optimised
/// path per MapReduce workload, and sequential vs. parallel Spark.
fn speedups(records: &[BenchRecord]) -> Vec<SpeedupRecord> {
    let median = |workload: &str, config: &str| {
        records
            .iter()
            .find(|r| r.workload == workload && r.config == config)
            .map(|r| r.median_ns)
    };
    let pairs = [
        ("mapreduce", "sort", "btree_seq", "sortmerge_seq"),
        ("mapreduce", "sort", "btree_seq", "sortmerge_par"),
        ("mapreduce", "wordcount", "btree_seq", "sortmerge_seq"),
        ("mapreduce", "wordcount", "btree_seq", "sortmerge_par"),
        ("spark", "bayes", "seq", "par"),
    ];
    pairs
        .into_iter()
        .filter_map(|(engine, workload, baseline, optimized)| {
            let (base, opt) = (median(workload, baseline)?, median(workload, optimized)?);
            Some(SpeedupRecord {
                engine,
                workload,
                baseline,
                optimized,
                ratio: base / opt,
            })
        })
        .collect()
}

fn run_regression_harness() {
    let mut records = Vec::new();
    bench_regression_grid(&mut records);
    let report = BenchReport {
        schema: "ipso-bench-engines/v1",
        map_tasks: MAP_TASKS,
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        speedups: speedups(&records),
        benches: records,
    };
    for s in &report.speedups {
        println!(
            "speedup {}/{}: {} -> {}: {:.2}x",
            s.engine, s.workload, s.baseline, s.optimized, s.ratio
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
