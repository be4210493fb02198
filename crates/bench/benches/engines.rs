//! A regression harness for the MapReduce data path (`harness = false`).
//!
//! For each of Sort, WordCount and TeraSort it times the seed's data
//! path (the `btree_seq` rows: the seed's ordered-map grouping in
//! [`ipso_bench::reference`], and for WordCount the seed's allocating
//! mapper) against the engine's (`sortmerge_seq`) in alternating rounds,
//! at [`MAP_TASKS`] map tasks, plus one QMC-Pi scale-out data path (the
//! Halton kernel) with no baseline. It writes the wall-clock samples with
//! their median and IQR, and each workload's per-round speedup ratios
//! with their median and IQR, to `BENCH_engines.json` at the repository
//! root, which CI's `.github/engine_gate.py` compares against the
//! committed file. It times with glibc's allocator keeping freed memory
//! ([`keep_freed_memory`]), so that once the heap has grown neither side
//! pays page faults.

use ipso_bench::{reference, Json};
use ipso_mapreduce::{Mapper, OutputScaling, Reducer};
use ipso_workloads::{qmc, sort, terasort, wordcount};
use std::hint::black_box;
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

/// Independent timing samples per unpaired bench.
const SAMPLES: usize = 7;
/// Rounds of a paired bench: each times one batch of either side.
const ROUNDS: usize = 15;
/// Wall-clock time one batch aims for.
const SAMPLE_TIME: Duration = Duration::from_millis(90);

/// The timing fields of one bench record.
struct Timing {
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
fn record(engine: &'static str, workload: &'static str, config: &'static str, t: Timing) -> Json {
    let name = format!("{engine}_{workload}_n{MAP_TASKS}_{config}");
    println!(
        "bench {name:<40} {:>12.1} ns/iter median, IQR {:.1} ({} samples, {} iters)",
        t.median_ns,
        t.iqr_ns,
        t.samples_ns.len(),
        t.iters
    );
    Json::Object(vec![
        ("name", Json::Str(name)),
        ("engine", Json::Str(engine.into())),
        ("workload", Json::Str(workload.into())),
        ("config", Json::Str(config.into())),
        ("mean_ns", Json::Float(t.mean_ns)),
        ("median_ns", Json::Float(t.median_ns)),
        ("iqr_ns", Json::Float(t.iqr_ns)),
        ("samples_ns", Json::floats(&t.samples_ns)),
        ("iters", Json::Int(t.iters)),
    ])
}

/// Times the reference data path (`btree_seq`) against the engine
/// (`sortmerge_seq`) in paired rounds, records both and their speedup:
/// the median and IQR of the per-round ratios, and the ratios, each a
/// round's baseline ns per iteration over its optimized ns per
/// iteration, both timed back to back.
fn paired<A, B>(
    workload: &'static str,
    base: impl FnMut() -> A,
    opt: impl FnMut() -> B,
    records: &mut Vec<Json>,
    speedups: &mut Vec<Json>,
) {
    let (base, opt, ratios) = measure_pair(base, opt);
    records.push(record("mapreduce", workload, "btree_seq", base));
    records.push(record("mapreduce", workload, "sortmerge_seq", opt));
    let (ratio, ratio_iqr) = median_iqr(&ratios);
    println!(
        "speedup mapreduce/{workload}: btree_seq -> sortmerge_seq: {ratio:.2}x (IQR {ratio_iqr:.3})"
    );
    speedups.push(Json::Object(vec![
        ("engine", Json::Str("mapreduce".into())),
        ("workload", Json::Str(workload.into())),
        ("baseline", Json::Str("btree_seq".into())),
        ("optimized", Json::Str("sortmerge_seq".into())),
        ("ratio", Json::Float(ratio)),
        ("ratio_iqr", Json::Float(ratio_iqr)),
        ("ratios", Json::floats(&ratios)),
    ]));
}

fn bench_regression_grid() -> (Vec<Json>, Vec<Json>) {
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    // MapReduce: sort, wordcount and terasort at MAP_TASKS map tasks, the
    // seed's data path against the engine's. Sort and TeraSort time one
    // seed-1 input: rotated through many, their ratios follow the host's
    // load by more than the gate's floor (EXPERIMENTS.md).
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
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = Json::Object(vec![
        ("schema", Json::Str("ipso-bench-engines/v2".into())),
        ("map_tasks", Json::Int(MAP_TASKS.into())),
        ("host_threads", Json::Int(host_threads as u64)),
        ("benches", Json::List(benches)),
        ("speedups", Json::List(speedups)),
    ]);
    std::fs::write(REPORT_PATH, report.pretty() + "\n").expect("write BENCH_engines.json");
    println!("wrote {REPORT_PATH}");
}

/// Keeps the memory the rows free inside the process, so that no
/// iteration pays the kernel to fault fresh pages in.
///
/// By default glibc gives each block over 128 KiB its own `mmap` and
/// returns a free heap top over 128 KiB to the kernel, and raises both
/// limits only after a large block is freed. At those defaults the Sort
/// and TeraSort rows each take 50,000-220,000 minor page faults, whose
/// cost (the kernel zeroing pages) follows the host's memory traffic,
/// not the data path: TeraSort's ratio read 9.6-10.2x, against
/// 14.9-15.5x with freed memory kept, on one 2-vCPU host. Fixed limits
/// of 32 and 64 MiB keep every block the rows free in the heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it runs before
    // the harness allocates or starts a thread.
    let set = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
    };
    assert!(set, "mallopt rejected the thresholds");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() {
    keep_freed_memory();
    // `cargo test --benches` invokes bench binaries with libtest-style
    // flags; accept and ignore them.
    run_regression_harness();
}
