//! Determinism under fault injection, end to end: a faulted engine
//! sweep through [`SweepRunner`] is bit-identical for any `--jobs`
//! value and any engine thread count, and a spec that merely *spells
//! out* the disabled fault model reproduces the stock trace exactly.
//! These are the properties the `ablation_faults` CSV and
//! `BENCH_faults.json` regression record rest on, together with the
//! one-data-path sweep point the figures and the ablation run.

use ipso_bench::SweepRunner;
use ipso_cluster::{FaultModel, JobTrace, RecoveryPolicy};
use ipso_mapreduce::measure::SweepPoint;
use ipso_mapreduce::{
    measurement_from_runs, run_sequential, try_run_scale_out, InputSplit, JobSpec, Mapper, Reducer,
};
use ipso_workloads::{sort, terasort};
use proptest::prelude::*;

/// One faulted Sort run per grid point; the whole trace is the result,
/// so any divergence — durations, overhead, recovery events — fails the
/// bitwise comparison.
fn faulted_sweep(jobs: usize, fail_prob: f64, threads: usize, ns: &[u32]) -> Vec<JobTrace> {
    SweepRunner::new(jobs)
        .map(ns.to_vec(), |n| {
            let mut spec = sort::job_spec(n);
            let mut faults = FaultModel::flaky(fail_prob);
            faults.node_crash_prob = fail_prob / 10.0;
            spec.faults = faults;
            spec.recovery = RecoveryPolicy::hadoop_like().with_speculation();
            spec.recovery.max_attempts = 12;
            spec.engine.threads = threads;
            try_run_scale_out(
                &spec,
                &sort::SortMapper,
                &sort::SortReducer,
                &sort::make_splits(n, 2),
            )
            .expect("recoverable under 12 attempts")
            .trace
        })
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-for-bit equality between the sequential runner and every
    /// tested worker count, with faults active, for arbitrary failure
    /// rates and grids.
    #[test]
    fn faulted_sweep_is_identical_for_any_jobs(
        jobs in 2usize..7,
        fail_prob in 0.01f64..0.3,
        ns in prop::collection::vec(1u32..24, 1..6),
    ) {
        let sequential = faulted_sweep(1, fail_prob, 0, &ns);
        let parallel = faulted_sweep(jobs, fail_prob, 0, &ns);
        prop_assert_eq!(parallel, sequential);
    }

    /// The engine's own map-execution thread count never leaks into a
    /// faulted trace: fault resolution happens on the sequential
    /// simulation clock, not on the host threads.
    #[test]
    fn faulted_traces_are_engine_thread_invariant(
        fail_prob in 0.01f64..0.3,
        threads in 1usize..6,
    ) {
        let ns = [3u32, 7];
        let baseline = faulted_sweep(1, fail_prob, 0, &ns);
        prop_assert_eq!(faulted_sweep(1, fail_prob, threads, &ns), baseline);
    }
}

/// Spelling out the disabled fault model must be a no-op: the stock
/// spec and an explicit `FaultModel::none()` spec produce identical
/// traces (zero fault RNG draws), so a fault-free build of this PR
/// reproduces every pre-PR artifact byte for byte.
#[test]
fn disabled_faults_reproduce_the_stock_traces() {
    for n in [1u32, 4, 16] {
        let stock = sort::sweep(&[n]);
        let explicit = {
            let mut spec = sort::job_spec(n);
            spec.faults = FaultModel::none();
            spec.recovery = RecoveryPolicy::hadoop_like().with_speculation();
            try_run_scale_out(
                &spec,
                &sort::SortMapper,
                &sort::SortReducer,
                &sort::make_splits(n, 2),
            )
            .expect("fault-free run cannot fail")
        };
        assert_eq!(explicit.trace, stock.points[0].par, "n = {n}");
        assert!(explicit.trace.faults.is_none(), "n = {n}");
    }
}

/// Asserts that [`SweepPoint::run`], which runs the data path once,
/// equals the scale-out run plus the standalone sequential run over the
/// same splits, and returns the point and the scale-out run's
/// reduce-side bytes. The
/// comparison goes through `Debug`, which prints every `f64` in its
/// shortest round-trip form, so it is bit for bit.
fn assert_one_data_path_matches<M, R>(
    spec: &JobSpec,
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
) -> (SweepPoint, u64)
where
    M: Mapper + Sync,
    M::Input: Sync,
    M::Key: Send,
    M::Value: Send,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    let point = SweepPoint::run(spec, mapper, reducer, splits).expect("recoverable");
    let par = try_run_scale_out(spec, mapper, reducer, splits).expect("recoverable");
    let mut seq = run_sequential(spec, mapper, reducer, splits).trace;
    seq.n = splits.len() as u32;
    let reference = SweepPoint {
        n: seq.n,
        measurement: measurement_from_runs(&seq, &par.trace),
        seq,
        par: par.trace,
    };
    assert_eq!(
        format!("{point:?}"),
        format!("{reference:?}"),
        "{}",
        spec.name
    );
    (point, par.reduce_input_bytes)
}

/// The one-data-path point beyond the default specs: a pipelined
/// shuffle, a reducer that spills, and the fault ablation's faulted Sort.
#[test]
fn one_data_path_point_matches_the_two_engine_runs() {
    // ablation_shuffle_pipelining's shuffle-heavy, slow-start Sort.
    let mut spec = sort::job_spec(16);
    spec.cost.shuffle_rate = 90.0e6;
    spec.pipelined_shuffle = true;
    let splits = sort::make_splits(16, 2);
    assert_one_data_path_matches(&spec, &sort::SortMapper, &sort::SortReducer, &splits);

    // TeraSort at n = 24: the reducer's input overflows its memory.
    let spec = terasort::job_spec(24);
    let splits = terasort::make_splits(24, 3);
    let (_, bytes) = assert_one_data_path_matches(
        &spec,
        &terasort::TeraSortMapper,
        &terasort::TeraSortReducer,
        &splits,
    );
    assert!(spec.reducer_memory.spills(bytes), "n = 24 must spill");

    // ablation_faults' spec at p = 0.05.
    let mut retries = 0;
    for n in [16u32, 64] {
        let mut spec = sort::job_spec(n);
        spec.faults = FaultModel::flaky(0.05);
        spec.faults.node_crash_prob = 0.005;
        spec.recovery = RecoveryPolicy::hadoop_like().with_speculation();
        spec.recovery.max_attempts = 8;
        let splits = sort::make_splits(n, 2);
        let (point, _) =
            assert_one_data_path_matches(&spec, &sort::SortMapper, &sort::SortReducer, &splits);
        retries += point.par.faults.expect("faults enabled").retries;
    }
    assert!(retries > 0, "p = 0.05 over 80 tasks should retry");
}
