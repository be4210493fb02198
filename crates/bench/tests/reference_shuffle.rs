//! The engine's sort-merge shuffle against the seed's ordered-map
//! grouping (`ipso_bench::reference`): for the same mapper, reducer and
//! splits, both executions produce the same outputs and the same
//! intermediate-volume accounting, task by task.

use std::fmt::Debug;

use ipso_bench::reference;
use ipso_mapreduce::{
    run_sequential, try_run_scale_out, InputSplit, JobSpec, Mapper, OutputScaling, Reducer,
    Sizeable,
};
use ipso_workloads::{sort, terasort, wordcount};
use proptest::prelude::*;

/// Asserts, for the scale-out and the sequential run, that the engine's
/// outputs equal the reference's, that its `reduce_input_bytes` is the
/// sum of the reference's per-task bytes, and that each task's bytes
/// equal the `reduce_input_bytes` of a run over that split alone. The
/// engine's timing model reads the intermediate volume only through
/// those per-task bytes, so the traces agree too.
fn assert_matches_reference<M, R>(
    spec: &JobSpec,
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
) where
    M: Mapper + Sync,
    M::Input: Sync,
    M::Key: Send,
    M::Value: Send,
    R: Reducer<Key = M::Key, Value = M::Value>,
    R::Output: PartialEq + Debug,
{
    let (output, task_bytes) = reference::run(mapper, reducer, splits);
    let total: u64 = task_bytes.iter().sum();
    for run in [
        try_run_scale_out(spec, mapper, reducer, splits).unwrap(),
        run_sequential(spec, mapper, reducer, splits),
    ] {
        assert_eq!(run.output, output);
        assert_eq!(run.reduce_input_bytes, total);
    }
    for (split, bytes) in splits.iter().zip(task_bytes) {
        let one = std::slice::from_ref(split);
        assert_eq!(
            try_run_scale_out(spec, mapper, reducer, one)
                .unwrap()
                .reduce_input_bytes,
            bytes
        );
        assert_eq!(
            run_sequential(spec, mapper, reducer, one).reduce_input_bytes,
            bytes
        );
    }
}

// ── Small jobs: identity sort and a saturating counter ──────────────────

/// A sort-style identity job over u64 records.
struct IdMap;
impl Mapper for IdMap {
    type Input = u64;
    type Key = u64;
    type Value = u64;
    fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
        emit(*input, *input);
    }
}
struct IdReduce;
impl Reducer for IdReduce {
    type Key = u64;
    type Value = u64;
    type Output = u64;
    fn reduce(&self, key: &u64, values: &[u64], emit: &mut dyn FnMut(u64)) {
        for _ in values {
            emit(*key);
        }
    }
}

/// A counting job with a saturating combiner.
struct CountMap;
impl Mapper for CountMap {
    type Input = u64;
    type Key = u64;
    type Value = u64;
    fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
        emit(input % 10, 1);
    }
    fn combine(&self, _key: &u64, values: &mut Vec<u64>) {
        let sum = values.iter().sum();
        values.clear();
        values.push(sum);
    }
    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Saturating
    }
}
struct SumReduce;
impl Reducer for SumReduce {
    type Key = u64;
    type Value = u64;
    type Output = (u64, u64);
    fn reduce(&self, key: &u64, values: &[u64], emit: &mut dyn FnMut((u64, u64))) {
        emit((*key, values.iter().sum()));
    }
}

fn splits(n: u32, records_per: u64) -> Vec<InputSplit<u64>> {
    (0..n)
        .map(|i| {
            let records: Vec<u64> = (0..records_per)
                .map(|j| (u64::from(i) * records_per + j) % 997)
                .collect();
            let bytes = records.iter().map(Sizeable::size_bytes).sum::<u64>();
            InputSplit::new(records, bytes, bytes * 1000)
        })
        .collect()
}

#[test]
fn sort_and_count_jobs_match_the_reference() {
    assert_matches_reference(&JobSpec::emr("sort", 4), &IdMap, &IdReduce, &splits(4, 200));
    assert_matches_reference(
        &JobSpec::emr("count", 3),
        &CountMap,
        &SumReduce,
        &splits(3, 500),
    );
}

// ── The reduce-side merge at sweep-sized fan-in ─────────────────────────

/// Emits each `(key, tag)` record as is. Its combiner prefixes each
/// task's group with the group's length, so a skipped or misplaced
/// combine changes both the reducer's input and the task's bytes.
struct TagMap;
impl Mapper for TagMap {
    type Input = (u64, u32);
    type Key = u64;
    type Value = u32;
    fn map(&self, input: &(u64, u32), emit: &mut dyn FnMut(u64, u32)) {
        emit(input.0, input.1);
    }
    fn combine(&self, _key: &u64, values: &mut Vec<u32>) {
        values.insert(0, values.len() as u32);
    }
}

/// Order-sensitive: emits each group's values in arrival order.
struct ArrivalOrderReduce;
impl Reducer for ArrivalOrderReduce {
    type Key = u64;
    type Value = u32;
    type Output = (u64, Vec<u32>);
    fn reduce(&self, key: &u64, values: &[u32], emit: &mut dyn FnMut((u64, Vec<u32>))) {
        emit((*key, values.to_vec()));
    }
}

/// One split per run of keys; every record gets a distinct tag, so a
/// value out of task or emission order changes the reducer's output.
fn tagged_splits(runs: &[Vec<u64>]) -> Vec<InputSplit<(u64, u32)>> {
    let mut tag = 0u32;
    runs.iter()
        .map(|keys| {
            let records: Vec<(u64, u32)> = keys
                .iter()
                .map(|&k| {
                    tag += 1;
                    (k, tag)
                })
                .collect();
            let bytes = (records.len() as u64 * 12).max(1);
            InputSplit::new(records, bytes, bytes * 64)
        })
        .collect()
}

// ── The three real MapReduce workloads ──────────────────────────────────

fn workload_matches_reference(workload: &str, n: u32, seed: u64, threads: usize) {
    match workload {
        "sort" => {
            let mut spec = sort::job_spec(n);
            spec.engine.threads = threads;
            let splits = sort::make_splits(n, seed);
            assert_matches_reference(&spec, &sort::SortMapper, &sort::SortReducer, &splits);
        }
        "wordcount" => {
            let mut spec = wordcount::job_spec(n);
            spec.engine.threads = threads;
            let splits = wordcount::make_splits(n, seed);
            let mapper = wordcount::WordCountMapper::new();
            assert_matches_reference(&spec, &mapper, &wordcount::WordCountReducer, &splits);
        }
        "terasort" => {
            let mut spec = terasort::job_spec(n);
            spec.engine.threads = threads;
            let splits = terasort::make_splits(n, seed);
            assert_matches_reference(
                &spec,
                &terasort::TeraSortMapper,
                &terasort::TeraSortReducer,
                &splits,
            );
        }
        other => panic!("unknown workload {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The loser-tree k-way merge groups exactly as the reference does,
    /// at any fan-in up to past the paper sweep's 200 tasks: empty runs,
    /// keys shared by many runs, values in task then emission order.
    #[test]
    fn sort_merge_matches_btree_grouping_at_high_fan_in(
        runs in prop::collection::vec(
            prop::collection::vec(0u64..12, 0..10),
            1..261,
        ),
    ) {
        let splits = tagged_splits(&runs);
        let spec = JobSpec::emr("prop-merge", splits.len() as u32);
        assert_matches_reference(&spec, &TagMap, &ArrivalOrderReduce, &splits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sort, WordCount and TeraSort match the reference, threaded or
    /// not.
    #[test]
    fn workloads_match_the_reference(
        threads in 1usize..5,
        n in 1u32..7,
        seed in any::<u64>(),
        which in 0usize..3,
    ) {
        workload_matches_reference(["sort", "wordcount", "terasort"][which], n, seed, threads);
    }
}
