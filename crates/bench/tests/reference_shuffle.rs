//! The engine's sort-merge shuffle against the seed's ordered-map
//! grouping (`ipso_bench::reference`): for the same mapper, reducer and
//! splits, both executions produce the same outputs and the same
//! intermediate-volume accounting, task by task.

use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ipso_bench::reference;
use ipso_mapreduce::{
    run_sequential, try_run_scale_out, InputSplit, JobSpec, Mapper, OutputScaling, Reducer,
    Sizeable,
};
use ipso_workloads::datagen::TeraRecord;
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
    M: Mapper,
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
    fn reduce(&self, key: u64, values: &[u64], emit: &mut dyn FnMut(u64)) {
        for _ in values {
            emit(key);
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
    fn reduce(&self, key: u64, values: &[u64], emit: &mut dyn FnMut((u64, u64))) {
        emit((key, values.iter().sum()));
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
    fn reduce(&self, key: u64, values: &[u32], emit: &mut dyn FnMut((u64, Vec<u32>))) {
        emit((key, values.to_vec()));
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

// ── Keys move through the reduce side ───────────────────────────────────

/// Key clones made by [`CountedKey`]; only `reduce_side_clones_no_key`
/// uses the type.
static KEY_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key whose `Clone` bumps [`KEY_CLONES`].
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CountedKey(u64);

impl Clone for CountedKey {
    fn clone(&self) -> Self {
        KEY_CLONES.fetch_add(1, Ordering::Relaxed);
        CountedKey(self.0)
    }
}

impl Sizeable for CountedKey {
    fn size_bytes(&self) -> u64 {
        8
    }
}

/// Keys each `(key, tag)` record by a [`CountedKey`]; no combiner.
struct CountedMap;
impl Mapper for CountedMap {
    type Input = (u64, u32);
    type Key = CountedKey;
    type Value = u32;
    fn map(&self, input: &(u64, u32), emit: &mut dyn FnMut(CountedKey, u32)) {
        emit(CountedKey(input.0), input.1);
    }
}

/// Emits each group's key and values in arrival order.
struct CountedReduce;
impl Reducer for CountedReduce {
    type Key = CountedKey;
    type Value = u32;
    type Output = (u64, Vec<u32>);
    fn reduce(&self, key: CountedKey, values: &[u32], emit: &mut dyn FnMut((u64, Vec<u32>))) {
        emit((key.0, values.to_vec()));
    }
}

/// Runs one split per run of keys through the scale-out and the
/// sequential path, asserts that each output equals the reference's, and
/// returns each run's key clones.
fn engine_key_clones(runs: &[Vec<u64>]) -> [usize; 2] {
    let splits = tagged_splits(runs);
    let spec = JobSpec::emr("counted", splits.len() as u32);
    let (want, _) = reference::run(&CountedMap, &CountedReduce, &splits);
    let counted = |run: &dyn Fn() -> Vec<(u64, Vec<u32>)>| {
        KEY_CLONES.store(0, Ordering::Relaxed);
        assert_eq!(run(), want);
        KEY_CLONES.load(Ordering::Relaxed)
    };
    [
        counted(&|| {
            try_run_scale_out(&spec, &CountedMap, &CountedReduce, &splits)
                .unwrap()
                .output
        }),
        counted(&|| run_sequential(&spec, &CountedMap, &CountedReduce, &splits).output),
    ]
}

#[test]
fn reduce_side_clones_no_key() {
    // Unique keys: every group holds one value, so nothing is cloned.
    let keys: Vec<u64> = (0..300).map(|i| i * 7919 % 300).collect();
    let unique: Vec<Vec<u64>> = keys.chunks(37).map(<[u64]>::to_vec).collect();
    assert_eq!(engine_key_clones(&unique), [0, 0]);

    // Shared keys: a task's group of g values keeps one key and clones
    // it g - 1 times into its combined pairs (task 0: key 3 twice;
    // task 2: key 1 once). The reduce side adds no clone.
    let shared = vec![vec![3, 1, 3, 3], vec![1, 3], vec![1, 1, 2], vec![]];
    assert_eq!(engine_key_clones(&shared), [3, 3]);
}

// ── The three real MapReduce workloads ──────────────────────────────────

fn workload_matches_reference(workload: &str, n: u32, seed: u64) {
    match workload {
        "sort" => {
            let spec = sort::job_spec(n);
            let splits = sort::make_splits(n, seed);
            assert_matches_reference(&spec, &sort::SortMapper, &sort::SortReducer, &splits);
        }
        "wordcount" => {
            let spec = wordcount::job_spec(n);
            let splits = wordcount::make_splits(n, seed);
            let mapper = wordcount::WordCountMapper::new();
            assert_matches_reference(&spec, &mapper, &wordcount::WordCountReducer, &splits);
        }
        "terasort" => {
            let spec = terasort::job_spec(n);
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

/// Sort and TeraSort have no combiner and sort their own runs, which
/// must keep equal keys in emission order. Their generated splits
/// repeat no key, so these splits do: Sort lines recur within and across
/// tasks, each occurrence its own `Arc`, and TeraSort keys recur with a
/// distinct row each.
#[test]
fn no_combiner_runs_keep_equal_keys_in_emission_order() {
    let texts: Vec<String> = (0..9)
        .map(|k| match k % 2 {
            0 => format!("lines that share one long prefix {k}"),
            _ => format!("w{k}"),
        })
        .collect();
    let lines: Vec<InputSplit<Arc<str>>> = (0..3)
        .map(|t| {
            let records: Vec<Arc<str>> = (0..120)
                .map(|i| Arc::from(texts[(i * 7 + t * 3) % texts.len()].as_str()))
                .collect();
            let bytes = records.iter().map(|l| l.len() as u64 + 1).sum();
            InputSplit::new(records, bytes, sort::SHARD_BYTES)
        })
        .collect();
    let spec = sort::job_spec(3);
    assert_matches_reference(&spec, &sort::SortMapper, &sort::SortReducer, &lines);
    // Equal lines make equal pairs, so only the `Arc`s show their order:
    // the reference emits each line's first occurrence, in task order.
    let (want, _) = reference::run(&sort::SortMapper, &sort::SortReducer, &lines);
    for output in [
        try_run_scale_out(&spec, &sort::SortMapper, &sort::SortReducer, &lines)
            .unwrap()
            .output,
        run_sequential(&spec, &sort::SortMapper, &sort::SortReducer, &lines).output,
    ] {
        assert_eq!(output.len(), want.len());
        assert!(output.iter().zip(&want).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    let mut row = 0;
    let records: Vec<InputSplit<TeraRecord>> = (0..3u8)
        .map(|t| {
            let records: Vec<TeraRecord> = (0..150u8)
                .map(|i| {
                    row += 1;
                    let mut key = [b'k'; 10];
                    key[(i % 2) as usize] = i.wrapping_mul(5).wrapping_add(t) % 6;
                    TeraRecord { key, row }
                })
                .collect();
            let bytes = records.len() as u64 * 100;
            InputSplit::new(records, bytes, terasort::SHARD_BYTES)
        })
        .collect();
    assert_matches_reference(
        &terasort::job_spec(3),
        &terasort::TeraSortMapper,
        &terasort::TeraSortReducer,
        &records,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reduce side's stable sort over the concatenated runs groups
    /// exactly as the reference does, at any fan-in up to past the paper
    /// sweep's 200 tasks: empty runs, keys shared by many runs, values in
    /// task then emission order.
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

/// TeraSort's reduce side bucket-sorts every task's run at once. The
/// proptest's n < 7 stay far below its 65,536-bucket cap; the paper
/// sweep's 200 tasks, 80,000 records, pass it.
#[test]
fn terasort_matches_the_reference_at_n200() {
    workload_matches_reference("terasort", 200, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sort, WordCount and TeraSort match the reference.
    #[test]
    fn workloads_match_the_reference(
        n in 1u32..7,
        seed in any::<u64>(),
        which in 0usize..3,
    ) {
        workload_matches_reference(["sort", "wordcount", "terasort"][which], n, seed);
    }
}
