//! TeraSort (paper Figs. 4d, 5, 6, 7).
//!
//! Like [`crate::sort`], every record passes through the single reducer,
//! so the serial portion scales in proportion to the external scaling.
//! Additionally the reducer's input (128 MB × n) outgrows its ~2 GB of
//! preconfigured memory near `n ≈ 15`, and the internal scaling factor
//! bursts by over 30% with its slope rising from ≈ 0.15 to ≈ 0.25 — the
//! step-wise `IN(n)` of Fig. 5, visible as a dip in the measured speedup
//! around the same `n`.
//!
//! Both of its sorts go through one bucket sort: the mapper's run of a
//! split and the reducer's merge of every task's run. TeraGen keys are
//! uniform random bytes, so scattering the pairs by their key's first
//! two bytes into about one bucket per pair leaves buckets of zero to
//! two pairs, each then sorted on its own. Each pair is touched a fixed
//! number of times instead of once per merge level, and the result is
//! exactly the stable sort the defaults of `Mapper::map_split` and
//! `Reducer::reduce_runs` compute.

use ipso_mapreduce::{InputSplit, JobCostModel, JobSpec, Mapper, Reducer, ScalingSweep, Sizeable};
use ipso_sim::SimRng;

use crate::datagen::{teragen_records, TeraRecord, TERA_RECORD_BYTES};

/// Nominal shard per map task.
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Records executed per task sample.
const SAMPLE_RECORDS: usize = 400;

/// Extracts the 10-byte TeraGen key and carries the row id as the value.
///
/// The full 100-byte record transits the reducer, and that volume is what
/// overflows its memory. It is accounted through `size_bytes` (10 key
/// bytes plus [`TeraPayload`]'s 90) rather than carried as filler bytes:
/// as with [`TeraRecord::row`], the payload content never affects the
/// computation. Keys, values and the reducer's outputs are fixed-size
/// inline types, so emitting, grouping, merging and reducing a record
/// never touches the heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeraSortMapper;

/// A record's 90 bytes after its key, carried as the row id alone.
#[derive(Debug, Clone, Copy)]
pub struct TeraPayload {
    /// Row id of the record (see [`TeraRecord::row`]).
    pub row: u64,
}

impl Sizeable for TeraPayload {
    /// The record's bytes minus its 10-byte key.
    fn size_bytes(&self) -> u64 {
        TERA_RECORD_BYTES - 10
    }
}

impl Mapper for TeraSortMapper {
    type Input = TeraRecord;
    type Key = [u8; 10];
    type Value = TeraPayload;

    fn map(&self, record: &TeraRecord, emit: &mut dyn FnMut([u8; 10], TeraPayload)) {
        emit(record.key, TeraPayload { row: record.row });
    }

    /// Maps every record and stably sorts the pairs with the module's
    /// bucket sort: with no combiner, that is the default's run.
    fn map_split(&self, records: &[TeraRecord]) -> Vec<TeraPair> {
        bucket_sort(
            records
                .iter()
                .map(|record| (record.key, TeraPayload { row: record.row })),
        )
    }
}

/// A mapped TeraSort record.
type TeraPair = ([u8; 10], TeraPayload);

/// Most buckets of [`bucket_sort`]: one per value of a key's first two
/// bytes.
const MAX_BUCKETS: usize = 1 << 16;

/// Stably sorts `pairs` by key: what `sort_by_key` on their collected
/// `Vec` returns.
///
/// TeraGen keys are uniform random bytes, so the pairs are scattered,
/// in order, into about one bucket per pair (a power of two, at most
/// [`MAX_BUCKETS`]) by the high bits of the key's first two bytes, and
/// each bucket, mostly of zero to two pairs, is then sorted stably on
/// its own. The buckets follow key order, and both the scatter and the
/// sort keep equal keys in their input order. One `u32` table counts
/// each bucket's pairs, then holds where its next pair goes, and after
/// the scatter where it ends.
fn bucket_sort<I>(pairs: I) -> Vec<TeraPair>
where
    I: Iterator<Item = TeraPair> + Clone,
{
    let len = pairs.clone().count();
    assert!(u32::try_from(len).is_ok(), "bucket_sort counts in u32");
    let buckets = len.next_power_of_two().min(MAX_BUCKETS);
    let shift = 16 - buckets.trailing_zeros();
    let bucket =
        |key: &[u8; 10]| (u32::from(u16::from_be_bytes([key[0], key[1]])) >> shift) as usize;

    let mut next = vec![0u32; buckets];
    for (key, _) in pairs.clone() {
        next[bucket(&key)] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut sorted = vec![([0; 10], TeraPayload { row: 0 }); len];
    for pair in pairs {
        let slot = &mut next[bucket(&pair.0)];
        sorted[*slot as usize] = pair;
        *slot += 1;
    }
    let mut start = 0;
    for end in next {
        let end = end as usize;
        if end - start > 1 {
            sorted[start..end].sort_by_key(|&(key, _)| key);
        }
        start = end;
    }
    sorted
}

/// Emits `(key, row)` pairs in key order.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeraSortReducer;

impl Reducer for TeraSortReducer {
    type Key = [u8; 10];
    type Value = TeraPayload;
    type Output = ([u8; 10], u64);

    fn reduce(&self, key: [u8; 10], values: &[TeraPayload], emit: &mut dyn FnMut(([u8; 10], u64))) {
        for value in values {
            emit((key, value.row));
        }
    }

    /// Sorts the runs' pairs, in task order, with the module's bucket
    /// sort and emits `(key, row)` in that order: the default's stable sort of
    /// the concatenated runs, grouped and reduced. The runs are freed
    /// before the outputs grow.
    fn reduce_runs(&self, runs: Vec<Vec<TeraPair>>, emit: &mut dyn FnMut(([u8; 10], u64))) {
        let sorted = bucket_sort(runs.iter().flatten().copied());
        drop(runs);
        for (key, value) in sorted {
            emit((key, value.row));
        }
    }
}

/// Cost calibration reproducing the paper's fitted factors
/// (`η ≈ 0.47` pre-spill, `IN(n)` slope ≈ 0.2 rising past the 2 GB
/// boundary, speedup capped near 3): binary-record mapping at 60 MB/s
/// and a heavier 2 s reducer setup.
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 60.0e6,
        shuffle_rate: 600.0e6,
        merge_rate: 1000.0e6,
        reduce_rate: 1000.0e6,
        serial_setup: 2.0,
    }
}

/// The job spec at scale-out degree `n` — keeps the paper's ~2 GB
/// reducer-memory cap from [`ipso_cluster::MemoryModel::reducer_2gb`].
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("terasort", n);
    spec.cost = cost_model();
    spec
}

/// The `n` fixed-time splits of TeraGen records.
pub fn make_splits(n: u32, seed: u64) -> Vec<InputSplit<TeraRecord>> {
    (0..n)
        .map(|task| {
            let mut rng = SimRng::seed_from(seed ^ (u64::from(task) << 20) ^ 0x7e4a);
            let records = teragen_records(SAMPLE_RECORDS, &mut rng);
            let bytes = records.len() as u64 * TERA_RECORD_BYTES;
            InputSplit::new(records, bytes, SHARD_BYTES)
        })
        .collect()
}

/// Runs the full paper sweep for TeraSort.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(ns, &TeraSortMapper, &TeraSortReducer, job_spec, |n| {
        make_splits(n, 3)
    })
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Asserts that [`bucket_sort`] over the concatenated `runs` returns
    /// what a stable `sort_by_key` of them does.
    fn assert_bucket_sort_is_stable_sort(runs: &[Vec<TeraPair>]) {
        let mut want: Vec<TeraPair> = runs.concat();
        want.sort_by_key(|&(key, _)| key);
        let got = bucket_sort(runs.iter().flatten().copied());
        let rows = |pairs: &[TeraPair]| -> Vec<([u8; 10], u64)> {
            pairs.iter().map(|&(key, value)| (key, value.row)).collect()
        };
        assert_eq!(rows(&got), rows(&want));
    }

    /// Tags every key of `runs` with a distinct row, in order, so a pair
    /// out of input order among equal keys shows.
    fn tagged(runs: Vec<Vec<[u8; 10]>>) -> Vec<Vec<TeraPair>> {
        let mut row = 0;
        runs.into_iter()
            .map(|keys| {
                keys.into_iter()
                    .map(|key| {
                        row += 1;
                        (key, TeraPayload { row })
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Keys repeated within and across runs, empty and one-record
        /// runs, and, when `one_bucket`, every key sharing its first two
        /// bytes. Each key comes from a small set: three values for each
        /// of the first two bytes, nine for two later bytes.
        #[test]
        fn bucket_sort_equals_stable_sort_on_repeated_keys(
            one_bucket in any::<bool>(),
            runs in prop::collection::vec(
                prop::collection::vec((0u8..3, 0u8..3, 0u8..9), 0..40),
                0..12,
            ),
        ) {
            let runs = runs
                .into_iter()
                .map(|run| {
                    run.into_iter()
                        .map(|(a, b, c)| {
                            let mut key = [0x5a; 10];
                            if !one_bucket {
                                key[0] = a * 0x7f;
                                key[1] = b * 0x7f;
                            }
                            key[2] = c / 3;
                            key[9] = c % 3;
                            key
                        })
                        .collect()
                })
                .collect();
            assert_bucket_sort_is_stable_sort(&tagged(runs));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Over 65,536 records in all, past the bucket cap: TeraGen keys,
        /// every fifth one repeating an earlier key of any run.
        #[test]
        fn bucket_sort_equals_stable_sort_past_the_bucket_cap(
            seed in any::<u64>(),
            lens in prop::collection::vec(13_200usize..30_000, 5..8),
        ) {
            assert!(lens.iter().sum::<usize>() > MAX_BUCKETS);
            let mut rng = SimRng::seed_from(seed);
            let mut keys: Vec<[u8; 10]> = Vec::new();
            let runs: Vec<Vec<[u8; 10]>> = lens
                .iter()
                .map(|&len| {
                    teragen_records(len, &mut rng)
                        .into_iter()
                        .map(|record| {
                            let key = if keys.len() % 5 == 4 {
                                keys[rng.index(keys.len())]
                            } else {
                                record.key
                            };
                            keys.push(key);
                            key
                        })
                        .collect()
                })
                .collect();
            assert_bucket_sort_is_stable_sort(&tagged(runs));
        }
    }

    #[test]
    fn output_is_sorted_by_key() {
        use ipso_mapreduce::try_run_scale_out;
        let run = try_run_scale_out(
            &job_spec(2),
            &TeraSortMapper,
            &TeraSortReducer,
            &make_splits(2, 5),
        )
        .unwrap();
        assert_eq!(run.output.len(), 2 * SAMPLE_RECORDS);
        assert!(
            run.output.windows(2).all(|w| w[0].0 <= w[1].0),
            "keys out of order"
        );
    }

    #[test]
    fn all_rows_survive_the_sort() {
        use ipso_mapreduce::run_sequential;
        let splits = make_splits(3, 6);
        let run = run_sequential(&job_spec(3), &TeraSortMapper, &TeraSortReducer, &splits);
        let mut rows = run.output;
        rows.sort_unstable();
        let mut expected: Vec<([u8; 10], u64)> = splits
            .iter()
            .flat_map(|s| s.records.iter().map(|r| (r.key, r.row)))
            .collect();
        expected.sort_unstable();
        assert_eq!(rows, expected);
    }

    #[test]
    fn key_and_value_account_for_the_full_record() {
        let record = &make_splits(1, 1)[0].records[0];
        let mut sizes = Vec::new();
        TeraSortMapper.map(record, &mut |key, value| {
            sizes.push(key.size_bytes() + value.size_bytes())
        });
        assert_eq!(sizes, [TERA_RECORD_BYTES]);
    }

    #[test]
    fn reduce_input_bytes_are_pinned() {
        use ipso_mapreduce::{run_sequential, try_run_scale_out};
        // Every record passes through, so the reducer reads the three
        // 128 MB shards' nominal volume.
        const PINNED: u64 = 402_653_184;
        let splits = make_splits(3, 6);
        let spec = job_spec(3);
        let par = try_run_scale_out(&spec, &TeraSortMapper, &TeraSortReducer, &splits).unwrap();
        let seq = run_sequential(&spec, &TeraSortMapper, &TeraSortReducer, &splits);
        assert_eq!(par.reduce_input_bytes, PINNED);
        assert_eq!(seq.reduce_input_bytes, PINNED);
    }

    #[test]
    fn spill_raises_serial_work_past_n15() {
        let sweep = sweep(&[8, 12, 14, 16, 20, 24]);
        let ms = sweep.measurements();
        // Per-n increment of Ws below the boundary vs above it.
        let slope_low = (ms[1].seq_serial_work - ms[0].seq_serial_work) / 4.0;
        let slope_high = (ms[5].seq_serial_work - ms[4].seq_serial_work) / 4.0;
        assert!(
            slope_high > 1.2 * slope_low,
            "slopes: below = {slope_low}, above = {slope_high}"
        );
    }

    #[test]
    fn speedup_is_capped_below_sort() {
        let ts = sweep(&[1, 2, 4, 8, 16, 32, 64, 96]);
        let curve = ts.speedup_curve().unwrap();
        let s96 = curve.points().last().unwrap().speedup;
        // Paper: TeraSort caps near 2.5–3.
        assert!((1.8..4.0).contains(&s96), "S(96) = {s96}");
        let sort_s96 = crate::sort::sweep(&[1, 2, 4, 8, 16, 32, 64, 96])
            .speedup_curve()
            .unwrap()
            .points()
            .last()
            .unwrap()
            .speedup;
        assert!(
            s96 < sort_s96,
            "TeraSort ({s96}) should trail Sort ({sort_s96})"
        );
    }
}
