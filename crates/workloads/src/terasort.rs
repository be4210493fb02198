//! TeraSort (paper Figs. 4d, 5, 6, 7).
//!
//! Like [`crate::sort`], every record passes through the single reducer,
//! so the serial portion scales in proportion to the external scaling.
//! Additionally the reducer's input (128 MB × n) outgrows its ~2 GB of
//! preconfigured memory near `n ≈ 15`, and the internal scaling factor
//! bursts by over 30% with its slope rising from ≈ 0.15 to ≈ 0.25 — the
//! step-wise `IN(n)` of Fig. 5, visible as a dip in the measured speedup
//! around the same `n`.

use ipso_mapreduce::{InputSplit, JobCostModel, JobSpec, Mapper, Reducer, ScalingSweep};
use ipso_sim::SimRng;

use crate::datagen::{teragen_records, TeraRecord, TERA_RECORD_BYTES};

/// Nominal shard per map task.
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Records executed per task sample.
const SAMPLE_RECORDS: usize = 400;

/// Extracts the 10-byte TeraGen key; the value carries the row id plus
/// the record's 82-byte payload so the full 100-byte record transits the
/// reducer (that volume is what overflows its memory).
///
/// Keys and payloads are fixed-size inline arrays, and so are the
/// reducer's outputs — emitting, grouping, merging and reducing a record
/// never touches the heap; sizes (10 + 90 bytes) match the previous
/// `Vec<u8>` representation exactly, so volume accounting is unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeraSortMapper;

/// Payload bytes carried per record besides the key and row id.
const PAYLOAD_BYTES: usize = 82;

impl Mapper for TeraSortMapper {
    type Input = TeraRecord;
    type Key = [u8; 10];
    type Value = (u64, [u8; PAYLOAD_BYTES]);

    fn map(&self, record: &TeraRecord, emit: &mut dyn FnMut([u8; 10], (u64, [u8; PAYLOAD_BYTES]))) {
        let payload = [record.row as u8; PAYLOAD_BYTES];
        emit(record.key, (record.row, payload));
    }
}

/// Emits `(key, row)` pairs in key order.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeraSortReducer;

impl Reducer for TeraSortReducer {
    type Key = [u8; 10];
    type Value = (u64, [u8; PAYLOAD_BYTES]);
    type Output = ([u8; 10], u64);

    fn reduce(
        &self,
        key: &[u8; 10],
        values: &[(u64, [u8; PAYLOAD_BYTES])],
        emit: &mut dyn FnMut(([u8; 10], u64)),
    ) {
        for (row, _) in values {
            emit((*key, *row));
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
        seq_init: 2.0,
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
    use super::*;

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
