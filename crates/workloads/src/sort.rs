//! Sort (HiBench micro benchmark; paper Figs. 4c, 6, 7).
//!
//! Every input line passes through the single reducer, so the serial
//! merging workload grows in proportion to the external scaling: the
//! paper fits `IN(n) = 0.36·n − 0.11` and the speedup saturates near 5 —
//! the pathological IIIt,1 type that Gustafson's law cannot capture.
//!
//! HiBench's Sort configures a large reducer heap, so unlike
//! [`crate::terasort`] no spill regime appears in the measured range; we
//! model that with an unlimited reducer memory.

use ipso_cluster::MemoryModel;
use ipso_mapreduce::{InputSplit, JobCostModel, JobSpec, Mapper, Reducer, ScalingSweep};
use ipso_sim::SimRng;

use crate::datagen::random_lines;

/// Nominal HDFS shard per map task.
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Sample lines executed per task.
const SAMPLE_LINES: usize = 300;
const WORDS_PER_LINE: usize = 8;

/// Identity mapper keyed by the full line (the sort key).
#[derive(Debug, Clone, Copy, Default)]
pub struct SortMapper;

impl Mapper for SortMapper {
    type Input = String;
    type Key = String;
    type Value = u32;

    fn map(&self, line: &String, emit: &mut dyn FnMut(String, u32)) {
        // The value carries a multiplicity of one; duplicate lines stack.
        emit(line.clone(), 1);
    }
}

/// Emits each line once per occurrence, in key order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortReducer;

impl Reducer for SortReducer {
    type Key = String;
    type Value = u32;
    type Output = String;

    fn reduce(&self, key: &String, values: &[u32], emit: &mut dyn FnMut(String)) {
        let count: u32 = values.iter().sum();
        for _ in 0..count {
            emit(key.clone());
        }
    }
}

/// Cost calibration reproducing the paper's fitted factors
/// (`η ≈ 0.6`, `IN(n) ≈ 0.43·n + 0.57` after normalization, speedup
/// bound ≈ 4.6): pass-through mapping at 80 MB/s; the reducer pipeline
/// handles a shard's worth of data in ≈ 0.46 s against a 0.6 s setup.
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 80.0e6,
        shuffle_rate: 550.0e6,
        merge_rate: 1100.0e6,
        reduce_rate: 1500.0e6,
        seq_init: 2.0,
        serial_setup: 0.6,
    }
}

/// The job spec at scale-out degree `n`.
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("sort", n);
    spec.cost = cost_model();
    spec.reducer_memory = MemoryModel::unlimited();
    spec
}

/// The `n` fixed-time splits of dictionary text.
pub fn make_splits(n: u32, seed: u64) -> Vec<InputSplit<String>> {
    (0..n)
        .map(|task| {
            let mut rng = SimRng::seed_from(seed ^ (u64::from(task) << 20) ^ 0x5027);
            let lines = random_lines(SAMPLE_LINES, WORDS_PER_LINE, &mut rng);
            let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
            InputSplit::new(lines, bytes, SHARD_BYTES)
        })
        .collect()
}

/// Runs the full paper sweep for Sort.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(ns, &SortMapper, &SortReducer, job_spec, |n| {
        make_splits(n, 2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_a_sorted_permutation_of_the_input() {
        use ipso_mapreduce::try_run_scale_out;
        let splits = make_splits(3, 9);
        let run = try_run_scale_out(&job_spec(3), &SortMapper, &SortReducer, &splits).unwrap();
        let mut expected: Vec<String> = splits.into_iter().flat_map(|s| s.records).collect();
        assert!(run.output.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        expected.sort();
        assert_eq!(run.output, expected, "not a permutation");
    }

    #[test]
    fn intermediate_data_is_proportional_to_input() {
        use ipso_mapreduce::try_run_scale_out;
        let r2 =
            try_run_scale_out(&job_spec(2), &SortMapper, &SortReducer, &make_splits(2, 1)).unwrap();
        let r8 =
            try_run_scale_out(&job_spec(8), &SortMapper, &SortReducer, &make_splits(8, 1)).unwrap();
        let ratio = r8.reduce_input_bytes as f64 / r2.reduce_input_bytes as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn speedup_saturates_well_below_gustafson() {
        let sweep = sweep(&[1, 2, 4, 8, 16, 32, 64, 96]);
        let curve = sweep.speedup_curve().unwrap();
        let s96 = curve.points().last().unwrap().speedup;
        // Paper: Sort caps near 4–5 while Gustafson predicts ≈ 60.
        assert!((2.5..6.5).contains(&s96), "S(96) = {s96}");
        let s32 = curve.points()[5].speedup;
        assert!(s96 < s32 * 1.5, "still growing fast at 96");
    }

    #[test]
    fn internal_scaling_is_linear_with_large_slope() {
        use ipso::estimate::{estimate_factors, FactorShape};
        let sweep = sweep(&[1, 2, 4, 8, 12, 16]);
        let est = estimate_factors(&sweep.measurements()).unwrap();
        assert_eq!(est.internal.shape, FactorShape::Linear);
        let in16 = est.internal.factor.eval(16.0) / est.internal.factor.eval(1.0);
        // Paper's Sort: IN(16) = 0.36·16 − 0.11 ≈ 5.7 (normalised ≈ 23×
        // the n = 1 value is before normalisation; after normalisation to
        // IN(1) = 1 the growth to n = 16 is ≈ 7×). Ours is calibrated to
        // the same regime: substantial, clearly super-constant growth.
        assert!(in16 > 4.0, "IN(16)/IN(1) = {in16}");
    }

    #[test]
    fn eta_matches_calibration() {
        let sweep = sweep(&[1, 2, 4]);
        let m = &sweep.measurements()[0];
        let eta = m.seq_parallel_work / (m.seq_parallel_work + m.seq_serial_work);
        assert!((0.5..0.7).contains(&eta), "eta = {eta}");
    }
}
