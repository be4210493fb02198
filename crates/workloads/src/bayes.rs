//! Bayes Classifier (HiBench Spark ML benchmark; paper Figs. 9–10).
//!
//! [`job`] is the calibrated two-stage Spark job the sweeps execute:
//! naive-Bayes feature counting over cached partitions, then a
//! model-aggregation stage. It is a stage spec (task counts, per-task
//! seconds, bytes); no records are generated or classified.

use ipso_spark::{SparkJobSpec, StageSpec};

/// Partition size cached per task: 640 MB, so a per-executor load of
/// `N/m = 8` (5 GB) overflows the 4 GB executor memory while `N/m ≤ 4`
/// fits — the paper's Fig. 9 inversion.
pub const PARTITION_BYTES: u64 = 640 * 1024 * 1024;

/// The calibrated Bayes job: a counting stage over `N` cached partitions
/// with a small model broadcast and count shuffle, then an aggregation
/// stage sized to the parallel degree.
pub fn job(problem_size: u32, parallelism: u32) -> SparkJobSpec {
    SparkJobSpec::emr("bayes", problem_size, parallelism)
        .stage(
            StageSpec::new("count-features", problem_size)
                .with_task_compute(2.2)
                .with_input_bytes(PARTITION_BYTES)
                .with_cached_input(true)
                .with_broadcast(2 * 1024 * 1024)
                .with_shuffle_output(512 * 1024),
        )
        .stage(StageSpec::new("aggregate-model", parallelism.max(1)).with_task_compute(0.25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_has_two_stages_and_validates() {
        let j = job(64, 16);
        assert_eq!(j.stages.len(), 2);
        assert!(j.validate().is_ok());
        assert_eq!(j.stages[0].tasks, 64);
        assert_eq!(j.stages[1].tasks, 16);
    }

    #[test]
    fn load_level_four_beats_one_and_eight() {
        use ipso_spark::sweep_fixed_time;
        let ms = [8u32, 16, 32];
        let l1 = sweep_fixed_time(job, 1, &ms).unwrap();
        let l4 = sweep_fixed_time(job, 4, &ms).unwrap();
        let l8 = sweep_fixed_time(job, 8, &ms).unwrap();
        for i in 0..ms.len() {
            assert!(
                l4[i].speedup > l1[i].speedup,
                "m = {}: N/m=4 {} <= N/m=1 {}",
                ms[i],
                l4[i].speedup,
                l1[i].speedup
            );
            assert!(
                l4[i].speedup > l8[i].speedup,
                "m = {}: N/m=4 {} <= N/m=8 {} (spill should hurt)",
                ms[i],
                l4[i].speedup,
                l8[i].speedup
            );
        }
    }
}
