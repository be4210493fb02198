//! Random Forest (HiBench Spark ML benchmark; paper Figs. 9–10).
//!
//! [`job`] is a calibrated stage spec: trees are built independently,
//! which makes the benchmark compute-heavy and shuffle-light. No records
//! are generated and no trees are built.

use ipso_spark::{SparkJobSpec, StageSpec};

/// Cached partition per task.
pub const PARTITION_BYTES: u64 = 640 * 1024 * 1024;

/// The calibrated Random Forest job: a heavy tree-building stage (trees
/// are independent — high compute, tiny shuffle) plus a forest-assembly
/// stage.
pub fn job(problem_size: u32, parallelism: u32) -> SparkJobSpec {
    SparkJobSpec::emr("random-forest", problem_size, parallelism)
        .stage(
            StageSpec::new("build-trees", problem_size)
                .with_task_compute(4.5)
                .with_input_bytes(PARTITION_BYTES)
                .with_cached_input(true)
                .with_broadcast(1024 * 1024)
                .with_shuffle_output(128 * 1024),
        )
        .stage(StageSpec::new("assemble-forest", parallelism.max(1)).with_task_compute(0.15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_is_compute_heavy() {
        let j = job(32, 8);
        assert!(j.validate().is_ok());
        // Heavier per-task compute than the other ML jobs, light shuffle.
        assert!(j.stages[0].task_compute > 3.0);
        assert!(j.stages[0].shuffle_output_per_task < 1024 * 1024);
    }
}
