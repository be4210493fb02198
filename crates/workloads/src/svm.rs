//! Support Vector Machine (HiBench Spark ML benchmark; paper Figs. 9–10).
//!
//! [`job`] is a calibrated stage spec with the structure of Spark's
//! `SVMWithSGD`: each iteration broadcasts the weight vector, computes
//! partial gradients over cached partitions, and aggregates them. No
//! records are generated or trained on.

use ipso_spark::{SparkJobSpec, StageSpec};

/// Gradient-descent iterations reflected as stage triples in the job.
pub const SVM_ITERATIONS: u32 = 3;
/// Cached partition per task (as in [`crate::bayes::PARTITION_BYTES`]).
pub const PARTITION_BYTES: u64 = 640 * 1024 * 1024;

/// The calibrated SVM job: per iteration, a broadcast of the weight
/// vector, a gradient stage over cached partitions, and a small
/// aggregation stage.
pub fn job(problem_size: u32, parallelism: u32) -> SparkJobSpec {
    let mut spec = SparkJobSpec::emr("svm", problem_size, parallelism);
    for iter in 0..SVM_ITERATIONS {
        spec = spec
            .stage(
                StageSpec::new(&format!("gradient-{iter}"), problem_size)
                    .with_task_compute(1.1)
                    .with_input_bytes(PARTITION_BYTES)
                    .with_cached_input(true)
                    .with_broadcast(4 * 1024 * 1024)
                    .with_shuffle_output(256 * 1024),
            )
            .stage(
                StageSpec::new(&format!("aggregate-{iter}"), parallelism.max(1))
                    .with_task_compute(0.1),
            );
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_has_iteration_structure() {
        let j = job(32, 8);
        assert_eq!(j.stages.len(), (SVM_ITERATIONS * 2) as usize);
        assert!(j.validate().is_ok());
        // Broadcast on every gradient stage.
        assert!(j.stages[0].broadcast_bytes > 0);
        assert_eq!(j.stages[1].broadcast_bytes, 0);
    }

    #[test]
    fn fixed_size_sweep_eventually_degrades() {
        use ipso_spark::sweep_fixed_size;
        let pts = sweep_fixed_size(job, 64, &[2, 8, 32, 64, 128, 256]).unwrap();
        let peak = pts
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .unwrap();
        let last = pts.last().unwrap();
        assert!(peak.m < 256, "peak at the edge");
        assert!(last.speedup < peak.speedup);
    }
}
