//! NWeight (HiBench Spark graph benchmark; paper Figs. 9–10).
//!
//! NWeight computes, for each vertex, the aggregated weights of its
//! n-hop neighbourhood (weights multiply along paths and sum across
//! paths). [`job`] is a calibrated stage spec with the benchmark's
//! shuffle-heavy per-hop stage structure; no graph is generated or
//! expanded.

use ipso_spark::{SparkJobSpec, StageSpec};

/// Shuffle volume per task per hop: the graph expands each hop, making
/// NWeight the most shuffle-bound of the four Spark cases.
pub const HOP_SHUFFLE_BYTES: u64 = 48 * 1024 * 1024;
/// Hops in the benchmark configuration.
pub const HOPS: u32 = 3;
/// Cached adjacency partition per task: 640 MB, so `N/m = 8` (5 GB per
/// executor) overflows the 4 GB executor memory while `N/m <= 4` fits.
pub const PARTITION_BYTES: u64 = 640 * 1024 * 1024;

/// The calibrated NWeight job: one shuffle-heavy stage per hop.
pub fn job(problem_size: u32, parallelism: u32) -> SparkJobSpec {
    let mut spec = SparkJobSpec::emr("nweight", problem_size, parallelism);
    for hop in 0..HOPS {
        // Later hops carry larger neighbourhoods: shuffle grows.
        let growth = 1 + hop as u64;
        spec = spec.stage(
            StageSpec::new(&format!("hop-{}", hop + 1), problem_size)
                .with_task_compute(1.4)
                .with_input_bytes(PARTITION_BYTES)
                .with_cached_input(true)
                .with_shuffle_output(HOP_SHUFFLE_BYTES * growth),
        );
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_is_shuffle_heavy_per_hop() {
        let j = job(32, 8);
        assert!(j.validate().is_ok());
        assert_eq!(j.stages.len(), HOPS as usize);
        assert!(j.stages[2].shuffle_output_per_task > j.stages[0].shuffle_output_per_task);
    }

    #[test]
    fn fixed_time_speedup_saturates_from_shuffle() {
        use ipso_spark::sweep_fixed_time;
        let pts = sweep_fixed_time(job, 2, &[4, 16, 64]).unwrap();
        // Shuffle-bound: efficiency (S/m) degrades with m.
        let e0 = pts[0].speedup / 4.0;
        let e2 = pts[2].speedup / 64.0;
        assert!(e2 < e0, "efficiency should fall: {e0} -> {e2}");
    }
}
