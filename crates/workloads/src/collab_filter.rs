//! Collaborative Filtering (paper Section V-A "Fixed-size Workload",
//! Table I and Fig. 8).
//!
//! The paper analyzes the iterative Spark collaborative-filtering
//! application of Chowdhury et al. (Orchestra, SIGCOMM '11): each
//! iteration alternately updates two feature vectors, requiring two
//! driver broadcasts and two barrier-synchronized map rounds, with *no*
//! reduce phase (`Ws(n) = 0`). The broadcast is serialized at the master,
//! so the measured overhead `Wo(n)` grows linearly in `n` and the induced
//! factor `q(n) = Wo(n)·n/Wp(1)` grows *quadratically* — the pathological
//! IVs type whose speedup peaks near `n = 60` at a dismal ≈ 21 and then
//! decays.
//!
//! This module provides two layers:
//!
//! * [`TABLE_I`] — the paper's measured data, used directly by the
//!   Fig. 8 reproduction;
//! * [`job`] — a calibrated stage spec whose simulated execution exhibits
//!   the same `E[max Tp,i(n)] ≈ a/n`, `Wo(n) ≈ 0.55·n` behaviour. No
//!   ratings are generated or factorized.

use ipso::predict::FixedSizeSample;
use ipso_sim::Distribution;
use ipso_spark::{SparkJobSpec, StageSpec};

/// The paper's Table I: `(n, E[max Tp,i(n)], Wo(n))` in seconds.
pub const TABLE_I: [(u32, f64, f64); 4] = [
    (10, 209.0, 5.5),
    (30, 79.3, 17.7),
    (60, 43.7, 36.0),
    (90, 31.1, 54.3),
];

/// Table I as [`FixedSizeSample`]s for the prediction pipeline.
pub fn table1_samples() -> Vec<FixedSizeSample> {
    TABLE_I
        .iter()
        .map(|&(n, max_task_time, overhead)| FixedSizeSample {
            n,
            max_task_time,
            overhead,
        })
        .collect()
}

/// Number of tasks of the fixed-size job (divisible by every `m` the
/// paper uses).
pub const CF_TASKS: u32 = 360;
/// ALS iterations per job (each with two broadcast + map rounds).
pub const CF_ITERATIONS: u32 = 3;
/// Per-task compute seconds, calibrated so `m = 10` executors take
/// ≈ 209 s of split-phase time as in Table I (360/10 waves × 5.8 s).
const TASK_COMPUTE: f64 = 5.8;
/// Broadcast payload per round, calibrated so `Wo(n) ≈ 0.55·n`
/// (6 serialized rounds × bytes / 250 MB/s master NIC = 0.55 s per node).
const BROADCAST_BYTES: u64 = 22_900_000;

/// The calibrated fixed-size Collaborative Filtering job at parallel
/// degree `m` (the problem size is fixed at [`CF_TASKS`]).
pub fn job(_problem_size: u32, parallelism: u32) -> SparkJobSpec {
    let mut spec = SparkJobSpec::emr("collab-filter", CF_TASKS, parallelism);
    spec.straggler = Distribution::jitter(0.03);
    spec.first_wave_cost = 0.1;
    for iter in 0..CF_ITERATIONS {
        // Two alternating feature-vector updates per iteration, each
        // preceded by a driver broadcast; no reduce phase (Ws = 0).
        for half in ["users", "items"] {
            spec = spec.stage(
                StageSpec::new(&format!("iter{iter}-{half}"), CF_TASKS)
                    .with_task_compute(TASK_COMPUTE * f64::from(CF_ITERATIONS).recip() / 2.0)
                    .with_broadcast(BROADCAST_BYTES),
            );
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipso::predict::FixedSizePredictor;
    use ipso_spark::{sweep_fixed_size, try_run_job};

    #[test]
    fn table1_matches_paper() {
        let s = table1_samples();
        assert_eq!(s.len(), 4);
        assert_eq!(s[2].n, 60);
        assert!((s[2].max_task_time - 43.7).abs() < 1e-12);
        assert!((s[3].overhead - 54.3).abs() < 1e-12);
    }

    #[test]
    fn table1_pipeline_finds_the_paper_peak() {
        let p = FixedSizePredictor::fit(&table1_samples()).unwrap();
        let (n_peak, s_peak) = p.peak(200).unwrap();
        assert!((40..=80).contains(&n_peak), "peak at n = {n_peak}");
        assert!((15.0..=30.0).contains(&s_peak), "peak S = {s_peak}");
    }

    #[test]
    fn simulated_job_reproduces_table1_shape() {
        // E[max Tp,i(n)] ≈ a/n: split-phase time at m = 10 near 209 s.
        let run10 = try_run_job(&job(CF_TASKS, 10)).unwrap();
        let compute10 = run10.total_time - run10.overhead_time;
        assert!(
            (160.0..260.0).contains(&compute10),
            "split time at m = 10: {compute10}"
        );
        // Wo ≈ 0.55·n: overhead at m = 60 near 36 s.
        let run60 = try_run_job(&job(CF_TASKS, 60)).unwrap();
        assert!(
            (25.0..50.0).contains(&run60.overhead_time),
            "Wo(60) = {}",
            run60.overhead_time
        );
    }

    #[test]
    fn simulated_sweep_peaks_near_60() {
        let pts = sweep_fixed_size(job, CF_TASKS, &[10, 20, 30, 45, 60, 90, 120, 180]).unwrap();
        let peak = pts
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .unwrap();
        assert!(
            (30..=90).contains(&peak.m),
            "simulated CF peak at m = {} (S = {})",
            peak.m,
            peak.speedup
        );
        let last = pts.last().unwrap();
        assert!(last.speedup < peak.speedup, "no decay after the peak");
    }
}
