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
//! This module provides three layers:
//!
//! * [`TABLE_I`] — the paper's measured data, used directly by the
//!   Fig. 8 reproduction;
//! * [`als_factorize`] — a real miniature ALS kernel (rank-1 alternating
//!   least squares over generated ratings), demonstrating the actual
//!   computation whose scaling the model describes;
//! * [`job`] — a calibrated Spark job whose simulated execution exhibits
//!   the same `E[max Tp,i(n)] ≈ a/n`, `Wo(n) ≈ 0.55·n` behaviour.

use ipso::predict::FixedSizeSample;
use ipso_cluster::StragglerModel;
use ipso_spark::{SparkJobSpec, StageSpec};

use crate::datagen::Rating;

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

/// Rank-1 ALS: alternately solves for user and item factors minimizing
/// squared rating error. Returns `(user_factors, item_factors)`.
///
/// # Panics
///
/// Panics if `ratings` is empty or an index exceeds the given dimensions.
pub fn als_factorize(
    ratings: &[Rating],
    users: u32,
    items: u32,
    iterations: u32,
) -> (Vec<f64>, Vec<f64>) {
    assert!(!ratings.is_empty(), "ALS needs at least one rating");
    let mut x = vec![1.0f64; users as usize];
    let mut y = vec![1.0f64; items as usize];
    for r in ratings {
        assert!(
            r.user < users && r.item < items,
            "rating index out of bounds"
        );
    }
    // Small ridge term keeps unobserved rows finite.
    let lambda = 1e-6;
    for _ in 0..iterations {
        // Solve x given y: x_u = Σ r·y_i / (Σ y_i² + λ).
        let mut num = vec![0.0f64; users as usize];
        let mut den = vec![lambda; users as usize];
        for r in ratings {
            num[r.user as usize] += r.value * y[r.item as usize];
            den[r.user as usize] += y[r.item as usize] * y[r.item as usize];
        }
        for u in 0..users as usize {
            if den[u] > lambda {
                x[u] = num[u] / den[u];
            }
        }
        // Solve y given x.
        let mut num = vec![0.0f64; items as usize];
        let mut den = vec![lambda; items as usize];
        for r in ratings {
            num[r.item as usize] += r.value * x[r.user as usize];
            den[r.item as usize] += x[r.user as usize] * x[r.user as usize];
        }
        for i in 0..items as usize {
            if den[i] > lambda {
                y[i] = num[i] / den[i];
            }
        }
    }
    (x, y)
}

/// Root-mean-square rating-prediction error of a factorization.
pub fn rmse(ratings: &[Rating], x: &[f64], y: &[f64]) -> f64 {
    let se: f64 = ratings
        .iter()
        .map(|r| {
            let p = x[r.user as usize] * y[r.item as usize];
            (p - r.value).powi(2)
        })
        .sum();
    (se / ratings.len() as f64).sqrt()
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
    spec.straggler = StragglerModel::Uniform { spread: 0.03 };
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
    use crate::datagen::random_ratings;
    use ipso::predict::FixedSizePredictor;
    use ipso_sim::SimRng;
    use ipso_spark::{sweep_fixed_size, try_run_job};

    #[test]
    fn als_reduces_rmse() {
        let mut rng = SimRng::seed_from(77);
        let ratings = random_ratings(60, 80, 3000, &mut rng);
        let (x0, y0) = (vec![1.0; 60], vec![1.0; 80]);
        let before = rmse(&ratings, &x0, &y0);
        let (x, y) = als_factorize(&ratings, 60, 80, 8);
        let after = rmse(&ratings, &x, &y);
        assert!(after < 0.6 * before, "rmse {before} -> {after}");
        assert!(after < 1.0, "absolute rmse {after}");
    }

    #[test]
    fn als_recovers_exact_rank1_matrix() {
        // Ratings generated exactly from u·v have a perfect rank-1 fit.
        let mut ratings = Vec::new();
        let u_true = [1.0, 2.0, 3.0];
        let v_true = [0.5, 1.5];
        for (ui, &uv) in u_true.iter().enumerate() {
            for (vi, &vv) in v_true.iter().enumerate() {
                ratings.push(Rating {
                    user: ui as u32,
                    item: vi as u32,
                    value: uv * vv,
                });
            }
        }
        let (x, y) = als_factorize(&ratings, 3, 2, 20);
        assert!(rmse(&ratings, &x, &y) < 1e-6);
    }

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
        let pts = sweep_fixed_size(job, CF_TASKS, &[10, 20, 30, 45, 60, 90, 120, 180]);
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
