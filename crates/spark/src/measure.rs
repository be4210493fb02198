//! Speedup measurement and the paper's two sweep dimensions.
//!
//! The paper projects Spark speedups onto two dimensions while scaling the
//! parallel degree `n = m`:
//!
//! * **fixed-time** — the per-executor load `N/m` is held constant
//!   (Fig. 9);
//! * **fixed-size** — the problem size `N` is held constant (Fig. 10).

use ipso_cluster::ClusterError;

use crate::engine::{run_sequential_reference, try_run_job};
use crate::job::SparkJobSpec;

/// One point of a Spark scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkSweepPoint {
    /// Parallel degree `m` (= scale-out degree `n`).
    pub m: u32,
    /// Problem size `N` used at this point.
    pub problem_size: u32,
    /// Measured speedup versus the sequential reference.
    pub speedup: f64,
    /// Parallel wall-clock time, seconds.
    pub total_time: f64,
    /// Scale-out-induced overhead time, seconds.
    pub overhead_time: f64,
}

/// Sweeps the fixed-time dimension: `N = load_level · m` for each `m`.
///
/// `make_job(problem_size, parallelism)` builds the fully-staged job —
/// the workload crates provide these constructors.
///
/// # Errors
///
/// Returns the first point's [`try_run_job`] error, in `ms` order; a
/// zero `load_level` is rejected as a zero problem size.
pub fn sweep_fixed_time(
    mut make_job: impl FnMut(u32, u32) -> SparkJobSpec,
    load_level: u32,
    ms: &[u32],
) -> Result<Vec<SparkSweepPoint>, ClusterError> {
    ms.iter()
        .map(|&m| point(&make_job(load_level * m, m), m))
        .collect()
}

/// Sweeps the fixed-size dimension: `N` constant for each `m`.
///
/// # Errors
///
/// Returns the first point's [`try_run_job`] error, in `ms` order; a
/// zero `problem_size` is rejected by validation.
pub fn sweep_fixed_size(
    mut make_job: impl FnMut(u32, u32) -> SparkJobSpec,
    problem_size: u32,
    ms: &[u32],
) -> Result<Vec<SparkSweepPoint>, ClusterError> {
    ms.iter()
        .map(|&m| point(&make_job(problem_size, m), m))
        .collect()
}

fn point(spec: &SparkJobSpec, m: u32) -> Result<SparkSweepPoint, ClusterError> {
    let par = try_run_job(spec)?;
    let seq = run_sequential_reference(spec);
    Ok(SparkSweepPoint {
        m,
        problem_size: spec.problem_size,
        speedup: seq / par.total_time,
        total_time: par.total_time,
        overhead_time: par.overhead_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageSpec;
    use ipso_sim::Distribution;

    /// A two-stage job shaped like the paper's ML benchmarks: a heavy
    /// training stage with a broadcast plus a small aggregation.
    fn ml_job(n: u32, m: u32) -> SparkJobSpec {
        let mut job = SparkJobSpec::emr("ml", n, m)
            .stage(
                StageSpec::new("train", n)
                    .with_task_compute(2.0)
                    .with_input_bytes(64 * 1024 * 1024)
                    .with_broadcast(8 * 1024 * 1024)
                    .with_shuffle_output(1024 * 1024),
            )
            .stage(StageSpec::new("aggregate", m.max(1)).with_task_compute(0.3));
        job.straggler = Distribution::Fixed { value: 1.0 };
        job
    }

    #[test]
    fn fixed_time_speedup_grows_then_saturates() {
        let pts = sweep_fixed_time(ml_job, 4, &[1, 2, 4, 8, 16, 32, 64]).unwrap();
        assert_eq!(pts.len(), 7);
        // Growing at the start.
        assert!(pts[3].speedup > pts[1].speedup);
        // Sublinear at scale: S(64) well below 64.
        assert!(pts[6].speedup < 50.0);
        assert!(pts[6].speedup > pts[6].overhead_time); // sanity: finite values
    }

    #[test]
    fn higher_load_level_scales_better() {
        // The paper's Fig. 9 ordering: N/m = 4 outperforms N/m = 1 because
        // first-wave overhead amortizes over more tasks.
        let low = sweep_fixed_time(ml_job, 1, &[8, 16, 32]).unwrap();
        let high = sweep_fixed_time(ml_job, 4, &[8, 16, 32]).unwrap();
        for (l, h) in low.iter().zip(&high) {
            assert!(
                h.speedup > l.speedup,
                "m = {}: N/m=4 gives {}, N/m=1 gives {}",
                l.m,
                h.speedup,
                l.speedup
            );
        }
    }

    #[test]
    fn fixed_size_speedup_peaks_and_falls() {
        let pts = sweep_fixed_size(ml_job, 32, &[1, 2, 4, 8, 16, 32, 64, 128]).unwrap();
        let peak = pts
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .unwrap();
        let last = pts.last().unwrap();
        assert!(peak.m < 128, "peak at m = {}", peak.m);
        assert!(last.speedup < peak.speedup, "no fall after peak");
    }

    #[test]
    fn speedup_matches_manual_ratio() {
        let spec = ml_job(8, 4);
        let s = point(&spec, 4).unwrap().speedup;
        let manual = run_sequential_reference(&spec) / try_run_job(&spec).unwrap().total_time;
        assert!((s - manual).abs() < 1e-12);
    }

    #[test]
    fn zero_load_level_rejected() {
        for err in [
            sweep_fixed_time(ml_job, 0, &[1]).unwrap_err(),
            sweep_fixed_size(ml_job, 0, &[1]).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    ClusterError::InvalidParameter {
                        what: "problem size",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }
}
