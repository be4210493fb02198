//! Scaling prediction (paper Section V).
//!
//! The paper's central practical claim: *"as long as the three scaling
//! factors … can be accurately estimated at small problem sizes, the
//! speedups at large problem sizes may be predicted with high accuracy."*
//!
//! Two pipelines are implemented:
//!
//! * [`ScalingPredictor`] — the MapReduce pipeline (Figs. 6–7): estimate
//!   `EX`, `IN`, `q` from run decompositions with `n ≤ window`, build the
//!   deterministic model, extrapolate.
//! * [`FixedSizePredictor`] — the Collaborative Filtering pipeline
//!   (Table I / Fig. 8): fit `E[max Tp,i(n)] = a/n + c` and
//!   `Wo(n) = b·n^γ` by nonlinear regression, extrapolate `E[Tp,1(1)]`
//!   to `n = 1`, and evaluate Eq. 18.

use crate::estimate::{estimate_factors_windowed, FactorEstimates};
use crate::measurement::RunMeasurement;
use crate::model::IpsoModel;
use crate::stochastic::fixed_size_speedup;
use crate::ModelError;
use ipso_fit::{fit_power_law, levenberg_marquardt};

/// Predicts large-`n` speedups from small-`n` run decompositions.
///
/// # Example
///
/// ```no_run
/// use ipso::predict::ScalingPredictor;
/// # fn runs() -> Vec<ipso::RunMeasurement> { Vec::new() }
///
/// # fn main() -> Result<(), ipso::ModelError> {
/// let measurements = runs(); // RunMeasurements with n up to 160
/// let predictor = ScalingPredictor::fit(&measurements, 16)?;
/// let s_160 = predictor.predict(160.0)?;
/// println!("predicted S(160) = {s_160:.1}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScalingPredictor {
    estimates: FactorEstimates,
    model: IpsoModel,
    window: u32,
}

impl ScalingPredictor {
    /// Fits the predictor using only measurements with `n ≤ window`
    /// (the paper uses `n ≤ 16` for WordCount, Sort and QMC, and
    /// `16 ≤ n ≤ 64` for TeraSort to skip the pre-spill regime):
    /// [`ScalingPredictor::fit_range`] over `[0, window]`.
    ///
    /// # Errors
    ///
    /// Propagates estimation and model-construction errors, including
    /// validation errors of runs outside the window; returns
    /// [`ModelError::InsufficientData`] when the window holds fewer than
    /// three runs.
    pub fn fit(runs: &[RunMeasurement], window: u32) -> Result<Self, ModelError> {
        Self::fit_range(runs, 0, window)
    }

    /// Fits the scaling factors using only runs in the `[lo, hi]` window
    /// of scale-out degrees, while the smallest run overall still provides
    /// the `n = 1` workload reference — the paper's TeraSort methodology
    /// (fit on `16 ≤ n ≤ 64` to skip the pre-spill regime).
    ///
    /// # Errors
    ///
    /// Same as [`ScalingPredictor::fit`].
    pub fn fit_range(runs: &[RunMeasurement], lo: u32, hi: u32) -> Result<Self, ModelError> {
        let estimates = estimate_factors_windowed(runs, lo, hi)?;
        let model = estimates.to_model()?;
        Ok(ScalingPredictor {
            estimates,
            model,
            window: hi,
        })
    }

    /// The factor estimates behind the prediction.
    pub fn estimates(&self) -> &FactorEstimates {
        &self.estimates
    }

    /// The fitted deterministic model.
    pub fn model(&self) -> &IpsoModel {
        &self.model
    }

    /// The fitting window used.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Predicts the speedup at scale-out degree `n`.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    pub fn predict(&self, n: f64) -> Result<f64, ModelError> {
        self.model.speedup(n)
    }
}

/// One measurement row of the fixed-size (Collaborative Filtering)
/// pipeline — paper Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedSizeSample {
    /// Scale-out degree.
    pub n: u32,
    /// Measured `E[max_i Tp,i(n)]` (s).
    pub max_task_time: f64,
    /// Measured scale-out-induced workload `Wo(n)` (s).
    pub overhead: f64,
}

/// The fitted fixed-size predictor (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedSizePredictor {
    /// Coefficient `a` of `E[max Tp,i(n)] = a/n + c`.
    pub task_coeff: f64,
    /// Offset `c` of the task-time curve.
    pub task_offset: f64,
    /// Coefficient `b` of the measured overhead `Wo(n) = b·n^(γ−1)`.
    pub overhead_coeff: f64,
    /// Exponent `γ` of the *induced factor* `q(n) = Wo(n)·n/Wp(1) ≈ β·n^γ`
    /// (paper Eqs. 6 and 15). A linearly growing broadcast overhead
    /// `Wo(n) ∝ n` therefore yields `γ = 2`, as the paper finds for
    /// Collaborative Filtering.
    pub gamma: f64,
    /// Extrapolated single-unit task time `E[Tp,1(1)] = a + c`.
    pub tp1: f64,
}

impl FixedSizePredictor {
    /// Fits the two workload curves by nonlinear regression.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientData`] with fewer than three
    /// samples, or regression errors.
    pub fn fit(samples: &[FixedSizeSample]) -> Result<Self, ModelError> {
        if samples.len() < 3 {
            return Err(ModelError::InsufficientData {
                points: samples.len(),
                required: 3,
            });
        }
        let ns: Vec<f64> = samples.iter().map(|s| s.n as f64).collect();
        let tmax: Vec<f64> = samples.iter().map(|s| s.max_task_time).collect();
        let wo: Vec<f64> = samples.iter().map(|s| s.overhead).collect();

        // E[max Tp,i(n)] = a/n + c. Seed a from the first point.
        let seed_a = tmax[0] * ns[0];
        let task_fit = levenberg_marquardt(|p, n| p[0] / n + p[1], &ns, &tmax, &[seed_a, 0.0])?;

        // Measured overhead Wo(n) = b·n^w; the induced factor gains one
        // power of n: q(n) = Wo(n)·n/Wp(1) ≈ β·n^(w+1), so γ = w + 1.
        let overhead_fit = fit_power_law(&ns, &wo)?;

        let (a, c) = (task_fit.params[0], task_fit.params[1]);
        Ok(FixedSizePredictor {
            task_coeff: a,
            task_offset: c,
            overhead_coeff: overhead_fit.coefficient,
            gamma: overhead_fit.exponent + 1.0,
            tp1: a + c,
        })
    }

    /// Predicted `E[max Tp,i(n)]`.
    pub fn max_task_time(&self, n: f64) -> f64 {
        self.task_coeff / n + self.task_offset
    }

    /// Predicted `Wo(n) = b·n^(γ−1)`.
    pub fn overhead(&self, n: f64) -> f64 {
        self.overhead_coeff * n.powf(self.gamma - 1.0)
    }

    /// Predicted speedup via Eq. 18.
    ///
    /// # Errors
    ///
    /// Propagates [`fixed_size_speedup`] errors.
    pub fn speedup(&self, n: f64) -> Result<f64, ModelError> {
        fixed_size_speedup(self.tp1, self.max_task_time(n), self.overhead(n))
    }

    /// The scale-out degree maximizing the predicted speedup in
    /// `[1, n_max]`, with its value. The paper finds the CF peak near
    /// `n = 60` at `S ≈ 21`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn peak(&self, n_max: u32) -> Result<(u32, f64), ModelError> {
        let mut best = (1u32, self.speedup(1.0)?);
        for n in 2..=n_max {
            let s = self.speedup(n as f64)?;
            if s > best.1 {
                best = (n, s);
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I.
    fn table1() -> Vec<FixedSizeSample> {
        vec![
            FixedSizeSample {
                n: 10,
                max_task_time: 209.0,
                overhead: 5.5,
            },
            FixedSizeSample {
                n: 30,
                max_task_time: 79.3,
                overhead: 17.7,
            },
            FixedSizeSample {
                n: 60,
                max_task_time: 43.7,
                overhead: 36.0,
            },
            FixedSizeSample {
                n: 90,
                max_task_time: 31.1,
                overhead: 54.3,
            },
        ]
    }

    #[test]
    fn collaborative_filtering_gamma_is_two() {
        let p = FixedSizePredictor::fit(&table1()).unwrap();
        // Wo grows slightly sub-quadratically in the raw data; the paper
        // rounds to γ = 2.
        assert!((p.gamma - 2.0).abs() < 0.25, "gamma = {}", p.gamma);
    }

    #[test]
    fn collaborative_filtering_tp1_near_paper_value() {
        let p = FixedSizePredictor::fit(&table1()).unwrap();
        // The paper extrapolates E[Tp,1(1)] = 1602.5.
        assert!(
            (p.tp1 - 1602.5).abs() / 1602.5 < 0.35,
            "tp1 = {} (paper: 1602.5)",
            p.tp1
        );
    }

    #[test]
    fn collaborative_filtering_peaks_mid_range() {
        let p = FixedSizePredictor::fit(&table1()).unwrap();
        let (n_peak, s_peak) = p.peak(200).unwrap();
        // Paper: dismal speedup of 21 at its peak near n = 60, then decay.
        assert!((30..=90).contains(&n_peak), "peak at n = {n_peak}");
        assert!((10.0..=35.0).contains(&s_peak), "peak speedup = {s_peak}");
        assert!(p.speedup(200.0).unwrap() < s_peak);
    }

    /// The Levenberg–Marquardt fit of Table I, bit for bit: a change to
    /// the solver's iteration budget, tolerance, damping or
    /// finite-difference step shows here.
    #[test]
    fn table1_fit_matches_pinned_bits() {
        let p = FixedSizePredictor::fit(&table1()).unwrap();
        let bits = [
            p.task_coeff.to_bits(),
            p.task_offset.to_bits(),
            p.overhead_coeff.to_bits(),
            p.gamma.to_bits(),
            p.tp1.to_bits(),
        ];
        assert_eq!(
            bits,
            [
                0x409f150cfa1a76eb,
                0x40254dc8796a17de,
                0x3fe013b66f5fc616,
                0x400057a217556034,
                0x409f3fa88b0d4b1b,
            ]
        );
    }

    #[test]
    fn fixed_size_fit_requires_three_samples() {
        let err = FixedSizePredictor::fit(&table1()[..2]).unwrap_err();
        assert!(matches!(err, ModelError::InsufficientData { .. }));
    }

    fn synth_runs(n_values: &[u32]) -> Vec<RunMeasurement> {
        // Sort-like: EX = n, IN = 0.36n + 0.64, no overhead.
        n_values
            .iter()
            .map(|&n| {
                let nf = n as f64;
                RunMeasurement {
                    n,
                    seq_parallel_work: 50.0 * nf,
                    seq_serial_work: 10.0 * (0.36 * nf + 0.64),
                    par_map_time: 50.0,
                    par_serial_time: 10.0 * (0.36 * nf + 0.64),
                    par_overhead: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn small_window_predicts_large_n() {
        let all = synth_runs(&[1, 2, 4, 8, 12, 16, 32, 64, 128, 160]);
        let predictor = ScalingPredictor::fit(&all, 16).unwrap();
        for r in all.iter().filter(|r| r.n > 16) {
            let predicted = predictor.predict(r.n as f64).unwrap();
            let measured = r.speedup();
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.02,
                "n = {}: predicted {predicted}, measured {measured}",
                r.n
            );
        }
    }

    #[test]
    fn window_excludes_large_runs() {
        let all = synth_runs(&[1, 2, 4, 8, 16, 64]);
        let p = ScalingPredictor::fit(&all, 16).unwrap();
        assert_eq!(p.window(), 16);
        assert_eq!(p.estimates().external_samples.len(), 5);
    }

    #[test]
    fn fit_range_selects_interval() {
        let all = synth_runs(&[1, 2, 4, 8, 16, 24, 32, 48, 64]);
        let p = ScalingPredictor::fit_range(&all, 16, 64).unwrap();
        assert_eq!(p.estimates().external_samples.len(), 5);
    }
}
