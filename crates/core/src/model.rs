//! The deterministic IPSO model (paper Eq. 10).

use crate::error::{check_eta, check_scale_out};
use crate::factors::ScalingFactor;
use crate::ModelError;

/// The deterministic IPSO model.
///
/// Combines the parallelizable fraction `η` (paper Eq. 11) with the three
/// scaling factors `EX(n)`, `IN(n)` and `q(n)` and evaluates the speedup of
/// Eq. 10:
///
/// ```text
///          η·EX(n) + (1−η)·IN(n)
/// S(n) = ─────────────────────────────────────────
///        η·EX(n)/n·(1 + q(n)) + (1−η)·IN(n)
/// ```
///
/// # Example
///
/// ```
/// use ipso::{IpsoModel, ScalingFactor};
///
/// # fn main() -> Result<(), ipso::ModelError> {
/// // Gustafson's law is the special case EX(n) = n, IN(n) = 1, q(n) = 0.
/// let model = IpsoModel::builder(0.75)
///     .external(ScalingFactor::linear())
///     .build()?;
/// let s = model.speedup(16.0)?;
/// assert!((s - (0.75 * 16.0 + 0.25)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IpsoModel {
    eta: f64,
    external: ScalingFactor,
    internal: ScalingFactor,
    induced: ScalingFactor,
}

/// Builder for [`IpsoModel`]. Defaults reproduce Amdahl's law:
/// `EX(n) = 1`, `IN(n) = 1`, `q(n) = 0`.
#[derive(Debug, Clone)]
pub struct IpsoModelBuilder {
    eta: f64,
    external: ScalingFactor,
    internal: ScalingFactor,
    induced: ScalingFactor,
}

impl IpsoModelBuilder {
    /// Sets the external scaling factor `EX(n)`.
    pub fn external(mut self, factor: ScalingFactor) -> Self {
        self.external = factor;
        self
    }

    /// Sets the internal scaling factor `IN(n)`.
    pub fn internal(mut self, factor: ScalingFactor) -> Self {
        self.internal = factor;
        self
    }

    /// Sets the scale-out-induced factor `q(n)`.
    pub fn induced(mut self, factor: ScalingFactor) -> Self {
        self.induced = factor;
        self
    }

    /// Validates parameters and constructs the model. `EX` and `IN` are
    /// rescaled so that `EX(1) = IN(1) = 1`, which accepts factors fitted
    /// from raw measurements.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidEta`] if `η ∉ (0, 1]`;
    /// * [`ModelError::BoundaryCondition`] if the rescaled `EX(1)` or
    ///   `IN(1)` is not 1, or `q(1)` is materially non-zero;
    /// * [`ModelError::InvalidFactor`] for structurally invalid factors or
    ///   factors that go non-positive over a sanity probe range.
    pub fn build(self) -> Result<IpsoModel, ModelError> {
        check_eta(self.eta)?;
        self.external.validate_structure()?;
        self.internal.validate_structure()?;
        self.induced.validate_structure()?;

        let external = self.external.normalized()?;
        let internal = self.internal.normalized()?;

        for (name, factor) in [("EX", &external), ("IN", &internal)] {
            let at_one = factor.eval(1.0);
            if (at_one - 1.0).abs() > 1e-9 {
                return Err(ModelError::BoundaryCondition {
                    factor: name,
                    expected: 1.0,
                    actual: at_one,
                });
            }
        }
        // q(1) = 0 by definition (sequential execution induces no scale-out
        // workload). Tolerate tiny fitting residue.
        let q1 = self.induced.eval(1.0);
        if q1.abs() > 1e-6 {
            return Err(ModelError::BoundaryCondition {
                factor: "q",
                expected: 0.0,
                actual: q1,
            });
        }

        Ok(IpsoModel {
            eta: self.eta,
            external,
            internal,
            induced: self.induced,
        })
    }
}

impl IpsoModel {
    /// Starts building a model with parallelizable fraction `eta` at
    /// `n = 1` (paper Eq. 11). Defaults are Amdahl's: `EX = 1`, `IN = 1`,
    /// `q = 0`.
    pub fn builder(eta: f64) -> IpsoModelBuilder {
        IpsoModelBuilder {
            eta,
            external: ScalingFactor::one(),
            internal: ScalingFactor::one(),
            induced: ScalingFactor::zero(),
        }
    }

    /// The parallelizable fraction η at `n = 1`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The external scaling factor `EX(n)`.
    pub fn external(&self) -> &ScalingFactor {
        &self.external
    }

    /// The internal scaling factor `IN(n)`.
    pub fn internal(&self) -> &ScalingFactor {
        &self.internal
    }

    /// The scale-out-induced factor `q(n)`.
    pub fn induced(&self) -> &ScalingFactor {
        &self.induced
    }

    /// Normalized parallelizable workload `Wp(n)/W(1) = η·EX(n)` where
    /// `W(1) = Wp(1) + Ws(1)`.
    pub fn parallel_workload(&self, n: f64) -> f64 {
        self.eta * self.external.eval(n)
    }

    /// Normalized serial workload `Ws(n)/W(1) = (1−η)·IN(n)`.
    pub fn serial_workload(&self, n: f64) -> f64 {
        (1.0 - self.eta) * self.internal.eval(n)
    }

    /// Normalized scale-out-induced workload
    /// `Wo(n)/W(1) = η·EX(n)/n·q(n)` (paper Eq. 6).
    pub fn induced_workload(&self, n: f64) -> f64 {
        self.eta * self.external.eval(n) / n * self.induced.eval(n)
    }

    /// Normalized sequential execution time (the numerator of Eq. 10):
    /// `η·EX(n) + (1−η)·IN(n)`.
    pub fn sequential_time(&self, n: f64) -> f64 {
        self.parallel_workload(n) + self.serial_workload(n)
    }

    /// Normalized parallel execution time (the denominator of Eq. 10):
    /// `η·EX(n)/n·(1 + q(n)) + (1−η)·IN(n)`.
    pub fn parallel_time(&self, n: f64) -> f64 {
        self.parallel_workload(n) / n + self.induced_workload(n) + self.serial_workload(n)
    }

    /// The deterministic IPSO speedup `S(n)` (paper Eq. 10).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScaleOut`] for `n < 1` or non-finite
    /// `n`, and [`ModelError::NonFinite`] if the factors produce a
    /// non-finite or non-positive denominator.
    pub fn speedup(&self, n: f64) -> Result<f64, ModelError> {
        check_scale_out(n)?;
        let numerator = self.sequential_time(n);
        let denominator = self.parallel_time(n);
        if !numerator.is_finite() || !denominator.is_finite() || denominator <= 0.0 {
            return Err(ModelError::NonFinite("speedup"));
        }
        Ok(numerator / denominator)
    }

    /// Finds the scale-out degree in `[1, n_max]` that maximizes the
    /// speedup, returning `(n, S(n))`. Useful for pathological (type IV)
    /// workloads whose speedup peaks and falls.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors and rejects `n_max < 1`.
    pub fn peak_speedup(&self, n_max: u32) -> Result<(u32, f64), ModelError> {
        if n_max < 1 {
            return Err(ModelError::InvalidScaleOut(n_max as f64));
        }
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

    #[test]
    fn default_build_is_amdahl() {
        let model = IpsoModel::builder(0.9).build().unwrap();
        // Amdahl: S(n) = 1 / (η/n + (1−η))
        for n in [1.0, 2.0, 8.0, 64.0, 1024.0] {
            let expected = 1.0 / (0.9 / n + 0.1);
            assert!((model.speedup(n).unwrap() - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn gustafson_special_case() {
        let model = IpsoModel::builder(0.6)
            .external(ScalingFactor::linear())
            .build()
            .unwrap();
        for n in [1.0, 4.0, 100.0] {
            let expected = 0.6 * n + 0.4;
            assert!((model.speedup(n).unwrap() - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn speedup_at_one_is_unity() {
        let model = IpsoModel::builder(0.8)
            .external(ScalingFactor::linear())
            .internal(ScalingFactor::affine(0.5, 0.5))
            .induced(ScalingFactor::induced(0.02, 2.0))
            .build()
            .unwrap();
        assert!((model.speedup(1.0).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn in_proportion_scaling_bounds_fixed_time_speedup() {
        // δ = 0: EX = n, IN = n ⇒ IIIt with bound (ηα + 1 − η)/(1 − η), α = 1.
        let eta = 0.5;
        let model = IpsoModel::builder(eta)
            .external(ScalingFactor::linear())
            .internal(ScalingFactor::linear())
            .build()
            .unwrap();
        let bound = (eta + (1.0 - eta)) / (1.0 - eta);
        let s_large = model.speedup(1e6).unwrap();
        assert!(s_large < bound);
        assert!(s_large > 0.99 * bound, "s = {s_large}, bound = {bound}");
    }

    #[test]
    fn superlinear_induced_overhead_peaks_and_falls() {
        // γ = 2 ⇒ type IV: the speedup peaks then decays.
        let model = IpsoModel::builder(1.0)
            .external(ScalingFactor::linear())
            .induced(ScalingFactor::induced(0.001, 2.0))
            .build()
            .unwrap();
        let (n_peak, s_peak) = model.peak_speedup(500).unwrap();
        assert!(n_peak > 1 && n_peak < 500);
        assert!(s_peak > model.speedup(500.0).unwrap());
        assert!(s_peak > model.speedup(2.0).unwrap());
    }

    #[test]
    fn workload_decomposition_sums_to_parallel_time() {
        let model = IpsoModel::builder(0.7)
            .external(ScalingFactor::linear())
            .internal(ScalingFactor::affine(0.3, 0.7))
            .induced(ScalingFactor::induced(0.01, 1.0))
            .build()
            .unwrap();
        let n = 12.0;
        let lhs = model.parallel_time(n);
        let rhs =
            model.parallel_workload(n) / n + model.serial_workload(n) + model.induced_workload(n);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_eta() {
        assert!(matches!(
            IpsoModel::builder(0.0).build().unwrap_err(),
            ModelError::InvalidEta(_)
        ));
        assert!(matches!(
            IpsoModel::builder(1.2).build().unwrap_err(),
            ModelError::InvalidEta(_)
        ));
    }

    #[test]
    fn builder_normalizes_fitted_factors() {
        // Raw fitted Sort IN(n) = 0.36n − 0.11 has IN(1) = 0.25; the builder
        // rescales it.
        let model = IpsoModel::builder(0.9)
            .external(ScalingFactor::linear())
            .internal(ScalingFactor::affine(0.36, -0.11))
            .build()
            .unwrap();
        assert!((model.internal().eval(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_nonzero_q_at_one() {
        let err = IpsoModel::builder(0.9)
            .induced(ScalingFactor::Constant(0.5))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::BoundaryCondition { factor: "q", .. }
        ));
    }

    #[test]
    fn speedup_rejects_invalid_n() {
        let model = IpsoModel::builder(0.9).build().unwrap();
        assert!(model.speedup(0.5).is_err());
        assert!(model.speedup(f64::NAN).is_err());
    }
}
