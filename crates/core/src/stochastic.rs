//! The statistic (stochastic) IPSO model (paper Eqs. 7–8 and 18).
//!
//! The deterministic model assumes every parallel task takes exactly the
//! same time. In practice task times are random — stragglers, queueing —
//! and barrier synchronization makes the split phase as slow as the
//! *slowest* task, so the speedup denominator carries `E[max_i Tp,i(n)]`
//! rather than the mean task time (paper Eq. 8):
//!
//! ```text
//!                    η·EX(n) + (1−η)·IN(n)
//! S(n) = ─────────────────────────────────────────────────────────────
//!        E[max Tp,i(n)]/(E[Tp,1(1)]+E[Ts(1)]) + (1−η)·IN(n) + η·EX(n)·q(n)/n
//! ```
//!
//! The task-time distribution is [`ipso_sim::Distribution`], the same type
//! the simulator samples its stragglers from; its analytic
//! [`Distribution::expected_max`] supplies `E[max]`.

use ipso_sim::Distribution;

use crate::factors::ScalingFactor;
use crate::ModelError;

/// The statistic IPSO model.
///
/// Task times in the split phase are `Tp,i(n) ~ base_task` scaled so that
/// the *mean per-task* workload matches `Wp(1)·EX(n)/n`; the merge time is
/// deterministic at `Ws(1)·IN(n)`.
///
/// # Example
///
/// ```
/// use ipso::stochastic::StochasticIpso;
/// use ipso::ScalingFactor;
/// use ipso_sim::Distribution;
///
/// # fn main() -> Result<(), ipso::ModelError> {
/// let model = StochasticIpso::new(
///     Distribution::Exponential { shift: 0.0, mean: 10.0 }, // Tp,1(1)
///     2.0,                                                  // E[Ts(1)]
///     ScalingFactor::linear(),                              // EX(n) = n
///     ScalingFactor::one(),                                 // IN(n) = 1
///     ScalingFactor::zero(),                                // q(n) = 0
/// )?;
/// // Stragglers make the stochastic speedup lower than Gustafson's.
/// let s = model.speedup(16)?;
/// let gustafson = ipso::classic::gustafson(10.0 / 12.0, 16.0)?;
/// assert!(s < gustafson);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticIpso {
    base_task: Distribution,
    ws1: f64,
    external: ScalingFactor,
    internal: ScalingFactor,
    induced: ScalingFactor,
}

impl StochasticIpso {
    /// Creates a statistic model.
    ///
    /// * `base_task` — distribution of `Tp,1(1)`, the single-task time at
    ///   `n = 1`;
    /// * `ws1` — mean serial merge time at `n = 1` (`E[Ts(1)]`, may be 0);
    /// * `external`, `internal`, `induced` — the scaling factors
    ///   (normalized internally like the deterministic builder).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] with the violated rule
    /// for an invalid `base_task`, and propagates factor validation
    /// errors.
    pub fn new(
        base_task: Distribution,
        ws1: f64,
        external: ScalingFactor,
        internal: ScalingFactor,
        induced: ScalingFactor,
    ) -> Result<Self, ModelError> {
        base_task
            .validate()
            .map_err(ModelError::InvalidDistribution)?;
        if !ws1.is_finite() || ws1 < 0.0 {
            return Err(ModelError::NonFinite("serial merge time Ws(1)"));
        }
        let external = external.normalized()?;
        let internal = if ws1 > 0.0 {
            internal.normalized()?
        } else {
            internal
        };
        let q1 = induced.eval(1.0);
        if q1.abs() > 1e-6 {
            return Err(ModelError::BoundaryCondition {
                factor: "q",
                expected: 0.0,
                actual: q1,
            });
        }
        Ok(StochasticIpso {
            base_task,
            ws1,
            external,
            internal,
            induced,
        })
    }

    /// Parallelizable fraction `η` at `n = 1` (paper Eq. 9).
    pub fn eta(&self) -> f64 {
        let wp1 = self.base_task.mean();
        wp1 / (wp1 + self.ws1)
    }

    /// Mean of the slowest of the `n` parallel tasks,
    /// `E[max_i Tp,i(n)]`, where each task's mean equals
    /// `Wp(1)·EX(n)/n`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScaleOut`] for `n = 0` and
    /// [`ModelError::InvalidDistribution`] when the distribution has no
    /// closed-form `E[max]` (Weibull at `n > 1`).
    pub fn expected_max_task_time(&self, n: u32) -> Result<f64, ModelError> {
        if n == 0 {
            return Err(ModelError::InvalidScaleOut(0.0));
        }
        let e_max = self
            .base_task
            .expected_max(n)
            .ok_or(ModelError::InvalidDistribution("no closed-form E[max]"))?;
        // Per-task mean workload scales with EX(n)/n; the distribution's
        // *shape* is preserved, only its scale changes.
        let scale = self.external.eval(n as f64) / n as f64;
        Ok(e_max * scale)
    }

    /// The statistic speedup `S(n)` (paper Eq. 8).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScaleOut`] for `n = 0` and propagates
    /// evaluation errors.
    pub fn speedup(&self, n: u32) -> Result<f64, ModelError> {
        if n == 0 {
            return Err(ModelError::InvalidScaleOut(0.0));
        }
        let nf = n as f64;
        let wp1 = self.base_task.mean();
        let w1 = wp1 + self.ws1;
        let eta = self.eta();
        let ex = self.external.eval(nf);
        let inn = self.internal.eval(nf);
        let q = self.induced.eval(nf);

        let numerator = eta * ex + (1.0 - eta) * inn;
        let denominator =
            self.expected_max_task_time(n)? / w1 + (1.0 - eta) * inn + eta * ex * q / nf;
        if denominator <= 0.0 || !denominator.is_finite() {
            return Err(ModelError::NonFinite("stochastic speedup denominator"));
        }
        Ok(numerator / denominator)
    }

    /// Speedup over a range of scale-out degrees.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn speedup_curve(
        &self,
        ns: impl IntoIterator<Item = u32>,
    ) -> Result<Vec<(u32, f64)>, ModelError> {
        ns.into_iter().map(|n| Ok((n, self.speedup(n)?))).collect()
    }
}

/// The fixed-size stochastic speedup of the Collaborative Filtering case
/// (paper Eq. 18): `S(n) = E[Tp,1(1)] / (E[max Tp,i(n)] + Wo(n))`.
///
/// # Errors
///
/// Returns [`ModelError::NonFinite`] when the denominator is non-positive
/// or any argument is non-finite.
pub fn fixed_size_speedup(tp1: f64, e_max: f64, wo: f64) -> Result<f64, ModelError> {
    if !tp1.is_finite() || !e_max.is_finite() || !wo.is_finite() {
        return Err(ModelError::NonFinite("fixed-size speedup input"));
    }
    let den = e_max + wo;
    if den <= 0.0 {
        return Err(ModelError::NonFinite("fixed-size speedup denominator"));
    }
    Ok(tp1 / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gustafson_like(base_task: Distribution, ws1: f64) -> StochasticIpso {
        StochasticIpso::new(
            base_task,
            ws1,
            ScalingFactor::linear(),
            ScalingFactor::one(),
            ScalingFactor::zero(),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_model_matches_deterministic_ipso() {
        let det = gustafson_like(Distribution::Fixed { value: 9.0 }, 1.0);
        let eta = 0.9;
        for n in [1u32, 4, 16, 64] {
            let expected = crate::classic::gustafson(eta, n as f64).unwrap();
            let got = det.speedup(n).unwrap();
            assert!(
                (got - expected).abs() < 1e-9,
                "n = {n}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn stragglers_reduce_speedup() {
        let exp = gustafson_like(
            Distribution::Exponential {
                shift: 0.0,
                mean: 9.0,
            },
            1.0,
        );
        let det = gustafson_like(Distribution::Fixed { value: 9.0 }, 1.0);
        for n in [2u32, 8, 32, 128] {
            assert!(exp.speedup(n).unwrap() < det.speedup(n).unwrap());
        }
    }

    #[test]
    fn straggler_speedup_still_unbounded_for_fixed_time() {
        // E[max] for exponential grows like ln n, so the fixed-time
        // speedup remains unbounded but sublinear.
        let exp = gustafson_like(
            Distribution::Exponential {
                shift: 0.0,
                mean: 10.0,
            },
            0.0,
        );
        let s64 = exp.speedup(64).unwrap();
        let s256 = exp.speedup(256).unwrap();
        assert!(s256 > s64);
        assert!(s256 < 256.0);
    }

    #[test]
    fn speedup_at_one_is_unity_without_overhead() {
        // At n = 1, E[max of 1] = mean, so S(1) = 1 exactly — for every
        // distribution of the straggler ablation and a wider uniform.
        for (base_task, ws1) in [
            (Distribution::Uniform { lo: 5.0, hi: 15.0 }, 3.0),
            (Distribution::Fixed { value: 10.0 }, 1.0),
            (Distribution::Uniform { lo: 9.5, hi: 10.5 }, 1.0),
            (Distribution::Uniform { lo: 7.0, hi: 13.0 }, 1.0),
            (
                Distribution::Exponential {
                    shift: 0.0,
                    mean: 10.0,
                },
                1.0,
            ),
            (
                Distribution::Exponential {
                    shift: 8.0,
                    mean: 2.0,
                },
                1.0,
            ),
            (
                Distribution::Pareto {
                    scale: 6.0,
                    shape: 2.5,
                },
                1.0,
            ),
        ] {
            let m = gustafson_like(base_task, ws1);
            assert_eq!(m.speedup(1).unwrap(), 1.0, "{base_task:?}");
        }
    }

    #[test]
    fn weibull_task_times_have_no_closed_form_max() {
        let m = gustafson_like(
            Distribution::Weibull {
                shape: 0.7,
                scale: 1.0,
            },
            1.0,
        );
        assert!(m.speedup(1).is_ok());
        assert!(matches!(
            m.speedup(4),
            Err(ModelError::InvalidDistribution("no closed-form E[max]"))
        ));
        assert!(matches!(
            m.expected_max_task_time(0),
            Err(ModelError::InvalidScaleOut(_))
        ));
    }

    #[test]
    fn eq18_fixed_size_speedup() {
        // The paper's CF numbers: E[Tp,1(1)] = 1602.5, and at n = 10
        // E[max] = 209.0, Wo = 5.5 → S ≈ 7.47.
        let s = fixed_size_speedup(1602.5, 209.0, 5.5).unwrap();
        assert!((s - 1602.5 / 214.5).abs() < 1e-12);
        assert!(fixed_size_speedup(1.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn curve_peak_selection_is_nan_safe() {
        // Regression: peak selection used partial_cmp().unwrap(), which
        // panics the moment a NaN reaches the comparison. total_cmp is a
        // total order, so a poisoned curve degrades instead of aborting.
        let curve = [(1u32, 1.0), (2, f64::NAN), (3, 2.0)];
        let peak = curve
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        // In IEEE total order positive NaN sorts above +inf.
        assert_eq!(peak.0, 2);
    }

    #[test]
    fn induced_overhead_creates_peak_in_stochastic_model() {
        let m = StochasticIpso::new(
            Distribution::Fixed { value: 10.0 },
            0.0,
            ScalingFactor::Constant(1.0), // fixed-size
            ScalingFactor::one(),
            ScalingFactor::induced(0.002, 2.0),
        )
        .unwrap();
        let curve = m.speedup_curve([1, 10, 30, 60, 90, 150]).unwrap();
        let peak = curve
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(peak.0 > 1 && peak.0 < 150, "peak at {:?}", peak);
        assert!(curve.last().unwrap().1 < peak.1);
    }
}
