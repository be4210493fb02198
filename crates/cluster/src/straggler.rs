//! Task-time noise (straggler) models.
//!
//! With barrier synchronization, the split phase finishes with its
//! *slowest* task, so task-time dispersion directly lowers speedups
//! (`E[max Tp,i(n)]` in paper Eq. 8). This module provides multiplicative
//! noise applied to a task's nominal duration.

use ipso_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::error::ClusterError;

/// Multiplicative task-time noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StragglerModel {
    /// No noise: every task takes exactly its nominal time.
    None,
    /// Uniform multiplier in `[1 − spread, 1 + spread]` — ordinary jitter
    /// from CPU/IO interference.
    Uniform {
        /// Half-width of the multiplier interval, in `(0, 1)`.
        spread: f64,
    },
    /// `1 + Exponential(mean_excess)` — occasional long tails.
    ExponentialTail {
        /// Mean of the additional (relative) delay.
        mean_excess: f64,
    },
    /// Pareto multiplier with minimum 1 — heavy-tailed stragglers as
    /// studied by [Zaharia et al., OSDI '08].
    Pareto {
        /// Tail index; larger is lighter-tailed. Must exceed 1.
        shape: f64,
    },
}

impl StragglerModel {
    /// The mild default used for the MapReduce case studies: ±5% jitter.
    pub fn mild() -> StragglerModel {
        StragglerModel::Uniform { spread: 0.05 }
    }

    /// A validated Pareto model. The variant's `shape` must exceed 1 —
    /// at `shape <= 1` the multiplier's mean diverges, which breaks
    /// [`StragglerModel::mean_multiplier`] calibration and every
    /// expectation built on it — so construction through this boundary
    /// rejects the parameter up front instead of letting a bad value
    /// surface later as a nonsensical negative mean or infinite
    /// expectation.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] unless
    /// `shape` is finite and `> 1`.
    pub fn pareto(shape: f64) -> Result<StragglerModel, ClusterError> {
        let model = StragglerModel::Pareto { shape };
        model.validate()?;
        Ok(model)
    }

    /// Multiplier threshold above which a draw counts as a severe
    /// straggler in the metrics registry.
    pub const SEVERE_MULTIPLIER: f64 = 1.5;

    /// Draws a multiplier (≥ 0, usually near 1).
    pub fn multiplier(&self, rng: &mut SimRng) -> f64 {
        let m = match *self {
            StragglerModel::None => 1.0,
            StragglerModel::Uniform { spread } => rng.jitter(spread),
            StragglerModel::ExponentialTail { mean_excess } => 1.0 + rng.exponential(mean_excess),
            StragglerModel::Pareto { shape } => rng.pareto(1.0, shape),
        };
        if ipso_obs::enabled() {
            ipso_obs::counter_add("straggler.draws", 1);
            if m >= Self::SEVERE_MULTIPLIER {
                ipso_obs::counter_add("straggler.severe_draws", 1);
            }
        }
        m
    }

    /// Mean of the multiplier, used to keep nominal workloads calibrated.
    pub fn mean_multiplier(&self) -> f64 {
        match *self {
            StragglerModel::None => 1.0,
            StragglerModel::Uniform { .. } => 1.0,
            StragglerModel::ExponentialTail { mean_excess } => 1.0 + mean_excess,
            StragglerModel::Pareto { shape } => shape / (shape - 1.0),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on a violated range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        match *self {
            StragglerModel::Uniform { spread } if !(0.0..1.0).contains(&spread) => {
                Err(ClusterError::invalid("uniform spread", "must be in [0, 1)"))
            }
            StragglerModel::ExponentialTail { mean_excess }
                if !(mean_excess.is_finite() && mean_excess > 0.0) =>
            {
                Err(ClusterError::invalid("mean excess", "must be positive"))
            }
            StragglerModel::Pareto { shape } if !(shape.is_finite() && shape > 1.0) => {
                Err(ClusterError::invalid("pareto shape", "must exceed 1"))
            }
            _ => Ok(()),
        }
    }
}

impl Default for StragglerModel {
    fn default() -> Self {
        StragglerModel::mild()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_exact() {
        let mut rng = SimRng::seed_from(1);
        assert_eq!(StragglerModel::None.multiplier(&mut rng), 1.0);
        assert_eq!(StragglerModel::None.mean_multiplier(), 1.0);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = SimRng::seed_from(2);
        let m = StragglerModel::Uniform { spread: 0.1 };
        for _ in 0..1000 {
            let v = m.multiplier(&mut rng);
            assert!((0.9..=1.1).contains(&v));
        }
    }

    #[test]
    fn exponential_tail_exceeds_one() {
        let mut rng = SimRng::seed_from(3);
        let m = StragglerModel::ExponentialTail { mean_excess: 0.2 };
        let mean: f64 = (0..20_000).map(|_| m.multiplier(&mut rng)).sum::<f64>() / 20_000.0;
        assert!((mean - 1.2).abs() < 0.02, "mean = {mean}");
        assert!((m.mean_multiplier() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn pareto_minimum_is_one() {
        let mut rng = SimRng::seed_from(4);
        let m = StragglerModel::Pareto { shape: 2.5 };
        for _ in 0..1000 {
            assert!(m.multiplier(&mut rng) >= 1.0);
        }
        assert!((m.mean_multiplier() - 2.5 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(StragglerModel::mild().validate().is_ok());
        for (bad, expected) in [
            (StragglerModel::Uniform { spread: 1.0 }, "uniform spread"),
            (
                StragglerModel::ExponentialTail { mean_excess: 0.0 },
                "mean excess",
            ),
            (StragglerModel::Pareto { shape: 1.0 }, "pareto shape"),
        ] {
            assert!(
                matches!(
                    bad.validate(),
                    Err(ClusterError::InvalidParameter { what, .. }) if what == expected
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn pareto_constructor_validates_the_shape() {
        assert_eq!(
            StragglerModel::pareto(2.5),
            Ok(StragglerModel::Pareto { shape: 2.5 })
        );
        for bad in [1.0, 0.5, -2.0, f64::NAN, f64::INFINITY] {
            let err = StragglerModel::pareto(bad).expect_err("shape must exceed 1");
            assert!(
                matches!(
                    err,
                    crate::ClusterError::InvalidParameter {
                        what: "pareto shape",
                        ..
                    }
                ),
                "unexpected error for shape {bad}: {err}"
            );
        }
    }

    #[test]
    fn heavier_tails_have_larger_maxima() {
        let mut rng = SimRng::seed_from(5);
        let sample_max = |m: StragglerModel, rng: &mut SimRng| {
            (0..2000).map(|_| m.multiplier(rng)).fold(0.0f64, f64::max)
        };
        let uniform_max = sample_max(StragglerModel::Uniform { spread: 0.05 }, &mut rng);
        let pareto_max = sample_max(StragglerModel::Pareto { shape: 1.5 }, &mut rng);
        assert!(pareto_max > uniform_max * 2.0);
    }
}
