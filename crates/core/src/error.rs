//! Error type for the IPSO model crate.

use std::error::Error;
use std::fmt;

/// Error returned by model construction, evaluation and analysis routines.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The parallelizable fraction η must lie in `(0, 1]`.
    InvalidEta(f64),
    /// The scale-out degree `n` must be ≥ 1 and finite.
    InvalidScaleOut(f64),
    /// A scaling-factor parameter is out of its admissible range.
    InvalidFactor {
        /// Which factor was rejected (`"EX"`, `"IN"` or `"q"`).
        factor: &'static str,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A task-time distribution is invalid or unusable; the reason is
    /// the violated rule.
    InvalidDistribution(&'static str),
    /// A scaling factor must satisfy a boundary condition (e.g. `EX(1) = 1`,
    /// `q(1) = 0`) and does not.
    BoundaryCondition {
        /// Which factor violates the condition.
        factor: &'static str,
        /// The required value at the boundary.
        expected: f64,
        /// The value actually produced.
        actual: f64,
    },
    /// Not enough measurement points for the requested analysis.
    InsufficientData {
        /// Points available.
        points: usize,
        /// Points required.
        required: usize,
    },
    /// An underlying regression failed.
    Fit(ipso_fit::FitError),
    /// A computed quantity was non-finite.
    NonFinite(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidEta(eta) => {
                write!(
                    f,
                    "parallelizable fraction eta must be in (0, 1], got {eta}"
                )
            }
            ModelError::InvalidScaleOut(n) => {
                write!(f, "scale-out degree n must be finite and >= 1, got {n}")
            }
            ModelError::InvalidFactor { factor, reason } => {
                write!(f, "invalid {factor} scaling factor: {reason}")
            }
            ModelError::InvalidDistribution(reason) => {
                write!(f, "invalid task-time distribution: {reason}")
            }
            ModelError::BoundaryCondition {
                factor,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{factor}(1) must equal {expected} but evaluates to {actual}"
                )
            }
            ModelError::InsufficientData { points, required } => {
                write!(
                    f,
                    "{points} measurement points supplied but {required} required"
                )
            }
            ModelError::Fit(err) => write!(f, "regression failed: {err}"),
            ModelError::NonFinite(what) => write!(f, "computed {what} is not finite"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Fit(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ipso_fit::FitError> for ModelError {
    fn from(err: ipso_fit::FitError) -> Self {
        ModelError::Fit(err)
    }
}

/// Validates a scale-out degree.
pub(crate) fn check_scale_out(n: f64) -> Result<(), ModelError> {
    if !n.is_finite() || n < 1.0 {
        return Err(ModelError::InvalidScaleOut(n));
    }
    Ok(())
}

/// Validates a parallelizable fraction.
pub(crate) fn check_eta(eta: f64) -> Result<(), ModelError> {
    if !eta.is_finite() || eta <= 0.0 || eta > 1.0 {
        return Err(ModelError::InvalidEta(eta));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            ModelError::InvalidEta(1.5).to_string(),
            "parallelizable fraction eta must be in (0, 1], got 1.5"
        );
        assert_eq!(
            ModelError::InvalidScaleOut(0.0).to_string(),
            "scale-out degree n must be finite and >= 1, got 0"
        );
        let err = ModelError::BoundaryCondition {
            factor: "EX",
            expected: 1.0,
            actual: 2.0,
        };
        assert_eq!(err.to_string(), "EX(1) must equal 1 but evaluates to 2");
        assert_eq!(
            ModelError::InvalidDistribution("no closed-form E[max]").to_string(),
            "invalid task-time distribution: no closed-form E[max]"
        );
    }

    #[test]
    fn fit_error_converts_and_chains() {
        let err: ModelError = ipso_fit::FitError::Singular.into();
        assert!(err.to_string().contains("singular"));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn eta_bounds() {
        assert!(check_eta(0.5).is_ok());
        assert!(check_eta(1.0).is_ok());
        assert!(check_eta(0.0).is_err());
        assert!(check_eta(-0.1).is_err());
        assert!(check_eta(f64::NAN).is_err());
    }

    #[test]
    fn scale_out_bounds() {
        assert!(check_scale_out(1.0).is_ok());
        assert!(check_scale_out(1e6).is_ok());
        assert!(check_scale_out(0.99).is_err());
        assert!(check_scale_out(f64::INFINITY).is_err());
    }
}
