//! Power-law fits for the asymptotic scaling factors of IPSO.
//!
//! The paper keeps only the highest-order term of each scaling factor
//! (Eqs. 14–15): `ε(n) ≈ α·n^δ` and `q(n) ≈ β·n^γ`. Estimating those
//! exponents from measurements is exactly a power-law fit.

use crate::diagnostics::GoodnessOfFit;
use crate::error::validate_xy;
use crate::{fit_line, FitError};

/// Result of fitting `y = a·x^b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Multiplicative coefficient `a` (the paper's α or β).
    pub coefficient: f64,
    /// Exponent `b` (the paper's δ or γ).
    pub exponent: f64,
    /// Goodness-of-fit statistics in the original (non-log) domain.
    pub gof: GoodnessOfFit,
}

/// Fits `y = a·x^b` by ordinary least squares in log–log space.
///
/// # Errors
///
/// Returns [`FitError::InvalidDomain`] unless every `x` and `y` is strictly
/// positive, plus the usual validation errors.
///
/// # Example
///
/// ```
/// use ipso_fit::fit_power_law;
///
/// # fn main() -> Result<(), ipso_fit::FitError> {
/// let n = [10.0, 30.0, 60.0, 90.0];
/// // The collaborative-filtering overhead in the paper: q(n) ∝ n².
/// let w: Vec<f64> = n.iter().map(|v| 0.0061 * v * v).collect();
/// let fit = fit_power_law(&n, &w)?;
/// assert!((fit.exponent - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn fit_power_law(x: &[f64], y: &[f64]) -> Result<PowerLawFit, FitError> {
    validate_xy(x, y, 2)?;
    if x.iter().any(|&v| v <= 0.0) {
        return Err(FitError::InvalidDomain(
            "x must be strictly positive for a power-law fit",
        ));
    }
    if y.iter().any(|&v| v <= 0.0) {
        return Err(FitError::InvalidDomain(
            "y must be strictly positive for a power-law fit",
        ));
    }
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    let line = fit_line(&lx, &ly)?;
    let coefficient = line.intercept.exp();
    let exponent = line.slope;
    let predicted: Vec<f64> = x
        .iter()
        .map(|&xv| coefficient * xv.powf(exponent))
        .collect();
    let gof = GoodnessOfFit::from_predictions(y, &predicted);
    Ok(PowerLawFit {
        coefficient,
        exponent,
        gof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        let x: Vec<f64> = (1..=20).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v.powf(1.3)).collect();
        let fit = fit_power_law(&x, &y).unwrap();
        assert!((fit.coefficient - 2.5).abs() < 1e-10);
        assert!((fit.exponent - 1.3).abs() < 1e-12);
    }

    #[test]
    fn quadratic_overhead_detected() {
        let x = [10.0, 30.0, 60.0, 90.0];
        let y: Vec<f64> = x.iter().map(|v| 0.0061 * v * v).collect();
        let fit = fit_power_law(&x, &y).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
        assert!(fit.gof.r_squared > 1.0 - 1e-10);
    }

    #[test]
    fn rejects_non_positive_domain() {
        assert!(matches!(
            fit_power_law(&[0.0, 1.0], &[1.0, 2.0]).unwrap_err(),
            FitError::InvalidDomain(_)
        ));
        assert!(matches!(
            fit_power_law(&[1.0, 2.0], &[-1.0, 2.0]).unwrap_err(),
            FitError::InvalidDomain(_)
        ));
    }

    #[test]
    fn linear_data_gives_unit_exponent() {
        let fit = fit_power_law(&[1.0, 5.0], &[2.0, 10.0]).unwrap();
        assert!((fit.coefficient - 2.0).abs() < 1e-12);
        assert!((fit.exponent - 1.0).abs() < 1e-12);
        assert!(fit.gof.ss_res < 1e-20);
    }

    #[test]
    fn noisy_power_law_close() {
        let x: Vec<f64> = (1..=40).map(|v| v as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 1.2 * v.powf(0.8) * if i % 2 == 0 { 1.02 } else { 0.98 })
            .collect();
        let fit = fit_power_law(&x, &y).unwrap();
        assert!((fit.exponent - 0.8).abs() < 0.02);
    }
}
