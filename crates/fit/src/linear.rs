//! Ordinary least squares for straight lines.

use crate::diagnostics::GoodnessOfFit;
use crate::error::validate_xy;
use crate::FitError;

/// Result of fitting `y = intercept + slope · x`.
///
/// # Example
///
/// ```
/// use ipso_fit::fit_line;
///
/// # fn main() -> Result<(), ipso_fit::FitError> {
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// let fit = fit_line(&x, &y)?;
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!(fit.gof.r_squared > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Standard error of the slope estimate.
    pub slope_stderr: f64,
    /// Goodness-of-fit statistics.
    pub gof: GoodnessOfFit,
}

impl LineFit {
    /// Evaluates the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fits `y = a + b·x` by ordinary least squares.
///
/// # Errors
///
/// Returns an error if the inputs are mismatched, have fewer than two
/// points, contain non-finite values, or all `x` values are identical
/// ([`FitError::Singular`]).
pub fn fit_line(x: &[f64], y: &[f64]) -> Result<LineFit, FitError> {
    validate_xy(x, y, 2)?;
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mean_x).powi(2)).sum();
    if sxx < 1e-18 {
        return Err(FitError::Singular);
    }
    let sxy: f64 = x
        .iter()
        .zip(y)
        .map(|(xv, yv)| (xv - mean_x) * (yv - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;

    let predicted: Vec<f64> = x.iter().map(|&xv| intercept + slope * xv).collect();
    let gof = GoodnessOfFit::from_predictions(y, &predicted, 2);
    let dof = (x.len() as f64 - 2.0).max(1.0);
    let slope_stderr = (gof.ss_res / dof / sxx).sqrt();
    Ok(LineFit {
        slope,
        intercept,
        slope_stderr,
        gof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let x: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -0.11 + 0.36 * v).collect();
        let fit = fit_line(&x, &y).unwrap();
        assert!((fit.slope - 0.36).abs() < 1e-12);
        assert!((fit.intercept + 0.11).abs() < 1e-12);
        assert_eq!(fit.gof.r_squared, 1.0);
        assert!(fit.slope_stderr < 1e-10);
    }

    #[test]
    fn noisy_line_close_to_truth() {
        // Deterministic pseudo-noise so the test is stable.
        let x: Vec<f64> = (1..=50).map(|v| v as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 5.0 + 2.0 * v + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let fit = fit_line(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.01);
        assert!((fit.intercept - 5.0).abs() < 0.35);
        assert!(fit.gof.r_squared > 0.999);
    }

    #[test]
    fn identical_x_is_singular() {
        let err = fit_line(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(err, FitError::Singular);
    }

    #[test]
    fn predict_evaluates_line() {
        let fit = fit_line(&[0.0, 1.0], &[1.0, 3.0]).unwrap();
        assert!((fit.predict(2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_points_rejected() {
        let err = fit_line(&[1.0], &[1.0]).unwrap_err();
        assert_eq!(
            err,
            FitError::TooFewPoints {
                points: 1,
                required: 2
            }
        );
    }
}
