//! Goodness-of-fit diagnostics shared by the fitting routines.

/// Summary statistics describing how well a fitted model explains the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodnessOfFit {
    /// Coefficient of determination, `1 − SS_res / SS_tot`.
    ///
    /// Equal to 1.0 for a perfect fit. May be negative when the model fits
    /// worse than a horizontal line through the mean.
    pub r_squared: f64,
    /// Sum of squared residuals.
    pub ss_res: f64,
}

impl GoodnessOfFit {
    /// Computes diagnostics from observations and model predictions.
    ///
    /// # Panics
    ///
    /// Panics if `observed` and `predicted` have different lengths or are
    /// empty.
    pub fn from_predictions(observed: &[f64], predicted: &[f64]) -> Self {
        assert_eq!(
            observed.len(),
            predicted.len(),
            "observed/predicted length mismatch"
        );
        assert!(
            !observed.is_empty(),
            "diagnostics require at least one point"
        );
        let n = observed.len();
        let mean = observed.iter().sum::<f64>() / n as f64;
        let ss_tot: f64 = observed.iter().map(|y| (y - mean).powi(2)).sum();
        let ss_res: f64 = observed
            .iter()
            .zip(predicted)
            .map(|(y, yhat)| (y - yhat).powi(2))
            .sum();
        // For constant data ss_tot is zero; a model that matches exactly has
        // R² = 1, otherwise 0 — the usual degenerate-case convention.
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else if ss_res < 1e-24 {
            1.0
        } else {
            0.0
        };
        GoodnessOfFit { r_squared, ss_res }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fit_has_unit_r_squared() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let gof = GoodnessOfFit::from_predictions(&y, &y);
        assert_eq!(gof.r_squared, 1.0);
        assert_eq!(gof.ss_res, 0.0);
    }

    #[test]
    fn mean_model_has_zero_r_squared() {
        let y = [1.0, 2.0, 3.0];
        let mean = [2.0, 2.0, 2.0];
        let gof = GoodnessOfFit::from_predictions(&y, &mean);
        assert!(gof.r_squared.abs() < 1e-12);
    }

    #[test]
    fn worse_than_mean_model_is_negative() {
        let y = [1.0, 2.0, 3.0];
        let bad = [3.0, 2.0, 1.0];
        let gof = GoodnessOfFit::from_predictions(&y, &bad);
        assert!(gof.r_squared < 0.0);
    }

    #[test]
    fn constant_data_perfectly_matched() {
        let y = [5.0, 5.0, 5.0];
        let gof = GoodnessOfFit::from_predictions(&y, &y);
        assert_eq!(gof.r_squared, 1.0);
    }

    #[test]
    fn constant_data_mismatched_scores_zero() {
        let y = [5.0, 5.0, 5.0];
        let p = [4.0, 5.0, 6.0];
        let gof = GoodnessOfFit::from_predictions(&y, &p);
        assert_eq!(gof.r_squared, 0.0);
    }
}
