//! Nonlinear least squares via Levenberg–Marquardt.
//!
//! The paper fits workload curves such as `Wo(n) = β·n^γ` and
//! `E[max Tp,i(n)] = a/n + c` by "nonlinear regression"; this module
//! provides the generic solver. The model is supplied as a closure
//! `f(params, x) -> y`; the Jacobian is estimated with central finite
//! differences, which is accurate enough for the small, smooth models used
//! throughout the reproduction.

use crate::diagnostics::GoodnessOfFit;
use crate::error::validate_xy;
use crate::matrix::Matrix;
use crate::FitError;

/// Maximum number of outer iterations.
const MAX_ITERATIONS: usize = 200;
/// Convergence threshold on the relative reduction of the sum of squared
/// residuals.
const TOLERANCE: f64 = 1e-12;
/// Initial damping factor λ.
const INITIAL_LAMBDA: f64 = 1e-3;
/// Multiplicative factor applied to λ on rejected / accepted steps.
const LAMBDA_FACTOR: f64 = 10.0;
/// Relative step used for the finite-difference Jacobian.
const FD_STEP: f64 = 1e-6;

/// Result of a nonlinear least-squares fit.
#[derive(Debug, Clone, PartialEq)]
pub struct NonlinearFit {
    /// Fitted parameter vector.
    pub params: Vec<f64>,
    /// Goodness-of-fit statistics at the solution.
    pub gof: GoodnessOfFit,
    /// Number of iterations performed.
    pub iterations: usize,
}

/// Fits `y ≈ f(params, x)` by Levenberg–Marquardt starting from `initial`.
///
/// # Errors
///
/// Returns an error on invalid input, a singular (damped) normal system
/// that cannot be rescued by increasing λ, non-finite model output at the
/// initial guess, or failure to converge within the iteration budget.
///
/// # Example
///
/// ```
/// use ipso_fit::levenberg_marquardt;
///
/// # fn main() -> Result<(), ipso_fit::FitError> {
/// // Recover q(n) = 0.006 * n^2 from samples.
/// let x = [10.0, 30.0, 60.0, 90.0];
/// let y: Vec<f64> = x.iter().map(|n| 0.006 * n * n).collect();
/// let fit = levenberg_marquardt(
///     |p, n| p[0] * n.powf(p[1]),
///     &x,
///     &y,
///     &[0.01, 1.5],
/// )?;
/// assert!((fit.params[1] - 2.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn levenberg_marquardt<F>(
    model: F,
    x: &[f64],
    y: &[f64],
    initial: &[f64],
) -> Result<NonlinearFit, FitError>
where
    F: Fn(&[f64], f64) -> f64,
{
    let p = initial.len();
    if p == 0 {
        return Err(FitError::TooFewPoints {
            points: 0,
            required: 1,
        });
    }
    validate_xy(x, y, p)?;
    if initial.iter().any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }

    let residuals = |params: &[f64]| -> Result<Vec<f64>, FitError> {
        let mut r = Vec::with_capacity(x.len());
        for (&xi, &yi) in x.iter().zip(y) {
            let f = model(params, xi);
            if !f.is_finite() {
                return Err(FitError::NonFinite);
            }
            r.push(yi - f);
        }
        Ok(r)
    };
    let ssr = |r: &[f64]| r.iter().map(|v| v * v).sum::<f64>();

    let mut params = initial.to_vec();
    let mut r = residuals(&params)?;
    let mut cost = ssr(&r);
    let mut lambda = INITIAL_LAMBDA;
    let mut iterations = 0;

    while iterations < MAX_ITERATIONS {
        iterations += 1;

        // Numeric Jacobian of the *model* (not the residual): J[i][j] =
        // ∂f(params, x_i)/∂params_j via central differences.
        let mut jac = Matrix::zeros(x.len(), p);
        for j in 0..p {
            let h = FD_STEP * params[j].abs().max(1e-4);
            let mut plus = params.clone();
            let mut minus = params.clone();
            plus[j] += h;
            minus[j] -= h;
            for (i, &xi) in x.iter().enumerate() {
                let d = (model(&plus, xi) - model(&minus, xi)) / (2.0 * h);
                if !d.is_finite() {
                    return Err(FitError::NonFinite);
                }
                jac.set(i, j, d);
            }
        }

        // Normal equations: (JᵀJ + λ·diag) δ = Jᵀ r.
        let jt = jac.transpose();
        let jtj = jt.mul(&jac);
        let jtr = jt.mul(&Matrix::column(&r));

        let mut accepted = false;
        for _ in 0..24 {
            let mut damped = jtj.clone();
            damped.add_diagonal(lambda);
            let delta = match damped.solve(&jtr) {
                Ok(d) => d.into_column_vec(),
                Err(_) => {
                    lambda *= LAMBDA_FACTOR;
                    continue;
                }
            };
            let candidate: Vec<f64> = params.iter().zip(&delta).map(|(pv, dv)| pv + dv).collect();
            match residuals(&candidate) {
                Ok(rc) => {
                    let new_cost = ssr(&rc);
                    if new_cost.is_finite() && new_cost < cost {
                        let improvement = (cost - new_cost) / cost.max(1e-300);
                        params = candidate;
                        r = rc;
                        cost = new_cost;
                        lambda = (lambda / LAMBDA_FACTOR).max(1e-12);
                        accepted = true;
                        if improvement < TOLERANCE {
                            // Converged.
                            let predicted: Vec<f64> =
                                x.iter().map(|&xi| model(&params, xi)).collect();
                            let gof = GoodnessOfFit::from_predictions(y, &predicted, p);
                            return Ok(NonlinearFit {
                                params,
                                gof,
                                iterations,
                            });
                        }
                        break;
                    }
                    lambda *= LAMBDA_FACTOR;
                }
                Err(_) => lambda *= LAMBDA_FACTOR,
            }
        }
        if !accepted {
            // Stuck: either converged to machine precision or hopeless.
            if cost < 1e-20 || lambda > 1e12 {
                let predicted: Vec<f64> = x.iter().map(|&xi| model(&params, xi)).collect();
                let gof = GoodnessOfFit::from_predictions(y, &predicted, p);
                return Ok(NonlinearFit {
                    params,
                    gof,
                    iterations,
                });
            }
            return Err(FitError::NoConvergence { iterations });
        }
    }

    // Iteration budget exhausted but steps were still improving: report the
    // best point found rather than failing, mirroring common LM libraries.
    let predicted: Vec<f64> = x.iter().map(|&xi| model(&params, xi)).collect();
    let gof = GoodnessOfFit::from_predictions(y, &predicted, p);
    Ok(NonlinearFit {
        params,
        gof,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exponential_decay() {
        let x: Vec<f64> = (0..20).map(|v| v as f64 * 0.25).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * (-0.7 * v).exp()).collect();
        let fit =
            levenberg_marquardt(|p, xv| p[0] * (p[1] * xv).exp(), &x, &y, &[1.0, -0.1]).unwrap();
        assert!((fit.params[0] - 3.0).abs() < 1e-6, "a = {}", fit.params[0]);
        assert!((fit.params[1] + 0.7).abs() < 1e-6, "k = {}", fit.params[1]);
    }

    #[test]
    fn recovers_power_law_with_offset() {
        // The Fig. 8 workload shape: W(n) = a/n + c.
        let x = [10.0, 30.0, 60.0, 90.0];
        let y: Vec<f64> = x.iter().map(|n| 1800.0 / n + 12.0).collect();
        let fit = levenberg_marquardt(|p, n| p[0] / n + p[1], &x, &y, &[1000.0, 0.0]).unwrap();
        assert!((fit.params[0] - 1800.0).abs() < 1e-5);
        assert!((fit.params[1] - 12.0).abs() < 1e-6);
        assert!(fit.gof.r_squared > 1.0 - 1e-10);
    }

    #[test]
    fn linear_model_matches_ols() {
        let x: Vec<f64> = (1..=12).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.23 * v + 2.72).collect();
        let lm = levenberg_marquardt(|p, xv| p[0] * xv + p[1], &x, &y, &[1.0, 0.0]).unwrap();
        assert!((lm.params[0] - 0.23).abs() < 1e-8);
        assert!((lm.params[1] - 2.72).abs() < 1e-8);
    }

    #[test]
    fn rejects_non_finite_initial_guess() {
        let err = levenberg_marquardt(|p, xv| p[0] * xv, &[1.0, 2.0], &[1.0, 2.0], &[f64::NAN])
            .unwrap_err();
        assert_eq!(err, FitError::NonFinite);
    }

    #[test]
    fn rejects_empty_parameter_vector() {
        let err = levenberg_marquardt(|_, xv| xv, &[1.0, 2.0], &[1.0, 2.0], &[]).unwrap_err();
        assert!(matches!(err, FitError::TooFewPoints { .. }));
    }

    #[test]
    fn already_converged_start_returns_quickly() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        let fit = levenberg_marquardt(|p, xv| p[0] * xv, &x, &y, &[2.0]).unwrap();
        assert!((fit.params[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_data_still_recovers_shape() {
        let x: Vec<f64> = (1..=30).map(|v| v as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 0.5 * v.powf(1.8) * if i % 2 == 0 { 1.01 } else { 0.99 })
            .collect();
        let fit = levenberg_marquardt(|p, n| p[0] * n.powf(p[1]), &x, &y, &[1.0, 1.0]).unwrap();
        assert!(
            (fit.params[1] - 1.8).abs() < 0.02,
            "gamma = {}",
            fit.params[1]
        );
    }
}
