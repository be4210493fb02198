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
    let finish = |params: Vec<f64>| {
        let predicted: Vec<f64> = x.iter().map(|&xi| model(&params, xi)).collect();
        let gof = GoodnessOfFit::from_predictions(y, &predicted);
        Ok(NonlinearFit { params, gof })
    };

    let mut params = initial.to_vec();
    let mut r = residuals(&params)?;
    let mut cost = ssr(&r);
    let mut lambda = INITIAL_LAMBDA;
    let mut iterations = 0;

    while iterations < MAX_ITERATIONS {
        iterations += 1;

        // Normal equations: (JᵀJ + λ·diag) δ = Jᵀ r, with the numeric
        // Jacobian of the *model* (not the residual), J[i][j] =
        // ∂f(params, x_i)/∂params_j via central differences. Each row of
        // J is added straight into the row-major p×p JᵀJ and into Jᵀr,
        // rows in order and zero entries skipped.
        let steps: Vec<(f64, Vec<f64>, Vec<f64>)> = (0..p)
            .map(|j| {
                let h = FD_STEP * params[j].abs().max(1e-4);
                let mut plus = params.clone();
                let mut minus = params.clone();
                plus[j] += h;
                minus[j] -= h;
                (h, plus, minus)
            })
            .collect();
        let mut jtj = vec![0.0; p * p];
        let mut jtr = vec![0.0; p];
        let mut row = vec![0.0; p];
        for (&xi, &ri) in x.iter().zip(&r) {
            for (d, (h, plus, minus)) in row.iter_mut().zip(&steps) {
                *d = (model(plus, xi) - model(minus, xi)) / (2.0 * h);
                if !d.is_finite() {
                    return Err(FitError::NonFinite);
                }
            }
            for ((&ja, jtj_row), jtr_j) in row.iter().zip(jtj.chunks_exact_mut(p)).zip(&mut jtr) {
                if ja == 0.0 {
                    continue;
                }
                for (o, &jb) in jtj_row.iter_mut().zip(&row) {
                    *o += ja * jb;
                }
                *jtr_j += ja * ri;
            }
        }

        let mut accepted = false;
        for _ in 0..24 {
            let mut damped = jtj.clone();
            for d in damped.iter_mut().step_by(p + 1) {
                *d += lambda;
            }
            let delta = match solve(damped, jtr.clone()) {
                Ok(d) => d,
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
                            return finish(params);
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
                return finish(params);
            }
            return Err(FitError::NoConvergence { iterations });
        }
    }

    // Iteration budget exhausted but steps were still improving: report the
    // best point found rather than failing, mirroring common LM libraries.
    finish(params)
}

/// Solves the row-major `n×n` system `a · x = b` by Gaussian elimination
/// with partial pivoting.
///
/// # Errors
///
/// [`FitError::Singular`] if a pivot falls below 1e-12 in magnitude, and
/// [`FitError::NonFinite`] if a pivot or a solution entry is not finite.
fn solve(mut a: Vec<f64>, mut b: Vec<f64>) -> Result<Vec<f64>, FitError> {
    let n = b.len();
    debug_assert_eq!(a.len(), n * n, "solve requires a square matrix");
    for col in 0..n {
        // Partial pivot: the row with the largest magnitude in this column
        // at or below the diagonal; the first such row on a tie.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if !pivot_val.is_finite() {
            return Err(FitError::NonFinite);
        }
        if pivot_val < 1e-12 {
            return Err(FitError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                a.swap(col * n + c, pivot_row * n + c);
            }
            b.swap(col, pivot_row);
        }
        // Eliminate below the pivot.
        let pivot = a[col * n + col];
        for r in (col + 1)..n {
            let factor = a[r * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            b[r] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut sum = b[r];
        for k in (r + 1)..n {
            sum -= a[r * n + k] * x[k];
        }
        let v = sum / a[r * n + r];
        if !v.is_finite() {
            return Err(FitError::NonFinite);
        }
        x[r] = v;
    }
    Ok(x)
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

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5, x - y = 1  =>  x = 2, y = 1
        let x = solve(vec![2.0, 1.0, 1.0, -1.0], vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal requires a row swap.
        let x = solve(vec![0.0, 1.0, 1.0, 0.0], vec![3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_keeps_the_upper_row_on_a_pivot_tie() {
        // Pivoting on the second row would round x[0] one ulp lower.
        let x = solve(vec![1.0, 0.3, 1.0, 1.1], vec![0.7, 1.3]).unwrap();
        assert_eq!(x[0].to_bits(), 0x3fde666666666665);
        assert_eq!(x[1].to_bits(), 0x3fe8000000000001);
    }

    #[test]
    fn solve_detects_singularity() {
        let err = solve(vec![1.0, 2.0, 2.0, 4.0], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, FitError::Singular);
    }

    #[test]
    fn solve_rejects_non_finite_pivot() {
        let err = solve(vec![1.0, 0.0, f64::INFINITY, 1.0], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, FitError::NonFinite);
        let err = solve(vec![f64::NAN, 0.0, 0.0, 1.0], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, FitError::NonFinite);
    }

    #[test]
    fn solve_3x3_system() {
        let a = vec![1.0, 1.0, 1.0, 0.0, 2.0, 5.0, 2.0, 5.0, -1.0];
        let x = solve(a, vec![6.0, -4.0, 27.0]).unwrap();
        // Known solution: x = 5, y = 3, z = -2
        assert!((x[0] - 5.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 2.0).abs() < 1e-10);
    }

    /// The bits of `params` and `gof.r_squared`, in that order.
    fn fit_bits(fit: &NonlinearFit) -> Vec<u64> {
        let mut bits: Vec<u64> = fit.params.iter().map(|v| v.to_bits()).collect();
        bits.push(fit.gof.r_squared.to_bits());
        bits
    }

    #[test]
    fn fitted_bits_are_pinned() {
        // The shifted power law β·(n^γ − 1) that `q(n)` is fitted with,
        // on eight points with ±3 % alternating noise.
        let x: [f64; 8] = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0];
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, n)| 0.04 * (n.powf(1.35) - 1.0) * if i % 2 == 0 { 1.03 } else { 0.97 })
            .collect();
        let fit =
            levenberg_marquardt(|p, n| p[0] * (n.powf(p[1]) - 1.0), &x, &y, &[0.05, 1.2]).unwrap();
        assert_eq!(
            fit_bits(&fit),
            [0x3fa6e50c6219ee60, 0x3ff4ede3cb2bcde5, 0x3feff7bef8a6a43d]
        );

        // a + b·x^c: the first column of JᵀJ is (8, Σx^c, Σb·x^c·ln x), so
        // the damped system's first pivot is a row swap.
        let x: Vec<f64> = (2..=9).map(f64::from).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 + 0.5 * v.powf(1.5) + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let fit = levenberg_marquardt(|p, v| p[0] + p[1] * v.powf(p[2]), &x, &y, &[1.0, 1.0, 1.0])
            .unwrap();
        assert_eq!(
            fit_bits(&fit),
            [
                0x40002f6174385378,
                0x3fdfd0dbf65c7297,
                0x3ff80544a490d82b,
                0x3feffec4cf633485
            ]
        );
    }
}
