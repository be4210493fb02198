//! Two-segment (piecewise linear) regression with changepoint search.
//!
//! TeraSort's internal scaling factor in the paper (Fig. 5) is step-wise:
//! one linear regime while the reducer's working set fits in memory
//! (slope ≈ 0.15) and a steeper regime once disk I/O kicks in
//! (slope ≈ 0.25, onset near `n ≈ 15`). This module finds such a
//! changepoint by exhaustive search over candidate breakpoints, fitting an
//! independent line to each side and minimising the total sum of squared
//! residuals.

use crate::diagnostics::GoodnessOfFit;
use crate::error::validate_xy;
use crate::linear::{fit_line, LineFit};
use crate::FitError;

/// Result of a two-segment linear fit.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoSegmentFit {
    /// The `x` value at which the regimes switch. Points with
    /// `x <= breakpoint` belong to the left segment.
    pub breakpoint: f64,
    /// Fit of the left (small-`x`) segment.
    pub left: LineFit,
    /// Fit of the right (large-`x`) segment.
    pub right: LineFit,
    /// Combined goodness of fit over all points.
    pub gof: GoodnessOfFit,
}

impl TwoSegmentFit {
    /// Evaluates the piecewise model at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        if x <= self.breakpoint {
            self.left.predict(x)
        } else {
            self.right.predict(x)
        }
    }

    /// Returns `true` when the right segment grows strictly faster than the
    /// left one — the "burst" signature the paper observes for TeraSort.
    pub fn slope_increases(&self) -> bool {
        self.right.slope > self.left.slope
    }
}

/// Fits two independent line segments, searching every admissible
/// changepoint. Each segment must contain at least `min_segment` points
/// (and at least 2).
///
/// # Errors
///
/// Returns validation errors for bad input, or [`FitError::TooFewPoints`]
/// when fewer than `2 * max(min_segment, 2)` points are supplied. Candidate
/// splits whose side-fits are singular are skipped; if every candidate is
/// singular the error from the last candidate is returned.
pub fn fit_two_segment(
    x: &[f64],
    y: &[f64],
    min_segment: usize,
) -> Result<TwoSegmentFit, FitError> {
    let min_segment = min_segment.max(2);
    validate_xy(x, y, 2 * min_segment)?;

    // Sort points by x so the split index is meaningful.
    let mut order: Vec<usize> = (0..x.len()).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
    let xs: Vec<f64> = order.iter().map(|&i| x[i]).collect();
    let ys: Vec<f64> = order.iter().map(|&i| y[i]).collect();

    let mut best: Option<TwoSegmentFit> = None;
    let mut last_err = FitError::Singular;

    for split in min_segment..=(xs.len() - min_segment) {
        let (lx, rx) = xs.split_at(split);
        let (ly, ry) = ys.split_at(split);
        let left = match fit_line(lx, ly) {
            Ok(f) => f,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let right = match fit_line(rx, ry) {
            Ok(f) => f,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let ss = left.gof.ss_res + right.gof.ss_res;
        let is_better = best.as_ref().is_none_or(|b| ss < b.gof.ss_res);
        if is_better {
            let predicted: Vec<f64> = xs
                .iter()
                .map(|&xv| {
                    if xv <= lx[lx.len() - 1] {
                        left.predict(xv)
                    } else {
                        right.predict(xv)
                    }
                })
                .collect();
            let mut gof = GoodnessOfFit::from_predictions(&ys, &predicted);
            // Select on the side-fit residual total, so that ties at the
            // boundary do not flip the choice.
            gof.ss_res = ss;
            best = Some(TwoSegmentFit {
                breakpoint: lx[lx.len() - 1],
                left,
                right,
                gof,
            });
        }
    }

    best.ok_or(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stepwise(n: f64) -> f64 {
        // The paper's TeraSort IN(n): slope 0.15 before n = 15, 0.25 after.
        if n <= 15.0 {
            1.0 + 0.15 * (n - 1.0)
        } else {
            1.0 + 0.15 * 14.0 + 0.25 * (n - 15.0) + 1.0 // +1.0: 30% burst at the switch
        }
    }

    #[test]
    fn finds_terasort_style_changepoint() {
        let x: Vec<f64> = (1..=40).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| stepwise(v)).collect();
        let fit = fit_two_segment(&x, &y, 3).unwrap();
        assert!(
            (14.0..=16.0).contains(&fit.breakpoint),
            "breakpoint = {}",
            fit.breakpoint
        );
        assert!(
            (fit.left.slope - 0.15).abs() < 0.01,
            "left slope = {}",
            fit.left.slope
        );
        assert!(
            (fit.right.slope - 0.25).abs() < 0.01,
            "right slope = {}",
            fit.right.slope
        );
        assert!(fit.slope_increases());
    }

    #[test]
    fn single_regime_still_fits_well() {
        let x: Vec<f64> = (1..=20).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let fit = fit_two_segment(&x, &y, 2).unwrap();
        assert!((fit.left.slope - 2.0).abs() < 1e-9);
        assert!((fit.right.slope - 2.0).abs() < 1e-9);
        assert!(fit.gof.ss_res < 1e-18);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let x = [5.0, 1.0, 3.0, 2.0, 4.0, 8.0, 7.0, 6.0];
        let y: Vec<f64> = x
            .iter()
            .map(|&v| if v <= 4.0 { v } else { 3.0 * v - 8.0 })
            .collect();
        let fit = fit_two_segment(&x, &y, 2).unwrap();
        assert!((fit.left.slope - 1.0).abs() < 1e-9);
        assert!((fit.right.slope - 3.0).abs() < 1e-9);
        // x = 4 lies on both lines, so either split is a perfect fit.
        assert!(
            (3.0..=4.0).contains(&fit.breakpoint),
            "breakpoint = {}",
            fit.breakpoint
        );
        assert!(fit.gof.ss_res < 1e-18);
    }

    #[test]
    fn too_few_points_rejected() {
        let err = fit_two_segment(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], 2).unwrap_err();
        assert!(matches!(err, FitError::TooFewPoints { .. }));
    }

    #[test]
    fn predict_uses_correct_segment() {
        let x: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| if v <= 5.0 { v } else { 10.0 * v })
            .collect();
        let fit = fit_two_segment(&x, &y, 2).unwrap();
        assert!((fit.predict(2.0) - 2.0).abs() < 1e-6);
        assert!((fit.predict(9.0) - 90.0).abs() < 1e-6);
    }
}
