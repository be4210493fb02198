#![warn(missing_docs)]

//! Regression and curve-fitting substrate for the IPSO reproduction.
//!
//! The IPSO paper estimates its scaling factors — `EX(n)`, `IN(n)` and
//! `q(n)` — from measurements at small scale-out degrees and extrapolates
//! them to large `n` (Section V, "Scaling Prediction"). The original authors
//! used off-the-shelf (non)linear regression; this crate implements the same
//! toolkit from scratch:
//!
//! * [`linear`] — ordinary least squares for `y = a + b·x` with diagnostics.
//! * [`powerlaw`] — power-law fits `y = a·x^b` (log–log OLS).
//! * [`segmented`] — two-segment linear regression with changepoint search,
//!   used for the step-wise internal scaling of TeraSort (paper Fig. 5).
//! * [`nonlinear`] — a Levenberg–Marquardt solver with numeric
//!   Jacobians for arbitrary parametric models.
//! * [`diagnostics`] — R² and the residual sum of squares.
//!
//! # Example
//!
//! ```
//! use ipso_fit::linear::fit_line;
//!
//! # fn main() -> Result<(), ipso_fit::FitError> {
//! // IN(n) for Sort in the paper is approximately 0.36·n − 0.11.
//! let n: Vec<f64> = (1..=16).map(|v| v as f64).collect();
//! let y: Vec<f64> = n.iter().map(|v| 0.36 * v - 0.11).collect();
//! let fit = fit_line(&n, &y)?;
//! assert!((fit.slope - 0.36).abs() < 1e-9);
//! assert!((fit.intercept + 0.11).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod diagnostics;
pub mod error;
pub mod linear;
pub mod nonlinear;
pub mod powerlaw;
pub mod segmented;

pub use error::FitError;
pub use linear::{fit_line, LineFit};
pub use nonlinear::{levenberg_marquardt, NonlinearFit};
pub use powerlaw::{fit_power_law, PowerLawFit};
pub use segmented::{fit_two_segment, TwoSegmentFit};
