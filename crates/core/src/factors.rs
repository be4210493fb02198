//! Scaling-factor functions.
//!
//! IPSO describes a workload by three functions of the scale-out degree
//! `n` (paper Eqs. 3–6):
//!
//! * `EX(n)` — **external** scaling of the parallelizable portion,
//!   `Wp(n) = Wp(1)·EX(n)`, with `EX(1) = 1`;
//! * `IN(n)` — **internal** scaling of the serial portion,
//!   `Ws(n) = Ws(1)·IN(n)`, with `IN(1) = 1`;
//! * `q(n)` — the **scale-out-induced** factor,
//!   `Wo(n) = (Wp(n)/n)·q(n)`, with `q(1) = 0` and `q` non-decreasing.
//!
//! [`ScalingFactor`] is a small function language covering every shape the
//! paper uses: constants, lines, power laws, the two-segment step of
//! TeraSort's `IN(n)` (Fig. 5) and tabulated measurements.

use crate::ModelError;

/// A scaling factor: a function `f(n)` of the scale-out degree.
///
/// # Example
///
/// ```
/// use ipso::factors::ScalingFactor;
///
/// // The paper's fitted TeraSort internal scaling: 0.23·n + 2.72 for the
/// // post-spill regime.
/// let f = ScalingFactor::affine(0.23, 2.72);
/// assert!((f.eval(100.0) - 25.72).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingFactor {
    /// `f(n) = value` for all `n`.
    Constant(f64),
    /// `f(n) = slope·n + intercept`.
    Affine {
        /// Slope of the line.
        slope: f64,
        /// Intercept of the line.
        intercept: f64,
    },
    /// `f(n) = coefficient · n^exponent`.
    Power {
        /// Multiplicative coefficient.
        coefficient: f64,
        /// Exponent of `n`.
        exponent: f64,
    },
    /// `f(n) = coefficient · (n^exponent − 1)`: behaves like a power law
    /// asymptotically while vanishing exactly at `n = 1` — the natural
    /// form for scale-out-induced factors (`q(1) = 0` by definition).
    ShiftedPower {
        /// Multiplicative coefficient (the paper's β).
        coefficient: f64,
        /// Exponent of `n` (the paper's γ).
        exponent: f64,
    },
    /// Two linear regimes switching at `breakpoint` (TeraSort's step-wise
    /// internal scaling, paper Fig. 5).
    TwoSegment {
        /// Values of `n` at or below this use the left segment.
        breakpoint: f64,
        /// Left segment `(slope, intercept)`.
        left: (f64, f64),
        /// Right segment `(slope, intercept)`.
        right: (f64, f64),
    },
    /// Piecewise-linear interpolation through measured `(n, f(n))` points,
    /// extrapolating with the last segment's slope. Points must be sorted
    /// by `n` with at least two entries.
    Table(Vec<(f64, f64)>),
}

impl ScalingFactor {
    /// `f(n) = 1` — the traditional laws' internal scaling.
    pub fn one() -> Self {
        ScalingFactor::Constant(1.0)
    }

    /// `f(n) = 0` — absence of scale-out-induced overhead.
    pub fn zero() -> Self {
        ScalingFactor::Constant(0.0)
    }

    /// `f(n) = n` — the fixed-time external scaling of Gustafson's law.
    pub fn linear() -> Self {
        ScalingFactor::Affine {
            slope: 1.0,
            intercept: 0.0,
        }
    }

    /// `f(n) = slope·n + intercept`.
    pub fn affine(slope: f64, intercept: f64) -> Self {
        ScalingFactor::Affine { slope, intercept }
    }

    /// `f(n) = coefficient·n^exponent` — the asymptotic forms of
    /// Eqs. 14–15.
    pub fn power(coefficient: f64, exponent: f64) -> Self {
        ScalingFactor::Power {
            coefficient,
            exponent,
        }
    }

    /// A scale-out-induced factor `q(n) = β·(n^γ − 1)`, which satisfies the
    /// boundary condition `q(1) = 0` exactly while behaving like `β·n^γ`
    /// asymptotically (the paper works with the highest-order term only).
    pub fn induced(beta: f64, gamma: f64) -> Self {
        ScalingFactor::ShiftedPower {
            coefficient: beta,
            exponent: gamma,
        }
    }

    /// Evaluates the factor at scale-out degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if a [`ScalingFactor::Table`] has fewer than two points or is
    /// not sorted by `n` (validated at model build time).
    pub fn eval(&self, n: f64) -> f64 {
        match self {
            ScalingFactor::Constant(v) => *v,
            ScalingFactor::Affine { slope, intercept } => slope * n + intercept,
            ScalingFactor::Power {
                coefficient,
                exponent,
            } => coefficient * n.powf(*exponent),
            ScalingFactor::ShiftedPower {
                coefficient,
                exponent,
            } => coefficient * (n.powf(*exponent) - 1.0),
            ScalingFactor::TwoSegment {
                breakpoint,
                left,
                right,
            } => {
                let (slope, intercept) = if n <= *breakpoint { *left } else { *right };
                slope * n + intercept
            }
            ScalingFactor::Table(points) => {
                assert!(points.len() >= 2, "table factor needs at least two points");
                // Clamped/extrapolated linear interpolation.
                if n <= points[0].0 {
                    return interpolate(points[0], points[1], n);
                }
                for pair in points.windows(2) {
                    if n <= pair[1].0 {
                        return interpolate(pair[0], pair[1], n);
                    }
                }
                let last = points.len() - 1;
                interpolate(points[last - 1], points[last], n)
            }
        }
    }

    /// Returns a normalized copy scaled so that `f(1) = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFactor`] if `f(1)` is zero or
    /// non-finite.
    pub fn normalized(&self) -> Result<ScalingFactor, ModelError> {
        let at_one = self.eval(1.0);
        if !at_one.is_finite() || at_one.abs() < 1e-300 {
            return Err(ModelError::InvalidFactor {
                factor: "scaling",
                reason: "cannot normalize: f(1) is zero or non-finite",
            });
        }
        Ok(self.scaled(1.0 / at_one))
    }

    /// Returns a copy multiplied by `k`.
    pub fn scaled(&self, k: f64) -> ScalingFactor {
        match self {
            ScalingFactor::Constant(v) => ScalingFactor::Constant(v * k),
            ScalingFactor::Affine { slope, intercept } => ScalingFactor::Affine {
                slope: slope * k,
                intercept: intercept * k,
            },
            ScalingFactor::Power {
                coefficient,
                exponent,
            } => ScalingFactor::Power {
                coefficient: coefficient * k,
                exponent: *exponent,
            },
            ScalingFactor::ShiftedPower {
                coefficient,
                exponent,
            } => ScalingFactor::ShiftedPower {
                coefficient: coefficient * k,
                exponent: *exponent,
            },
            ScalingFactor::TwoSegment {
                breakpoint,
                left,
                right,
            } => ScalingFactor::TwoSegment {
                breakpoint: *breakpoint,
                left: (left.0 * k, left.1 * k),
                right: (right.0 * k, right.1 * k),
            },
            ScalingFactor::Table(points) => {
                ScalingFactor::Table(points.iter().map(|&(n, v)| (n, v * k)).collect())
            }
        }
    }

    /// The asymptotic order of growth: the `(coefficient, exponent)` pair of
    /// the highest-order term, i.e. `f(n) ≈ c·n^e` as `n → ∞`
    /// (paper Eqs. 14–15 keep only this term).
    pub fn leading_term(&self) -> (f64, f64) {
        match self {
            ScalingFactor::Constant(v) => (*v, 0.0),
            ScalingFactor::Affine { slope, intercept } => {
                if *slope != 0.0 {
                    (*slope, 1.0)
                } else {
                    (*intercept, 0.0)
                }
            }
            ScalingFactor::Power {
                coefficient,
                exponent,
            } => (*coefficient, *exponent),
            ScalingFactor::ShiftedPower {
                coefficient,
                exponent,
            } => (*coefficient, *exponent),
            ScalingFactor::TwoSegment { right, .. } => {
                if right.0 != 0.0 {
                    (right.0, 1.0)
                } else {
                    (right.1, 0.0)
                }
            }
            ScalingFactor::Table(points) => {
                // Slope of the final segment determines the extrapolation.
                let last = points.len() - 1;
                let slope =
                    (points[last].1 - points[last - 1].1) / (points[last].0 - points[last - 1].0);
                if slope.abs() > 1e-12 {
                    (slope, 1.0)
                } else {
                    (points[last].1, 0.0)
                }
            }
        }
    }

    /// Validates structural invariants (table sortedness and size). Called
    /// by the model builder.
    pub(crate) fn validate_structure(&self) -> Result<(), ModelError> {
        if let ScalingFactor::Table(points) = self {
            if points.len() < 2 {
                return Err(ModelError::InvalidFactor {
                    factor: "scaling",
                    reason: "table factor needs at least two points",
                });
            }
            if points.windows(2).any(|p| p[1].0 <= p[0].0) {
                return Err(ModelError::InvalidFactor {
                    factor: "scaling",
                    reason: "table points must be strictly increasing in n",
                });
            }
            if points
                .iter()
                .any(|&(n, v)| !n.is_finite() || !v.is_finite())
            {
                return Err(ModelError::InvalidFactor {
                    factor: "scaling",
                    reason: "table points must be finite",
                });
            }
        }
        Ok(())
    }
}

fn interpolate(a: (f64, f64), b: (f64, f64), n: f64) -> f64 {
    let t = (n - a.0) / (b.0 - a.0);
    a.1 + t * (b.1 - a.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_and_linear_shapes() {
        assert_eq!(ScalingFactor::one().eval(100.0), 1.0);
        assert_eq!(ScalingFactor::zero().eval(100.0), 0.0);
        assert_eq!(ScalingFactor::linear().eval(17.0), 17.0);
    }

    #[test]
    fn power_evaluates() {
        let f = ScalingFactor::power(0.5, 2.0);
        assert!((f.eval(4.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn two_segment_switches_at_breakpoint() {
        let f = ScalingFactor::TwoSegment {
            breakpoint: 15.0,
            left: (0.15, 0.85),
            right: (0.25, 0.8),
        };
        assert!((f.eval(10.0) - 2.35).abs() < 1e-12);
        assert!((f.eval(20.0) - 5.8).abs() < 1e-12);
    }

    #[test]
    fn table_interpolates_and_extrapolates() {
        let f = ScalingFactor::Table(vec![(1.0, 1.0), (2.0, 3.0), (4.0, 7.0)]);
        assert!((f.eval(1.5) - 2.0).abs() < 1e-12);
        assert!((f.eval(3.0) - 5.0).abs() < 1e-12);
        // Extrapolation continues the last segment (slope 2).
        assert!((f.eval(6.0) - 11.0).abs() < 1e-12);
        // Below the first point extrapolates the first segment.
        assert!((f.eval(0.5) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn induced_with_integer_gamma_is_exact_at_one() {
        let q = ScalingFactor::induced(0.01, 2.0);
        assert!(q.eval(1.0).abs() < 1e-15, "q(1) = {}", q.eval(1.0));
        assert!((q.eval(10.0) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn induced_leading_term_matches_gamma() {
        let q = ScalingFactor::induced(0.3, 2.0);
        let (c, e) = q.leading_term();
        assert!((c - 0.3).abs() < 1e-12);
        assert!((e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_forces_unit_value_at_one() {
        let f = ScalingFactor::affine(0.36, -0.11); // f(1) = 0.25
        let g = f.normalized().unwrap();
        assert!((g.eval(1.0) - 1.0).abs() < 1e-12);
        assert!((g.eval(2.0) - f.eval(2.0) / 0.25).abs() < 1e-12);
    }

    #[test]
    fn normalization_rejects_zero_at_one() {
        let f = ScalingFactor::affine(1.0, -1.0); // f(1) = 0
        assert!(f.normalized().is_err());
    }

    #[test]
    fn leading_terms() {
        assert_eq!(ScalingFactor::one().leading_term(), (1.0, 0.0));
        assert_eq!(ScalingFactor::linear().leading_term(), (1.0, 1.0));
        assert_eq!(ScalingFactor::power(2.0, 0.5).leading_term(), (2.0, 0.5));
        let t = ScalingFactor::Table(vec![(1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(t.leading_term(), (1.0, 0.0));
    }

    #[test]
    fn table_structure_validation() {
        let bad = ScalingFactor::Table(vec![(1.0, 1.0)]);
        assert!(bad.validate_structure().is_err());
        let unsorted = ScalingFactor::Table(vec![(2.0, 1.0), (1.0, 2.0)]);
        assert!(unsorted.validate_structure().is_err());
        let good = ScalingFactor::Table(vec![(1.0, 1.0), (2.0, 2.0)]);
        assert!(good.validate_structure().is_ok());
    }

    #[test]
    fn scaled_multiplies_everything() {
        let f = ScalingFactor::TwoSegment {
            breakpoint: 5.0,
            left: (1.0, 0.0),
            right: (2.0, 1.0),
        };
        let g = f.scaled(3.0);
        assert!((g.eval(4.0) - 12.0).abs() < 1e-12);
        assert!((g.eval(6.0) - 39.0).abs() < 1e-12);
    }
}
