//! Measurement containers.
//!
//! The analysis pipeline consumes two kinds of data:
//!
//! * [`SpeedupCurve`] — plain `(n, speedup)` points, enough for the
//!   diagnostic procedure of Section V;
//! * [`RunMeasurement`] — the per-run decomposition the paper uses to
//!   estimate scaling factors: sequential-execution workloads `Wp(n)`,
//!   `Ws(n)` and scale-out phase times including `E[max Tp,i(n)]` and the
//!   scale-out-only overhead `Wo(n)`.

use crate::ModelError;

/// A single measured speedup point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Scale-out degree.
    pub n: u32,
    /// Measured speedup `S(n)`.
    pub speedup: f64,
}

/// A measured speedup curve, ordered by `n`.
///
/// # Example
///
/// ```
/// use ipso::measurement::SpeedupCurve;
///
/// # fn main() -> Result<(), ipso::ModelError> {
/// let curve = SpeedupCurve::from_pairs([(1, 1.0), (2, 1.8), (4, 3.1)])?;
/// assert_eq!(curve.len(), 3);
/// assert!(curve.is_monotonic_increasing());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpeedupCurve {
    points: Vec<SpeedupPoint>,
}

impl SpeedupCurve {
    /// Builds a curve from `(n, speedup)` pairs, sorting by `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScaleOut`] for `n = 0`,
    /// [`ModelError::NonFinite`] for non-finite speedups, and
    /// [`ModelError::InvalidFactor`] for duplicate `n` values.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, f64)>) -> Result<Self, ModelError> {
        let mut points: Vec<SpeedupPoint> = pairs
            .into_iter()
            .map(|(n, speedup)| SpeedupPoint { n, speedup })
            .collect();
        for p in &points {
            if p.n == 0 {
                return Err(ModelError::InvalidScaleOut(0.0));
            }
            if !p.speedup.is_finite() {
                return Err(ModelError::NonFinite("speedup"));
            }
        }
        points.sort_by_key(|p| p.n);
        if points.windows(2).any(|w| w[0].n == w[1].n) {
            return Err(ModelError::InvalidFactor {
                factor: "scaling",
                reason: "duplicate scale-out degrees in curve",
            });
        }
        Ok(SpeedupCurve { points })
    }

    /// The points, ordered by `n`.
    pub fn points(&self) -> &[SpeedupPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Scale-out degrees as `f64`, in order.
    pub fn ns(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.n as f64).collect()
    }

    /// Speedups, in order of `n`.
    pub fn speedups(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.speedup).collect()
    }

    /// The point with the highest speedup.
    pub fn peak(&self) -> Option<SpeedupPoint> {
        // Curves built by from_pairs are finite by construction, but the
        // FromIterator path is open-ended: total order instead of panic.
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
    }

    /// Whether the speedup never decreases as `n` grows.
    pub fn is_monotonic_increasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].speedup >= w[0].speedup)
    }

    /// Restricts the curve to points with `n <= n_max` (the paper fits its
    /// scaling factors on `n ≤ 16`).
    pub fn up_to(&self, n_max: u32) -> SpeedupCurve {
        SpeedupCurve {
            points: self
                .points
                .iter()
                .copied()
                .filter(|p| p.n <= n_max)
                .collect(),
        }
    }
}

/// Collects points into a curve, sorting by `n`. Points with a
/// non-finite speedup or `n = 0` are dropped — this is the lenient
/// ingestion path; use [`SpeedupCurve::from_pairs`] to reject them with
/// a [`ModelError`] instead.
impl FromIterator<SpeedupPoint> for SpeedupCurve {
    fn from_iter<T: IntoIterator<Item = SpeedupPoint>>(iter: T) -> Self {
        let mut points: Vec<SpeedupPoint> = iter
            .into_iter()
            .filter(|p| p.n > 0 && p.speedup.is_finite())
            .collect();
        points.sort_by_key(|p| p.n);
        SpeedupCurve { points }
    }
}

/// The decomposed measurements for one scale-out degree, combining the
/// sequential-execution reference run with the scale-out run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// Scale-out degree `n`.
    pub n: u32,
    /// `Wp(n)`: time to execute all `n` tasks sequentially on one unit (s).
    pub seq_parallel_work: f64,
    /// `Ws(n)`: merge time in the sequential execution (s).
    pub seq_serial_work: f64,
    /// `max_i Tp,i(n)`: the slowest parallel task in the scale-out run (s).
    pub par_map_time: f64,
    /// Serial merge time in the scale-out run (s).
    pub par_serial_time: f64,
    /// `Wo(n)`: overheads present only in the scale-out run (s).
    pub par_overhead: f64,
}

impl RunMeasurement {
    /// Sequential job time `Wp(n) + Ws(n)` — the speedup numerator.
    pub fn sequential_time(&self) -> f64 {
        self.seq_parallel_work + self.seq_serial_work
    }

    /// Parallel job time — the speedup denominator (paper Eq. 7).
    pub fn parallel_time(&self) -> f64 {
        self.par_map_time + self.par_serial_time + self.par_overhead
    }

    /// The measured speedup `S(n)`.
    pub fn speedup(&self) -> f64 {
        self.sequential_time() / self.parallel_time()
    }

    /// The measured scale-out-induced factor `q(n) = Wo(n)·n / Wp(n)`
    /// (inverting paper Eq. 6).
    pub fn q_factor(&self) -> f64 {
        if self.seq_parallel_work <= 0.0 {
            0.0
        } else {
            self.par_overhead * self.n as f64 / self.seq_parallel_work
        }
    }

    /// Validates that all fields are finite and non-negative and `n ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScaleOut`] or [`ModelError::NonFinite`].
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.n == 0 {
            return Err(ModelError::InvalidScaleOut(0.0));
        }
        let fields = [
            self.seq_parallel_work,
            self.seq_serial_work,
            self.par_map_time,
            self.par_serial_time,
            self.par_overhead,
        ];
        if fields.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(ModelError::NonFinite("run measurement field"));
        }
        Ok(())
    }
}

/// Decomposition of a measured scale-out overhead `Wo(n)` into the
/// paper's canonical mechanisms.
///
/// Built by [`overhead_breakdown`]; the [`OverheadBreakdown::other`]
/// residual absorbs whatever the named components do not explain, so the
/// six components always sum to `total` *exactly* (no 1e-6 drift from
/// re-deriving the total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadBreakdown {
    /// The measured total `Wo(n)` (s).
    pub total: f64,
    /// Job setup, dispatch serialization and first-wave costs (s).
    pub scheduling: f64,
    /// Serialized driver broadcasts (s).
    pub broadcast: f64,
    /// Time spent waiting on shuffle transfers beyond the barrier (s).
    pub shuffle_wait: f64,
    /// Barrier stretch beyond a no-straggler schedule (s).
    pub straggler_tail: f64,
    /// Work wasted by fault recovery: failed attempts, outputs lost to
    /// node crashes, losing speculative copies and lineage
    /// recomputation (s).
    pub recovery: f64,
    /// Residual not attributed to a named mechanism (s). Negative when
    /// the named components over-explain the total.
    pub other: f64,
}

impl OverheadBreakdown {
    /// Sum of all six components; equals `total` by construction.
    pub fn components_sum(&self) -> f64 {
        self.scheduling
            + self.broadcast
            + self.shuffle_wait
            + self.straggler_tail
            + self.recovery
            + self.other
    }

    /// `(component name, fraction of total)` pairs, in declaration order.
    /// All fractions are zero when the total is zero.
    pub fn shares(&self) -> [(&'static str, f64); 6] {
        let frac = |v: f64| {
            if self.total > 0.0 {
                v / self.total
            } else {
                0.0
            }
        };
        [
            ("scheduling", frac(self.scheduling)),
            ("broadcast", frac(self.broadcast)),
            ("shuffle_wait", frac(self.shuffle_wait)),
            ("straggler_tail", frac(self.straggler_tail)),
            ("recovery", frac(self.recovery)),
            ("other", frac(self.other)),
        ]
    }
}

impl std::fmt::Display for OverheadBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "scale-out overhead Wo = {:.4}s", self.total)?;
        let values = [
            self.scheduling,
            self.broadcast,
            self.shuffle_wait,
            self.straggler_tail,
            self.recovery,
            self.other,
        ];
        for ((name, share), value) in self.shares().into_iter().zip(values) {
            writeln!(f, "  {name:<15} {value:>10.4}s  ({:5.1}%)", share * 100.0)?;
        }
        Ok(())
    }
}

/// Decomposes a measured `Wo(n)` into scheduling / broadcast /
/// shuffle-wait / straggler-tail / recovery shares, with the unexplained
/// remainder in [`OverheadBreakdown::other`].
pub fn overhead_breakdown(
    total: f64,
    scheduling: f64,
    broadcast: f64,
    shuffle_wait: f64,
    straggler_tail: f64,
    recovery: f64,
) -> OverheadBreakdown {
    OverheadBreakdown {
        total,
        scheduling,
        broadcast,
        shuffle_wait,
        straggler_tail,
        recovery,
        other: total - (scheduling + broadcast + shuffle_wait + straggler_tail + recovery),
    }
}

/// Converts a set of run measurements into a speedup curve.
///
/// # Errors
///
/// Propagates validation errors and curve-construction errors.
pub fn speedup_curve_from_runs(runs: &[RunMeasurement]) -> Result<SpeedupCurve, ModelError> {
    for r in runs {
        r.validate()?;
    }
    SpeedupCurve::from_pairs(runs.iter().map(|r| (r.n, r.speedup())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: u32, wp: f64, ws: f64, tmax: f64, tser: f64, wo: f64) -> RunMeasurement {
        RunMeasurement {
            n,
            seq_parallel_work: wp,
            seq_serial_work: ws,
            par_map_time: tmax,
            par_serial_time: tser,
            par_overhead: wo,
        }
    }

    #[test]
    fn curve_sorts_and_validates() {
        let c = SpeedupCurve::from_pairs([(4, 3.0), (1, 1.0), (2, 1.9)]).unwrap();
        assert_eq!(c.ns(), vec![1.0, 2.0, 4.0]);
        assert!(c.is_monotonic_increasing());
        assert_eq!(c.peak().unwrap().n, 4);
    }

    #[test]
    fn curve_rejects_zero_n_and_nan() {
        assert!(SpeedupCurve::from_pairs([(0, 1.0)]).is_err());
        assert!(SpeedupCurve::from_pairs([(1, f64::NAN)]).is_err());
        assert!(SpeedupCurve::from_pairs([(1, 1.0), (1, 2.0)]).is_err());
    }

    #[test]
    fn up_to_window_filters() {
        let c = SpeedupCurve::from_pairs([(1, 1.0), (8, 6.0), (16, 10.0), (32, 12.0)]).unwrap();
        let w = c.up_to(16);
        assert_eq!(w.len(), 3);
        assert_eq!(w.points().last().unwrap().n, 16);
    }

    #[test]
    fn peaked_curve_detected() {
        let c = SpeedupCurve::from_pairs([(1, 1.0), (10, 15.0), (60, 21.0), (90, 18.0)]).unwrap();
        assert!(!c.is_monotonic_increasing());
        let p = c.peak().unwrap();
        assert_eq!(p.n, 60);
        assert!((p.speedup - 21.0).abs() < 1e-12);
    }

    #[test]
    fn run_measurement_speedup_and_q() {
        let r = run(10, 100.0, 20.0, 10.0, 20.0, 5.0);
        assert!((r.sequential_time() - 120.0).abs() < 1e-12);
        assert!((r.parallel_time() - 35.0).abs() < 1e-12);
        assert!((r.speedup() - 120.0 / 35.0).abs() < 1e-12);
        // q = 5 * 10 / 100 = 0.5
        assert!((r.q_factor() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_measurement_validation() {
        assert!(run(1, 1.0, 1.0, 1.0, 1.0, 0.0).validate().is_ok());
        assert!(run(0, 1.0, 1.0, 1.0, 1.0, 0.0).validate().is_err());
        assert!(run(1, -1.0, 1.0, 1.0, 1.0, 0.0).validate().is_err());
        assert!(run(1, f64::INFINITY, 1.0, 1.0, 1.0, 0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn curve_from_runs() {
        let runs = vec![
            run(1, 10.0, 2.0, 10.0, 2.0, 0.0),
            run(4, 40.0, 4.0, 10.0, 4.0, 1.0),
        ];
        let c = speedup_curve_from_runs(&runs).unwrap();
        assert_eq!(c.len(), 2);
        assert!((c.points()[0].speedup - 1.0).abs() < 1e-12);
        assert!((c.points()[1].speedup - 44.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn collect_from_iterator() {
        let c: SpeedupCurve = [
            SpeedupPoint { n: 2, speedup: 2.0 },
            SpeedupPoint { n: 1, speedup: 1.0 },
        ]
        .into_iter()
        .collect();
        assert_eq!(c.points()[0].n, 1);
    }

    #[test]
    fn collect_drops_invalid_points_and_peak_stays_nan_safe() {
        // The lenient FromIterator path filters NaN/inf/n = 0 instead of
        // letting them poison peak() (which used to panic on NaN via
        // partial_cmp().unwrap()).
        let c: SpeedupCurve = [
            SpeedupPoint { n: 1, speedup: 1.0 },
            SpeedupPoint {
                n: 2,
                speedup: f64::NAN,
            },
            SpeedupPoint {
                n: 3,
                speedup: f64::INFINITY,
            },
            SpeedupPoint { n: 0, speedup: 5.0 },
            SpeedupPoint { n: 4, speedup: 3.0 },
        ]
        .into_iter()
        .collect();
        assert_eq!(c.len(), 2);
        assert_eq!(c.peak().unwrap().n, 4);
    }

    #[test]
    fn overhead_breakdown_sums_exactly() {
        let b = overhead_breakdown(10.0, 3.0, 2.0, 1.0, 0.5, 1.5);
        assert!((b.components_sum() - b.total).abs() < 1e-6);
        assert!((b.other - 2.0).abs() < 1e-12);
        // Awkward floating-point inputs still sum exactly by residual.
        let b = overhead_breakdown(0.3, 0.1, 0.1, 0.05, 0.025, 0.0125);
        assert!((b.components_sum() - b.total).abs() < 1e-6);
    }

    #[test]
    fn overhead_breakdown_shares() {
        let b = overhead_breakdown(8.0, 4.0, 1.0, 1.0, 0.0, 2.0);
        let shares = b.shares();
        assert_eq!(shares[0], ("scheduling", 0.5));
        assert_eq!(shares[1], ("broadcast", 0.125));
        assert_eq!(shares[4], ("recovery", 0.25));
        assert_eq!(shares[5], ("other", 0.0));
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Zero total yields zero shares, not NaN.
        let z = overhead_breakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        assert!(z.shares().iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn overhead_breakdown_display() {
        let b = overhead_breakdown(2.0, 1.0, 0.5, 0.0, 0.25, 0.25);
        let text = b.to_string();
        assert!(text.contains("Wo = 2.0000s"));
        assert!(text.contains("scheduling"));
        assert!(text.contains("50.0%"));
        assert!(text.contains("recovery            0.2500s  ( 12.5%)"));
        assert!(text.contains("other               0.0000s  (  0.0%)"));
    }
}
