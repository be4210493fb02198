//! The six-step diagnostic procedure of Section V.
//!
//! Given a measured speedup curve and the workload type, the paper
//! recommends:
//!
//! 1. determine the use-case scenario (fixed-time or fixed-size);
//! 2. measure the speedup as the scale-out degree increases;
//! 3. plot the points (optionally with a regression curve as a guide);
//! 4. compare the trend with Fig. 2 / Fig. 3 to identify the matched type;
//! 5. for types I, II and IV the root cause is directly identified;
//! 6. for type III, estimate δ and γ from detailed measurements to pin
//!    down the sub-type.
//!
//! [`Diagnostician`] automates steps 4–5 from the curve alone and step 6
//! when factor estimates are available.

use crate::estimate::FactorEstimates;
use crate::measurement::SpeedupCurve;
use crate::taxonomy::{classify, FixedSizeClass, FixedTimeClass, ScalingClass, WorkloadType};
use crate::ModelError;
use ipso_fit::{fit_power_law, levenberg_marquardt};

/// Fraction of the peak below which the final point must fall before we
/// call a curve "peaked" rather than noisy-flat.
const PEAK_DROP: f64 = 0.93;

/// Tail log–log slope above which growth is considered linear.
const LINEAR_SLOPE: f64 = 0.85;

/// Tail log–log slope below which the curve is treated as saturating.
const FLAT_SLOPE: f64 = 0.12;

/// The coarse trend identified from the speedup curve alone (step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trend {
    /// Near-linear unbounded growth (type I).
    Linear,
    /// Sublinear but clearly still growing (type II).
    SublinearUnbounded,
    /// Monotone growth that saturates towards a bound (type III).
    Bounded,
    /// A peak followed by decline (type IV).
    Peaked,
}

impl std::fmt::Display for Trend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trend::Linear => write!(f, "linear unbounded"),
            Trend::SublinearUnbounded => write!(f, "sublinear unbounded"),
            Trend::Bounded => write!(f, "monotone, upper-bounded"),
            Trend::Peaked => write!(f, "peaked (rises then falls)"),
        }
    }
}

/// The outcome of a diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// The workload type assumed (step 1).
    pub workload: WorkloadType,
    /// Coarse trend matched from the curve (step 4).
    pub trend: Trend,
    /// The matched scaling class. For type III the sub-type is only
    /// resolved when factor estimates were supplied (step 6); without them
    /// the `·,1` sub-type is reported with a note.
    pub class: ScalingClass,
    /// Whether the sub-type of a type-III diagnosis was resolved exactly.
    pub subtype_resolved: bool,
    /// Estimated tail growth exponent of the speedup curve.
    pub tail_exponent: f64,
    /// Estimated speedup bound for bounded trends.
    pub bound_estimate: Option<f64>,
    /// Observed peak `(n, S)` for peaked trends.
    pub peak: Option<(u32, f64)>,
    /// Human-readable root-cause analysis (step 5).
    pub root_cause: String,
}

impl std::fmt::Display for DiagnosisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "workload type : {}", self.workload)?;
        writeln!(f, "trend         : {}", self.trend)?;
        writeln!(f, "scaling class : {}", self.class)?;
        writeln!(f, "tail exponent : {:.3}", self.tail_exponent)?;
        if let Some(b) = self.bound_estimate {
            writeln!(f, "speedup bound : {b:.2}")?;
        }
        if let Some((n, s)) = self.peak {
            writeln!(f, "peak          : S({n}) = {s:.2}")?;
        }
        write!(f, "root cause    : {}", self.root_cause)
    }
}

/// Runs the diagnostic procedure on measured speedup curves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Diagnostician {
    _private: (),
}

impl Diagnostician {
    /// Creates a diagnostician.
    pub fn new() -> Self {
        Diagnostician::default()
    }

    /// Steps 4–5: identify the scaling type from the curve alone.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientData`] with fewer than four
    /// points, or regression errors from the trend fits.
    pub fn diagnose(
        &self,
        curve: &SpeedupCurve,
        workload: WorkloadType,
    ) -> Result<DiagnosisReport, ModelError> {
        if curve.len() < 4 {
            return Err(ModelError::InsufficientData {
                points: curve.len(),
                required: 4,
            });
        }
        let ns = curve.ns();
        let speedups = curve.speedups();
        let peak = curve.peak().expect("non-empty curve");
        let last = *curve.points().last().expect("non-empty curve");

        // Tail exponent from the upper half of the curve in log–log space.
        let half = curve.len() / 2;
        let tail_n: Vec<f64> = ns[half..].to_vec();
        let tail_s: Vec<f64> = speedups[half..].to_vec();
        let tail_exponent = match fit_power_law(&tail_n, &tail_s) {
            Ok(f) => f.exponent,
            Err(_) => 0.0, // non-positive speedups: decayed to ~0, IVish
        };

        // Peaked: the peak is interior and the curve has clearly dropped.
        let peaked = peak.n < last.n && last.speedup < PEAK_DROP * peak.speedup;

        let (trend, bound_estimate) = if peaked {
            (Trend::Peaked, Some(0.0))
        } else if tail_exponent >= LINEAR_SLOPE {
            (Trend::Linear, None)
        } else if tail_exponent <= FLAT_SLOPE {
            let bound = estimate_bound(&ns, &speedups).unwrap_or(last.speedup);
            (Trend::Bounded, Some(bound))
        } else {
            // Ambiguous middle ground: compare an unbounded power law with
            // a saturating model S(n) = L·n/(n+k) on the whole curve.
            match compare_models(&ns, &speedups)? {
                ModelChoice::PowerLaw => (Trend::SublinearUnbounded, None),
                ModelChoice::Saturating(bound) => (Trend::Bounded, Some(bound)),
            }
        };

        let (class, root_cause) = match (workload, trend) {
            (WorkloadType::FixedTime, Trend::Linear) => (
                ScalingClass::FixedTime(FixedTimeClass::It),
                "Gustafson-like: no internal scaling (δ = 1) or no serial workload (η = 1), \
                 and negligible scale-out-induced workload (γ = 0)"
                    .to_string(),
            ),
            (WorkloadType::FixedTime, Trend::SublinearUnbounded) => (
                ScalingClass::FixedTime(FixedTimeClass::IIt),
                "unbounded but sublinear: sub-linear scale-out-induced workload (γ < 1) \
                 or partial in-proportion scaling (0 < δ < 1)"
                    .to_string(),
            ),
            (WorkloadType::FixedTime, Trend::Bounded) => (
                ScalingClass::FixedTime(FixedTimeClass::IIIt1),
                "pathological bound for a fixed-time workload: in-proportion scaling \
                 (δ ≈ 0, sub-type IIIt,1) or linear induced scaling (γ = 1, sub-type IIIt,2); \
                 estimate δ and γ to resolve the sub-type (step 6)"
                    .to_string(),
            ),
            (WorkloadType::FixedTime, Trend::Peaked) => (
                ScalingClass::FixedTime(FixedTimeClass::IVt),
                "pathological peak-and-fall: the scale-out-induced workload grows \
                 superlinearly (γ > 1), e.g. centralized scheduling or broadcast"
                    .to_string(),
            ),
            (WorkloadType::FixedSize, Trend::Linear) => (
                ScalingClass::FixedSize(FixedSizeClass::Is),
                "perfect linear scaling: no serial portion and no induced workload \
                 (a very special case)"
                    .to_string(),
            ),
            (WorkloadType::FixedSize, Trend::SublinearUnbounded) => (
                ScalingClass::FixedSize(FixedSizeClass::IIs),
                "unbounded sublinear: no serial portion, induced workload grows \
                 sublinearly (γ < 1)"
                    .to_string(),
            ),
            (WorkloadType::FixedSize, Trend::Bounded) => (
                ScalingClass::FixedSize(FixedSizeClass::IIIs1),
                "Amdahl-like bound: serial portion present (sub-type IIIs,1) or linear \
                 induced scaling (γ = 1, sub-type IIIs,2); estimate γ to resolve (step 6)"
                    .to_string(),
            ),
            (WorkloadType::FixedSize, Trend::Peaked) => (
                ScalingClass::FixedSize(FixedSizeClass::IVs),
                "pathological peak-and-fall: superlinear induced workload (γ > 1); \
                 scaling out beyond the peak only harms performance"
                    .to_string(),
            ),
        };

        Ok(DiagnosisReport {
            workload,
            trend,
            class,
            subtype_resolved: trend != Trend::Bounded,
            tail_exponent,
            bound_estimate,
            peak: if peaked {
                Some((peak.n, peak.speedup))
            } else {
                None
            },
            root_cause,
        })
    }

    /// Step 6: refine a coarse diagnosis with exact factor estimates,
    /// resolving III sub-types through the full taxonomy.
    ///
    /// # Errors
    ///
    /// Propagates classification errors (e.g. out-of-range δ).
    pub fn refine(
        &self,
        report: &DiagnosisReport,
        estimates: &FactorEstimates,
    ) -> Result<DiagnosisReport, ModelError> {
        let params = estimates.to_asymptotic()?;
        let (class, bound) = classify(&params, report.workload)?;
        let mut refined = report.clone();
        refined.class = class;
        refined.subtype_resolved = true;
        if bound.is_some() {
            refined.bound_estimate = bound;
        }
        refined.root_cause = format!(
            "{} — resolved with η = {:.3}, α = {:.3}, δ = {:.3}, β = {:.4}, γ = {:.3}",
            class, params.eta, params.alpha, params.delta, params.beta, params.gamma
        );
        Ok(refined)
    }
}

enum ModelChoice {
    PowerLaw,
    Saturating(f64),
}

/// Chooses between an unbounded power law and a saturating hyperbola by R².
fn compare_models(ns: &[f64], speedups: &[f64]) -> Result<ModelChoice, ModelError> {
    let power = fit_power_law(ns, speedups);
    let sat = levenberg_marquardt(
        |p, n| p[0] * n / (n + p[1].abs()),
        ns,
        speedups,
        &[speedups.last().copied().unwrap_or(1.0) * 1.5, 5.0],
    );
    match (power, sat) {
        (Ok(p), Ok(s)) => {
            if s.gof.r_squared > p.gof.r_squared + 1e-6 {
                Ok(ModelChoice::Saturating(s.params[0]))
            } else {
                Ok(ModelChoice::PowerLaw)
            }
        }
        (Ok(_), Err(_)) => Ok(ModelChoice::PowerLaw),
        (Err(_), Ok(s)) => Ok(ModelChoice::Saturating(s.params[0])),
        (Err(e), Err(_)) => Err(e.into()),
    }
}

/// Estimates the bound of a saturating curve with `S(n) = L·n/(n + k)`.
fn estimate_bound(ns: &[f64], speedups: &[f64]) -> Option<f64> {
    levenberg_marquardt(
        |p, n| p[0] * n / (n + p[1].abs()),
        ns,
        speedups,
        &[speedups.last().copied()? * 1.2, 5.0],
    )
    .ok()
    .map(|f| f.params[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::SpeedupCurve;

    fn curve_from<F: Fn(f64) -> f64>(ns: &[u32], f: F) -> SpeedupCurve {
        SpeedupCurve::from_pairs(ns.iter().map(|&n| (n, f(n as f64)))).unwrap()
    }

    const NS: &[u32] = &[1, 2, 4, 8, 16, 32, 64, 96, 128, 160, 200];

    #[test]
    fn diagnoses_gustafson_as_it() {
        let c = curve_from(NS, |n| 0.99 * n + 0.01);
        let r = Diagnostician::new()
            .diagnose(&c, WorkloadType::FixedTime)
            .unwrap();
        assert_eq!(r.trend, Trend::Linear);
        assert_eq!(r.class, ScalingClass::FixedTime(FixedTimeClass::It));
        assert!(r.root_cause.contains("Gustafson"));
    }

    #[test]
    fn diagnoses_sublinear_as_iit() {
        let c = curve_from(NS, |n| n.powf(0.6));
        let r = Diagnostician::new()
            .diagnose(&c, WorkloadType::FixedTime)
            .unwrap();
        assert_eq!(r.trend, Trend::SublinearUnbounded);
        assert_eq!(r.class, ScalingClass::FixedTime(FixedTimeClass::IIt));
    }

    #[test]
    fn diagnoses_sort_like_bound_as_iiit() {
        // Sort in the paper saturates near S ≈ 3–5.
        let c = curve_from(NS, |n| 4.6 * n / (n + 7.0));
        let r = Diagnostician::new()
            .diagnose(&c, WorkloadType::FixedTime)
            .unwrap();
        assert_eq!(r.trend, Trend::Bounded);
        assert!(matches!(
            r.class,
            ScalingClass::FixedTime(FixedTimeClass::IIIt1 | FixedTimeClass::IIIt2)
        ));
        let bound = r.bound_estimate.unwrap();
        assert!((bound - 4.6).abs() < 0.5, "bound = {bound}");
        assert!(!r.subtype_resolved);
    }

    #[test]
    fn diagnoses_collaborative_filtering_as_ivs() {
        // CF: S(n) = tp1 / (a/n + c + b n²) — peaks near n = 60.
        let c = curve_from(&[1, 10, 30, 60, 90, 120, 150], |n| {
            1602.5 / (2000.0 / n + 10.0 + 0.0061 * n * n)
        });
        let r = Diagnostician::new()
            .diagnose(&c, WorkloadType::FixedSize)
            .unwrap();
        assert_eq!(r.trend, Trend::Peaked);
        assert_eq!(r.class, ScalingClass::FixedSize(FixedSizeClass::IVs));
        let (n_peak, _) = r.peak.unwrap();
        assert!((30..=90).contains(&n_peak));
        assert_eq!(r.bound_estimate, Some(0.0));
    }

    #[test]
    fn diagnoses_amdahl_as_bounded_fixed_size() {
        let c = curve_from(NS, |n| 1.0 / (0.9 / n + 0.1));
        let r = Diagnostician::new()
            .diagnose(&c, WorkloadType::FixedSize)
            .unwrap();
        assert_eq!(r.trend, Trend::Bounded);
        assert!(matches!(r.class, ScalingClass::FixedSize(_)));
        let bound = r.bound_estimate.unwrap();
        assert!((bound - 10.0).abs() < 1.5, "bound = {bound}");
    }

    #[test]
    fn refine_resolves_subtype() {
        use crate::estimate::estimate_factors;
        use crate::measurement::RunMeasurement;

        // δ = 0 fixed-time workload: IN grows like EX. Expected IIIt,1.
        let runs: Vec<RunMeasurement> = [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&n| {
                let nf = n as f64;
                RunMeasurement {
                    n,
                    seq_parallel_work: 10.0 * nf,
                    seq_serial_work: 2.0 * nf,
                    par_map_time: 10.0,
                    par_serial_time: 2.0 * nf,
                    par_overhead: 0.0,
                }
            })
            .collect();
        let est = estimate_factors(&runs).unwrap();
        let curve = curve_from(NS, |n| {
            let eta: f64 = 10.0 / 12.0;
            (eta * n + (1.0 - eta) * n) / (eta + (1.0 - eta) * n)
        });
        let d = Diagnostician::new();
        let coarse = d.diagnose(&curve, WorkloadType::FixedTime).unwrap();
        let refined = d.refine(&coarse, &est).unwrap();
        assert_eq!(
            refined.class,
            ScalingClass::FixedTime(FixedTimeClass::IIIt1)
        );
        assert!(refined.subtype_resolved);
        assert!(refined.root_cause.contains("η ="));
    }

    #[test]
    fn too_few_points_rejected() {
        let c = curve_from(&[1, 2, 4], |n| n);
        assert!(matches!(
            Diagnostician::new()
                .diagnose(&c, WorkloadType::FixedTime)
                .unwrap_err(),
            ModelError::InsufficientData { .. }
        ));
    }

    #[test]
    fn report_display_is_readable() {
        let c = curve_from(NS, |n| 0.9 * n + 0.1);
        let r = Diagnostician::new()
            .diagnose(&c, WorkloadType::FixedTime)
            .unwrap();
        let text = r.to_string();
        assert!(text.contains("workload type : fixed-time"));
        assert!(text.contains("scaling class : It"));
    }
}
