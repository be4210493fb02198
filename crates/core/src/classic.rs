//! The classic scaling laws (paper Eq. 12) as IPSO special cases.
//!
//! With `IN(n) = 1` and `q(n) = 0`, IPSO reduces to:
//!
//! * **Amdahl's law** (`EX(n) = 1`, fixed-size):
//!   `S(n) = 1 / (η/n + (1 − η))`;
//! * **Gustafson's law** (`EX(n) = n`, fixed-time):
//!   `S(n) = η·n + (1 − η)`;
//! * **Sun-Ni's law** (`EX(n) = g(n)`, memory-bounded):
//!   `S(n) = (η·g(n) + (1 − η)) / (η·g(n)/n + (1 − η))`.
//!
//! For the data-intensive workloads studied in the paper `g(n) ≈ n` with
//! high precision (the working set is block-size bounded per node), so
//! Sun-Ni coincides with Gustafson — see [`sun_ni_linear_memory`].

use crate::error::{check_eta, check_scale_out};
use crate::factors::ScalingFactor;
use crate::model::IpsoModel;
use crate::ModelError;

/// Amdahl's law: `S(n) = 1 / (η/n + (1 − η))`.
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1]` or invalid `n`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ipso::ModelError> {
/// let s = ipso::classic::amdahl(0.95, 20.0)?;
/// assert!((s - 1.0 / (0.95 / 20.0 + 0.05)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn amdahl(eta: f64, n: f64) -> Result<f64, ModelError> {
    check_eta(eta)?;
    check_scale_out(n)?;
    Ok(1.0 / (eta / n + (1.0 - eta)))
}

/// Gustafson's law: `S(n) = η·n + (1 − η)`.
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1]` or invalid `n`.
pub fn gustafson(eta: f64, n: f64) -> Result<f64, ModelError> {
    check_eta(eta)?;
    check_scale_out(n)?;
    Ok(eta * n + (1.0 - eta))
}

/// Sun-Ni's law with a caller-supplied memory-bounded scaling function
/// `g(n)`: `S(n) = (η·g(n) + 1 − η) / (η·g(n)/n + 1 − η)`.
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1]`, invalid `n`, or non-finite /
/// non-positive `g(n)`.
pub fn sun_ni<G>(eta: f64, n: f64, g: G) -> Result<f64, ModelError>
where
    G: Fn(f64) -> f64,
{
    check_eta(eta)?;
    check_scale_out(n)?;
    let gn = g(n);
    if !gn.is_finite() || gn <= 0.0 {
        return Err(ModelError::NonFinite("memory-bounded scaling g(n)"));
    }
    Ok((eta * gn + (1.0 - eta)) / (eta * gn / n + (1.0 - eta)))
}

/// Sun-Ni's law under the paper's observation that `g(n) ≈ n` for
/// block-size-bounded data-intensive workloads, which makes it coincide
/// with Gustafson's law.
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1]` or invalid `n`.
pub fn sun_ni_linear_memory(eta: f64, n: f64) -> Result<f64, ModelError> {
    sun_ni(eta, n, |v| v)
}

/// Amdahl's bound `1/(1 − η)`, the `n → ∞` limit of [`amdahl`].
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1)`; `η = 1` has no finite bound and is
/// rejected as [`ModelError::InvalidEta`].
pub fn amdahl_bound(eta: f64) -> Result<f64, ModelError> {
    check_eta(eta)?;
    if eta >= 1.0 {
        return Err(ModelError::InvalidEta(eta));
    }
    Ok(1.0 / (1.0 - eta))
}

/// Builds the [`IpsoModel`] corresponding to Amdahl's law.
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1]`.
pub fn amdahl_model(eta: f64) -> Result<IpsoModel, ModelError> {
    IpsoModel::builder(eta).build()
}

/// Builds the [`IpsoModel`] corresponding to Gustafson's law.
///
/// # Errors
///
/// Returns an error for `η ∉ (0, 1]`.
pub fn gustafson_model(eta: f64) -> Result<IpsoModel, ModelError> {
    IpsoModel::builder(eta)
        .external(ScalingFactor::linear())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_known_values() {
        // η = 0.5: S(∞) = 2.
        assert!((amdahl(0.5, 1.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((amdahl(0.5, 2.0).unwrap() - 4.0 / 3.0).abs() < 1e-12);
        assert!(amdahl(0.5, 1e9).unwrap() < 2.0);
        assert!((amdahl_bound(0.5).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gustafson_is_linear_in_n() {
        let s1 = gustafson(0.9, 10.0).unwrap();
        let s2 = gustafson(0.9, 20.0).unwrap();
        assert!((s2 - s1 - 0.9 * 10.0).abs() < 1e-12);
    }

    #[test]
    fn sun_ni_reduces_to_amdahl_with_constant_memory() {
        for n in [2.0, 8.0, 64.0] {
            let a = amdahl(0.8, n).unwrap();
            let s = sun_ni(0.8, n, |_| 1.0).unwrap();
            assert!((a - s).abs() < 1e-12);
        }
    }

    #[test]
    fn sun_ni_reduces_to_gustafson_with_linear_memory() {
        for n in [2.0, 8.0, 64.0] {
            let g = gustafson(0.8, n).unwrap();
            let s = sun_ni_linear_memory(0.8, n).unwrap();
            assert!((g - s).abs() < 1e-12);
        }
    }

    #[test]
    fn superlinear_memory_beats_gustafson() {
        let g = gustafson(0.8, 16.0).unwrap();
        let s = sun_ni(0.8, 16.0, |n| n * n.log2().max(1.0)).unwrap();
        assert!(s > g);
    }

    #[test]
    fn sun_ni_with_sqrt_memory_sits_between_amdahl_and_gustafson() {
        let eta = 0.9;
        for n in [4.0, 64.0, 1024.0] {
            let s = sun_ni(eta, n, f64::sqrt).unwrap();
            let a = amdahl(eta, n).unwrap();
            let g = gustafson(eta, n).unwrap();
            assert!(s >= a - 1e-9, "n = {n}: sun-ni {s} < amdahl {a}");
            assert!(s <= g + 1e-9, "n = {n}: sun-ni {s} > gustafson {g}");
        }
    }

    #[test]
    fn sqrt_external_factor_in_the_model_is_sun_ni() {
        let model = IpsoModel::builder(0.9)
            .external(crate::factors::ScalingFactor::power(1.0, 0.5))
            .build()
            .unwrap();
        let direct = sun_ni(0.9, 64.0, f64::sqrt).unwrap();
        assert!((model.speedup(64.0).unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    fn models_match_closed_forms() {
        let am = amdahl_model(0.7).unwrap();
        let gm = gustafson_model(0.7).unwrap();
        for n in [1.0, 3.0, 50.0] {
            assert!((am.speedup(n).unwrap() - amdahl(0.7, n).unwrap()).abs() < 1e-12);
            assert!((gm.speedup(n).unwrap() - gustafson(0.7, n).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn bound_rejects_eta_one() {
        assert!(amdahl_bound(1.0).is_err());
    }

    #[test]
    fn sun_ni_rejects_degenerate_g() {
        assert!(sun_ni(0.5, 4.0, |_| 0.0).is_err());
        assert!(sun_ni(0.5, 4.0, |_| f64::NAN).is_err());
    }
}
