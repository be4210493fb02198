//! Special functions needed by the analytic order statistics.
//!
//! The stochastic IPSO model wants `E[max]` of heavy-tailed task times in
//! closed form. For Pareto variables that expectation is
//! `scale · n · B(n, 1 − 1/a)` (see [`crate::Distribution::expected_max`]),
//! which needs the log-gamma function; this module provides a Lanczos
//! approximation accurate to ~1e-13 over the positive reals, and the
//! harmonic numbers of the exponential's `E[max]`.

/// Lanczos coefficients (g = 7, n = 9), Boost/Numerical-Recipes flavour.
const LANCZOS_G: f64 = 7.0;
// The published coefficients carry more digits than f64 resolves; keep
// them verbatim so they can be checked against the source tables.
#[allow(clippy::excessive_precision)]
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function for `x > 0`.
///
/// # Panics
///
/// Panics for non-positive or non-finite `x` (the reflection formula is
/// not needed by this crate).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ln_gamma requires x > 0");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the Beta function `B(a, b)`.
///
/// # Panics
///
/// Panics unless both arguments are positive and finite.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Euler–Mascheroni constant γ.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Below this `n` the harmonic number is summed exactly; above it the
/// asymptotic expansion is already accurate to ~1e-13, well past the
/// exact sum's own accumulated rounding.
pub const HARMONIC_EXACT_LIMIT: u32 = 512;

/// The `n`-th harmonic number `H_n = Σ_{k≤n} 1/k`.
///
/// Exact summation up to [`HARMONIC_EXACT_LIMIT`]; beyond it the Euler
/// expansion `ln n + γ + 1/(2n) − 1/(12n²)` (error `O(1/n⁴)`, < 1e-13 at
/// the crossover) replaces the O(n) loop, so `E[max]` of exponential
/// order statistics stays O(1) for the large task counts the straggler
/// sweeps evaluate.
pub fn harmonic(n: u32) -> f64 {
    if n <= HARMONIC_EXACT_LIMIT {
        (1..=n).map(|k| 1.0 / k as f64).sum()
    } else {
        let x = f64::from(n);
        x.ln() + EULER_GAMMA + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_factorials() {
        // Γ(k) = (k−1)!
        let mut fact = 1.0f64;
        for k in 1..=15u32 {
            if k > 1 {
                fact *= f64::from(k - 1);
            }
            let lg = ln_gamma(f64::from(k));
            assert!(
                (lg - fact.ln()).abs() < 1e-10,
                "k = {k}: {lg} vs {}",
                fact.ln()
            );
        }
    }

    #[test]
    fn gamma_half_is_sqrt_pi() {
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // Γ(1.5) = √π/2.
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn beta_symmetry_and_known_values() {
        assert!((ln_beta(2.0, 3.0) - ln_beta(3.0, 2.0)).abs() < 1e-13);
        // B(2,3) = 1/12.
        assert!((ln_beta(2.0, 3.0) - (1.0f64 / 12.0).ln()).abs() < 1e-12);
        // B(1,x) = 1/x.
        assert!((ln_beta(1.0, 7.5) - (1.0f64 / 7.5).ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn harmonic_asymptotic_agrees_at_the_crossover() {
        let exact = |n: u32| -> f64 { (1..=n).map(|k| 1.0 / f64::from(k)).sum() };
        // Both sides of the switch, including the first asymptotic n.
        for n in [
            HARMONIC_EXACT_LIMIT - 1,
            HARMONIC_EXACT_LIMIT,
            HARMONIC_EXACT_LIMIT + 1,
            HARMONIC_EXACT_LIMIT + 7,
            2 * HARMONIC_EXACT_LIMIT,
            100_000,
        ] {
            let h = harmonic(n);
            let e = exact(n);
            assert!(
                (h - e).abs() < 1e-12,
                "H_{n}: harmonic() = {h}, exact = {e}, diff = {}",
                (h - e).abs()
            );
        }
        // Monotone across the boundary.
        assert!(harmonic(HARMONIC_EXACT_LIMIT + 1) > harmonic(HARMONIC_EXACT_LIMIT));
    }
}
