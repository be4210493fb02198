//! Task-time distributions.
//!
//! One type serves three roles: the simulator's straggler multiplier,
//! the fault model's time to failure, and the task time `Tp,1(1)` of the
//! stochastic IPSO model (paper Eqs. 8 and 18). With barrier
//! synchronization a wave finishes with its *slowest* task, so next to
//! sampling and the mean (which keeps nominal workloads calibrated) the
//! type gives the expected maximum of `n` draws,
//! [`Distribution::expected_max`], in closed form.

use crate::rng::SimRng;
use crate::special::{harmonic, ln_beta, ln_gamma};

/// A distribution of non-negative times (or time multipliers).
///
/// # Example
///
/// ```
/// use ipso_sim::{Distribution, SimRng};
///
/// let noise = Distribution::jitter(0.05);
/// assert_eq!(noise.validate(), Ok(()));
/// assert_eq!(noise.mean(), 1.0);
/// let m = noise.sample(&mut SimRng::seed_from(1));
/// assert!((0.95..1.05).contains(&m));
/// // The slowest of 4 tasks: lo + (hi − lo)·n/(n + 1).
/// assert!((noise.expected_max(4).unwrap() - 1.03).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Always `value`; sampling draws nothing from the RNG.
    Fixed {
        /// The fixed time, `> 0`.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound, `> 0`.
        lo: f64,
        /// Upper bound, `>= lo`.
        hi: f64,
    },
    /// `shift + Exponential(mean)`: a minimum time plus an exponential
    /// tail. `shift = 0` is the plain, memoryless exponential.
    Exponential {
        /// Minimum time, `>= 0`.
        shift: f64,
        /// Mean of the exponential tail, `> 0`.
        mean: f64,
    },
    /// Weibull: `shape < 1` models infant mortality (failures early in
    /// an attempt), `shape > 1` wear-out.
    Weibull {
        /// Shape, `> 0`.
        shape: f64,
        /// Scale, `> 0`.
        scale: f64,
    },
    /// Pareto with minimum `scale` and tail index `shape` — heavy-tailed
    /// stragglers as studied by [Zaharia et al., OSDI '08].
    Pareto {
        /// Minimum value, `> 0`.
        scale: f64,
        /// Tail index, `> 1` for a finite mean; larger is lighter-tailed.
        shape: f64,
    },
}

impl Distribution {
    /// Multiplicative jitter uniform in `[1 − spread, 1 + spread]`: the
    /// "±x%" noise from CPU/IO interference that the case studies apply
    /// to every task.
    pub fn jitter(spread: f64) -> Distribution {
        Distribution::Uniform {
            lo: 1.0 - spread,
            hi: 1.0 + spread,
        }
    }

    /// Draws one value.
    ///
    /// # Panics
    ///
    /// Panics on parameters that [`Distribution::validate`] rejects.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Distribution::Fixed { value } => value,
            Distribution::Uniform { lo, hi } => rng.uniform(lo, hi),
            Distribution::Exponential { shift, mean } => shift + rng.exponential(mean),
            Distribution::Weibull { shape, scale } => rng.weibull(shape, scale),
            Distribution::Pareto { scale, shape } => rng.pareto(scale, shape),
        }
    }

    /// The mean. Meaningful only for a valid distribution: a Pareto tail
    /// with `shape <= 1` has no finite mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Fixed { value } => value,
            Distribution::Uniform { lo, hi } => 0.5 * (lo + hi),
            Distribution::Exponential { shift, mean } => shift + mean,
            Distribution::Weibull { shape, scale } => scale * ln_gamma(1.0 + 1.0 / shape).exp(),
            Distribution::Pareto { scale, shape } => scale * shape / (shape - 1.0),
        }
    }

    /// Expected maximum of `n` i.i.d. draws, `E[max_{i≤n} X_i]`, for a
    /// valid distribution:
    ///
    /// * `n = 1`: the mean, exactly — the maximum of one draw is that
    ///   draw, so Eq. 8 gives `S(1) = 1`;
    /// * fixed: `value`;
    /// * uniform: `lo + (hi − lo)·n/(n + 1)`;
    /// * exponential: `shift + mean·H_n`;
    /// * Pareto: `scale·n·B(n, 1 − 1/shape)`, through the Lanczos
    ///   log-gamma in [`crate::special`].
    ///
    /// Returns `None` for `n = 0`, and for a Weibull distribution at
    /// `n > 1`, which has no closed form.
    pub fn expected_max(&self, n: u32) -> Option<f64> {
        let nf = f64::from(n);
        match *self {
            _ if n == 0 => None,
            _ if n == 1 => Some(self.mean()),
            Distribution::Fixed { value } => Some(value),
            Distribution::Uniform { lo, hi } => Some(lo + (hi - lo) * nf / (nf + 1.0)),
            Distribution::Exponential { shift, mean } => Some(shift + mean * harmonic(n)),
            Distribution::Weibull { .. } => None,
            Distribution::Pareto { scale, shape } => {
                Some(scale * nf * ln_beta(nf, 1.0 - 1.0 / shape).exp())
            }
        }
    }

    /// Checks the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns the violated rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let (ok, rule) = match *self {
            Distribution::Fixed { value } => (positive(value), "fixed value must be positive"),
            Distribution::Uniform { lo, hi } => (
                positive(lo) && hi.is_finite() && lo <= hi,
                "uniform bounds must satisfy 0 < lo <= hi",
            ),
            Distribution::Exponential { shift, mean } => (
                shift.is_finite() && shift >= 0.0 && positive(mean),
                "exponential needs shift >= 0 and a positive mean",
            ),
            Distribution::Weibull { shape, scale } => (
                positive(shape) && positive(scale),
                "weibull shape and scale must be positive",
            ),
            Distribution::Pareto { scale, shape } => (
                positive(scale) && shape.is_finite() && shape > 1.0,
                "pareto needs a positive scale and a finite shape above 1",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(rule)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean and standard error of `samples`.
    fn mean_and_se(samples: &[f64]) -> (f64, f64) {
        let k = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / k;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
        (mean, (var / k).sqrt())
    }

    #[test]
    fn analytic_moments_agree_with_seeded_sampling() {
        // (distribution, whether E[max] has a closed form to check). A
        // Pareto shape of 2.5 keeps Var[max] finite.
        let table = [
            (Distribution::Fixed { value: 3.0 }, true),
            (Distribution::Uniform { lo: 7.0, hi: 13.0 }, true),
            (
                Distribution::Exponential {
                    shift: 0.0,
                    mean: 10.0,
                },
                true,
            ),
            (
                Distribution::Exponential {
                    shift: 8.0,
                    mean: 2.0,
                },
                true,
            ),
            (
                Distribution::Weibull {
                    shape: 0.7,
                    scale: 1.0,
                },
                false,
            ),
            (
                Distribution::Pareto {
                    scale: 6.0,
                    shape: 2.5,
                },
                true,
            ),
        ];
        let reps = 4000;
        for (i, &(dist, has_max)) in table.iter().enumerate() {
            assert_eq!(dist.validate(), Ok(()), "{dist:?}");
            let mut rng = SimRng::seed_from(crate::stream_seed(7, i as u64));
            let draws: Vec<f64> = (0..reps * 4).map(|_| dist.sample(&mut rng)).collect();
            let (mean, se) = mean_and_se(&draws);
            assert!(
                (mean - dist.mean()).abs() <= 3.0 * se,
                "{dist:?}: sample mean {mean} vs mean() {} (3se = {})",
                dist.mean(),
                3.0 * se
            );
            assert_eq!(dist.expected_max(1), Some(dist.mean()), "{dist:?}");
            let n = 16;
            let maxima: Vec<f64> = (0..reps)
                .map(|_| (0..n).map(|_| dist.sample(&mut rng)).fold(0.0, f64::max))
                .collect();
            let (mc, se) = mean_and_se(&maxima);
            match dist.expected_max(n) {
                Some(analytic) => {
                    assert!(has_max, "{dist:?}");
                    assert!(
                        (mc - analytic).abs() <= 3.0 * se,
                        "{dist:?}: MC {mc} vs analytic {analytic} (3se = {})",
                        3.0 * se
                    );
                }
                None => assert!(!has_max, "{dist:?}"),
            }
        }
    }

    #[test]
    fn jitter_presets_have_mean_exactly_one() {
        // The sequential references divide by the mean, so it must be
        // exactly 1 for the presets the case studies use.
        for spread in [0.03, 0.05] {
            assert_eq!(Distribution::jitter(spread).mean(), 1.0, "spread {spread}");
        }
    }

    #[test]
    fn fixed_draws_nothing() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        assert_eq!(Distribution::Fixed { value: 1.0 }.sample(&mut a), 1.0);
        assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }

    #[test]
    fn expected_max_closed_forms() {
        let u = Distribution::Uniform { lo: 1.0, hi: 2.0 };
        assert!((u.expected_max(3).unwrap() - 1.75).abs() < 1e-12);
        let e = Distribution::Exponential {
            shift: 0.0,
            mean: 2.0,
        };
        for n in [2u32, 7, 511, 513, 4096] {
            assert_eq!(e.expected_max(n), Some(2.0 * harmonic(n)));
        }
        // Shape 2: 2·B(2, 1/2) = 2·Γ(2)Γ(1/2)/Γ(5/2) = 8/3.
        let p = Distribution::Pareto {
            scale: 1.0,
            shape: 2.0,
        };
        assert!((p.expected_max(2).unwrap() - 8.0 / 3.0).abs() < 1e-10);
        // E[max of n] ~ scale·Γ(1 − 1/a)·n^(1/a) for large n.
        let ratio = p.expected_max(256).unwrap() / p.expected_max(64).unwrap();
        assert!((ratio - 2.0).abs() < 0.02, "ratio = {ratio}");
        assert_eq!(p.expected_max(0), None);
    }

    #[test]
    fn expected_max_is_monotone_in_n() {
        for dist in [
            Distribution::Uniform { lo: 1.0, hi: 2.0 },
            Distribution::Exponential {
                shift: 0.0,
                mean: 1.0,
            },
            Distribution::Pareto {
                scale: 1.0,
                shape: 2.5,
            },
        ] {
            let mut prev = 0.0;
            for n in [1, 2, 4, 8, 16] {
                let m = dist.expected_max(n).unwrap();
                assert!(m >= prev, "{dist:?} at n = {n}");
                prev = m;
            }
        }
    }

    #[test]
    fn heavier_tails_have_larger_maxima() {
        let mut rng = SimRng::seed_from(5);
        let mut sample_max =
            |d: Distribution| (0..2000).map(|_| d.sample(&mut rng)).fold(0.0f64, f64::max);
        let uniform_max = sample_max(Distribution::jitter(0.05));
        let pareto_max = sample_max(Distribution::Pareto {
            scale: 1.0,
            shape: 1.5,
        });
        assert!(pareto_max > uniform_max * 2.0);
    }
}
