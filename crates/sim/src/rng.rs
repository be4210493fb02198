//! Seeded randomness for reproducible experiments.
//!
//! Every simulated experiment in the reproduction derives its randomness
//! from an explicit seed, so figure-regeneration binaries produce
//! identical CSV output run-to-run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives a stable per-stream seed from a base seed and a stream index.
///
/// This is the seeding contract of the deterministic parallel runners:
/// grid point (or Monte-Carlo replication) `index` of a sweep with base
/// seed `base` always draws from `StdRng::seed_from_u64(stream_seed(base,
/// index))`, so the randomness a point consumes depends only on `(base,
/// index)` — never on execution order, thread count or the draws of
/// other points.
///
/// The mix is two rounds of the SplitMix64 finalizer over the xored
/// inputs, which decorrelates even adjacent `(base, index)` pairs.
///
/// # Example
///
/// ```
/// use ipso_sim::stream_seed;
///
/// assert_eq!(stream_seed(42, 7), stream_seed(42, 7));
/// assert_ne!(stream_seed(42, 7), stream_seed(42, 8));
/// assert_ne!(stream_seed(42, 7), stream_seed(43, 7));
/// ```
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// A seeded random-number generator with the distribution helpers the
/// cluster models need.
///
/// # Example
///
/// ```
/// use ipso_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)` (or exactly `lo` when `lo == hi`).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or the bounds are non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform bounds"
        );
        if lo == hi {
            lo
        } else {
            self.inner.gen_range(lo..hi)
        }
    }

    /// Exponential sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Weibull sample with the given shape and scale, via inversion:
    /// `scale · (−ln U)^(1/shape)`. Shape < 1 models infant-mortality
    /// failures (decreasing hazard), shape = 1 is exponential, shape > 1
    /// models wear-out (increasing hazard).
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 0` and `scale > 0`.
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(
            shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0,
            "weibull parameters must be positive"
        );
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Pareto sample with the given scale (minimum) and shape.
    ///
    /// # Panics
    ///
    /// Panics unless `scale > 0` and `shape > 0`.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && shape > 0.0,
            "pareto parameters must be positive"
        );
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        scale / u.powf(1.0 / shape)
    }

    /// A multiplicative jitter factor uniform in `[1 − spread, 1 + spread]`
    /// — the standard "±x%" noise applied to simulated task times.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ spread < 1`.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&spread),
            "jitter spread must be in [0, 1)"
        );
        self.uniform(1.0 - spread, 1.0 + spread)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.inner.gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_stable_and_spread() {
        // Stability: a pure function of (base, index).
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        // Spread: all pairwise-distinct over a dense grid, and adjacent
        // indices land far apart in the output space.
        let mut seen = std::collections::HashSet::new();
        for base in 0..32u64 {
            for index in 0..32u64 {
                assert!(seen.insert(stream_seed(base, index)));
            }
        }
        // The derived RNG streams must be decorrelated too.
        let mut a = SimRng::seed_from(stream_seed(7, 0));
        let mut b = SimRng::seed_from(stream_seed(7, 1));
        let same = (0..64)
            .filter(|_| a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(1234);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn pareto_respects_scale_minimum() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..1000 {
            let j = rng.jitter(0.2);
            assert!((0.8..=1.2).contains(&j));
        }
        // Zero spread is exactly 1.
        assert_eq!(rng.jitter(0.0), 1.0);
    }

    #[test]
    fn uniform_degenerate_interval() {
        let mut rng = SimRng::seed_from(3);
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
    }

    #[test]
    fn index_in_bounds() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
