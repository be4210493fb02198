//! Workload seeds. Every input a workload generates is derived from the
//! `--seed` argument through [`perturb`], which leaves the figure
//! binaries' own seeds unchanged at [`DEFAULT_SEED`].

/// The workload seed at which the inputs are exactly those of the
/// figure binaries, so results can be checked against `results/*.csv`.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an input seed from the figure binaries' `base` seed and the
/// workload seed; the identity at [`DEFAULT_SEED`].
pub fn perturb(base: u64, seed: u64) -> u64 {
    base ^ mix(seed) ^ mix(DEFAULT_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_the_figure_seeds() {
        for base in [0, 1, 2, 3, 42] {
            assert_eq!(perturb(base, DEFAULT_SEED), base);
            assert_ne!(perturb(base, DEFAULT_SEED + 1), base);
        }
    }
}
