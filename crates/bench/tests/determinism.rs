//! The runner's determinism contract, end to end: for ANY worker count,
//! a seeded stochastic sweep through [`SweepRunner`] returns bit-identical
//! results to the sequential (`--jobs 1`) run, and decomposing a real
//! engine sweep into per-n grid points reproduces the monolithic sweep
//! exactly. These are the properties every figure binary's `--jobs N`
//! flag rests on.

use ipso::stochastic::TaskTimeDistribution;
use ipso_bench::experiments::{Workload, QMC, SORT, TERASORT, WORDCOUNT};
use ipso_bench::{Context, SweepRunner};
use ipso_mapreduce::ScalingSweep;
use ipso_sim::stream_seed;
use ipso_workloads::{qmc, sort};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A sweep whose points consume private RNG streams seeded from
/// `stream_seed(base_seed, index)`: for each n, a Monte-Carlo estimate
/// of E[max of n] plus a few raw draws.
fn stochastic_sweep(jobs: usize, base_seed: u64, ns: &[u32]) -> Vec<u64> {
    let dist = TaskTimeDistribution::Exponential { mean: 10.0 };
    let items = ns
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, stream_seed(base_seed, i as u64)))
        .collect();
    SweepRunner::new(jobs).map(items, |(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mc = dist
            .monte_carlo_expected_max(n, 16, seed)
            .expect("valid distribution");
        (mc + dist.sample_max(n, &mut rng)).to_bits()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-for-bit equality between the sequential run and every tested
    /// parallel worker count, for arbitrary seeds and grids.
    #[test]
    fn seeded_sweep_is_identical_for_any_jobs(
        jobs in 2usize..9,
        base_seed in any::<u64>(),
        ns in prop::collection::vec(1u32..48, 1..16),
    ) {
        let sequential = stochastic_sweep(1, base_seed, &ns);
        let parallel = stochastic_sweep(jobs, base_seed, &ns);
        prop_assert_eq!(parallel, sequential);
    }

    /// Different base seeds give different streams — the runner is not
    /// accidentally ignoring its seed.
    #[test]
    fn base_seed_changes_the_stream(base_seed in any::<u64>()) {
        let ns = [4u32, 8, 16];
        let a = stochastic_sweep(1, base_seed, &ns);
        let b = stochastic_sweep(1, base_seed.wrapping_add(1), &ns);
        prop_assert!(a != b);
    }
}

/// Decomposing a real MapReduce sweep into one grid point per n — the
/// pattern every figure's point cache uses — must reproduce the
/// monolithic sequential sweep, whichever grids the cache served
/// before, in whichever order, at any worker count.
#[test]
fn per_point_decomposition_matches_full_sweep() {
    let ns = [1u32, 2, 4, 8];
    let full = qmc::sweep(&ns);
    for jobs in [1usize, 4] {
        let points = SweepRunner::new(jobs)
            .map(ns.to_vec(), |n| qmc::sweep(&[n]).points)
            .into_iter()
            .flatten()
            .collect();
        let decomposed = ScalingSweep { points };
        assert_eq!(
            decomposed.measurements(),
            full.measurements(),
            "jobs = {jobs}"
        );
    }

    // Two overlapping request sets, in the shape fig4/fig6 (several
    // workloads) and fig5/provisioning (one workload) use.
    let first: [(Workload, &[u32]); 3] = [(QMC, &[1, 2, 4]), (SORT, &[2, 4, 8]), (WORDCOUNT, &[3])];
    let second: [(Workload, &[u32]); 3] = [(SORT, &[1, 2, 8]), (TERASORT, &[1, 4]), (QMC, &[4, 6])];
    for jobs in [1usize, 2] {
        for order in [[&first, &second], [&second, &first]] {
            let mut ctx = Context::new(jobs);
            for requests in order {
                let sweeps = ctx.sweeps(requests);
                assert_eq!(sweeps.len(), requests.len());
                for (&((_, direct), ns), sweep) in requests.iter().zip(&sweeps) {
                    assert_eq!(*sweep, direct(ns), "jobs = {jobs}");
                }
            }
            assert_eq!(ctx.sweeps(&[(SORT, &[8])]), [sort::sweep(&[8])]);
        }
    }
}
