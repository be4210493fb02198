//! Deterministic parallel sweep/replication runner.
//!
//! Every figure and ablation of the reproduction sweeps an embarrassingly
//! parallel grid — (workload, n), (app, load, m), (distribution,
//! replication) — one independent simulation per grid point. The
//! [`SweepRunner`] spreads those points across `std::thread::scope`
//! workers while keeping the output *byte-identical* to a sequential
//! run, whatever the thread count:
//!
//! * **Per-point seeding** — each point gets its own RNG seeded from the
//!   stable hash [`ipso_sim::stream_seed`]`(base_seed, point_index)`, so
//!   the randomness a point consumes never depends on execution order.
//! * **Index-ordered results** — points run through
//!   [`ipso_sim::ordered_map_indexed`]: workers pull points off a shared
//!   queue (work stealing, so one expensive `n = 200` point cannot
//!   serialize the sweep behind it) but results are collected by point
//!   index.
//! * **Observability capture** — workers inherit the calling thread's
//!   observability switch, each point runs under [`ipso_obs::capture`],
//!   and the per-point span/metric buffers are merged into the calling
//!   thread's recorder in point order after the joins, so `--trace-out`
//!   timelines survive parallelism unchanged.
//!
//! Binaries opt in via [`SweepRunner::from_env`], which understands the
//! shared `--jobs N` flag: `--jobs 1` reproduces today's sequential run
//! exactly, and any other value produces the same bytes faster.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default base seed for per-point RNG streams — distinct from the
/// engine seeds (42) so runner streams never collide with spec streams.
pub const DEFAULT_BASE_SEED: u64 = 0x0001_9500_2019; // "IPSO @ ICDCS 2019"

/// Everything a grid point may consume besides its input: its stable
/// index in the grid and its private RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct PointCtx {
    /// The point's index in the submitted grid, `0..len`.
    pub index: usize,
    /// Stable per-point seed: `stream_seed(base_seed, index)`.
    pub seed: u64,
}

impl PointCtx {
    /// The point's private, deterministic RNG.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// A deterministic parallel runner over sweep/replication grids.
///
/// # Example
///
/// ```
/// use ipso_bench::SweepRunner;
///
/// let runner = SweepRunner::new(4);
/// let squares = runner.map(vec![1u64, 2, 3, 4, 5], |_ctx, v| v * v);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, any thread count
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    jobs: usize,
    base_seed: u64,
}

impl SweepRunner {
    /// A runner with the given worker count; `0` means one worker per
    /// available hardware thread.
    pub fn new(jobs: usize) -> SweepRunner {
        SweepRunner::with_seed(jobs, DEFAULT_BASE_SEED)
    }

    /// A runner with an explicit base seed for per-point RNG streams.
    pub fn with_seed(jobs: usize, base_seed: u64) -> SweepRunner {
        SweepRunner {
            jobs: ipso_sim::resolve_threads(jobs),
            base_seed,
        }
    }

    /// Builds a runner from the process arguments: `--jobs N` or
    /// `--jobs=N` (default: one worker per hardware thread). This is the
    /// flag every experiment binary accepts; unknown arguments are left
    /// for other parsers (e.g. `--trace-out`).
    ///
    /// # Panics
    ///
    /// Panics on a malformed `--jobs` value — experiment binaries want
    /// loud failures.
    pub fn from_env() -> SweepRunner {
        SweepRunner::new(jobs_from_args(std::env::args().skip(1)))
    }

    /// The worker count this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item of the grid, in parallel, returning the
    /// results in input order.
    ///
    /// The determinism contract: as long as `f(ctx, item)` depends only
    /// on its arguments (plus the observability recorder, which is
    /// captured per point and merged into the calling thread's recorder
    /// in index order), the returned vector and the recorder state are
    /// identical for every `jobs` value, including `jobs = 1`.
    ///
    /// # Panics
    ///
    /// A panic inside `f` aborts the whole sweep and propagates.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(PointCtx, T) -> R + Sync,
    {
        // The input moves out of its slot when a worker claims the point.
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs = ipso_sim::ordered_map_indexed(self.jobs, inputs.len(), |index| {
            let item = inputs[index]
                .lock()
                .expect("input slot poisoned")
                .take()
                .expect("point claimed twice");
            let ctx = PointCtx {
                index,
                seed: ipso_sim::stream_seed(self.base_seed, index as u64),
            };
            ipso_obs::capture(|| f(ctx, item))
        });
        outputs
            .into_iter()
            .map(|(result, records)| {
                ipso_obs::merge(records);
                result
            })
            .collect()
    }

    /// Runs a set of independent closures ("one task per grid point") in
    /// parallel, returning their results in submission order. The
    /// heterogeneous-grid convenience over [`SweepRunner::map`].
    pub fn run<R: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
        self.map(tasks, |_ctx, task| task())
    }
}

/// Parses `--jobs N` / `--jobs=N` from an argument list; `0` (the
/// default when the flag is absent) means one worker per hardware
/// thread.
///
/// # Panics
///
/// Panics on a malformed or missing value.
pub fn jobs_from_args(args: impl IntoIterator<Item = String>) -> usize {
    let args: Vec<String> = args.into_iter().collect();
    let mut jobs = 0usize;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--jobs" {
            i += 1;
            Some(
                args.get(i)
                    .unwrap_or_else(|| panic!("--jobs needs a value"))
                    .as_str(),
            )
        } else {
            args[i].strip_prefix("--jobs=")
        };
        if let Some(value) = value {
            jobs = value
                .parse()
                .unwrap_or_else(|e| panic!("invalid --jobs value {value:?}: {e}"));
        }
        i += 1;
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_come_back_in_input_order() {
        let runner = SweepRunner::new(8);
        // Heavier work at the front so completion order differs from
        // input order under any real scheduler.
        let items: Vec<u64> = (0..64).rev().collect();
        let out = runner.map(items.clone(), |_ctx, v| {
            std::hint::black_box((0..v * 1000).sum::<u64>());
            v * 2
        });
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn per_point_rng_is_independent_of_jobs() {
        let draw = |jobs: usize| -> Vec<f64> {
            SweepRunner::new(jobs).map(vec![(); 32], |ctx, ()| ctx.rng().gen_range(0.0..1.0))
        };
        let sequential = draw(1);
        for jobs in [2, 3, 8] {
            assert_eq!(draw(jobs), sequential, "jobs = {jobs}");
        }
        // And the draws are genuinely per-point distinct.
        let mut unique = sequential.clone();
        unique.sort_by(f64::total_cmp);
        unique.dedup();
        assert_eq!(unique.len(), sequential.len());
    }

    #[test]
    fn heterogeneous_tasks_run_in_order() {
        let runner = SweepRunner::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> String + Send>> = (0..10)
            .map(|i| Box::new(move || format!("task-{i}")) as Box<dyn FnOnce() -> String + Send>)
            .collect();
        let out = runner.run(tasks);
        assert_eq!(out[0], "task-0");
        assert_eq!(out[9], "task-9");
    }

    #[test]
    fn zero_jobs_resolves_to_hardware_threads() {
        let runner = SweepRunner::new(0);
        assert!(runner.jobs() >= 1);
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |args: &[&str]| jobs_from_args(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), 0);
        assert_eq!(parse(&["--jobs", "4"]), 4);
        assert_eq!(parse(&["--jobs=2"]), 2);
        assert_eq!(parse(&["--trace-out", "x.json", "--jobs", "3"]), 3);
        // Last flag wins, like most CLIs.
        assert_eq!(parse(&["--jobs=2", "--jobs=5"]), 5);
    }

    #[test]
    #[should_panic(expected = "invalid --jobs value")]
    fn malformed_jobs_flag_is_loud() {
        let _ = jobs_from_args(["--jobs".to_string(), "many".to_string()]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = SweepRunner::new(4).map(Vec::<u32>::new(), |_ctx, v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn observability_merges_in_point_order_for_any_jobs() {
        let collect = |jobs: usize| -> Vec<String> {
            ipso_obs::set_enabled(true);
            ipso_obs::reset();
            SweepRunner::new(jobs).map((0..16u32).collect(), |_ctx, i| {
                ipso_obs::record_span("t", &format!("point-{i}"), "bench", f64::from(i), 1.0);
                ipso_obs::counter_add("points", 1);
            });
            let names = ipso_obs::take_events()
                .into_iter()
                .map(|e| e.name)
                .collect();
            assert_eq!(ipso_obs::counter_value("points"), 16);
            ipso_obs::set_enabled(false);
            ipso_obs::reset();
            names
        };
        let sequential = collect(1);
        assert_eq!(sequential.len(), 16);
        assert_eq!(sequential[3], "point-3");
        assert_eq!(collect(4), sequential);
    }
}
