//! Deterministic parallel sweep/replication runner.
//!
//! Every figure and ablation of the reproduction sweeps an embarrassingly
//! parallel grid — (workload, n), (app, load, m), (distribution,
//! replication) — one independent simulation per grid point. The
//! [`SweepRunner`] spreads those points across `std::thread::scope`
//! workers while keeping the output *byte-identical* to a sequential
//! run, whatever the thread count:
//!
//! * **Point-local inputs** — a point sees only its item; a point that
//!   needs randomness carries its own seed in the item (for example
//!   [`ipso_sim::stream_seed`]`(base, index)`), so what it consumes never
//!   depends on execution order.
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
//! Experiment binaries size their runner with the shared `--jobs N` flag
//! ([`crate::Flags`]): `--jobs 1` is the sequential run, and any other
//! value produces the same bytes faster.

use std::sync::Mutex;

/// A deterministic parallel runner over sweep/replication grids.
///
/// # Example
///
/// ```
/// use ipso_bench::SweepRunner;
///
/// let runner = SweepRunner::new(4);
/// let squares = runner.map(vec![1u64, 2, 3, 4, 5], |v| v * v);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, any thread count
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with the given worker count; `0` means one worker per
    /// available hardware thread.
    pub fn new(jobs: usize) -> SweepRunner {
        SweepRunner {
            jobs: ipso_sim::resolve_threads(jobs),
        }
    }

    /// The worker count this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item of the grid, in parallel, returning the
    /// results in input order.
    ///
    /// The determinism contract: as long as `f(item)` depends only on its
    /// argument (plus the observability recorder, which is
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
        F: Fn(T) -> R + Sync,
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
            ipso_obs::capture(|| f(item))
        });
        outputs
            .into_iter()
            .map(|(result, records)| {
                ipso_obs::merge(records);
                result
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let runner = SweepRunner::new(8);
        // Heavier work at the front so completion order differs from
        // input order under any real scheduler.
        let items: Vec<u64> = (0..64).rev().collect();
        let out = runner.map(items.clone(), |v| {
            std::hint::black_box((0..v * 1000).sum::<u64>());
            v * 2
        });
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_resolves_to_hardware_threads() {
        let runner = SweepRunner::new(0);
        assert!(runner.jobs() >= 1);
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = SweepRunner::new(4).map(Vec::<u32>::new(), |v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn observability_merges_in_point_order_for_any_jobs() {
        let collect = |jobs: usize| -> Vec<String> {
            ipso_obs::set_enabled(true);
            ipso_obs::reset();
            SweepRunner::new(jobs).map((0..16u32).collect(), |i| {
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
