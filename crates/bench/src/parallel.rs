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
//! * **Index-ordered results** — workers claim point indices off a
//!   shared atomic counter (work stealing, so one expensive `n = 200`
//!   point cannot serialize the sweep behind it) but results land in
//!   index-ordered slots.
//! * **Observability capture** — workers inherit the calling thread's
//!   observability switch, each point runs under [`ipso_obs::capture`],
//!   and the per-point span/metric buffers are merged into the calling
//!   thread's recorder in point order after the joins, so `--trace-out`
//!   timelines survive parallelism unchanged.
//!
//! Experiment binaries size their runner with the shared `--jobs N` flag
//! ([`crate::Flags`]): `--jobs 1` is the sequential run, and any other
//! value produces the same bytes faster.

use std::sync::atomic::{AtomicUsize, Ordering};
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
            jobs: resolve_threads(jobs),
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
        let outputs = ordered_map_indexed(self.jobs, inputs.len(), |index| {
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

/// Resolves a worker count: `0` means one worker per available
/// hardware thread, anything else is taken as-is.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// Runs `f(0), f(1), …, f(len - 1)` across up to `threads` scoped
/// workers and returns the results in index order.
///
/// Each worker starts with the caller's [`ipso_obs::enabled`] switch;
/// what a worker records outside [`ipso_obs::capture`] is dropped with
/// the thread.
///
/// The determinism contract: as long as `f(i)` depends only on `i` (and
/// state it does not share mutably with other indices), the returned
/// vector is identical for every `threads` value. `threads = 0` uses one
/// worker per hardware thread; `threads = 1` (or `len <= 1`) runs the
/// plain sequential loop with no synchronization at all.
///
/// # Panics
///
/// A panic inside `f` aborts the whole run and propagates.
fn ordered_map_indexed<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = resolve_threads(threads).min(len).max(1);
    if workers == 1 {
        return (0..len).map(f).collect();
    }

    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let obs = ipso_obs::enabled();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    ipso_obs::set_enabled(obs);
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= len {
                            break;
                        }
                        let result = f(index);
                        *slots[index].lock().expect("result slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload survives instead
        // of the scope's generic "a scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("index not executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        // Heavier work at the front so completion order differs from
        // index order under a real scheduler.
        let expected: Vec<u64> = (0..64).map(|i| i * 3).collect();
        for threads in [1usize, 2, 3, 8] {
            let out = ordered_map_indexed(threads, 64, |i| {
                std::hint::black_box((0..(64 - i as u64) * 1000).sum::<u64>());
                i as u64 * 3
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn zero_resolves_to_hardware_threads() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn empty_and_singleton_inputs_are_fine() {
        let empty: Vec<u32> = ordered_map_indexed(4, 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(ordered_map_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn single_thread_never_spawns() {
        // A non-Send-unfriendly sanity: with threads = 1 the closure runs
        // on the calling thread, so thread-id observations are uniform.
        let main_id = std::thread::current().id();
        let ids = ordered_map_indexed(1, 8, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == main_id));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = ordered_map_indexed(4, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

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
                ipso_obs::record_span("t", format!("point-{i}"), "bench", f64::from(i), 1.0);
                ipso_obs::counter_add("points", 1);
            });
            let names = ipso_obs::take_events()
                .into_iter()
                .map(|e| e.name.into_owned())
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
