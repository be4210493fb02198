//! Deterministic scoped-thread fan-out for the execution engines.
//!
//! The MapReduce engine executes its map tasks — and the Spark engine
//! its per-stage wave schedules — on host threads, the way the paper's
//! clusters execute the split phase in parallel waves. Determinism is
//! preserved by construction: work items are pure functions of their
//! index, workers claim indices off a shared atomic counter (work
//! stealing, so one slow task cannot serialize the wave behind it), and
//! results land in index-ordered slots. The output is therefore
//! byte-identical for every thread count, including `threads = 1`,
//! which bypasses thread spawning entirely.
//!
//! The sweep runner in `ipso-bench` fans out whole grid points through
//! the same function.
//!
//! Observability is per thread: workers inherit the caller's switch, and
//! anything pool work records must be recorded inside
//! [`ipso_obs::capture`] and merged by the caller in index order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves an engine thread-count knob: `0` means one worker per
/// available hardware thread, anything else is taken as-is.
pub fn resolve_threads(threads: usize) -> usize {
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
/// A panic inside `f` aborts the whole wave and propagates.
pub fn ordered_map_indexed<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
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
}
