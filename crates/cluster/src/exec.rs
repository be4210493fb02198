//! Wave scheduling of a task set over an executor pool.
//!
//! Spark runs `N` tasks on `m` executors in waves; MapReduce with one
//! container per node runs `n` tasks on `n` units in a single wave. In
//! both cases every task must first be dispatched by the centralized
//! scheduler, which serializes dispatches at the master. This module
//! combines the [`CentralScheduler`] cost model with a
//! [`ipso_sim::ServerPool`] to produce the full task timeline.

use ipso_sim::{ServerPool, SimTime};

use crate::metrics::TaskRecord;
use crate::scheduler::{CentralScheduler, SchedulerPolicy};

/// Host-side options shared by the MapReduce and Spark engines.
///
/// Every job runs on its caller's thread; sweeps get their parallelism
/// across points instead. The one field is kept only because the
/// benchmark package assigns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Must be 1, the default: the engines pass it to
    /// [`crate::execute`], which rejects any other value.
    pub threads: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { threads: 1 }
    }
}

/// The schedule produced by [`run_wave_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSchedule {
    /// Per-task records, in task order.
    pub records: Vec<TaskRecord>,
    /// Time at which the last task finished (s).
    pub makespan: f64,
    /// Total master time spent dispatching (s) — part of `Wo(n)`.
    pub dispatch_total: f64,
}

impl TaskSchedule {
    /// Duration of the slowest task.
    pub fn max_task_duration(&self) -> f64 {
        self.records
            .iter()
            .map(TaskRecord::duration)
            .fold(0.0, f64::max)
    }
}

/// Runs `durations.len()` tasks over `executors` slots.
///
/// Task `i` becomes runnable once the scheduler has dispatched it
/// (dispatches are serialized at the master in `policy`'s dispatch
/// order) and an executor slot frees up; slots are granted
/// earliest-available-first. [`SchedulerPolicy::Fifo`] dispatches in task
/// order; other policies permute only the dispatch order. The returned
/// records are always in task-id order.
///
/// # Panics
///
/// Panics if `executors` is zero or any duration is negative/non-finite.
pub fn run_wave_schedule(
    durations: &[f64],
    executors: usize,
    scheduler: &CentralScheduler,
    policy: SchedulerPolicy,
) -> TaskSchedule {
    assert!(executors > 0, "need at least one executor");
    for &d in durations {
        assert!(
            d.is_finite() && d >= 0.0,
            "task durations must be finite and >= 0"
        );
    }
    let order = policy.dispatch_order(durations, executors);
    let mut pool = ServerPool::new(executors);
    let mut records = Vec::with_capacity(durations.len());
    let mut dispatch_clock = 0.0;

    let mut queued: Vec<(f64, f64)> = Vec::new();
    for (position, &task) in order.iter().enumerate() {
        dispatch_clock += scheduler.dispatch_time(position as u32);
        let grant = pool.submit(SimTime::from_secs(dispatch_clock), durations[task]);
        // Executor id is not tracked by the pool; derive a stable label
        // from wave position for traceability.
        records.push(TaskRecord {
            task_id: task as u32,
            executor: (position % executors) as u32,
            start: grant.start.as_secs(),
            end: grant.finish.as_secs(),
        });
        if ipso_obs::enabled() {
            let queue_delay = grant.start.as_secs() - dispatch_clock;
            ipso_obs::histogram_record("cluster.task_queue_delay_us", (queue_delay * 1e6) as u64);
            queued.push((dispatch_clock, grant.start.as_secs()));
        }
    }
    records.sort_by_key(|r| r.task_id);

    if ipso_obs::enabled() {
        ipso_obs::counter_add("cluster.wave_schedules", 1);
        ipso_obs::counter_add("cluster.tasks_scheduled", records.len() as u64);
        ipso_obs::gauge_set("cluster.queue_depth_peak", peak_queue_depth(&queued));
    }

    TaskSchedule {
        makespan: pool.makespan().as_secs(),
        dispatch_total: dispatch_clock,
        records,
    }
}

/// Makespan of `tasks` identical-duration tasks over `executors` slots —
/// the allocation-free fast path for idealized reference schedules.
///
/// Equivalent to `run_wave_schedule(&vec![duration; tasks], …).makespan`
/// but without materializing the duration vector or the per-task
/// records. It skips the `cluster.*` counters and the queue-delay
/// histogram that [`run_wave_schedule`] emits, but each dispatch still
/// counts in `scheduler.dispatches`. The other reference schedules (the
/// no-straggler reference and [`IdealReference::Tasks`]) run through
/// [`run_wave_schedule`] and count like a real schedule.
///
/// [`IdealReference::Tasks`]: crate::IdealReference::Tasks
///
/// # Panics
///
/// Panics if `executors` is zero or `duration` is negative/non-finite.
pub fn uniform_wave_makespan(
    duration: f64,
    tasks: usize,
    executors: usize,
    scheduler: &CentralScheduler,
) -> f64 {
    assert!(executors > 0, "need at least one executor");
    assert!(
        duration.is_finite() && duration >= 0.0,
        "task durations must be finite and >= 0"
    );
    let mut pool = ServerPool::new(executors);
    let mut dispatch_clock = 0.0;
    for i in 0..tasks {
        dispatch_clock += scheduler.dispatch_time(i as u32);
        pool.submit(SimTime::from_secs(dispatch_clock), duration);
    }
    pool.makespan().as_secs()
}

/// Peak number of tasks simultaneously dispatched but not yet started —
/// the scheduler-to-executor queue depth — from per-task
/// `(dispatched, started)` intervals.
fn peak_queue_depth(queued: &[(f64, f64)]) -> f64 {
    let mut boundaries: Vec<(f64, i32)> = Vec::with_capacity(queued.len() * 2);
    for &(dispatched, started) in queued {
        if started > dispatched {
            boundaries.push((dispatched, 1));
            boundaries.push((started, -1));
        }
    }
    // Sort by time with departures (-1) before arrivals at equal times so
    // a back-to-back handoff does not inflate the peak.
    boundaries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth = 0i32;
    let mut peak = 0i32;
    for (_, delta) in boundaries {
        depth += delta;
        peak = peak.max(depth);
    }
    f64::from(peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wave_is_max_plus_dispatch() {
        let sched = CentralScheduler::idealized();
        let s = run_wave_schedule(&[5.0, 7.0, 6.0], 3, &sched, SchedulerPolicy::Fifo);
        // Dispatch is ~instant, so makespan ≈ slowest task.
        assert!((s.makespan - 7.0).abs() < 1e-3);
        assert_eq!(s.records.len(), 3);
        assert!((s.max_task_duration() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn waves_stack_on_few_executors() {
        let sched = CentralScheduler::idealized();
        let s = run_wave_schedule(&[1.0; 6], 2, &sched, SchedulerPolicy::Fifo);
        // 6 unit tasks on 2 executors: 3 waves.
        assert!((s.makespan - 3.0).abs() < 1e-3);
    }

    #[test]
    fn dispatch_serialization_delays_start() {
        let sched = CentralScheduler {
            base_dispatch: 1.0,
            contention: 0.0,
            job_setup: 0.0,
        };
        let s = run_wave_schedule(&[10.0, 10.0], 2, &sched, SchedulerPolicy::Fifo);
        // Task 0 dispatched at t = 1, task 1 at t = 2.
        assert!((s.records[0].start - 1.0).abs() < 1e-12);
        assert!((s.records[1].start - 2.0).abs() < 1e-12);
        assert!((s.makespan - 12.0).abs() < 1e-12);
        assert!((s.dispatch_total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn contention_makes_dispatch_superlinear() {
        let sched = CentralScheduler {
            base_dispatch: 0.001,
            contention: 0.001,
            job_setup: 0.0,
        };
        let s100 = run_wave_schedule(&[0.0; 100], 100, &sched, SchedulerPolicy::Fifo);
        let s200 = run_wave_schedule(&[0.0; 200], 200, &sched, SchedulerPolicy::Fifo);
        assert!(s200.dispatch_total > 2.5 * s100.dispatch_total);
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_rejected() {
        run_wave_schedule(
            &[1.0],
            0,
            &CentralScheduler::idealized(),
            SchedulerPolicy::Fifo,
        );
    }

    #[test]
    fn empty_task_set_is_trivial() {
        let s = run_wave_schedule(
            &[],
            4,
            &CentralScheduler::idealized(),
            SchedulerPolicy::Fifo,
        );
        assert_eq!(s.makespan, 0.0);
        assert!(s.records.is_empty());
    }

    #[test]
    fn uniform_makespan_matches_full_schedule() {
        for (d, tasks, execs) in [(1.0, 6, 2), (0.5, 16, 5), (3.0, 1, 4), (0.0, 8, 3)] {
            for scheduler in [
                CentralScheduler::idealized(),
                CentralScheduler {
                    base_dispatch: 0.2,
                    contention: 0.01,
                    job_setup: 0.0,
                },
            ] {
                let full =
                    run_wave_schedule(&vec![d; tasks], execs, &scheduler, SchedulerPolicy::Fifo);
                let fast = uniform_wave_makespan(d, tasks, execs, &scheduler);
                assert_eq!(
                    full.makespan, fast,
                    "d = {d}, tasks = {tasks}, execs = {execs}"
                );
            }
        }
    }

    #[test]
    fn uniform_makespan_of_empty_set_is_zero() {
        assert_eq!(
            uniform_wave_makespan(1.0, 0, 2, &CentralScheduler::idealized()),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn uniform_makespan_rejects_zero_executors() {
        uniform_wave_makespan(1.0, 4, 0, &CentralScheduler::idealized());
    }

    #[test]
    fn engine_options_default_to_sequential() {
        assert_eq!(EngineOptions::default().threads, 1);
    }
}
