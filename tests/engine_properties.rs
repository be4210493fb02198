//! Property-based tests of the simulation substrate and the two engines.

use ipso_cluster::{run_wave_schedule, CentralScheduler, SchedulerPolicy};
use ipso_mapreduce::{run_sequential, try_run_scale_out, InputSplit, JobSpec, Mapper, Reducer};
use ipso_sim::{ServerPool, SimTime};
use ipso_spark::{try_run_job, SparkJobSpec, StageSpec};
use proptest::prelude::*;

// ── MapReduce: a sort job over arbitrary records ────────────────────────

struct IdMap;
impl Mapper for IdMap {
    type Input = u64;
    type Key = u64;
    type Value = u32;
    fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u32)) {
        emit(*input, 1);
    }
}
struct IdReduce;
impl Reducer for IdReduce {
    type Key = u64;
    type Value = u32;
    type Output = u64;
    fn reduce(&self, key: u64, values: &[u32], emit: &mut dyn FnMut(u64)) {
        for _ in 0..values.iter().sum::<u32>() {
            emit(key);
        }
    }
}

fn splits_from(records: &[Vec<u64>]) -> Vec<InputSplit<u64>> {
    records
        .iter()
        .map(|r| {
            let bytes = (r.len() as u64 * 8).max(1);
            InputSplit::new(r.clone(), bytes, bytes * 64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine really sorts: output is the sorted multiset of inputs,
    /// for any record contents and any split shapes.
    #[test]
    fn mapreduce_sort_is_a_sorted_permutation(
        records in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 1..40),
            1..6,
        ),
    ) {
        let splits = splits_from(&records);
        let spec = JobSpec::emr("prop-sort", splits.len() as u32);
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits).unwrap();
        let mut expected: Vec<u64> = records.into_iter().flatten().collect();
        expected.sort_unstable();
        prop_assert_eq!(run.output, expected);
    }

    /// Sequential and scale-out executions produce identical outputs and
    /// identical reduce-side data volumes.
    #[test]
    fn mapreduce_modes_agree(
        records in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 1..30),
            1..5,
        ),
    ) {
        let splits = splits_from(&records);
        let spec = JobSpec::emr("prop-agree", splits.len() as u32);
        let par = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits).unwrap();
        let seq = run_sequential(&spec, &IdMap, &IdReduce, &splits);
        prop_assert_eq!(&par.output, &seq.output);
        prop_assert_eq!(par.reduce_input_bytes, seq.reduce_input_bytes);
        // The parallel map phase never exceeds the sequential sum beyond
        // the straggler multiplier's upper bound (±5% mild jitter).
        prop_assert!(par.trace.phases.map <= seq.trace.phases.map * 1.06 + 1e-9);
    }

    /// Wave schedules respect the two classic makespan bounds:
    /// max(longest task, total/k) <= makespan (with free dispatch), and
    /// list scheduling stays under total/k + longest task.
    #[test]
    fn wave_schedule_makespan_bounds(
        durations in prop::collection::vec(0.01f64..10.0, 1..60),
        executors in 1usize..16,
    ) {
        let s = run_wave_schedule(
            &durations,
            executors,
            &CentralScheduler::idealized(),
            SchedulerPolicy::Fifo,
        );
        let total: f64 = durations.iter().sum();
        let longest = durations.iter().cloned().fold(0.0, f64::max);
        let lower = (total / executors as f64).max(longest);
        prop_assert!(s.makespan >= lower - 1e-6, "makespan {} < lower {}", s.makespan, lower);
        let upper = total / executors as f64 + longest + s.dispatch_total + 1e-6;
        prop_assert!(s.makespan <= upper, "makespan {} > upper {}", s.makespan, upper);
    }

    /// Server pools never idle while work is waiting: the makespan of k
    /// servers is at most that of k-1 servers.
    #[test]
    fn more_servers_never_hurt(
        durations in prop::collection::vec(0.01f64..5.0, 1..40),
        servers in 2usize..8,
    ) {
        let run = |k: usize| {
            let mut pool = ServerPool::new(k);
            for &d in &durations {
                pool.submit(SimTime::ZERO, d);
            }
            pool.makespan().as_secs()
        };
        prop_assert!(run(servers) <= run(servers - 1) + 1e-9);
    }

    /// Spark wall-clock time is monotone in the problem size at fixed
    /// parallelism.
    #[test]
    fn spark_time_monotone_in_problem_size(
        base_tasks in 4u32..32,
        m in 1u32..16,
    ) {
        let mk = |n: u32| {
            let mut j = SparkJobSpec::emr("prop", n, m)
                .stage(StageSpec::new("s", n).with_task_compute(0.5));
            j.straggler = ipso_sim::Distribution::Fixed { value: 1.0 };
            j
        };
        let small = try_run_job(&mk(base_tasks)).unwrap().total_time;
        let large = try_run_job(&mk(base_tasks * 2)).unwrap().total_time;
        prop_assert!(large >= small - 1e-9, "{large} < {small}");
    }

    /// Spark overhead is monotone in the broadcast payload.
    #[test]
    fn spark_overhead_monotone_in_broadcast(
        bytes in 0u64..64_000_000,
        m in 2u32..32,
    ) {
        let mk = |b: u64| {
            let mut j = SparkJobSpec::emr("prop", m, m)
                .stage(StageSpec::new("s", m).with_task_compute(0.5).with_broadcast(b));
            j.straggler = ipso_sim::Distribution::Fixed { value: 1.0 };
            j
        };
        let small = try_run_job(&mk(bytes)).unwrap().overhead_time;
        let large = try_run_job(&mk(bytes + 8_000_000)).unwrap().overhead_time;
        prop_assert!(large > small, "{large} <= {small}");
    }
}
