//! The MapReduce execution engine.
//!
//! Two execution modes, matching the paper's Section IV definitions:
//!
//! * [`try_run_scale_out`] — `n` map tasks in parallel on `n` units with
//!   a synchronization barrier, then a single reducer;
//! * [`run_sequential`] — the sequential job execution model defining the
//!   speedup numerator: the same tasks run back-to-back on one unit,
//!   followed by the same merge.
//!
//! Both modes *really execute* the user's map/combine/reduce functions
//! over the sample records and produce real outputs; only wall-clock time
//! is synthetic, charged from nominal data volumes via the cost model.
//!
//! The engine is a thin composition:
//!
//! 1. **data path** (the crate-private `datapath` module) — the real
//!    map/combine/shuffle-group/reduce over sample records, run on the
//!    calling thread; consumes no randomness;
//! 2. **plan** ([`crate::plan`]) — lower the job to the framework-
//!    agnostic task-graph IR ([`ipso_cluster::TaskGraph`]): one stage of
//!    map tasks, slowest-task ideal, no lineage;
//! 3. **execute** ([`ipso_cluster::execute`]) — the unified runtime owns
//!    straggler sampling, fault resolution, wave scheduling and
//!    Ws/Wp/Wo attribution;
//! 4. **account** — the serial merging portion (shuffle, merge, reduce)
//!    is charged behind the barrier from the real intermediate volumes,
//!    and the trace/timeline is assembled here.
//!
//! The sequential model needs no plan and no execute: its trace is pure
//! accounting over the volumes the scale-out run's data path produced,
//! so a sweep point ([`crate::measure::SweepPoint::run`]) runs the data
//! path once. [`run_sequential`] is the standalone reference for tests
//! and benchmarks.

use ipso_cluster::runtime::{RuntimeConfig, StageOutcome};
use ipso_cluster::{ClusterError, JobTrace, PhaseTimes, StageNode};
use ipso_sim::SimRng;

use crate::api::{Mapper, Reducer};
use crate::config::JobSpec;
use crate::cost::SEQ_INIT;
use crate::datapath::{execute_map_tasks, execute_reduce, MappedTask};
use crate::plan::plan_scale_out;
use crate::split::InputSplit;

/// The result of one job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun<O> {
    /// Timing trace (phases, tasks, scale-out overheads).
    pub trace: JobTrace,
    /// The real output records produced by the reducer, in key order.
    pub output: Vec<O>,
    /// Nominal bytes entering the reduce phase.
    pub reduce_input_bytes: u64,
}

/// Runs the job scaled out over `splits.len()` parallel tasks.
///
/// The trace records:
///
/// * `phases.map` — the slowest task (barrier synchronization);
/// * `phases.shuffle/merge/reduce` — the serial merging portion, charged
///   as in the sequential execution: the shuffle moves all intermediate
///   bytes at the reducer's shuffle rate (no incast), and the merge and
///   the reduce both pay the reducer's memory slowdown. With
///   [`JobSpec::pipelined_shuffle`] only the shuffle that outlasts the map
///   barrier is charged;
/// * `scale_out_overhead` — job setup, dispatch serialization, barrier
///   skew beyond the slowest task, and (with faults enabled) wasted
///   recovery work: the measured `Wo(n)`.
///
/// When the fault model is enabled, nominal task durations are passed
/// through [`ipso_cluster::resolve_faults`] before scheduling: recovery latency
/// (failed attempts, restarts, backoff, crash recomputation) lengthens
/// the affected tasks on the schedule, and the wasted *work* is charged
/// into `scale_out_overhead` — the paper's `Wo(n)` attribution for
/// fault tolerance. The resulting [`ipso_cluster::FaultSummary`] is
/// recorded on the trace.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] if `splits` is empty, the
/// split count exceeds the cluster's slots, or the spec fails
/// validation; with faults enabled, [`ClusterError::RetriesExhausted`]
/// or [`ClusterError::WastedWorkExceeded`] from fault resolution.
pub fn try_run_scale_out<M, R>(
    spec: &JobSpec,
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
) -> Result<JobRun<R::Output>, ClusterError>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    run_point(spec, mapper, reducer, splits).map(|(run, _)| run)
}

/// The scale-out run and, from the same data path, the sequential
/// model's trace ([`sequential_trace`]): the map tasks and the reduce run
/// once, and both execution models charge time from their volumes.
pub(crate) fn run_point<M, R>(
    spec: &JobSpec,
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
) -> Result<(JobRun<R::Output>, JobTrace), ClusterError>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    if splits.is_empty() {
        return Err(ClusterError::invalid("splits", "need at least one split"));
    }
    spec.validate()?;
    let slots = spec.cluster.total_slots() as usize;
    if splits.len() > slots {
        return Err(ClusterError::invalid(
            "splits",
            format!(
                "one container per unit: {} splits exceed {slots} slots",
                splits.len()
            ),
        ));
    }
    let n = splits.len() as u32;
    let mut rng = SimRng::seed_from(spec.seed ^ u64::from(n));

    // Real map-side computation.
    let mapped: Vec<MappedTask<M::Key, M::Value>> = execute_map_tasks(mapper, splits);

    // Lower to the task-graph IR and hand the timing side to the unified
    // runtime: straggler sampling, fault resolution (disabled consumes
    // zero RNG draws, keeping the straggler stream — and therefore every
    // output byte — identical to a fault-free build), wave
    // scheduling and overhead attribution all live there now.
    let graph = plan_scale_out(spec, splits);
    let executors = slots.min(splits.len());
    let runtime = RuntimeConfig {
        executors,
        scheduler: spec.scheduler,
        policy: spec.policy,
        straggler: spec.straggler,
        faults: spec.faults,
        recovery: spec.recovery,
        threads: spec.engine.threads,
    };
    let mut outcome = ipso_cluster::execute(&graph, &runtime, &mut rng)?;
    let stage = outcome.stages.pop().expect("single-stage graph");
    let max_task = stage.schedule.max_task_duration();

    // Serial merging portion. The shuffle is charged at the reducer's
    // service rate, as in the sequential execution: the paper inspected
    // the shuffle stage for scale-out-induced discrepancies and found
    // them negligible for the single-reducer MapReduce cases (the
    // network-level incast model lives in `ipso_cluster::NetworkModel`
    // and is exercised by the Spark engine's m-to-m shuffles).
    let total_intermediate: u64 = mapped.iter().map(|t| t.nominal_out_bytes).sum();
    let shuffle = if spec.pipelined_shuffle {
        // Slow-start shuffle: the reducer's transfer server ingests each
        // task's output when that task completes; only the portion that
        // outlasts the map barrier remains on the critical path. The FIFO
        // server captures the queueing effect at the single reducer.
        let mut server = ipso_sim::FifoServer::new();
        let mut finish = ipso_sim::SimTime::ZERO;
        for (record, task) in stage.schedule.records.iter().zip(&mapped) {
            let service = spec.cost.shuffle_time(task.nominal_out_bytes);
            let grant = server.submit(ipso_sim::SimTime::from_secs(record.end), service);
            finish = finish.max(grant.finish);
        }
        (finish.as_secs() - stage.schedule.makespan).max(0.0)
    } else {
        spec.cost.shuffle_time(total_intermediate)
    };
    let slowdown = spec.reducer_memory.slowdown(total_intermediate);
    let merge = spec.cost.serial_setup + spec.cost.merge_time(total_intermediate) * slowdown;

    let (output, reduce_input_bytes) = execute_reduce(reducer, mapped);
    let reduce = spec.cost.reduce_time(reduce_input_bytes) * slowdown;

    // Scale-out-only overheads, attributed by the runtime: extra job
    // setup versus the sequential environment (the graph's setup term),
    // the dispatch-induced stretch of the split phase beyond the slowest
    // task (the stage's schedule overhead), and the work burned by fault
    // recovery (the latency of recovery is already inside the schedule;
    // the *wasted work* is scale-out-induced workload, since the
    // sequential reference never re-executes).
    let setup_extra = outcome.setup_overhead;
    let barrier_stretch = stage.schedule_overhead();
    let wasted = stage.wasted();

    if ipso_obs::enabled() {
        record_scale_out_trace(
            &graph.stages[0],
            &stage,
            total_intermediate,
            shuffle,
            merge,
            reduce,
            setup_extra + barrier_stretch,
        );
    }

    let trace = JobTrace {
        job: spec.name.clone(),
        n,
        phases: PhaseTimes {
            init: SEQ_INIT,
            map: max_task,
            shuffle,
            merge,
            reduce,
        },
        tasks: stage.schedule.records,
        scale_out_overhead: setup_extra + barrier_stretch + wasted,
        faults: stage.fault.map(|o| o.summary),
    };
    let seq = sequential_trace(spec, splits, total_intermediate, reduce_input_bytes);
    let run = JobRun {
        trace,
        output,
        reduce_input_bytes,
    };
    Ok((run, seq))
}

/// Emits the scale-out run's timeline and metrics into `ipso_obs`.
///
/// The timeline places the init span at virtual time zero, the split
/// phase (and its per-executor task spans, via the runtime's
/// [`StageOutcome::record_task_spans`]) right after it, and the serial
/// shuffle/merge/reduce phases behind the barrier. Tasks whose straggler
/// multiplier reached the severe threshold get an instant marker on
/// their executor's track, and each recovery event (retry, lost output,
/// speculative copy) an instant at its task's finish.
fn record_scale_out_trace(
    plan: &StageNode,
    stage: &StageOutcome,
    total_intermediate: u64,
    shuffle: f64,
    merge: f64,
    reduce: f64,
    overhead: f64,
) {
    let t0 = SEQ_INIT;
    let makespan = stage.schedule.makespan;
    ipso_obs::record_span("driver", "init", "mapreduce", 0.0, t0);
    ipso_obs::record_span("driver", "map", "mapreduce", t0, t0 + makespan);
    stage.record_task_spans(plan, "mapreduce", t0);
    let barrier = t0 + makespan;
    ipso_obs::record_span("driver", "shuffle", "mapreduce", barrier, barrier + shuffle);
    ipso_obs::record_span(
        "driver",
        "merge",
        "mapreduce",
        barrier + shuffle,
        barrier + shuffle + merge,
    );
    ipso_obs::record_span(
        "driver",
        "reduce",
        "mapreduce",
        barrier + shuffle + merge,
        barrier + shuffle + merge + reduce,
    );
    stage.record_fault_instants("mapreduce", t0);
    ipso_obs::counter_add("mapreduce.jobs", 1);
    ipso_obs::counter_add("mapreduce.tasks_launched", stage.effective.len() as u64);
    ipso_obs::counter_add("mapreduce.shuffle_bytes", total_intermediate);
    ipso_obs::gauge_add("overhead.scheduling_s", overhead);
}

/// Runs the paper's sequential job execution model on its own: the data
/// path, then the sequential accounting (`sequential_trace`) over its
/// volumes.
///
/// # Panics
///
/// Panics if `splits` is empty or the spec fails validation. It stays
/// panicking because `perfbench/src/mr.rs:160` uses its plain return.
pub fn run_sequential<M, R>(
    spec: &JobSpec,
    mapper: &M,
    reducer: &R,
    splits: &[InputSplit<M::Input>],
) -> JobRun<R::Output>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    assert!(
        !splits.is_empty(),
        "sequential run needs at least one split"
    );
    spec.validate().expect("invalid job spec");
    let mapped = execute_map_tasks(mapper, splits);
    let total_intermediate = mapped.iter().map(|t| t.nominal_out_bytes).sum();
    let (output, reduce_input_bytes) = execute_reduce(reducer, mapped);
    JobRun {
        trace: sequential_trace(spec, splits, total_intermediate, reduce_input_bytes),
        output,
        reduce_input_bytes,
    }
}

/// The sequential job execution model's timing: all tasks back-to-back
/// on one processing unit, then the merge. No dispatch overhead, no
/// incast, no stragglers (the expectation is charged via the straggler
/// model's mean multiplier so workloads stay calibrated). Pure
/// accounting over the splits' count and nominal bytes, the map side's
/// total post-combine output and the bytes the reducer read.
fn sequential_trace<I>(
    spec: &JobSpec,
    splits: &[InputSplit<I>],
    total_intermediate: u64,
    reduce_input_bytes: u64,
) -> JobTrace {
    let mean_mult = spec.straggler.mean();
    let map_total: f64 = splits
        .iter()
        .map(|s| spec.cost.map_time(s.nominal_bytes) * mean_mult)
        .sum();
    let slowdown = spec.reducer_memory.slowdown(total_intermediate);
    JobTrace {
        job: spec.name.clone(),
        n: splits.len() as u32,
        phases: PhaseTimes {
            init: SEQ_INIT,
            map: map_total,
            shuffle: spec.cost.shuffle_time(total_intermediate),
            merge: spec.cost.serial_setup + spec.cost.merge_time(total_intermediate) * slowdown,
            reduce: spec.cost.reduce_time(reduce_input_bytes) * slowdown,
        },
        tasks: Vec::new(),
        scale_out_overhead: 0.0,
        faults: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OutputScaling, Sizeable};

    /// A sort-style identity job over u64 records.
    struct IdMap;
    impl Mapper for IdMap {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(*input, *input);
        }
    }
    struct IdReduce;
    impl Reducer for IdReduce {
        type Key = u64;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, key: u64, values: &[u64], emit: &mut dyn FnMut(u64)) {
            for _ in values {
                emit(key);
            }
        }
    }

    /// A counting job with a saturating combiner.
    struct CountMap;
    impl Mapper for CountMap {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(input % 10, 1);
        }
        fn combine(&self, _key: &u64, values: &mut Vec<u64>) {
            let sum = values.iter().sum();
            values.clear();
            values.push(sum);
        }
        fn output_scaling(&self) -> OutputScaling {
            OutputScaling::Saturating
        }
    }
    struct SumReduce;
    impl Reducer for SumReduce {
        type Key = u64;
        type Value = u64;
        type Output = (u64, u64);
        fn reduce(&self, key: u64, values: &[u64], emit: &mut dyn FnMut((u64, u64))) {
            emit((key, values.iter().sum()));
        }
    }

    fn splits(n: u32, records_per: u64) -> Vec<InputSplit<u64>> {
        (0..n)
            .map(|i| {
                let records: Vec<u64> = (0..records_per)
                    .map(|j| (u64::from(i) * records_per + j) % 997)
                    .collect();
                let bytes = records.iter().map(Sizeable::size_bytes).sum::<u64>();
                InputSplit::new(records, bytes, bytes * 1000)
            })
            .collect()
    }

    #[test]
    fn identity_job_outputs_sorted_multiset() {
        let spec = JobSpec::emr("sort", 4);
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100)).unwrap();
        assert_eq!(run.output.len(), 400);
        assert!(
            run.output.windows(2).all(|w| w[0] <= w[1]),
            "output must be sorted"
        );
        // Identical multiset as inputs.
        let mut inputs: Vec<u64> = splits(4, 100).into_iter().flat_map(|s| s.records).collect();
        inputs.sort_unstable();
        assert_eq!(run.output, inputs);
    }

    #[test]
    fn sequential_and_parallel_produce_identical_output() {
        let spec = JobSpec::emr("count", 3);
        let par = try_run_scale_out(&spec, &CountMap, &SumReduce, &splits(3, 500)).unwrap();
        let seq = run_sequential(&spec, &CountMap, &SumReduce, &splits(3, 500));
        assert_eq!(par.output, seq.output);
        // All 10 residue classes, each with 150 total.
        assert_eq!(par.output.len(), 10);
        assert_eq!(par.output.iter().map(|(_, c)| c).sum::<u64>(), 1500);
    }

    #[test]
    fn speedup_numerator_exceeds_denominator() {
        let spec = JobSpec::emr("sort", 8);
        let s = splits(8, 200);
        let par = try_run_scale_out(&spec, &IdMap, &IdReduce, &s).unwrap();
        let seq = run_sequential(&spec, &IdMap, &IdReduce, &s);
        // Sequential map is the sum; parallel map is roughly one task.
        assert!(seq.trace.phases.map > 6.0 * par.trace.phases.map);
        assert!(seq.trace.phases.map < 9.0 * par.trace.phases.map);
    }

    #[test]
    fn proportional_scaling_amplifies_intermediate_bytes() {
        let spec = JobSpec::emr("sort", 2);
        let s = splits(2, 100);
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &s).unwrap();
        // Sample is 1/1000 of nominal: intermediate must scale up ~1000×.
        let sample: u64 = 2 * 100 * 16;
        assert!(run.reduce_input_bytes > 900 * sample / 2);
    }

    #[test]
    fn saturating_scaling_keeps_intermediate_small() {
        let spec = JobSpec::emr("count", 2);
        let run = try_run_scale_out(&spec, &CountMap, &SumReduce, &splits(2, 1000)).unwrap();
        // Post-combine: ≤ 10 keys per task, 16 bytes each.
        assert!(run.reduce_input_bytes <= 2 * 10 * 16);
    }

    #[test]
    fn scale_out_overhead_is_recorded() {
        let spec = JobSpec::emr("sort", 8);
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(8, 50)).unwrap();
        assert!(run.trace.scale_out_overhead > 0.0);
        let seq = run_sequential(&spec, &IdMap, &IdReduce, &splits(8, 50));
        assert_eq!(seq.trace.scale_out_overhead, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = JobSpec::emr("sort", 4);
        let a = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100)).unwrap();
        let b = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100)).unwrap();
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn different_seeds_change_stragglers() {
        let mut spec = JobSpec::emr("sort", 4);
        let a = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100)).unwrap();
        spec.seed = 7;
        let b = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100)).unwrap();
        assert_ne!(a.trace.phases.map, b.trace.phases.map);
    }

    #[test]
    fn traces_satisfy_structural_invariants() {
        let spec = JobSpec::emr("sort", 8);
        let s = splits(8, 100);
        try_run_scale_out(&spec, &IdMap, &IdReduce, &s)
            .unwrap()
            .trace
            .check_invariants()
            .unwrap();
        run_sequential(&spec, &IdMap, &IdReduce, &s)
            .trace
            .check_invariants()
            .unwrap();
    }

    #[test]
    fn disabled_faults_never_touch_the_trace() {
        let spec = JobSpec::emr("sort", 4);
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100)).unwrap();
        assert!(run.trace.faults.is_none());
        assert_eq!(
            run.trace,
            try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 100))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn fault_injection_is_deterministic_and_charged_into_overhead() {
        let baseline =
            try_run_scale_out(&JobSpec::emr("sort", 8), &IdMap, &IdReduce, &splits(8, 50)).unwrap();
        let mut spec = JobSpec::emr("sort", 8);
        spec.faults = ipso_cluster::FaultModel::flaky(0.3);
        spec.recovery.max_attempts = 8;
        let a = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(8, 50)).unwrap();
        let b = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(8, 50)).unwrap();
        assert_eq!(a.trace, b.trace);
        a.trace.check_invariants().unwrap();
        let summary = a.trace.faults.as_ref().expect("faults enabled");
        assert!(summary.retries > 0, "p = 0.3 over 8 tasks should retry");
        assert!(summary.wasted_total() > 0.0);
        // Wo now carries the wasted work (plus setup and barrier terms,
        // which the lengthened tasks reshape) and exceeds the fault-free
        // overhead.
        assert!(
            a.trace.scale_out_overhead >= summary.wasted_total(),
            "wasted recovery work must be charged into Wo"
        );
        assert!(a.trace.scale_out_overhead > baseline.trace.scale_out_overhead);
        // Outputs are the real computation and never depend on injected
        // faults — only timing does.
        assert_eq!(a.output, baseline.output);
    }

    #[test]
    fn exhausted_retries_surface_as_a_typed_error() {
        let mut spec = JobSpec::emr("sort", 2);
        spec.faults = ipso_cluster::FaultModel::flaky(1.0);
        let err = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(2, 10))
            .expect_err("certain failure must exhaust retries");
        assert!(matches!(
            err,
            ClusterError::RetriesExhausted { attempts: 4, .. }
        ));
    }

    #[test]
    fn fail_fast_budget_aborts_the_run() {
        let mut spec = JobSpec::emr("sort", 4);
        spec.faults = ipso_cluster::FaultModel::flaky(0.5);
        spec.recovery.max_attempts = 16;
        spec.recovery.max_wasted_fraction = 1e-6;
        let err = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(4, 10))
            .expect_err("tiny budget must trip fail-fast");
        assert!(matches!(err, ClusterError::WastedWorkExceeded { .. }));
    }

    #[test]
    fn more_splits_than_slots_rejected() {
        let spec = JobSpec::emr("sort", 2);
        let err = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(3, 10)).unwrap_err();
        assert!(
            matches!(err, ClusterError::InvalidParameter { what: "splits", .. }),
            "{err}"
        );
        assert!(err.to_string().contains("3 splits exceed 2 slots"), "{err}");
    }

    #[test]
    fn empty_splits_rejected() {
        let spec = JobSpec::emr("sort", 2);
        let err = try_run_scale_out(&spec, &IdMap, &IdReduce, &[]).unwrap_err();
        assert!(
            matches!(err, ClusterError::InvalidParameter { what: "splits", .. }),
            "{err}"
        );
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut spec = JobSpec::emr("sort", 2);
        spec.cost.map_rate = 0.0;
        let err = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(2, 10)).unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::InvalidParameter {
                    what: "map_rate",
                    ..
                }
            ),
            "{err}"
        );
    }
}

#[cfg(test)]
mod pipelined_shuffle_tests {
    use super::*;
    use crate::api::{Mapper, Reducer};

    struct IdMap;
    impl Mapper for IdMap {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(*input, *input);
        }
    }
    struct IdReduce;
    impl Reducer for IdReduce {
        type Key = u64;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, key: u64, values: &[u64], emit: &mut dyn FnMut(u64)) {
            for _ in values {
                emit(key);
            }
        }
    }

    fn splits(n: u32) -> Vec<InputSplit<u64>> {
        (0..n)
            .map(|i| {
                let records: Vec<u64> = (0..64).map(|j| u64::from(i) * 64 + j).collect();
                InputSplit::new(records, 64 * 8, 128 * 1024 * 1024)
            })
            .collect()
    }

    #[test]
    fn pipelining_shrinks_the_visible_shuffle() {
        let mut plain = JobSpec::emr("sort", 16);
        plain.pipelined_shuffle = false;
        let mut piped = plain.clone();
        piped.pipelined_shuffle = true;
        let s = splits(16);
        let a = try_run_scale_out(&plain, &IdMap, &IdReduce, &s).unwrap();
        let b = try_run_scale_out(&piped, &IdMap, &IdReduce, &s).unwrap();
        assert!(
            b.trace.phases.shuffle < a.trace.phases.shuffle,
            "pipelined {} vs barrier {}",
            b.trace.phases.shuffle,
            a.trace.phases.shuffle
        );
        // Outputs are identical either way — pipelining is timing-only.
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn pipelined_shuffle_never_negative_and_bounded_by_total() {
        let mut spec = JobSpec::emr("sort", 8);
        spec.pipelined_shuffle = true;
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(8)).unwrap();
        let total = spec.cost.shuffle_time(run.reduce_input_bytes);
        assert!(run.trace.phases.shuffle >= 0.0);
        assert!(run.trace.phases.shuffle <= total + 1e-9);
    }

    #[test]
    fn queueing_effect_appears_when_transfers_outpace_the_reducer() {
        // Make the reducer's shuffle service very slow: transfers queue
        // and the remainder after the barrier approaches the full total.
        let mut spec = JobSpec::emr("sort", 8);
        spec.pipelined_shuffle = true;
        spec.cost.shuffle_rate = 1.0e6; // 1 MB/s reducer ingest
        let run = try_run_scale_out(&spec, &IdMap, &IdReduce, &splits(8)).unwrap();
        let total = spec.cost.shuffle_time(run.reduce_input_bytes);
        // Nearly nothing could be hidden behind the (short) map phase.
        assert!(run.trace.phases.shuffle > 0.9 * total - run.trace.phases.map - 1.0);
    }
}
