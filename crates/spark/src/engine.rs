//! Stage-DAG execution.
//!
//! Since the unified-runtime refactor [`try_run_job`] is plan → execute
//! → walk:
//!
//! 1. **Plan**: [`crate::lower::lower_chain`] translates the job into
//!    the framework-agnostic task-graph IR — one stage per DAG stage
//!    with uniform ideal tasks, first-wave fixed extras and lineage
//!    metadata;
//! 2. **Execute**: [`ipso_cluster::execute`] owns straggler sampling,
//!    fault resolution, wave scheduling and lineage-recompute
//!    accounting;
//! 3. **Walk**: the virtual clock advances stage by stage — serialized
//!    broadcasts, stage waves, lineage replays, incast shuffles.

use ipso_cluster::runtime::RuntimeConfig;
use ipso_cluster::{ClusterError, FaultSummary, RunOutcome, SchedulerPolicy, TaskGraph};
use ipso_sim::SimRng;

use crate::eventlog::{write_event_log, SparkEvent};
use crate::job::SparkJobSpec;
use crate::lower::lower_chain;

/// Read rate for task input, bytes/s (cached partitions / local HDFS
/// blocks stream at roughly memory-page-cache speed on m4-class nodes).
pub(crate) const INPUT_READ_RATE: f64 = 150.0e6;

/// The result of one Spark-like job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkRun {
    /// Total wall-clock time, seconds.
    pub total_time: f64,
    /// Per-stage wall-clock latencies, in DAG order.
    pub stage_times: Vec<f64>,
    /// Scale-out-induced portion: broadcasts, dispatch serialization,
    /// first-wave deserialization, barrier skew, and — with faults
    /// enabled — wasted recovery work and lineage recomputation, seconds.
    pub overhead_time: f64,
    /// Per-stage fault-recovery summaries, in DAG order. Empty when the
    /// fault model is disabled.
    pub fault_summaries: Vec<FaultSummary>,
    /// The Spark-style JSON event log of the run.
    pub log: String,
}

impl SparkRun {
    /// Fraction of wall-clock time that is scale-out-induced overhead.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_time > 0.0 {
            self.overhead_time / self.total_time
        } else {
            0.0
        }
    }
}

/// Executes the job's stage DAG on `m` executors.
///
/// Per stage, in order:
///
/// 0. the driver launches the `m` executors serially (overhead linear
///    in `m`);
/// 1. the driver broadcasts `broadcast_bytes` to each executor *serially*
///    (the \[12\] bottleneck) — pure scale-out-induced time;
/// 2. tasks are dispatched centrally and run in waves; tasks of the first
///    wave pay the executor's one-time deserialization cost;
/// 3. tasks whose executor working set (cached partitions × tasks per
///    executor) exceeds executor memory run 1.6× slower;
/// 4. the stage's shuffle output is redistributed m-to-m with the incast
///    goodput penalty at each receiver.
///
/// With `spec.faults` enabled, each stage's planned durations pass
/// through [`ipso_cluster::resolve_faults`] (in stage order, so the RNG
/// stream stays byte-deterministic): recovery latency lengthens the
/// affected tasks, wasted work is charged into `overhead_time`, and a
/// node crash in stage `k > 0` additionally triggers lineage
/// recomputation of the crashed node's stage-`k−1` partitions — Spark's
/// RDD recovery — charged as both clock time and overhead.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] if the spec fails
/// validation; with faults enabled, [`ClusterError::RetriesExhausted`]
/// or [`ClusterError::WastedWorkExceeded`] from any stage's resolution.
pub fn try_run_job(spec: &SparkJobSpec) -> Result<SparkRun, ClusterError> {
    spec.validate()?;
    let m = spec.parallelism;

    // Plan and execute. The runtime consumes the RNG sequentially in
    // stage order (straggler draws, then fault resolution — disabled
    // consumes zero draws), computes every stage's actual / idealized /
    // no-straggler schedules, and attributes lineage recomputation from
    // the graph's dependency metadata.
    let graph = lower_chain(spec);
    let outcome = execute(spec, &graph)?;

    // Walk the virtual clock through the stages in order.
    let mut clock = 0.0f64;
    let mut overhead = 0.0f64;
    let mut stage_times = Vec::with_capacity(spec.stages.len());
    let mut fault_summaries: Vec<FaultSummary> = Vec::new();
    let mut events = Vec::new();

    // Executor launch is serialized at the driver: pure scale-out-induced
    // time linear in m (the driver registers one container at a time).
    let launch = outcome.setup_overhead;
    clock += launch;
    overhead += launch;
    if ipso_obs::enabled() {
        ipso_obs::counter_add("spark.jobs", 1);
        ipso_obs::record_span("driver", "executor-launch", "spark", 0.0, launch);
        ipso_obs::gauge_add("overhead.scheduling_s", launch);
    }

    for (((stage_id, stage), node), staged) in spec
        .stages
        .iter()
        .enumerate()
        .zip(&graph.stages)
        .zip(outcome.stages)
    {
        let submitted = clock;
        events.push(SparkEvent::StageSubmitted {
            stage_id: stage_id as u32,
            stage_name: stage.name.clone(),
            num_tasks: stage.tasks,
            submission_time: submitted,
        });

        // 1. Driver broadcast (serialized unicasts) — the stage's
        // pre-wave overhead in the IR.
        let broadcast = node.pre_overhead;
        clock += broadcast;
        overhead += broadcast;
        if ipso_obs::enabled() {
            stage.record_metrics();
            if broadcast > 0.0 {
                ipso_obs::record_span(
                    "driver",
                    format!("broadcast-{}", stage.name),
                    "spark",
                    submitted,
                    submitted + broadcast,
                );
            }
            ipso_obs::gauge_add("overhead.broadcast_s", broadcast);
        }

        // 2./3. The runtime's schedules.
        let stage_overhead = staged.schedule_overhead();
        overhead += stage_overhead;
        if staged.no_straggler.is_some() {
            let tail = staged.straggler_tail();
            ipso_obs::gauge_add("overhead.straggler_tail_s", tail);
            ipso_obs::gauge_add("overhead.scheduling_s", stage_overhead - tail);
            staged.record_task_spans(node, "spark", clock);
        }
        staged.record_fault_instants("spark", clock);
        clock += staged.schedule.makespan;

        // Fault recovery accounting. The recovery *latency* is already in
        // the lengthened task durations above; the re-executed *work* is
        // scale-out-induced workload (the sequential reference never
        // re-executes), so it is charged into the overhead share.
        if let Some(fault) = &staged.fault {
            overhead += fault.summary.wasted_total();
        }

        // Lineage recomputation, attributed by the runtime from the
        // graph's dependency metadata: a node crash in stage k > 0 also
        // loses the node's resident stage-(k−1) partitions, which must
        // be recomputed from lineage before this stage's shuffle can
        // complete. Crashed nodes recompute in parallel, so the clock
        // pays the slowest node while Wo pays the total work.
        if let Some(lineage) = &staged.lineage {
            if ipso_obs::enabled() && lineage.makespan > 0.0 {
                ipso_obs::record_span(
                    "driver",
                    format!("lineage-recompute-{}", stage.name),
                    "spark",
                    clock,
                    clock + lineage.makespan,
                );
                ipso_obs::counter_add("spark.lineage_recomputes", lineage.nodes);
                ipso_obs::gauge_add("overhead.lineage_recompute_s", lineage.work);
            }
            clock += lineage.makespan;
            overhead += lineage.work;
        }

        // 4. Shuffle boundary: each of the m receivers pulls total/m bytes
        // at incast-degraded goodput.
        if stage.shuffle_output_per_task > 0 {
            let total = stage.total_shuffle_output();
            let per_receiver = total as f64 / m as f64;
            let shuffle = per_receiver / spec.network.incast_goodput(m);
            if ipso_obs::enabled() {
                ipso_obs::record_span(
                    "driver",
                    format!("shuffle-{}", stage.name),
                    "spark",
                    clock,
                    clock + shuffle,
                );
                // Incast degradation beyond undegraded worker goodput:
                // informational, not part of the engine's Wo accounting.
                let undegraded = per_receiver / spec.network.incast_goodput(1);
                ipso_obs::gauge_add("spark.shuffle_incast_excess_s", shuffle - undegraded);
            }
            clock += shuffle;
        }

        let stage_time = clock - submitted;
        stage_times.push(stage_time);
        if ipso_obs::enabled() {
            ipso_obs::record_span("driver", stage.name.clone(), "spark", submitted, clock);
        }
        events.push(SparkEvent::StageCompleted {
            stage_id: stage_id as u32,
            stage_name: stage.name.clone(),
            num_tasks: stage.tasks,
            submission_time: submitted,
            completion_time: clock,
        });
        if let Some(fault) = staged.fault {
            fault_summaries.push(fault.summary);
        }
    }

    Ok(finish_run(
        spec,
        events,
        clock,
        overhead,
        stage_times,
        fault_summaries,
    ))
}

/// Runs `graph`, lowered from `spec`, through the cluster runtime: FIFO
/// over `spec.parallelism` executors, with the RNG seeded from the
/// spec's seed, parallelism and problem size. Both clock walks start
/// here.
pub(crate) fn execute(spec: &SparkJobSpec, graph: &TaskGraph) -> Result<RunOutcome, ClusterError> {
    let m = spec.parallelism;
    let mut rng =
        SimRng::seed_from(spec.seed ^ (u64::from(m) << 32) ^ u64::from(spec.problem_size));
    let runtime = RuntimeConfig {
        executors: m as usize,
        scheduler: spec.scheduler,
        policy: SchedulerPolicy::Fifo,
        straggler: spec.straggler,
        faults: spec.faults,
        recovery: spec.recovery,
        threads: spec.engine.threads,
    };
    ipso_cluster::execute(graph, &runtime, &mut rng)
}

/// Assembles a finished walk into a [`SparkRun`]: wraps the stage
/// events in the application's start and end events (at 0 and `clock`)
/// and writes them as the event log.
pub(crate) fn finish_run(
    spec: &SparkJobSpec,
    stage_events: Vec<SparkEvent>,
    clock: f64,
    overhead: f64,
    stage_times: Vec<f64>,
    fault_summaries: Vec<FaultSummary>,
) -> SparkRun {
    let start = SparkEvent::ApplicationStart {
        app_name: spec.name.clone(),
        timestamp: 0.0,
    };
    let end = SparkEvent::ApplicationEnd { timestamp: clock };
    let events: Vec<SparkEvent> = std::iter::once(start)
        .chain(stage_events)
        .chain(std::iter::once(end))
        .collect();
    let log = write_event_log(&events);
    SparkRun {
        total_time: clock,
        stage_times,
        overhead_time: overhead,
        fault_summaries,
        log,
    }
}

/// The sequential execution reference (speedup numerator): the whole
/// workload streamed through one processing unit — no broadcast, no
/// dispatch, no first-wave cost, no stragglers (mean multiplier), no
/// cache spill (partitions are processed one at a time), shuffle data
/// repartitioned at local rates.
///
/// # Panics
///
/// Panics if the spec fails validation. It stays panicking because
/// `perfbench/src/spark.rs:118` uses its plain return.
pub fn run_sequential_reference(spec: &SparkJobSpec) -> f64 {
    spec.validate().expect("invalid spark job spec");
    let mean_mult = spec.straggler.mean();
    let mut total = 0.0;
    for stage in &spec.stages {
        let base = stage.task_compute + stage.input_bytes_per_task as f64 / INPUT_READ_RATE;
        total += stage.tasks as f64 * base * mean_mult;
        if stage.shuffle_output_per_task > 0 {
            // Local repartition at worker disk speed.
            total += stage.total_shuffle_output() as f64 / spec.cluster.worker.disk_bandwidth;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventlog::parse_event_log;
    use crate::stage::StageSpec;
    use ipso_sim::Distribution;

    fn simple_job(n_tasks: u32, m: u32) -> SparkJobSpec {
        SparkJobSpec::emr("test", n_tasks, m)
            .stage(StageSpec::new("map", n_tasks).with_task_compute(1.0))
    }

    #[test]
    fn single_stage_wall_clock_is_waves() {
        let mut job = simple_job(8, 4);
        job.straggler = Distribution::Fixed { value: 1.0 };
        job.first_wave_cost = 0.0;
        job.executor_launch_cost = 0.0;
        let run = try_run_job(&job).unwrap();
        // Two waves of 1 s tasks plus small dispatch.
        assert!(
            (2.0..2.3).contains(&run.total_time),
            "t = {}",
            run.total_time
        );
    }

    #[test]
    fn sequential_reference_sums_all_tasks() {
        let mut job = simple_job(8, 4);
        job.straggler = Distribution::Fixed { value: 1.0 };
        let t = run_sequential_reference(&job);
        assert!((t - 8.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_counts_as_overhead() {
        let mut job = SparkJobSpec::emr("bcast", 4, 4).stage(
            StageSpec::new("iter", 4)
                .with_task_compute(0.5)
                .with_broadcast(50 * 1024 * 1024),
        );
        job.straggler = Distribution::Fixed { value: 1.0 };
        let run = try_run_job(&job).unwrap();
        // 4 serialized 50 MB unicasts at 250 MB/s ≈ 0.8 s.
        assert!(run.overhead_time > 0.7, "overhead = {}", run.overhead_time);
        assert!(run.overhead_fraction() > 0.3);
    }

    #[test]
    fn broadcast_overhead_grows_linearly_with_m() {
        let mk = |m: u32| {
            let mut j = SparkJobSpec::emr("bcast", m, m).stage(
                StageSpec::new("iter", m)
                    .with_task_compute(0.5)
                    .with_broadcast(20 * 1024 * 1024),
            );
            j.straggler = Distribution::Fixed { value: 1.0 };
            j.first_wave_cost = 0.0;
            j
        };
        let o10 = try_run_job(&mk(10)).unwrap().overhead_time;
        let o40 = try_run_job(&mk(40)).unwrap().overhead_time;
        assert!(
            o40 > 3.5 * o10 && o40 < 4.5 * o10,
            "o10 = {o10}, o40 = {o40}"
        );
    }

    #[test]
    fn memory_pressure_slows_overloaded_executors() {
        let mk = |load: u32| {
            let m = 4;
            let n = m * load;
            let mut j = SparkJobSpec::emr("mem", n, m).stage(
                StageSpec::new("train", n)
                    .with_task_compute(1.0)
                    .with_input_bytes(1024 * 1024 * 1024)
                    .with_cached_input(true),
            );
            j.straggler = Distribution::Fixed { value: 1.0 };
            j.first_wave_cost = 0.0;
            j
        };
        // Load 2: 2 GiB cached per executor — fits in 4 GiB. Load 8: 8 GiB
        // — spills.
        let fit = try_run_job(&mk(2)).unwrap();
        let spill = try_run_job(&mk(8)).unwrap();
        let per_task_fit = fit.total_time / 2.0;
        let per_task_spill = spill.total_time / 8.0;
        assert!(per_task_spill > 1.4 * per_task_fit);
    }

    #[test]
    fn event_log_reflects_stages() {
        let mut job = simple_job(4, 2).stage(StageSpec::new("agg", 2).with_task_compute(0.2));
        job.executor_launch_cost = 0.0;
        let run = try_run_job(&job).unwrap();
        let (stages, duration) = parse_event_log(&run.log).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].stage_name, "map");
        assert_eq!(stages[1].stage_name, "agg");
        let sum: f64 = stages.iter().map(|s| s.latency).sum();
        assert!((sum - run.total_time).abs() < 1e-9);
        assert_eq!(duration, Some(run.total_time));
    }

    #[test]
    fn executor_launch_is_linear_overhead() {
        let mk = |m: u32| {
            let mut j = simple_job(m, m);
            j.straggler = Distribution::Fixed { value: 1.0 };
            j.first_wave_cost = 0.0;
            j
        };
        let o8 = try_run_job(&mk(8)).unwrap().overhead_time;
        let o64 = try_run_job(&mk(64)).unwrap().overhead_time;
        assert!(
            o64 > 6.0 * o8,
            "launch overhead should grow ~linearly: {o8} -> {o64}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let job = simple_job(16, 4);
        assert_eq!(try_run_job(&job).unwrap(), try_run_job(&job).unwrap());
    }

    fn multi_stage_job() -> SparkJobSpec {
        SparkJobSpec::emr("multi", 32, 8)
            .stage(
                StageSpec::new("load", 32)
                    .with_task_compute(0.4)
                    .with_input_bytes(64 * 1024 * 1024)
                    .with_shuffle_output(8 * 1024 * 1024),
            )
            .stage(
                StageSpec::new("train", 32)
                    .with_task_compute(0.6)
                    .with_broadcast(10 * 1024 * 1024),
            )
            .stage(StageSpec::new("agg", 8).with_task_compute(0.2))
    }

    #[test]
    fn disabled_faults_leave_runs_untouched() {
        let job = multi_stage_job();
        let run = try_run_job(&job).unwrap();
        assert!(run.fault_summaries.is_empty());
        assert_eq!(run, try_run_job(&job).unwrap());
    }

    #[test]
    fn fault_injection_is_deterministic_and_grows_overhead() {
        let baseline = try_run_job(&multi_stage_job()).unwrap();
        let mut job = multi_stage_job();
        job.faults = ipso_cluster::FaultModel::flaky(0.3);
        job.recovery.max_attempts = 8;
        let a = try_run_job(&job).unwrap();
        let b = try_run_job(&job).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fault_summaries.len(), job.stages.len());
        let wasted: f64 = a.fault_summaries.iter().map(|s| s.wasted_total()).sum();
        assert!(wasted > 0.0, "p = 0.3 over 72 tasks must waste work");
        assert!(a.overhead_time >= baseline.overhead_time + wasted - 1e-9);
        assert!(a.total_time > baseline.total_time);
    }

    #[test]
    fn node_crash_in_a_later_stage_triggers_lineage_recompute() {
        let mut job = multi_stage_job();
        job.faults = ipso_cluster::FaultModel {
            node_crash_prob: 1.0,
            ..ipso_cluster::FaultModel::none()
        };
        let crash = try_run_job(&job).unwrap();
        // Every node crashes in every stage: stages 1 and 2 must replay
        // their predecessors' partitions from lineage on top of the
        // directly lost outputs.
        let crash_wasted: f64 = crash.fault_summaries.iter().map(|s| s.wasted_total()).sum();
        assert!(
            crash.overhead_time > crash_wasted,
            "lineage recompute work must be charged beyond the per-stage waste: {} <= {}",
            crash.overhead_time,
            crash_wasted
        );
        let baseline = try_run_job(&multi_stage_job()).unwrap();
        assert!(crash.total_time > baseline.total_time);
    }

    #[test]
    fn exhausted_retries_surface_as_a_typed_error() {
        let mut job = multi_stage_job();
        job.faults = ipso_cluster::FaultModel::flaky(1.0);
        let err = try_run_job(&job).expect_err("certain failure must exhaust retries");
        assert!(matches!(
            err,
            ClusterError::RetriesExhausted { attempts: 4, .. }
        ));
    }

    #[test]
    fn invalid_spec_is_a_typed_error() {
        let mut job = simple_job(4, 2);
        job.parallelism = 0;
        let err = try_run_job(&job).unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::InvalidParameter {
                    what: "parallel degree",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn shuffle_adds_boundary_time() {
        let mut with = SparkJobSpec::emr("s", 8, 4).stage(
            StageSpec::new("map", 8)
                .with_task_compute(0.5)
                .with_shuffle_output(20 * 1024 * 1024),
        );
        with.straggler = Distribution::Fixed { value: 1.0 };
        let mut without =
            SparkJobSpec::emr("s", 8, 4).stage(StageSpec::new("map", 8).with_task_compute(0.5));
        without.straggler = Distribution::Fixed { value: 1.0 };
        assert!(
            try_run_job(&with).unwrap().total_time
                > try_run_job(&without).unwrap().total_time + 0.5
        );
    }
}
