//! Property-based tests of the unified cluster runtime: both engines'
//! lowerings produce well-formed task graphs, and [`ipso_cluster::execute`]
//! is bit-deterministic, with faults on and off.

use ipso_cluster::runtime::{RunOutcome, RuntimeConfig};
use ipso_cluster::{
    execute, CentralScheduler, ClusterError, FaultModel, RecoveryPolicy, SchedulerPolicy, TaskGraph,
};
use ipso_mapreduce::{plan_scale_out, try_run_scale_out, InputSplit, JobSpec};
use ipso_sim::{Distribution, SimRng};
use ipso_spark::{lower_chain, lower_levels, try_run_job, SparkJobSpec, StageSpec};
use ipso_workloads::sort;
use proptest::prelude::*;

fn mr_splits(sizes: &[u8]) -> Vec<InputSplit<u64>> {
    sizes
        .iter()
        .map(|&s| {
            let bytes = u64::from(s).max(1) * 1024;
            InputSplit::new(vec![u64::from(s)], bytes, bytes * 64)
        })
        .collect()
}

fn spark_job(stage_tasks: &[u8], m: u8) -> SparkJobSpec {
    let mut job = SparkJobSpec::emr("prop", 64, u32::from(m).max(1));
    for (i, &tasks) in stage_tasks.iter().enumerate() {
        job = job.stage(
            StageSpec::new(&format!("s{i}"), u32::from(tasks).max(1))
                .with_task_compute(0.25 + f64::from(tasks) / 64.0),
        );
    }
    job
}

/// Chain edges `(k-1, k)` interleaved with a few diamonds, always acyclic
/// because every edge points forward.
fn forward_edges(n_stages: usize, extra: &[(u8, u8)]) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (1..n_stages).map(|k| (k - 1, k)).collect();
    for &(a, b) in extra {
        let a = a as usize % n_stages;
        let b = b as usize % n_stages;
        if a < b {
            edges.push((a, b));
        }
    }
    edges
}

fn config(executors: usize, faulty: bool) -> RuntimeConfig {
    RuntimeConfig {
        executors,
        scheduler: CentralScheduler::spark_like(),
        policy: SchedulerPolicy::Fifo,
        straggler: Distribution::jitter(0.05),
        faults: if faulty {
            let mut f = FaultModel::flaky(0.2);
            f.node_crash_prob = 0.05;
            f
        } else {
            FaultModel::none()
        },
        recovery: {
            let mut r = RecoveryPolicy::hadoop_like().with_speculation();
            r.max_attempts = 16;
            r
        },
        threads: 1,
    }
}

/// Everything observable about a run, with times as bit patterns so the
/// comparison is exact, not approximate.
fn fingerprint(outcome: &RunOutcome) -> Vec<(Vec<u64>, u64, u64, u64, u64, u64)> {
    outcome
        .stages
        .iter()
        .map(|s| {
            (
                s.effective.iter().map(|d| d.to_bits()).collect(),
                s.schedule.makespan.to_bits(),
                s.ideal_makespan.to_bits(),
                s.schedule_overhead().to_bits(),
                s.wasted().to_bits(),
                s.lineage.as_ref().map_or(0, |l| l.work.to_bits()),
            )
        })
        .collect()
}

/// Every job runs on its caller's thread: the runtime and both engines
/// reject a thread count other than 1 instead of ignoring it.
#[test]
fn thread_counts_other_than_one_are_rejected() {
    let is_invalid = |result: Result<(), ClusterError>| {
        matches!(result, Err(ClusterError::InvalidParameter { .. }))
    };
    let graph = lower_chain(&spark_job(&[4, 2], 2));
    let two = RuntimeConfig {
        threads: 2,
        ..config(2, false)
    };
    assert!(is_invalid(
        execute(&graph, &two, &mut SimRng::seed_from(1)).map(drop)
    ));

    let mut spec = sort::job_spec(2);
    spec.engine.threads = 0;
    let splits = sort::make_splits(2, 1);
    assert!(is_invalid(
        try_run_scale_out(&spec, &sort::SortMapper, &sort::SortReducer, &splits).map(drop)
    ));

    let mut job = spark_job(&[4, 2], 2);
    job.engine.threads = 0;
    assert!(is_invalid(try_run_job(&job).map(drop)));
}

fn assert_graph_well_formed(graph: &TaskGraph) {
    graph.validate().expect("lowered graph must validate");
    assert!(
        graph.is_topologically_ordered(),
        "lowered graph must list stages in dependency order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The MapReduce lowering is a well-formed single-stage graph for any
    /// split shapes.
    #[test]
    fn mapreduce_lowering_is_well_formed(
        sizes in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let spec = JobSpec::emr("prop", sizes.len() as u32);
        let graph = plan_scale_out(&spec, &mr_splits(&sizes));
        assert_graph_well_formed(&graph);
        prop_assert_eq!(graph.total_tasks(), sizes.len());
    }

    /// Both Spark lowerings are acyclic and topologically consistent for
    /// any stage shapes and any forward edge set.
    #[test]
    fn spark_lowerings_are_well_formed(
        stage_tasks in prop::collection::vec(1u8..32, 1..5),
        m in 1u8..16,
        extra in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let job = spark_job(&stage_tasks, m);
        let chain = lower_chain(&job);
        assert_graph_well_formed(&chain);
        prop_assert_eq!(chain.stages.len(), stage_tasks.len());
        prop_assert_eq!(
            chain.total_tasks() as u32,
            stage_tasks.iter().map(|&t| u32::from(t).max(1)).sum::<u32>()
        );

        let edges = forward_edges(stage_tasks.len(), &extra);
        let (levels, members) = lower_levels(&job, &edges).unwrap();
        assert_graph_well_formed(&levels);
        prop_assert_eq!(levels.total_tasks(), chain.total_tasks());
        prop_assert_eq!(levels.stages.len(), members.len());
        // Every spec stage appears in exactly one level.
        let mut seen: Vec<usize> = members.into_iter().flatten().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..stage_tasks.len()).collect::<Vec<_>>());
    }

    /// Replaying `execute` with the same seed reproduces the run exactly.
    #[test]
    fn execute_is_replayable_under_every_policy(
        stage_tasks in prop::collection::vec(1u8..24, 1..4),
        m in 1u8..12,
        faulty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let graph = lower_chain(&spark_job(&stage_tasks, m));
        let cfg = config(usize::from(m).max(1), faulty);
        let mut rng_a = SimRng::seed_from(seed);
        let mut rng_b = SimRng::seed_from(seed);
        let a = execute(&graph, &cfg, &mut rng_a).unwrap();
        let b = execute(&graph, &cfg, &mut rng_b).unwrap();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
