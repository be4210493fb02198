//! General stage DAGs (Dryad-style).
//!
//! [`try_run_job`](crate::engine::try_run_job) executes stages strictly in
//! sequence — the common Spark shape where each stage consumes its
//! predecessor's shuffle. Frameworks like Dryad (the paper's reference
//! \[3\]) schedule general DAGs where *independent* stages run
//! concurrently on the same executors. [`run_dag`] provides that:
//! stages are grouped into dependency levels; stages within a level share
//! the `m` executors (their tasks interleave round-robin into the same
//! wave schedule), and a barrier separates levels.
//!
//! Shared with the sequential engine: serialized driver broadcasts,
//! first-wave costs, memory pressure, incast shuffles, fault injection
//! and the same JSON event log. Not shared:
//!
//! * no lineage recompute — a node crash charges the wasted work of the
//!   level it struck, but no predecessor partitions are replayed;
//! * no observability spans or metrics of its own — only the runtime's
//!   scheduling metrics;
//! * no straggler-tail split — a level's schedule overhead is charged as
//!   one lump, without the separate straggler-tail share.

use ipso_cluster::{ClusterError, FaultSummary};

use crate::engine::{execute, finish_run, SparkRun};
use crate::eventlog::SparkEvent;
use crate::job::SparkJobSpec;
use crate::lower::lower_levels;

/// Groups the stages of `spec` into dependency levels.
///
/// `edges` are `(from, to)` stage-index pairs meaning `to` consumes
/// `from`'s output. Returns the level of each stage (level 0 has no
/// dependencies).
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] for out-of-range indices,
/// self-edges and cycles.
pub fn assign_levels(
    num_stages: usize,
    edges: &[(usize, usize)],
) -> Result<Vec<usize>, ClusterError> {
    let invalid = |message: String| ClusterError::invalid("stage dependency graph", message);
    for &(a, b) in edges {
        if a >= num_stages || b >= num_stages {
            return Err(invalid(format!(
                "edge ({a}, {b}) out of range for {num_stages} stages"
            )));
        }
        if a == b {
            return Err(invalid(format!("self-edge on stage {a}")));
        }
    }
    // Longest-path levels via Kahn's algorithm.
    let mut indegree = vec![0usize; num_stages];
    for &(_, b) in edges {
        indegree[b] += 1;
    }
    let mut level = vec![0usize; num_stages];
    let mut queue: Vec<usize> = (0..num_stages).filter(|&s| indegree[s] == 0).collect();
    let mut visited = 0;
    while let Some(s) = queue.pop() {
        visited += 1;
        for &(a, b) in edges {
            if a == s {
                level[b] = level[b].max(level[s] + 1);
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    queue.push(b);
                }
            }
        }
    }
    if visited != num_stages {
        return Err(invalid("contains a cycle".into()));
    }
    Ok(level)
}

/// Executes `spec.stages` as a DAG with the given `(from, to)` edges.
///
/// # Errors
///
/// Returns the message of the first [`ClusterError`] met: `spec`'s own
/// validation error, a DAG validation error from [`assign_levels`], or
/// the runtime's error (for example `task 3 failed all 4 attempts` when
/// a task exhausts its retries). The error stays a `String` because
/// `perfbench/src/spark.rs:104-107` matches on it as one.
///
/// # Example
///
/// ```
/// use ipso_spark::{run_dag, try_run_job, SparkJobSpec, StageSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A diamond: two independent 8-task stages feed an aggregation.
/// let job = SparkJobSpec::emr("diamond", 8, 8)
///     .stage(StageSpec::new("left", 8).with_task_compute(1.0))
///     .stage(StageSpec::new("right", 8).with_task_compute(1.0))
///     .stage(StageSpec::new("join", 4).with_task_compute(0.2));
/// let dag = run_dag(&job, &[(0, 2), (1, 2)])?;
/// let chain = try_run_job(&job)?; // same stages, forced sequential
/// assert!(dag.total_time <= chain.total_time);
/// # Ok(())
/// # }
/// ```
pub fn run_dag(spec: &SparkJobSpec, edges: &[(usize, usize)]) -> Result<SparkRun, String> {
    run_levels(spec, edges).map_err(|e| e.to_string())
}

fn run_levels(spec: &SparkJobSpec, edges: &[(usize, usize)]) -> Result<SparkRun, ClusterError> {
    spec.validate()?;
    let (graph, members_per_level) = lower_levels(spec, edges)?;
    let m = spec.parallelism;
    let outcome = execute(spec, &graph)?;

    let mut clock = 0.0f64;
    let mut overhead = 0.0f64;
    let mut fault_summaries: Vec<FaultSummary> = Vec::new();
    let mut stage_times = vec![0.0f64; spec.stages.len()];
    let mut events = Vec::new();

    // Serialized executor launch, as in the sequential engine.
    let launch = outcome.setup_overhead;
    clock += launch;
    overhead += launch;

    for (members, mut staged) in members_per_level.iter().zip(outcome.stages) {
        let submitted = clock;
        for &s in members {
            events.push(SparkEvent::StageSubmitted {
                stage_id: s as u32,
                stage_name: spec.stages[s].name.clone(),
                num_tasks: spec.stages[s].tasks,
                submission_time: submitted,
            });
        }

        // Broadcasts of all member stages are serialized at the driver,
        // each added to the clock individually.
        for &s in members {
            let b = spec
                .network
                .broadcast_time(spec.stages[s].broadcast_bytes, m);
            clock += b;
            overhead += b;
        }

        // The runtime's wave schedule over the level's interleaved task
        // list. Recovery latency lengthened the tasks; wasted work is
        // charged as overhead. (Lineage recomputation across levels is modeled
        // only by the sequential chain engine, where the
        // stage-to-predecessor mapping is unambiguous.)
        if let Some(fault) = staged.fault.take() {
            overhead += fault.summary.wasted_total();
            fault_summaries.push(fault.summary);
        }
        overhead += staged.schedule_overhead();
        clock += staged.schedule.makespan;

        // Combined shuffle of the level: all member outputs contend for
        // the receivers.
        let total_shuffle: u64 = members
            .iter()
            .map(|&s| spec.stages[s].total_shuffle_output())
            .sum();
        if total_shuffle > 0 {
            let per_receiver = total_shuffle as f64 / m as f64;
            clock += per_receiver / spec.network.incast_goodput(m);
        }

        for &s in members {
            stage_times[s] = clock - submitted;
            events.push(SparkEvent::StageCompleted {
                stage_id: s as u32,
                stage_name: spec.stages[s].name.clone(),
                num_tasks: spec.stages[s].tasks,
                submission_time: submitted,
                completion_time: clock,
            });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::try_run_job;
    use crate::stage::StageSpec;
    use ipso_sim::Distribution;

    fn job3() -> SparkJobSpec {
        let mut j = SparkJobSpec::emr("dag", 8, 8)
            .stage(StageSpec::new("a", 8).with_task_compute(1.0))
            .stage(StageSpec::new("b", 8).with_task_compute(1.0))
            .stage(StageSpec::new("c", 4).with_task_compute(0.2));
        j.straggler = Distribution::Fixed { value: 1.0 };
        j.first_wave_cost = 0.0;
        j.executor_launch_cost = 0.0;
        j
    }

    #[test]
    fn levels_for_chain_and_diamond() {
        assert_eq!(assign_levels(3, &[(0, 1), (1, 2)]).unwrap(), vec![0, 1, 2]);
        assert_eq!(assign_levels(3, &[(0, 2), (1, 2)]).unwrap(), vec![0, 0, 1]);
        assert_eq!(assign_levels(1, &[]).unwrap(), vec![0]);
    }

    #[test]
    fn cycles_and_bad_edges_rejected() {
        for edges in [&[(0, 1), (1, 0)][..], &[(0, 5)], &[(1, 1)]] {
            assert!(
                matches!(
                    assign_levels(2, edges),
                    Err(ClusterError::InvalidParameter {
                        what: "stage dependency graph",
                        ..
                    })
                ),
                "{edges:?}"
            );
        }
    }

    #[test]
    fn chain_dag_matches_sequential_engine() {
        let j = job3();
        let chain = run_dag(&j, &[(0, 1), (1, 2)]).unwrap();
        let seq = try_run_job(&j).unwrap();
        assert!(
            (chain.total_time - seq.total_time).abs() < 0.05 * seq.total_time,
            "chain {} vs sequential {}",
            chain.total_time,
            seq.total_time
        );
    }

    #[test]
    fn diamond_is_faster_than_chain() {
        let j = job3();
        let diamond = run_dag(&j, &[(0, 2), (1, 2)]).unwrap();
        let chain = run_dag(&j, &[(0, 1), (1, 2)]).unwrap();
        // Stages a and b share the executors concurrently; the level takes
        // as long as both together (16 tasks on 8 executors = 2 waves),
        // same wall-clock work but one less barrier/dispatch round.
        assert!(diamond.total_time <= chain.total_time + 1e-9);
    }

    #[test]
    fn independent_stages_share_executors_fairly() {
        // Two independent 4-task stages on 8 executors: a single wave.
        let mut j = SparkJobSpec::emr("fair", 4, 8)
            .stage(StageSpec::new("x", 4).with_task_compute(1.0))
            .stage(StageSpec::new("y", 4).with_task_compute(1.0));
        j.straggler = Distribution::Fixed { value: 1.0 };
        j.first_wave_cost = 0.0;
        j.executor_launch_cost = 0.0;
        let run = run_dag(&j, &[]).unwrap();
        assert!(
            (1.0..1.2).contains(&run.total_time),
            "t = {}",
            run.total_time
        );
    }

    #[test]
    fn event_log_contains_all_stages_with_levels() {
        let j = job3();
        let run = run_dag(&j, &[(0, 2), (1, 2)]).unwrap();
        let (stages, _) = crate::eventlog::parse_event_log(&run.log).unwrap();
        assert_eq!(stages.len(), 3);
        // a and b complete together; c strictly later.
        assert_eq!(run.stage_times.len(), 3);
        assert!(run.stage_times[2] < run.stage_times[0]);
    }

    #[test]
    fn invalid_spec_is_an_error() {
        let mut j = job3();
        j.parallelism = 0;
        assert_eq!(
            run_dag(&j, &[(0, 2)]).unwrap_err(),
            "invalid parallel degree: m must be positive"
        );
    }

    #[test]
    fn cycle_is_an_error() {
        assert_eq!(
            run_dag(&job3(), &[(0, 1), (1, 0)]).unwrap_err(),
            "invalid stage dependency graph: contains a cycle"
        );
    }

    /// The abort message is part of the contract: callers match it to
    /// tell an allowed fault-induced abort from a broken run.
    #[test]
    fn exhausted_retries_report_the_cluster_error_message() {
        let mut j = job3();
        j.faults = ipso_cluster::FaultModel::flaky(1.0);
        j.recovery.max_attempts = 3;
        assert_eq!(
            run_dag(&j, &[(0, 2), (1, 2)]).unwrap_err(),
            "task 0 failed all 3 attempts"
        );
    }

    #[test]
    fn dag_runs_are_deterministic() {
        let j = job3();
        assert_eq!(
            run_dag(&j, &[(0, 2)]).unwrap(),
            run_dag(&j, &[(0, 2)]).unwrap()
        );
    }
}
