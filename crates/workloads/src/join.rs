//! A Dryad-style two-branch join (exercises the general stage DAG).
//!
//! The paper names Dryad (\[3\]) alongside MapReduce and Spark as the
//! frameworks whose workloads IPSO targets. This workload joins two
//! independently prepared datasets — the canonical diamond DAG: two map
//! branches feed one join stage. [`job`] is a calibrated stage spec and
//! [`job_edges`] gives its DAG for [`ipso_spark::run_dag`]; no tables
//! are generated or joined.

use ipso_spark::{SparkJobSpec, StageSpec};

/// The diamond join job: `prepare-facts` and `prepare-dims` run
/// concurrently, `join` consumes both.
pub fn job(problem_size: u32, parallelism: u32) -> SparkJobSpec {
    SparkJobSpec::emr("join", problem_size, parallelism)
        .stage(
            StageSpec::new("prepare-facts", problem_size)
                .with_task_compute(1.2)
                .with_input_bytes(512 * 1024 * 1024)
                .with_shuffle_output(24 * 1024 * 1024),
        )
        .stage(
            StageSpec::new("prepare-dims", (problem_size / 4).max(1))
                .with_task_compute(0.6)
                .with_input_bytes(64 * 1024 * 1024)
                .with_shuffle_output(4 * 1024 * 1024),
        )
        .stage(
            StageSpec::new("join", problem_size)
                .with_task_compute(0.9)
                .with_shuffle_output(8 * 1024 * 1024),
        )
}

/// The DAG edges of [`job`]: both prepare stages feed the join.
pub fn job_edges() -> Vec<(usize, usize)> {
    vec![(0, 2), (1, 2)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipso_spark::{run_dag, try_run_job};

    #[test]
    fn dag_execution_beats_forced_chain() {
        let j = job(16, 8);
        let dag = run_dag(&j, &job_edges()).unwrap();
        let chain = try_run_job(&j).unwrap(); // stages forced sequential
        assert!(dag.total_time <= chain.total_time + 1e-9);
        // The dims branch is strictly shorter than the facts branch, so
        // running them concurrently must save real time, not just ties.
        assert!(
            dag.total_time < 0.99 * chain.total_time,
            "dag {} vs chain {}",
            dag.total_time,
            chain.total_time
        );
    }

    #[test]
    fn dag_event_log_shows_concurrent_prepares() {
        let run = run_dag(&job(8, 8), &job_edges()).unwrap();
        let (stages, _) = ipso_spark::parse_event_log(&run.log).unwrap();
        assert_eq!(stages.len(), 3);
        // The two prepare stages share a level; the join comes after.
        assert_eq!(stages[0].stage_name, "prepare-facts");
        assert_eq!(stages[1].stage_name, "prepare-dims");
    }
}
