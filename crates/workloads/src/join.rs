//! A Dryad-style two-branch join (exercises the general stage DAG).
//!
//! The paper names Dryad (\[3\]) alongside MapReduce and Spark as the
//! frameworks whose workloads IPSO targets. This workload joins two
//! independently prepared datasets — the canonical diamond DAG: two map
//! branches feed one join stage. The kernel ([`hash_join`]) really joins
//! generated tables; [`job_edges`] gives the DAG for
//! [`ipso_spark::run_dag`].

use std::collections::HashMap;

use ipso_spark::{SparkJobSpec, StageSpec};

/// A row of the fact table: `(key, measure)`.
pub type FactRow = (u64, f64);
/// A row of the dimension table: `(key, attribute)`.
pub type DimRow = (u64, u32);

/// Joined output row: `(key, measure, attribute)`.
pub type JoinedRow = (u64, f64, u32);

/// Hash join of a fact table against a dimension table (inner join on
/// the key; duplicate dimension keys keep the last attribute, as a
/// primary-key table would guarantee uniqueness anyway).
pub fn hash_join(facts: &[FactRow], dims: &[DimRow]) -> Vec<JoinedRow> {
    let lookup: HashMap<u64, u32> = dims.iter().copied().collect();
    let mut out: Vec<JoinedRow> = facts
        .iter()
        .filter_map(|&(k, v)| lookup.get(&k).map(|&a| (k, v, a)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    out
}

/// Generates a fact table of `rows` entries over `keys` distinct keys.
pub fn generate_facts(rows: usize, keys: u64, rng: &mut ipso_sim::SimRng) -> Vec<FactRow> {
    (0..rows)
        .map(|_| (rng.index(keys as usize) as u64, rng.uniform(0.0, 100.0)))
        .collect()
}

/// Generates a dimension table covering a key range with one attribute
/// per key.
pub fn generate_dims(keys: u64) -> Vec<DimRow> {
    (0..keys).map(|k| (k, (k % 7) as u32)).collect()
}

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
    use ipso_sim::SimRng;
    use ipso_spark::{run_dag, try_run_job};

    #[test]
    fn join_matches_nested_loop_reference() {
        let mut rng = SimRng::seed_from(90);
        let facts = generate_facts(500, 40, &mut rng);
        let dims = generate_dims(40);
        let joined = hash_join(&facts, &dims);
        // Reference: nested loop.
        let mut expected: Vec<JoinedRow> = facts
            .iter()
            .flat_map(|&(k, v)| {
                dims.iter()
                    .filter(move |&&(dk, _)| dk == k)
                    .map(move |&(_, a)| (k, v, a))
            })
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        assert_eq!(joined, expected);
    }

    #[test]
    fn unmatched_fact_keys_are_dropped() {
        let facts = vec![(0u64, 1.0), (99, 2.0)];
        let dims = vec![(0u64, 5)];
        let joined = hash_join(&facts, &dims);
        assert_eq!(joined, vec![(0, 1.0, 5)]);
    }

    #[test]
    fn every_fact_joins_when_dims_cover_the_keyspace() {
        let mut rng = SimRng::seed_from(91);
        let facts = generate_facts(300, 20, &mut rng);
        let joined = hash_join(&facts, &generate_dims(20));
        assert_eq!(joined.len(), facts.len());
    }

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
