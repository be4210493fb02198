//! Lowering a MapReduce job to the unified runtime's task-graph IR.
//!
//! The paper's single-stage MapReduce model — `n` map tasks released
//! together, a synchronization barrier, then a single reducer — lowers to
//! a one-stage [`TaskGraph`]:
//!
//! * each split becomes one task whose nominal work is the cost model's
//!   `map_time` for the split's nominal bytes (straggler noise is the
//!   runtime's job);
//! * the ideal reference is [`IdealReference::SlowestTask`]: the barrier
//!   can never beat the slowest mapper, so everything beyond it —
//!   dispatch serialization, recovery latency — is the barrier stretch
//!   charged into `Wo(n)`;
//! * Hadoop re-executes lost tasks from durable input, so lineage mode is
//!   [`LineageMode::None`];
//! * the graph's one-time `setup_overhead` is the scale-out job setup in
//!   excess of the sequential environment's init.
//!
//! The serial merging portion (shuffle, merge, reduce) is not part of the
//! graph: it models a single-node pipeline behind the barrier and stays
//! in the engine, charged from real intermediate volumes the data path
//! produced.

use ipso_cluster::{IdealReference, LineageMode, StageNode, TaskGraph};

use crate::config::JobSpec;
use crate::cost::SEQ_INIT;
use crate::split::InputSplit;

/// Lowers the scale-out run of `spec` over `splits` into a single-stage
/// [`TaskGraph`] for [`ipso_cluster::execute`].
pub fn plan_scale_out<I>(spec: &JobSpec, splits: &[InputSplit<I>]) -> TaskGraph {
    TaskGraph {
        job: spec.name.clone(),
        stages: vec![StageNode {
            name: "map".to_string(),
            noisy_base: splits
                .iter()
                .map(|s| spec.cost.map_time(s.nominal_bytes))
                .collect(),
            fixed_extra: Vec::new(),
            deps: Vec::new(),
            pre_overhead: 0.0,
            ideal: IdealReference::SlowestTask,
            lineage: LineageMode::None,
        }],
        setup_overhead: (spec.scheduler.job_setup - SEQ_INIT).max(0.0),
        no_straggler_reference: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splits(n: u32) -> Vec<InputSplit<u64>> {
        (0..n)
            .map(|i| InputSplit::new(vec![u64::from(i)], 8, 128 * 1024 * 1024))
            .collect()
    }

    #[test]
    fn lowering_is_one_stage_per_job() {
        let spec = JobSpec::emr("sort", 8);
        let graph = plan_scale_out(&spec, &splits(8));
        graph.validate().unwrap();
        assert_eq!(graph.stages.len(), 1);
        assert_eq!(graph.total_tasks(), 8);
        assert_eq!(graph.stages[0].ideal, IdealReference::SlowestTask);
        assert_eq!(graph.stages[0].lineage, LineageMode::None);
        assert!(!graph.no_straggler_reference);
    }

    #[test]
    fn task_work_comes_from_the_cost_model() {
        let spec = JobSpec::emr("sort", 2);
        let s = splits(2);
        let graph = plan_scale_out(&spec, &s);
        for (task, split) in graph.stages[0].noisy_base.iter().zip(&s) {
            assert_eq!(*task, spec.cost.map_time(split.nominal_bytes));
        }
    }

    #[test]
    fn setup_overhead_is_the_scale_out_excess() {
        let spec = JobSpec::emr("sort", 4);
        let graph = plan_scale_out(&spec, &splits(4));
        assert_eq!(
            graph.setup_overhead,
            (spec.scheduler.job_setup - SEQ_INIT).max(0.0)
        );
    }
}
