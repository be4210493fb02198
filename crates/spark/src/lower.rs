//! Lowering Spark jobs to the unified runtime's task-graph IR.
//!
//! The Spark engines are now *planners*: they translate a
//! [`SparkJobSpec`] into a [`TaskGraph`] and hand timing to
//! [`ipso_cluster::execute`], keeping only the framework-specific clock
//! walk (broadcast serialization, shuffle boundaries, event logs).
//!
//! Two lowerings exist, matching the two execution shapes:
//!
//! * [`lower_chain`] — the sequential stage chain of
//!   [`crate::engine::try_run_job`]: one graph stage per DAG stage, each
//!   depending on its predecessor, with uniform ideal tasks
//!   (`base × mem_mult`), first-wave costs as fixed extras, and
//!   [`LineageMode::RecomputeParents`] so a node crash replays the
//!   crashed node's parent partitions — Spark's RDD recovery, expressed
//!   as a graph property;
//! * [`lower_levels`] — the Dryad-style level DAG of
//!   [`crate::dag::run_dag`]: stages grouped into dependency levels, the
//!   members' tasks interleaved round-robin into one graph stage per
//!   level with a shared first-wave budget, explicit per-task ideal
//!   durations and no lineage (the level-to-member mapping makes
//!   per-stage replay ambiguous).
//!
//! Per-member broadcasts stay in the engines: the chain adds one
//! broadcast per stage (carried as the stage's `pre_overhead`), while
//! the level walk adds each member's broadcast to the clock
//! *individually* — floating-point association is part of the
//! byte-compatibility contract.

use ipso_cluster::{ClusterError, IdealReference, LineageMode, StageNode, TaskGraph};

use crate::dag::assign_levels;
use crate::engine::INPUT_READ_RATE;
use crate::job::SparkJobSpec;
use crate::stage::StageSpec;

/// The nominal per-task time of `stage` before noise: compute plus input
/// read, times the memory-pressure spill multiplier.
fn nominal_task_time(spec: &SparkJobSpec, stage: &StageSpec) -> f64 {
    let m = spec.parallelism;
    // Memory pressure: tasks per executor × cached partition size.
    let tasks_per_exec = (stage.tasks as f64 / m as f64).ceil();
    let working_set = if stage.caches_input {
        (stage.input_bytes_per_task as f64 * tasks_per_exec) as u64
    } else {
        stage.input_bytes_per_task
    };
    let mem_mult = if working_set > spec.executor_memory {
        spec.spill_slowdown
    } else {
        1.0
    };
    let base = stage.task_compute + stage.input_bytes_per_task as f64 / INPUT_READ_RATE;
    base * mem_mult
}

/// Lowers the sequential stage chain of `spec` into a [`TaskGraph`]:
/// one graph stage per DAG stage, in order, each depending on its
/// predecessor.
pub fn lower_chain(spec: &SparkJobSpec) -> TaskGraph {
    let m = spec.parallelism;
    let stages = spec
        .stages
        .iter()
        .enumerate()
        .map(|(k, stage)| {
            let nominal = nominal_task_time(spec, stage);
            let first_wave = m.min(stage.tasks) as usize;
            StageNode {
                name: stage.name.clone(),
                noisy_base: vec![nominal; stage.tasks as usize],
                fixed_extra: (0..stage.tasks as usize)
                    .map(|i| {
                        if i < first_wave {
                            spec.first_wave_cost
                        } else {
                            0.0
                        }
                    })
                    .collect(),
                deps: if k > 0 { vec![k - 1] } else { Vec::new() },
                pre_overhead: spec.network.broadcast_time(stage.broadcast_bytes, m),
                // The overhead yardstick: an idealized schedule with free
                // dispatch, no first-wave cost and no noise.
                ideal: IdealReference::Uniform { duration: nominal },
                lineage: LineageMode::RecomputeParents,
            }
        })
        .collect();
    TaskGraph {
        job: spec.name.clone(),
        stages,
        // Executor launch is serialized at the driver: pure scale-out-
        // induced time linear in m.
        setup_overhead: f64::from(m) * spec.executor_launch_cost,
        no_straggler_reference: true,
    }
}

/// Lowers `spec` with `(from, to)` stage edges into a level DAG: one
/// graph stage per dependency level, the members' tasks interleaved
/// round-robin with a shared first-wave budget. Returns the graph and
/// the member stage indices of each level.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] from
/// [`assign_levels`] for an invalid edge list.
pub fn lower_levels(
    spec: &SparkJobSpec,
    edges: &[(usize, usize)],
) -> Result<(TaskGraph, Vec<Vec<usize>>), ClusterError> {
    let levels = assign_levels(spec.stages.len(), edges)?;
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let m = spec.parallelism;

    let mut members_per_level: Vec<Vec<usize>> = Vec::with_capacity(max_level + 1);
    let mut nodes: Vec<StageNode> = Vec::with_capacity(max_level + 1);
    for level in 0..=max_level {
        let members: Vec<usize> = (0..spec.stages.len())
            .filter(|&s| levels[s] == level)
            .collect();

        // Round-robin over member stages so concurrent stages share the
        // executors fairly; the first-wave budget spans the whole level.
        let mut noisy_base: Vec<f64> = Vec::new();
        let mut fixed_extra: Vec<f64> = Vec::new();
        let mut ideal: Vec<f64> = Vec::new();
        let mut cursors: Vec<u32> = vec![0; members.len()];
        let mut first_wave_budget =
            m.min(members.iter().map(|&s| spec.stages[s].tasks).sum::<u32>()) as usize;
        loop {
            let mut emitted = false;
            for (mi, &s) in members.iter().enumerate() {
                let stage = &spec.stages[s];
                if cursors[mi] < stage.tasks {
                    cursors[mi] += 1;
                    emitted = true;
                    let nominal = nominal_task_time(spec, stage);
                    let fw = if first_wave_budget > 0 {
                        first_wave_budget -= 1;
                        spec.first_wave_cost
                    } else {
                        0.0
                    };
                    noisy_base.push(nominal);
                    fixed_extra.push(fw);
                    ideal.push(nominal);
                }
            }
            if !emitted {
                break;
            }
        }

        nodes.push(StageNode {
            name: format!("level-{level}"),
            noisy_base,
            fixed_extra,
            deps: if level > 0 {
                vec![level - 1]
            } else {
                Vec::new()
            },
            // Broadcasts are serialized per member and stay in the walk:
            // each member's time is added to the clock individually.
            pre_overhead: 0.0,
            ideal: IdealReference::Tasks(ideal),
            // Lineage recomputation across levels is modeled only by the
            // sequential chain engine, where the stage-to-predecessor
            // mapping is unambiguous.
            lineage: LineageMode::None,
        });
        members_per_level.push(members);
    }

    Ok((
        TaskGraph {
            job: spec.name.clone(),
            stages: nodes,
            setup_overhead: f64::from(m) * spec.executor_launch_cost,
            no_straggler_reference: false,
        },
        members_per_level,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> SparkJobSpec {
        SparkJobSpec::emr("t", 16, 4)
            .stage(StageSpec::new("load", 16).with_task_compute(0.5))
            .stage(StageSpec::new("train", 8).with_task_compute(1.0))
    }

    #[test]
    fn chain_lowering_is_one_node_per_stage() {
        let g = lower_chain(&job());
        g.validate().unwrap();
        assert_eq!(g.stages.len(), 2);
        assert_eq!(g.stages[0].deps, Vec::<usize>::new());
        assert_eq!(g.stages[1].deps, vec![0]);
        assert_eq!(g.total_tasks(), 24);
        assert!(g.no_straggler_reference);
        assert_eq!(g.stages[1].lineage, LineageMode::RecomputeParents);
    }

    #[test]
    fn chain_first_wave_pays_the_fixed_cost() {
        let spec = job();
        let g = lower_chain(&spec);
        // m = 4: the first four tasks of each stage pay first_wave_cost.
        for node in &g.stages {
            for (i, &fw) in node.fixed_extra.iter().enumerate() {
                let expected = if i < 4 { spec.first_wave_cost } else { 0.0 };
                assert_eq!(fw, expected, "task {i} of {}", node.name);
            }
        }
    }

    #[test]
    fn level_lowering_interleaves_members() {
        let spec = job();
        let (g, members) = lower_levels(&spec, &[]).unwrap();
        g.validate().unwrap();
        // No edges: both stages in level 0, tasks interleaved.
        assert_eq!(g.stages.len(), 1);
        assert_eq!(members, vec![vec![0, 1]]);
        assert_eq!(g.stages[0].tasks(), 24);
        assert_eq!(g.stages[0].lineage, LineageMode::None);
        // Round-robin: tasks alternate 0.5 / 1.0 while both have tasks.
        assert_eq!(g.stages[0].noisy_base[0], 0.5);
        assert_eq!(g.stages[0].noisy_base[1], 1.0);
    }

    #[test]
    fn level_lowering_respects_edges() {
        let spec = job();
        let (g, members) = lower_levels(&spec, &[(0, 1)]).unwrap();
        g.validate().unwrap();
        assert_eq!(g.stages.len(), 2);
        assert_eq!(members, vec![vec![0], vec![1]]);
        assert_eq!(g.stages[1].deps, vec![0]);
        assert!(lower_levels(&spec, &[(0, 1), (1, 0)]).is_err());
    }

    #[test]
    fn level_first_wave_budget_is_shared() {
        let spec = job();
        let (g, _) = lower_levels(&spec, &[]).unwrap();
        let paying = g.stages[0]
            .fixed_extra
            .iter()
            .filter(|&&fw| fw > 0.0)
            .count();
        assert_eq!(paying, 4, "budget is m, shared across members");
        // And it is the *first* m interleaved tasks that pay.
        assert!(g.stages[0].fixed_extra[..4].iter().all(|&fw| fw > 0.0));
    }
}
