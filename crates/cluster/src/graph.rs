//! The task-graph IR: the framework-agnostic description of a job that
//! the unified runtime ([`crate::runtime::execute`]) executes.
//!
//! The paper's central claim is that one model — `S(n) = (Wp+Ws) /
//! (E[max Tp,i] + Ws + Wo)` — explains MapReduce and Spark alike. The IR
//! is that claim turned into code: both engines *lower* their jobs into
//! a [`TaskGraph`] of stages (per-task nominal work, barrier edges,
//! lineage metadata) and a single executor owns straggler sampling,
//! wave scheduling, fault resolution and Ws/Wp/Wo attribution. Engine
//! crates keep only what is genuinely framework-specific: the real data
//! path (MapReduce) and the clock walk over shuffles and event logs
//! (Spark).
//!
//! A MapReduce job lowers to a single stage whose ideal reference is its
//! own slowest task (the barrier cannot beat the slowest mapper); a
//! Spark chain lowers to one stage per DAG stage with uniform ideal
//! tasks; a Dryad-style level DAG lowers to one stage per dependency
//! level with the members' tasks interleaved round-robin.

use crate::error::ClusterError;

/// How a stage's idealized reference makespan — the yardstick that
/// splits wall-clock time into useful work and scale-out overhead — is
/// computed.
#[derive(Debug, Clone, PartialEq)]
pub enum IdealReference {
    /// The slowest *effective* task: a barrier can never finish before
    /// its slowest member, so everything beyond it is overhead
    /// (MapReduce's `barrier_stretch`).
    SlowestTask,
    /// All tasks take `duration` under an idealized free-dispatch
    /// scheduler — the allocation-free closed form
    /// ([`crate::uniform_wave_makespan`]). Spark's per-stage yardstick:
    /// no noise, no first-wave cost, no dispatch serialization.
    Uniform {
        /// The uniform ideal task duration (s).
        duration: f64,
    },
    /// Explicit per-task ideal durations scheduled under the idealized
    /// scheduler — used when a stage interleaves heterogeneous tasks
    /// (level DAGs).
    Tasks(Vec<f64>),
}

/// Whether a node crash during this stage additionally replays parent
/// partitions from lineage (Spark's RDD recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineageMode {
    /// Lost outputs are re-executed in place; nothing upstream replays.
    None,
    /// A crashed node's resident parent partitions (tasks `t` of every
    /// parent stage with `t ≡ node (mod executors)`) are recomputed from
    /// lineage: the clock pays the slowest crashed node, the overhead
    /// share pays the total replayed work.
    RecomputeParents,
}

/// One stage of a [`TaskGraph`]: a set of tasks released together and
/// separated from dependents by a barrier (shuffle edges are modeled by
/// the engines after the barrier).
#[derive(Debug, Clone, PartialEq)]
pub struct StageNode {
    /// Stage name, used for spans and event logs.
    pub name: String,
    /// Per-task nominal work (s) — the part straggler noise multiplies.
    pub noisy_base: Vec<f64>,
    /// Per-task fixed additive cost (s), e.g. Spark's first-wave
    /// deserialization. Empty means all zeros; otherwise must be
    /// parallel to `noisy_base`.
    pub fixed_extra: Vec<f64>,
    /// Parent stage indices. Every dep must be smaller than this node's
    /// own index, so a well-formed graph is topologically ordered by
    /// construction.
    pub deps: Vec<usize>,
    /// Serialized driver work before the wave (s) — Spark's broadcast.
    /// Pure scale-out-induced time.
    pub pre_overhead: f64,
    /// The idealized reference for overhead attribution.
    pub ideal: IdealReference,
    /// Lineage behaviour on node crashes.
    pub lineage: LineageMode,
}

impl StageNode {
    /// Number of tasks in the stage.
    pub fn tasks(&self) -> usize {
        self.noisy_base.len()
    }

    /// The fixed additive cost of task `i`.
    pub fn fixed(&self, i: usize) -> f64 {
        self.fixed_extra.get(i).copied().unwrap_or(0.0)
    }

    /// The no-noise nominal duration of task `i`: `noisy_base + fixed`.
    pub fn nominal(&self, i: usize) -> f64 {
        self.noisy_base[i] + self.fixed(i)
    }
}

/// A job lowered to the runtime's IR: stages in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    /// Job name.
    pub job: String,
    /// Stages in topological (execution) order.
    pub stages: Vec<StageNode>,
    /// One-time scale-out-only setup cost (s): MapReduce's extra job
    /// setup versus the sequential environment, Spark's serialized
    /// executor launch.
    pub setup_overhead: f64,
    /// Whether the executor should also compute each stage's
    /// no-straggler reference schedule (only when observability is on) —
    /// used to split overhead into straggler-tail and scheduling shares.
    pub no_straggler_reference: bool,
}

impl TaskGraph {
    /// Validates the graph: topologically-ordered acyclic deps, at least
    /// one task per stage, finite non-negative durations and consistent
    /// `fixed_extra` lengths.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let invalid = |message: String| ClusterError::invalid("task graph", message);
        if !self.setup_overhead.is_finite() || self.setup_overhead < 0.0 {
            return Err(invalid("setup_overhead must be finite and >= 0".into()));
        }
        for (k, stage) in self.stages.iter().enumerate() {
            if stage.noisy_base.is_empty() {
                return Err(invalid(format!("stage {k} ({}) has no tasks", stage.name)));
            }
            if !stage.fixed_extra.is_empty() && stage.fixed_extra.len() != stage.noisy_base.len() {
                return Err(invalid(format!(
                    "stage {k} ({}): fixed_extra length {} != task count {}",
                    stage.name,
                    stage.fixed_extra.len(),
                    stage.noisy_base.len()
                )));
            }
            for (which, values) in [
                ("noisy_base", &stage.noisy_base),
                ("fixed_extra", &stage.fixed_extra),
            ] {
                if values.iter().any(|d| !d.is_finite() || *d < 0.0) {
                    return Err(invalid(format!(
                        "stage {k} ({}): {which} must be finite and >= 0",
                        stage.name
                    )));
                }
            }
            if !stage.pre_overhead.is_finite() || stage.pre_overhead < 0.0 {
                return Err(invalid(format!(
                    "stage {k} ({}): pre_overhead must be finite and >= 0",
                    stage.name
                )));
            }
            for &dep in &stage.deps {
                if dep >= k {
                    return Err(invalid(format!(
                        "stage {k} ({}) depends on stage {dep}: deps must point at \
                         earlier stages (topological order)",
                        stage.name
                    )));
                }
            }
            if let IdealReference::Tasks(ideal) = &stage.ideal {
                if ideal.len() != stage.noisy_base.len() {
                    return Err(invalid(format!(
                        "stage {k} ({}): ideal task count {} != task count {}",
                        stage.name,
                        ideal.len(),
                        stage.noisy_base.len()
                    )));
                }
                if ideal.iter().any(|d| !d.is_finite() || *d < 0.0) {
                    return Err(invalid(format!(
                        "stage {k} ({}): ideal durations must be finite and >= 0",
                        stage.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total task count across all stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(StageNode::tasks).sum()
    }

    /// True when the dep relation is acyclic and topologically listed —
    /// implied by [`TaskGraph::validate`], exposed for property tests.
    pub fn is_topologically_ordered(&self) -> bool {
        self.stages
            .iter()
            .enumerate()
            .all(|(k, s)| s.deps.iter().all(|&d| d < k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, tasks: usize) -> StageNode {
        StageNode {
            name: name.into(),
            noisy_base: vec![1.0; tasks],
            fixed_extra: Vec::new(),
            deps: Vec::new(),
            pre_overhead: 0.0,
            ideal: IdealReference::SlowestTask,
            lineage: LineageMode::None,
        }
    }

    fn graph(stages: Vec<StageNode>) -> TaskGraph {
        TaskGraph {
            job: "test".into(),
            stages,
            setup_overhead: 0.0,
            no_straggler_reference: false,
        }
    }

    #[test]
    fn valid_chain_passes() {
        let mut b = stage("b", 2);
        b.deps = vec![0];
        let g = graph(vec![stage("a", 4), b]);
        g.validate().unwrap();
        assert!(g.is_topologically_ordered());
        assert_eq!(g.total_tasks(), 6);
    }

    #[test]
    fn forward_dep_rejected() {
        let mut a = stage("a", 1);
        a.deps = vec![1];
        let g = graph(vec![a, stage("b", 1)]);
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InvalidParameter {
                what: "task graph",
                ..
            }
        ));
        assert!(!g.is_topologically_ordered());
    }

    #[test]
    fn self_dep_rejected() {
        let mut a = stage("a", 1);
        a.deps = vec![0];
        assert!(graph(vec![a]).validate().is_err());
    }

    #[test]
    fn empty_stage_rejected() {
        assert!(graph(vec![stage("a", 0)]).validate().is_err());
    }

    #[test]
    fn nonfinite_duration_rejected() {
        let mut a = stage("a", 2);
        a.noisy_base[1] = f64::NAN;
        assert!(graph(vec![a]).validate().is_err());
        let mut b = stage("b", 2);
        b.fixed_extra = vec![0.0, -1.0];
        assert!(graph(vec![b]).validate().is_err());
    }

    #[test]
    fn fixed_extra_length_mismatch_rejected() {
        let mut a = stage("a", 3);
        a.fixed_extra = vec![0.1; 2];
        assert!(graph(vec![a]).validate().is_err());
    }

    #[test]
    fn ideal_tasks_length_mismatch_rejected() {
        let mut a = stage("a", 3);
        a.ideal = IdealReference::Tasks(vec![1.0; 2]);
        assert!(graph(vec![a]).validate().is_err());
    }

    #[test]
    fn nominal_combines_base_and_fixed() {
        let mut a = stage("a", 2);
        a.fixed_extra = vec![0.5, 0.0];
        assert_eq!(a.nominal(0), 1.5);
        assert_eq!(a.nominal(1), 1.0);
        let b = stage("b", 1);
        assert_eq!(b.nominal(0), 1.0); // empty fixed_extra = zeros
    }
}
