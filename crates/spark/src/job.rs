//! Spark job configuration.

use ipso_cluster::{
    CentralScheduler, ClusterError, ClusterSpec, EngineOptions, FaultModel, NetworkModel,
    RecoveryPolicy, StragglerModel,
};
use serde::{Deserialize, Serialize};

use crate::stage::StageSpec;

/// Configuration of one Spark-like job execution.
///
/// The paper parameterizes every Spark case study by a problem size `N`
/// (nominal tasks per stage) and a parallel degree `m` (executors); the
/// scale-out degree is `n = m`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparkJobSpec {
    /// Application label.
    pub name: String,
    /// Nominal problem size `N` (tasks in the first stage).
    pub problem_size: u32,
    /// Parallel degree `m` (executors). One executor per worker node.
    pub parallelism: u32,
    /// The stage DAG, in topological order.
    pub stages: Vec<StageSpec>,
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Driver scheduling cost model.
    pub scheduler: CentralScheduler,
    /// Network model (broadcast, shuffle).
    pub network: NetworkModel,
    /// Task-time noise.
    pub straggler: StragglerModel,
    /// Per-executor memory available for cached partitions, bytes.
    pub executor_memory: u64,
    /// Slowdown multiplier applied to tasks whose executor working set
    /// exceeds memory (RDD spill to local disk).
    pub spill_slowdown: f64,
    /// Per-executor one-time first-task cost (classloading, JIT,
    /// deserialization of closures) — the paper's "first wave" overhead.
    pub first_wave_cost: f64,
    /// Driver-side cost to launch one executor (container negotiation and
    /// registration are serialized at the driver), seconds. Total launch
    /// time is `m × executor_launch_cost` — a scale-out-induced overhead
    /// linear in the parallel degree.
    pub executor_launch_cost: f64,
    /// Host-side execution knobs (stage-schedule thread count). Never
    /// affects simulated time, traces or event logs, only how fast the
    /// host computes them. Defaults to sequential so specs serialized
    /// before this field existed still deserialize.
    #[serde(default)]
    pub engine: EngineOptions,
    /// Fault injection model, applied per stage. Disabled by default;
    /// when disabled each stage consumes zero extra RNG draws, so event
    /// logs match fault-free builds byte for byte. Defaults keep specs
    /// serialized before this field existed deserializable.
    #[serde(default)]
    pub faults: FaultModel,
    /// Recovery policy: retry with capped exponential backoff, optional
    /// speculation, fail-fast budget. Node crashes in stage `k > 0`
    /// additionally trigger lineage recomputation of the crashed node's
    /// stage-`k−1` partitions.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
    /// RNG seed.
    pub seed: u64,
}

impl SparkJobSpec {
    /// Creates a job on an EMR-style cluster with `m` executors and
    /// Spark-like defaults.
    pub fn emr(name: &str, problem_size: u32, parallelism: u32) -> SparkJobSpec {
        let cluster = ClusterSpec::emr(parallelism.max(1));
        SparkJobSpec {
            name: name.to_string(),
            problem_size,
            parallelism,
            stages: Vec::new(),
            network: NetworkModel::from_cluster(&cluster),
            cluster,
            scheduler: CentralScheduler::spark_like(),
            straggler: StragglerModel::mild(),
            executor_memory: 4 * 1024 * 1024 * 1024, // 4 GiB usable of 8
            spill_slowdown: 1.6,
            first_wave_cost: 0.35,
            executor_launch_cost: 0.09,
            engine: EngineOptions::default(),
            faults: FaultModel::none(),
            recovery: RecoveryPolicy::hadoop_like(),
            seed: 42,
        }
    }

    /// Appends a stage.
    pub fn stage(mut self, stage: StageSpec) -> SparkJobSpec {
        self.stages.push(stage);
        self
    }

    /// Tasks per executor in the first stage, `N/m` — the paper's
    /// per-executor load level.
    pub fn load_level(&self) -> f64 {
        self.problem_size as f64 / self.parallelism.max(1) as f64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.problem_size == 0 {
            return Err(ClusterError::invalid("problem size", "N must be positive"));
        }
        if self.parallelism == 0 {
            return Err(ClusterError::invalid(
                "parallel degree",
                "m must be positive",
            ));
        }
        if self.stages.is_empty() {
            return Err(ClusterError::invalid("job", "needs at least one stage"));
        }
        if self.executor_memory == 0 {
            return Err(ClusterError::invalid("executor memory", "must be positive"));
        }
        if !self.spill_slowdown.is_finite() || self.spill_slowdown < 1.0 {
            return Err(ClusterError::invalid("spill slowdown", "must be >= 1"));
        }
        if !self.first_wave_cost.is_finite() || self.first_wave_cost < 0.0 {
            return Err(ClusterError::invalid(
                "first wave cost",
                "must be finite and >= 0",
            ));
        }
        if !self.executor_launch_cost.is_finite() || self.executor_launch_cost < 0.0 {
            return Err(ClusterError::invalid(
                "executor launch cost",
                "must be finite and >= 0",
            ));
        }
        self.cluster.validate()?;
        self.scheduler.validate()?;
        self.straggler.validate()?;
        self.faults.validate()?;
        self.recovery.validate()?;
        for s in &self.stages {
            s.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emr_builder_with_stages_validates() {
        let job = SparkJobSpec::emr("bayes", 64, 16)
            .stage(StageSpec::new("train", 64).with_task_compute(1.0));
        assert!(job.validate().is_ok());
        assert_eq!(job.load_level(), 4.0);
    }

    fn rejected(job: &SparkJobSpec) -> &'static str {
        match job.validate() {
            Err(ClusterError::InvalidParameter { what, .. }) => what,
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_problems() {
        let no_stages = SparkJobSpec::emr("x", 4, 2);
        assert_eq!(rejected(&no_stages), "job");
        let mut bad = SparkJobSpec::emr("x", 4, 2).stage(StageSpec::new("s", 4));
        bad.problem_size = 0;
        assert_eq!(rejected(&bad), "problem size");
        bad = SparkJobSpec::emr("x", 4, 2).stage(StageSpec::new("s", 4));
        bad.spill_slowdown = 0.5;
        assert_eq!(rejected(&bad), "spill slowdown");
        bad = SparkJobSpec::emr("x", 4, 2).stage(StageSpec::new("s", 0));
        assert_eq!(rejected(&bad), "stage");
        bad = SparkJobSpec::emr("x", 4, 2).stage(StageSpec::new("s", 4));
        bad.recovery.max_attempts = 0;
        assert_eq!(rejected(&bad), "max attempts");
    }

    #[test]
    fn load_level_guards_zero_parallelism() {
        let mut job = SparkJobSpec::emr("x", 8, 2);
        job.parallelism = 0;
        assert_eq!(job.load_level(), 8.0);
    }
}
