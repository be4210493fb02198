//! Job configuration.

use ipso_cluster::{
    CentralScheduler, ClusterError, ClusterSpec, EngineOptions, FaultModel, MemoryModel,
    RecoveryPolicy, SchedulerPolicy,
};
use ipso_sim::Distribution;

use crate::cost::JobCostModel;

/// Full configuration of one MapReduce job execution.
///
/// # Example
///
/// ```
/// use ipso_mapreduce::JobSpec;
///
/// let spec = JobSpec::emr("sort", 16);
/// assert_eq!(spec.cluster.workers, 16);
/// spec.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job label, used in traces.
    pub name: String,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Centralized scheduler cost model.
    pub scheduler: CentralScheduler,
    /// Dispatch-order policy of the central scheduler. [`SchedulerPolicy::Fifo`]
    /// (the default) reproduces the classic Hadoop order and every
    /// committed artifact.
    pub policy: SchedulerPolicy,
    /// Reducer-side memory model (drives the TeraSort spill burst).
    pub reducer_memory: MemoryModel,
    /// Task-time noise: each map task's time is multiplied by a draw.
    pub straggler: Distribution,
    /// Processing-rate calibration.
    pub cost: JobCostModel,
    /// When `true`, the reducer pulls each map task's output as soon as
    /// that task finishes (Hadoop's slow-start shuffle), so shuffle work
    /// overlaps the map phase and only the post-barrier remainder counts.
    /// The queueing of transfers at the single reducer — the paper's
    /// "queuing effect for result merging" — is simulated with a FIFO
    /// server. `false` (the default) charges the shuffle strictly after
    /// the barrier, as the paper's phase decomposition assumes.
    pub pipelined_shuffle: bool,
    /// Host-side options; `engine.threads` must be 1 (see
    /// [`EngineOptions`]).
    pub engine: EngineOptions,
    /// Fault injection model. Disabled by default; when disabled the run
    /// consumes zero extra RNG draws, so traces match fault-free builds
    /// byte for byte.
    pub faults: FaultModel,
    /// Recovery policy applied when faults fire: retry with capped
    /// exponential backoff, optional speculation, fail-fast budget.
    pub recovery: RecoveryPolicy,
    /// RNG seed: identical specs produce identical traces.
    pub seed: u64,
}

impl JobSpec {
    /// The paper's EMR setup with `n` workers and sensible defaults:
    /// Hadoop-like scheduler, 2 GB reducer memory, mild stragglers.
    pub fn emr(name: &str, n: u32) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            cluster: ClusterSpec::emr(n),
            scheduler: CentralScheduler::hadoop_like(),
            policy: SchedulerPolicy::Fifo,
            reducer_memory: MemoryModel::reducer_2gb(),
            straggler: Distribution::jitter(0.05),
            cost: JobCostModel::io_bound(),
            pipelined_shuffle: false,
            engine: EngineOptions::default(),
            faults: FaultModel::none(),
            recovery: RecoveryPolicy::hadoop_like(),
            seed: 42,
        }
    }

    /// Validates all constituent models.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] for the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        self.cluster.validate()?;
        self.scheduler.validate()?;
        self.reducer_memory.validate()?;
        self.straggler
            .validate()
            .map_err(|rule| ClusterError::invalid("straggler", rule))?;
        self.faults.validate()?;
        self.recovery.validate()?;
        self.cost.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(spec: &JobSpec) -> &'static str {
        match spec.validate() {
            Err(ClusterError::InvalidParameter { what, .. }) => what,
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn emr_defaults_validate() {
        assert!(JobSpec::emr("wordcount", 8).validate().is_ok());
    }

    #[test]
    fn invalid_cluster_fails_validation() {
        let mut spec = JobSpec::emr("x", 1);
        spec.cluster.workers = 0;
        assert_eq!(rejected(&spec), "cluster workers");
    }

    #[test]
    fn spec_is_deterministic_by_construction() {
        assert_eq!(JobSpec::emr("a", 4), JobSpec::emr("a", 4));
    }

    #[test]
    fn invalid_fault_or_recovery_settings_fail_validation() {
        let mut spec = JobSpec::emr("x", 1);
        spec.faults.task_fail_prob = 1.5;
        assert_eq!(rejected(&spec), "task failure probability");

        let mut spec = JobSpec::emr("x", 1);
        spec.recovery.max_attempts = 0;
        assert_eq!(rejected(&spec), "max attempts");
    }
}
