//! Stage specifications.

use ipso_cluster::ClusterError;
use serde::{Deserialize, Serialize};

/// One stage of a Spark-like job.
///
/// A stage runs `tasks` identical tasks over the available executors in
/// waves. Wide dependencies (shuffles) and driver broadcasts are attached
/// to the stage boundary.
///
/// # Example
///
/// ```
/// use ipso_spark::StageSpec;
///
/// let map_stage = StageSpec::new("tokenize", 64)
///     .with_task_compute(0.8)
///     .with_input_bytes(32 * 1024 * 1024)
///     .with_shuffle_output(4 * 1024 * 1024);
/// assert_eq!(map_stage.tasks, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage label (appears in the event log).
    pub name: String,
    /// Number of tasks in this stage.
    pub tasks: u32,
    /// Pure compute per task at unit core speed, seconds.
    pub task_compute: f64,
    /// Input bytes read per task (from cache, DFS or the previous
    /// shuffle).
    pub input_bytes_per_task: u64,
    /// Bytes broadcast from the driver to *every* executor before the
    /// stage starts (0 = no broadcast).
    pub broadcast_bytes: u64,
    /// Shuffle output written per task at the stage boundary (0 = result
    /// stage / narrow dependency).
    pub shuffle_output_per_task: u64,
    /// Whether the stage's partitions are cached (counted against
    /// executor memory).
    pub caches_input: bool,
}

impl StageSpec {
    /// Creates a stage with the given task count and all costs zeroed.
    pub fn new(name: &str, tasks: u32) -> StageSpec {
        StageSpec {
            name: name.to_string(),
            tasks,
            task_compute: 0.0,
            input_bytes_per_task: 0,
            broadcast_bytes: 0,
            shuffle_output_per_task: 0,
            caches_input: false,
        }
    }

    /// Sets per-task compute seconds.
    pub fn with_task_compute(mut self, secs: f64) -> StageSpec {
        self.task_compute = secs;
        self
    }

    /// Sets per-task input bytes.
    pub fn with_input_bytes(mut self, bytes: u64) -> StageSpec {
        self.input_bytes_per_task = bytes;
        self
    }

    /// Sets the driver broadcast preceding this stage.
    pub fn with_broadcast(mut self, bytes: u64) -> StageSpec {
        self.broadcast_bytes = bytes;
        self
    }

    /// Sets per-task shuffle output at this stage's boundary.
    pub fn with_shuffle_output(mut self, bytes: u64) -> StageSpec {
        self.shuffle_output_per_task = bytes;
        self
    }

    /// Marks the stage's input partitions as cached in executor memory.
    pub fn with_cached_input(mut self, cached: bool) -> StageSpec {
        self.caches_input = cached;
        self
    }

    /// Total shuffle bytes this stage writes.
    pub fn total_shuffle_output(&self) -> u64 {
        self.shuffle_output_per_task * u64::from(self.tasks)
    }

    /// Records the stage's static shape into the global metrics
    /// registry. No-op unless tracing is enabled.
    pub fn record_metrics(&self) {
        if !ipso_obs::enabled() {
            return;
        }
        ipso_obs::counter_add("spark.stages", 1);
        ipso_obs::counter_add("spark.tasks_launched", u64::from(self.tasks));
        ipso_obs::counter_add("spark.broadcast_bytes", self.broadcast_bytes);
        ipso_obs::counter_add("spark.shuffle_bytes", self.total_shuffle_output());
        ipso_obs::histogram_record("spark.stage_tasks", u64::from(self.tasks));
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.tasks == 0 {
            return Err(ClusterError::invalid(
                "stage",
                format!("'{}' must have at least one task", self.name),
            ));
        }
        if !self.task_compute.is_finite() || self.task_compute < 0.0 {
            return Err(ClusterError::invalid(
                "stage",
                format!("'{}' compute must be finite and >= 0", self.name),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let s = StageSpec::new("s", 8)
            .with_task_compute(1.0)
            .with_input_bytes(100)
            .with_broadcast(5)
            .with_shuffle_output(7)
            .with_cached_input(true);
        assert_eq!(s.tasks, 8);
        assert_eq!(s.task_compute, 1.0);
        assert_eq!(s.input_bytes_per_task, 100);
        assert_eq!(s.broadcast_bytes, 5);
        assert_eq!(s.shuffle_output_per_task, 7);
        assert!(s.caches_input);
        assert_eq!(s.total_shuffle_output(), 56);
    }

    #[test]
    fn validation() {
        assert!(StageSpec::new("ok", 1).validate().is_ok());
        let err = StageSpec::new("zero", 0).validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid stage: 'zero' must have at least one task"
        );
        let mut s = StageSpec::new("neg", 1);
        s.task_compute = -1.0;
        assert!(matches!(
            s.validate(),
            Err(ClusterError::InvalidParameter { what: "stage", .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let s = StageSpec::new("x", 3).with_task_compute(0.5);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<StageSpec>(&json).unwrap(), s);
    }
}
