//! Per-workload processing-rate calibration.
//!
//! The engine executes real records but charges virtual time from data
//! volumes through these rates. Defaults approximate 2019-era m4.large
//! workers processing 128 MB HDFS blocks.

use ipso_cluster::ClusterError;

/// Fixed sequential-job initialization time (JVM startup etc.), s. Every
/// workload's cost model charges the same 2 s.
pub(crate) const SEQ_INIT: f64 = 2.0;

/// Processing rates for one MapReduce job class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCostModel {
    /// Map-side processing rate, input bytes/s per processing unit.
    pub map_rate: f64,
    /// Shuffle-stage service rate at the reducer (pulling mapper output
    /// from DFS), bytes/s, before any incast penalty.
    pub shuffle_rate: f64,
    /// Merge-stage rate (in-memory external merge of sorted runs),
    /// bytes/s.
    pub merge_rate: f64,
    /// Final reduce-stage rate, bytes/s of reduce input.
    pub reduce_rate: f64,
    /// Fixed reducer-side setup cost charged once per job in the merge
    /// phase (reduce container launch, sort buffers), s. For jobs with
    /// tiny intermediate data (WordCount, QMC) this constant dominates the
    /// serial portion, which is why the paper measures `IN(n) ≈ 1` for
    /// them.
    pub serial_setup: f64,
}

impl JobCostModel {
    /// A CPU-light, IO-bound profile (Sort/TeraSort-like): mapping is
    /// mostly a pass-through, merging dominates.
    pub fn io_bound() -> JobCostModel {
        JobCostModel {
            map_rate: 80.0e6,
            shuffle_rate: 90.0e6,
            merge_rate: 45.0e6,
            reduce_rate: 120.0e6,
            serial_setup: 1.0,
        }
    }

    /// Validates rate ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on a violated range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        for (what, v) in [
            ("map_rate", self.map_rate),
            ("shuffle_rate", self.shuffle_rate),
            ("merge_rate", self.merge_rate),
            ("reduce_rate", self.reduce_rate),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ClusterError::invalid(what, "must be finite and positive"));
            }
        }
        if !self.serial_setup.is_finite() || self.serial_setup < 0.0 {
            return Err(ClusterError::invalid(
                "serial_setup",
                "must be finite and >= 0",
            ));
        }
        Ok(())
    }

    /// Map-task time for `bytes` of nominal input.
    pub fn map_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.map_rate
    }

    /// Merge-stage time for `bytes` of reduce input (before any memory
    /// slowdown multiplier).
    pub fn merge_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.merge_rate
    }

    /// Reduce-stage time for `bytes` of reduce input.
    pub fn reduce_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.reduce_rate
    }

    /// Shuffle-stage time for `bytes` at the reducer without network
    /// effects (the sequential execution path: local DFS reads).
    pub fn shuffle_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.shuffle_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn preset_validates() {
        assert!(JobCostModel::io_bound().validate().is_ok());
    }

    #[test]
    fn map_time_for_128mb_block_is_seconds() {
        let c = JobCostModel::io_bound();
        let t = c.map_time(128 * MIB);
        assert!((1.0..3.0).contains(&t), "t = {t}");
    }

    #[test]
    fn rates_divide_correctly() {
        let c = JobCostModel::io_bound();
        assert!((c.merge_time(45_000_000) - 1.0).abs() < 1e-9);
        assert!((c.reduce_time(120_000_000) - 1.0).abs() < 1e-9);
        assert!((c.shuffle_time(90_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_rates() {
        let mut c = JobCostModel::io_bound();
        c.map_rate = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ClusterError::InvalidParameter {
                what: "map_rate",
                ..
            })
        ));
        c = JobCostModel::io_bound();
        c.serial_setup = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ClusterError::InvalidParameter {
                what: "serial_setup",
                ..
            })
        ));
    }
}
