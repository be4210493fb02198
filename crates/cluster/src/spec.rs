//! Machine and cluster specifications.

use serde::{Deserialize, Serialize};

use crate::ClusterError;

/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * 1024;
/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * MIB;

/// Hardware description of a single node.
///
/// # Example
///
/// ```
/// use ipso_cluster::NodeSpec;
///
/// let worker = NodeSpec::m4_large();
/// assert_eq!(worker.cores, 2);
/// assert!(worker.net_bandwidth > 50e6); // ≥ 450 Mb/s
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Number of cores.
    pub cores: u32,
    /// Relative compute speed multiplier (1.0 = baseline worker core).
    pub core_speed: f64,
    /// RAM available to the framework, in bytes.
    pub memory_bytes: u64,
    /// Sequential disk bandwidth, bytes/s.
    pub disk_bandwidth: f64,
    /// NIC bandwidth, bytes/s.
    pub net_bandwidth: f64,
}

impl NodeSpec {
    /// The paper's worker instance (m4.large): 2 vCPU, 8 GiB RAM,
    /// ≥ 450 Mb/s network, EBS-backed disk ≈ 56 MB/s.
    pub fn m4_large() -> NodeSpec {
        NodeSpec {
            cores: 2,
            core_speed: 1.0,
            memory_bytes: 8 * GIB,
            disk_bandwidth: 56.0e6,
            net_bandwidth: 56.25e6, // 450 Mb/s
        }
    }

    /// The paper's master instance (m4.4xlarge): 16 vCPU, 64 GiB RAM,
    /// faster NIC (2 Gb/s class).
    pub fn m4_4xlarge() -> NodeSpec {
        NodeSpec {
            cores: 16,
            core_speed: 1.0,
            memory_bytes: 64 * GIB,
            disk_bandwidth: 250.0e6,
            net_bandwidth: 250.0e6, // 2 Gb/s
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.cores == 0 {
            return Err(ClusterError::invalid("node cores", "must be at least 1"));
        }
        if !(self.core_speed.is_finite() && self.core_speed > 0.0) {
            return Err(ClusterError::invalid("core speed", "must be positive"));
        }
        if self.memory_bytes == 0 {
            return Err(ClusterError::invalid("node memory", "must be positive"));
        }
        if !(self.disk_bandwidth.is_finite() && self.disk_bandwidth > 0.0) {
            return Err(ClusterError::invalid("disk bandwidth", "must be positive"));
        }
        if !(self.net_bandwidth.is_finite() && self.net_bandwidth > 0.0) {
            return Err(ClusterError::invalid(
                "network bandwidth",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A master/worker cluster, as in the paper's EMR deployments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker nodes (the scale-out degree `n`).
    pub workers: u32,
    /// Worker hardware.
    pub worker: NodeSpec,
    /// Master hardware.
    pub master: NodeSpec,
    /// Containers (executors) launched per worker. The paper configures
    /// the resource manager to launch exactly one container per unit.
    pub containers_per_worker: u32,
}

impl ClusterSpec {
    /// The paper's EMR configuration: one m4.4xlarge master plus
    /// `workers` m4.large processing units with one container each.
    pub fn emr(workers: u32) -> ClusterSpec {
        ClusterSpec {
            workers,
            worker: NodeSpec::m4_large(),
            master: NodeSpec::m4_4xlarge(),
            containers_per_worker: 1,
        }
    }

    /// Total parallel processing slots.
    pub fn total_slots(&self) -> u32 {
        self.workers * self.containers_per_worker
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.workers == 0 {
            return Err(ClusterError::invalid(
                "cluster workers",
                "must be at least 1",
            ));
        }
        if self.containers_per_worker == 0 {
            return Err(ClusterError::invalid(
                "worker containers",
                "must be at least 1",
            ));
        }
        self.worker.validate()?;
        self.master.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(NodeSpec::m4_large().validate().is_ok());
        assert!(NodeSpec::m4_4xlarge().validate().is_ok());
        assert!(ClusterSpec::emr(16).validate().is_ok());
    }

    #[test]
    fn master_outclasses_worker() {
        let w = NodeSpec::m4_large();
        let m = NodeSpec::m4_4xlarge();
        assert!(m.cores > w.cores);
        assert!(m.memory_bytes > w.memory_bytes);
        assert!(m.net_bandwidth > w.net_bandwidth);
    }

    #[test]
    fn slots_multiply() {
        let mut c = ClusterSpec::emr(8);
        assert_eq!(c.total_slots(), 8);
        c.containers_per_worker = 2;
        assert_eq!(c.total_slots(), 16);
    }

    fn rejected(result: Result<(), ClusterError>) -> &'static str {
        match result {
            Err(ClusterError::InvalidParameter { what, .. }) => what,
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = ClusterSpec::emr(0);
        assert_eq!(rejected(c.validate()), "cluster workers");
        c = ClusterSpec::emr(1);
        c.containers_per_worker = 0;
        assert_eq!(rejected(c.validate()), "worker containers");
        let mut n = NodeSpec::m4_large();
        n.cores = 0;
        assert_eq!(rejected(n.validate()), "node cores");
        n = NodeSpec::m4_large();
        n.net_bandwidth = 0.0;
        assert_eq!(rejected(n.validate()), "network bandwidth");
        c = ClusterSpec::emr(1);
        c.master.memory_bytes = 0;
        assert_eq!(rejected(c.validate()), "node memory");
    }

    #[test]
    fn serde_roundtrip() {
        let c = ClusterSpec::emr(4);
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
