//! Machine and cluster specifications.

use crate::ClusterError;

/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * 1024;

/// I/O description of a single node. Compute rates are not a node
/// property here: each workload's cost model calibrates its own.
///
/// # Example
///
/// ```
/// use ipso_cluster::NodeSpec;
///
/// let worker = NodeSpec::m4_large();
/// assert!(worker.net_bandwidth > 50e6); // ≥ 450 Mb/s
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
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
            disk_bandwidth: 56.0e6,
            net_bandwidth: 56.25e6, // 450 Mb/s
        }
    }

    /// The paper's master instance (m4.4xlarge): 16 vCPU, 64 GiB RAM,
    /// faster NIC (2 Gb/s class).
    pub fn m4_4xlarge() -> NodeSpec {
        NodeSpec {
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes (the scale-out degree `n`).
    pub workers: u32,
    /// Worker hardware.
    pub worker: NodeSpec,
    /// Master hardware.
    pub master: NodeSpec,
}

impl ClusterSpec {
    /// The paper's EMR configuration: one m4.4xlarge master plus
    /// `workers` m4.large processing units with one container each.
    pub fn emr(workers: u32) -> ClusterSpec {
        ClusterSpec {
            workers,
            worker: NodeSpec::m4_large(),
            master: NodeSpec::m4_4xlarge(),
        }
    }

    /// Total parallel processing slots: the paper configures the
    /// resource manager to launch exactly one container per worker.
    pub fn total_slots(&self) -> u32 {
        self.workers
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
        assert!(m.disk_bandwidth > w.disk_bandwidth);
        assert!(m.net_bandwidth > w.net_bandwidth);
    }

    #[test]
    fn one_slot_per_worker() {
        assert_eq!(ClusterSpec::emr(8).total_slots(), 8);
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
        let mut n = NodeSpec::m4_large();
        n.net_bandwidth = 0.0;
        assert_eq!(rejected(n.validate()), "network bandwidth");
        c = ClusterSpec::emr(1);
        c.master.disk_bandwidth = 0.0;
        assert_eq!(rejected(c.validate()), "disk bandwidth");
    }
}
