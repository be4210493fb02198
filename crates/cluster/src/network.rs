//! Network transfer-time models.
//!
//! Two patterns dominate the paper's case studies:
//!
//! * **broadcast** — the master pushes the same payload to every worker.
//!   Without a broadcast tree the master NIC serializes the `n` unicasts,
//!   so the cost grows *linearly in `n`* — exactly the overhead that gives
//!   Collaborative Filtering its `q(n) ∝ n²` pathology (\[12\], Fig. 8);
//! * **shuffle / incast** — `n` senders push to one receiver. Beyond raw
//!   bytes the receiver suffers TCP incast collapse as fan-in grows
//!   (\[13\]), modelled as a goodput penalty increasing with `n`.

use crate::spec::ClusterSpec;

/// Per-message latency floor, seconds.
const LATENCY: f64 = 0.5e-3;

/// Incast goodput degradation per additional concurrent sender
/// (dimensionless): with fan-in `n` the effective receive goodput is
/// `worker_bandwidth / (1 + INCAST_COEFFICIENT·(n−1))` — the paper-era
/// mild incast.
const INCAST_COEFFICIENT: f64 = 0.02;

/// Transfer-time model for a master/worker cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Master NIC bandwidth, bytes/s.
    pub master_bandwidth: f64,
    /// Worker NIC bandwidth, bytes/s.
    pub worker_bandwidth: f64,
    /// `true` to broadcast over a binomial tree (cost ~ log₂ n) instead of
    /// serialized master unicasts (cost ~ n). The paper's Spark era used
    /// serialized HTTP broadcast, which is the pathological default.
    pub tree_broadcast: bool,
}

impl NetworkModel {
    /// Builds the model from a cluster specification with the paper-era
    /// defaults: serialized broadcast, mild incast.
    pub fn from_cluster(spec: &ClusterSpec) -> NetworkModel {
        NetworkModel {
            master_bandwidth: spec.master.net_bandwidth,
            worker_bandwidth: spec.worker.net_bandwidth,
            tree_broadcast: false,
        }
    }

    /// Time for the master to broadcast `bytes` to `n` workers.
    ///
    /// Serialized unicast: `n · (LATENCY + bytes/master_bw)` — linear in
    /// `n`. Tree broadcast: `ceil(log₂(n+1))` rounds of worker-bandwidth
    /// transfers.
    pub fn broadcast_time(&self, bytes: u64, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        if ipso_obs::enabled() {
            ipso_obs::counter_add("network.broadcasts", 1);
            ipso_obs::counter_add("network.broadcast_bytes", bytes * u64::from(n));
        }
        if self.tree_broadcast {
            let rounds = (n as f64 + 1.0).log2().ceil();
            rounds * (LATENCY + bytes as f64 / self.worker_bandwidth)
        } else {
            n as f64 * (LATENCY + bytes as f64 / self.master_bandwidth)
        }
    }

    /// Effective receive goodput (bytes/s) at fan-in `n`.
    pub fn incast_goodput(&self, n: u32) -> f64 {
        self.worker_bandwidth / (1.0 + INCAST_COEFFICIENT * (n.max(1) as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MIB;

    fn model() -> NetworkModel {
        NetworkModel::from_cluster(&ClusterSpec::emr(8))
    }

    #[test]
    fn serialized_broadcast_is_linear_in_n() {
        let m = model();
        let t10 = m.broadcast_time(10 * MIB, 10);
        let t20 = m.broadcast_time(10 * MIB, 20);
        assert!((t20 / t10 - 2.0).abs() < 1e-9);
        assert_eq!(m.broadcast_time(MIB, 0), 0.0);
    }

    #[test]
    fn tree_broadcast_is_logarithmic() {
        let mut m = model();
        m.tree_broadcast = true;
        let t15 = m.broadcast_time(10 * MIB, 15);
        let t255 = m.broadcast_time(10 * MIB, 255);
        // log2(16) = 4 rounds vs log2(256) = 8 rounds.
        assert!((t255 / t15 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tree_beats_serial_at_scale() {
        let serial = model();
        let mut tree = model();
        tree.tree_broadcast = true;
        assert!(tree.broadcast_time(100 * MIB, 60) < serial.broadcast_time(100 * MIB, 60));
    }

    #[test]
    fn incast_goodput_falls_with_fanin() {
        let m = model();
        assert!(m.incast_goodput(16) < m.incast_goodput(4));
        assert_eq!(m.incast_goodput(1), m.worker_bandwidth);
    }
}
