//! The centralized job scheduler model.
//!
//! Hadoop and Spark dispatch every task from a single master process.
//! [Qu et al., arXiv:1602.01412] observe that the resulting task-dispatch
//! rate requirement grows quadratically with cluster size, turning the
//! scheduler into a scalability bottleneck — one of the paper's canonical
//! sources of scale-out-induced workload.
//!
//! [`CentralScheduler`] charges each task a dispatch cost
//! `base + contention · outstanding`, where `outstanding` counts tasks
//! dispatched earlier in the same burst: the scheduler's internal state
//! (locks, heartbeat queues, RPC backlog) grows as a burst progresses.
//! Dispatching `k` tasks back-to-back therefore costs
//! `k·base + contention·k(k−1)/2` — linear in `k` per task and quadratic
//! per burst, matching the reference.

use crate::error::ClusterError;

/// Order in which the central scheduler dispatches a burst of tasks.
///
/// The runtime dispatches every burst in submission (task index) order,
/// Hadoop's and Spark's default. The type and its one variant are kept
/// only because the benchmark package assigns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Dispatch tasks in submission (index) order.
    Fifo,
}

/// Dispatch-cost model of a centralized scheduler.
///
/// # Example
///
/// ```
/// use ipso_cluster::CentralScheduler;
///
/// let sched = CentralScheduler::hadoop_like();
/// let burst = sched.dispatch_burst_time(100);
/// let single = sched.dispatch_burst_time(1);
/// assert!(burst > 100.0 * single); // superlinear in burst size
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralScheduler {
    /// Fixed cost to dispatch one task (serialization, RPC), seconds.
    pub base_dispatch: f64,
    /// Additional cost per already-dispatched task in the burst, seconds.
    pub contention: f64,
    /// One-time job setup cost (application master launch, container
    /// negotiation), seconds.
    pub job_setup: f64,
}

impl CentralScheduler {
    /// Parameters approximating a 2019-era Hadoop/YARN master: ~5 ms per
    /// task dispatch, weak contention, multi-second AM startup.
    pub fn hadoop_like() -> CentralScheduler {
        CentralScheduler {
            base_dispatch: 5e-3,
            contention: 20e-6,
            job_setup: 3.0,
        }
    }

    /// Parameters approximating a Spark driver: ~1 ms per task (tasks are
    /// threads, not containers), visible contention, fast job setup.
    pub fn spark_like() -> CentralScheduler {
        CentralScheduler {
            base_dispatch: 1e-3,
            contention: 15e-6,
            job_setup: 0.8,
        }
    }

    /// An idealized distributed scheduler with negligible, constant
    /// dispatch cost — for ablations against the centralized design.
    pub fn idealized() -> CentralScheduler {
        CentralScheduler {
            base_dispatch: 1e-5,
            contention: 0.0,
            job_setup: 0.1,
        }
    }

    /// Cost for the `i`-th task of a burst (0-based).
    pub fn dispatch_time(&self, already_dispatched: u32) -> f64 {
        ipso_obs::counter_add("scheduler.dispatches", 1);
        self.base_dispatch + self.contention * already_dispatched as f64
    }

    /// Total master-side time to dispatch a burst of `k` tasks:
    /// `k·base + contention·k(k−1)/2`.
    pub fn dispatch_burst_time(&self, k: u32) -> f64 {
        let kf = k as f64;
        kf * self.base_dispatch + self.contention * kf * (kf - 1.0) / 2.0
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on a violated range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        for (what, v) in [
            ("base_dispatch", self.base_dispatch),
            ("contention", self.contention),
            ("job_setup", self.job_setup),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ClusterError::invalid(what, "must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

impl Default for CentralScheduler {
    fn default() -> Self {
        CentralScheduler::hadoop_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_cost_matches_summation() {
        let s = CentralScheduler::spark_like();
        let direct: f64 = (0..50).map(|i| s.dispatch_time(i)).sum();
        assert!((s.dispatch_burst_time(50) - direct).abs() < 1e-12);
    }

    #[test]
    fn burst_cost_is_superlinear() {
        let s = CentralScheduler::hadoop_like();
        let t100 = s.dispatch_burst_time(100);
        let t200 = s.dispatch_burst_time(200);
        assert!(t200 > 2.0 * t100);
    }

    #[test]
    fn idealized_scheduler_is_linear() {
        let s = CentralScheduler::idealized();
        let t100 = s.dispatch_burst_time(100);
        let t200 = s.dispatch_burst_time(200);
        assert!((t200 - 2.0 * t100).abs() < 1e-12);
    }

    #[test]
    fn empty_burst_is_free() {
        assert_eq!(CentralScheduler::hadoop_like().dispatch_burst_time(0), 0.0);
    }

    #[test]
    fn presets_validate() {
        assert!(CentralScheduler::hadoop_like().validate().is_ok());
        assert!(CentralScheduler::spark_like().validate().is_ok());
        assert!(CentralScheduler::idealized().validate().is_ok());
        let bad = CentralScheduler {
            base_dispatch: -1.0,
            ..CentralScheduler::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(ClusterError::InvalidParameter {
                what: "base_dispatch",
                ..
            })
        ));
    }

    #[test]
    fn spark_dispatch_is_cheaper_than_hadoop() {
        assert!(
            CentralScheduler::spark_like().dispatch_burst_time(64)
                < CentralScheduler::hadoop_like().dispatch_burst_time(64)
        );
    }
}
