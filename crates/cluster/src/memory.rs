//! Memory capacity and spill-to-disk slowdown.
//!
//! The paper's TeraSort case (Fig. 5) shows the internal scaling factor
//! bursting by over 30% — its slope jumping from 0.15 to 0.25 — when the
//! reducer's input outgrows its ~2 GB of preconfigured memory around
//! `n ≈ 15` (15 × 128 MB ≈ 1.9 GB) and disk I/O joins the merge path.
//! [`MemoryModel`] reproduces that mechanism: processing below capacity
//! runs at memory speed; the overflow fraction pays a disk-bandwidth
//! round-trip plus a one-time regime-switch penalty.

use serde::{Deserialize, Serialize};

use crate::ClusterError;

/// Working-set versus capacity model for one processing unit.
///
/// # Example
///
/// ```
/// use ipso_cluster::MemoryModel;
///
/// let m = MemoryModel::reducer_2gb();
/// // Below capacity the multiplier is exactly 1.
/// assert_eq!(m.slowdown(1 << 30), 1.0);
/// // Over capacity the merge slows down.
/// assert!(m.slowdown(4 << 30) > 1.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Usable memory for the operation, bytes.
    pub capacity_bytes: u64,
    /// Relative cost of processing one spilled byte versus one in-memory
    /// byte (disk write + read back during external merge).
    pub spill_cost_factor: f64,
    /// One-time fractional penalty added the moment spilling first occurs
    /// (external-sort restructuring). The paper observes a ~30% burst.
    pub overflow_burst: f64,
}

impl MemoryModel {
    /// The paper's preconfigured reducer memory (~2 GB) with a disk merge
    /// path calibrated to reproduce the 0.15 → 0.25 slope change.
    pub fn reducer_2gb() -> MemoryModel {
        MemoryModel {
            capacity_bytes: 2 * 1024 * 1024 * 1024,
            spill_cost_factor: 0.67,
            overflow_burst: 0.30,
        }
    }

    /// A model with unlimited memory (never spills).
    pub fn unlimited() -> MemoryModel {
        MemoryModel {
            capacity_bytes: u64::MAX,
            spill_cost_factor: 0.0,
            overflow_burst: 0.0,
        }
    }

    /// Whether a working set of `bytes` spills.
    pub fn spills(&self, bytes: u64) -> bool {
        bytes > self.capacity_bytes
    }

    /// Multiplier on processing time for a working set of `bytes`:
    ///
    /// * `1.0` when the set fits;
    /// * `1 + burst + spill_cost · overflow_fraction` when it does not,
    ///   where `overflow_fraction = (bytes − capacity)/bytes`.
    ///
    /// The multiplier is continuous-from-above in the overflow fraction
    /// but jumps by `overflow_burst` at the capacity boundary, producing
    /// the step-wise `IN(n)` of Fig. 5.
    pub fn slowdown(&self, bytes: u64) -> f64 {
        if !self.spills(bytes) {
            return 1.0;
        }
        let overflow = (bytes - self.capacity_bytes) as f64 / bytes as f64;
        1.0 + self.overflow_burst + self.spill_cost_factor * overflow
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.capacity_bytes == 0 {
            return Err(ClusterError::invalid("memory capacity", "must be positive"));
        }
        if !self.spill_cost_factor.is_finite() || self.spill_cost_factor < 0.0 {
            return Err(ClusterError::invalid(
                "spill cost factor",
                "must be finite and >= 0",
            ));
        }
        if !self.overflow_burst.is_finite() || self.overflow_burst < 0.0 {
            return Err(ClusterError::invalid(
                "overflow burst",
                "must be finite and >= 0",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn no_slowdown_below_capacity() {
        let m = MemoryModel::reducer_2gb();
        assert_eq!(m.slowdown(0), 1.0);
        assert_eq!(m.slowdown(2 * GIB), 1.0);
        assert!(!m.spills(2 * GIB));
    }

    #[test]
    fn burst_at_the_boundary() {
        let m = MemoryModel::reducer_2gb();
        let just_over = m.slowdown(2 * GIB + 1);
        assert!(
            just_over > 1.29 && just_over < 1.31,
            "just_over = {just_over}"
        );
        assert!(m.spills(2 * GIB + 1));
    }

    #[test]
    fn slowdown_grows_with_overflow() {
        let m = MemoryModel::reducer_2gb();
        let s4 = m.slowdown(4 * GIB);
        let s8 = m.slowdown(8 * GIB);
        let s64 = m.slowdown(64 * GIB);
        assert!(s4 < s8 && s8 < s64);
        // Asymptote: 1 + burst + spill_cost.
        assert!(s64 < 1.0 + 0.30 + 0.67);
    }

    #[test]
    fn unlimited_never_spills() {
        let m = MemoryModel::unlimited();
        assert_eq!(m.slowdown(u64::MAX / 2), 1.0);
        assert!(!m.spills(u64::MAX / 2));
    }

    #[test]
    fn terasort_regime_switch_near_n15() {
        // 128 MB per node: capacity crossed between n = 15 and n = 16.
        let m = MemoryModel::reducer_2gb();
        let shard = 128 * 1024 * 1024u64;
        assert!(!m.spills(15 * shard));
        assert!(m.spills(16 * shard + 1));
    }

    #[test]
    fn validation() {
        assert!(MemoryModel::reducer_2gb().validate().is_ok());
        let bad = MemoryModel {
            capacity_bytes: 0,
            ..MemoryModel::reducer_2gb()
        };
        assert!(matches!(
            bad.validate(),
            Err(ClusterError::InvalidParameter {
                what: "memory capacity",
                ..
            })
        ));
        let bad = MemoryModel {
            spill_cost_factor: -0.1,
            ..MemoryModel::reducer_2gb()
        };
        assert!(matches!(
            bad.validate(),
            Err(ClusterError::InvalidParameter {
                what: "spill cost factor",
                ..
            })
        ));
    }
}
