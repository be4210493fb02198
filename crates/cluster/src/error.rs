//! Typed errors for cluster-model construction and fault recovery.

use std::fmt;

/// Errors produced by the cluster models: invalid parameters at
/// construction time, and unrecoverable failures surfaced by the fault
/// recovery layer at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A model parameter was outside its valid range.
    InvalidParameter {
        /// Which parameter was rejected (e.g. `"pareto shape"`).
        what: &'static str,
        /// The violated constraint, rendered for display.
        message: String,
    },
    /// A task failed on every allowed attempt; the job cannot complete.
    RetriesExhausted {
        /// The task that could not complete.
        task: u32,
        /// Attempts consumed — equal to the policy's `max_attempts`.
        attempts: u32,
    },
    /// The job burned more wasted work than its fail-fast budget allows.
    WastedWorkExceeded {
        /// Wasted work accumulated so far, seconds.
        wasted: f64,
        /// The budget that was exceeded, seconds.
        budget: f64,
    },
}

impl ClusterError {
    /// A [`ClusterError::InvalidParameter`] for `what`.
    pub fn invalid(what: &'static str, message: impl Into<String>) -> ClusterError {
        ClusterError::InvalidParameter {
            what,
            message: message.into(),
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidParameter { what, message } => {
                write!(f, "invalid {what}: {message}")
            }
            ClusterError::RetriesExhausted { task, attempts } => {
                write!(f, "task {task} failed all {attempts} attempts")
            }
            ClusterError::WastedWorkExceeded { wasted, budget } => {
                write!(
                    f,
                    "wasted work {wasted:.3} s exceeds the fail-fast budget of {budget:.3} s"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClusterError::RetriesExhausted {
            task: 7,
            attempts: 4,
        };
        assert_eq!(e.to_string(), "task 7 failed all 4 attempts");
        let e = ClusterError::WastedWorkExceeded {
            wasted: 12.5,
            budget: 10.0,
        };
        assert!(e.to_string().contains("12.500"));
        let e = ClusterError::InvalidParameter {
            what: "pareto shape",
            message: "must exceed 1".into(),
        };
        assert!(e.to_string().starts_with("invalid pareto shape"));
    }
}
