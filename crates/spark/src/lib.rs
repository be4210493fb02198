#![warn(missing_docs)]

//! A miniature Spark-like stage/DAG engine on the simulated cluster.
//!
//! The paper's multi-stage case studies (Bayes, Random Forest, SVM,
//! NWeight) run on Spark, configured by a problem size `N` (nominal tasks
//! per stage) and a parallel degree `m` (executors). This crate reproduces
//! the execution structure the paper measures:
//!
//! * jobs are DAGs of stages separated by wide (shuffle) dependencies,
//!   each stage running `tasks` over `m` executors in waves
//!   ([`stage::StageSpec`], [`job::SparkJobSpec`]);
//! * the driver dispatches every task centrally, with first-wave
//!   scheduling and deserialization costs that dominate at small `N/m` —
//!   the paper's explanation for why larger per-executor load improves
//!   fixed-time speedups ([`engine`]);
//! * broadcast variables are pushed by the driver to each executor
//!   serially, the Collaborative-Filtering pathology of \[12\];
//! * executor memory pressure from cached partitions slows tasks once the
//!   per-executor working set exceeds RAM — why `N/m = 8` underperforms
//!   `N/m = 4` in the paper's Fig. 9;
//! * every run emits a Spark-style JSON event log ([`eventlog`]) from
//!   which stage latencies are extracted, mirroring the paper's
//!   measurement methodology.

pub mod dag;
pub mod engine;
pub mod eventlog;
pub mod job;
pub mod lower;
pub mod measure;
pub mod stage;

pub use dag::{assign_levels, run_dag};
pub use engine::{run_sequential_reference, try_run_job, SparkRun};
pub use eventlog::{parse_event_log, write_event_log, SparkEvent};
pub use job::SparkJobSpec;
pub use lower::{lower_chain, lower_levels};
pub use measure::{sweep_fixed_size, sweep_fixed_time, SparkSweepPoint};
pub use stage::StageSpec;
