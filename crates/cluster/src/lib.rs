#![warn(missing_docs)]

//! Simulated cluster substrate for the IPSO reproduction.
//!
//! The paper runs its case studies on Amazon EC2 with EMR: one m4.4xlarge
//! master and up to ~200 m4.large workers. This crate replaces that
//! testbed with a first-principles performance model:
//!
//! * [`spec`] — machine and cluster specifications (cores, memory, disk
//!   and NIC bandwidth), with presets mirroring the paper's instances;
//! * [`network`] — transfer-time models: serialized master-side
//!   broadcast (the Orchestra/Collaborative-Filtering bottleneck) and
//!   the receive goodput of a shuffle under a TCP-incast penalty;
//! * [`scheduler`] — a centralized scheduler whose per-task dispatch cost
//!   grows with cluster size (the Hadoop/Spark scheduling bottleneck);
//! * [`memory`] — working-set versus capacity with spill-to-disk slowdown
//!   (the TeraSort `IN(n)` burst of paper Fig. 5);
//! * [`fault`] — fault injection (task failures, correlated node crashes)
//!   and recovery (retry with backoff, speculation, lineage recompute
//!   accounting) — re-executed work is charged into `Wo(n)`;
//! * [`exec`] — wave scheduling of task sets over executor pools;
//! * [`graph`] — the framework-agnostic task-graph IR both engines lower
//!   their jobs into;
//! * [`runtime`] — the single executor that runs a [`TaskGraph`]:
//!   straggler sampling (each task's time times a draw from an
//!   [`ipso_sim::Distribution`]; barrier synchronization makes the
//!   slowest task the one that matters), in-order wave scheduling,
//!   fault resolution, lineage recompute and Ws/Wp/Wo attribution in one
//!   place;
//! * [`metrics`] — phase breakdowns and task traces shared by the engines;
//! * [`error`] — the typed [`ClusterError`]: every `validate()` here and
//!   in both engines rejects with [`ClusterError::InvalidParameter`], and
//!   the engines' entry points return it.
//!
//! All randomness flows through [`ipso_sim::SimRng`] seeds, so every
//! simulated experiment is reproducible.

pub mod error;
pub mod exec;
pub mod fault;
pub mod graph;
pub mod memory;
pub mod metrics;
pub mod network;
pub mod runtime;
pub mod scheduler;
pub mod spec;

pub use error::ClusterError;
pub use exec::{run_wave_schedule, uniform_wave_makespan, EngineOptions, TaskSchedule};
pub use fault::{
    resolve_faults, FaultModel, FaultOutcome, FaultSummary, RecoveryEvent, RecoveryEventKind,
    RecoveryPolicy,
};
pub use graph::{IdealReference, LineageMode, StageNode, TaskGraph};
pub use memory::MemoryModel;
pub use metrics::{JobTrace, PhaseTimes, TaskRecord};
pub use network::NetworkModel;
pub use runtime::{execute, LineageRecompute, RunOutcome, RuntimeConfig, StageOutcome};
pub use scheduler::{CentralScheduler, SchedulerPolicy};
pub use spec::{ClusterSpec, NodeSpec};
