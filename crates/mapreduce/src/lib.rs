#![warn(missing_docs)]

//! A miniature MapReduce engine running on the simulated cluster.
//!
//! The paper's single-stage case studies (QMC-Pi, WordCount, Sort,
//! TeraSort) run on Hadoop MapReduce configured with *one container per
//! processing unit* and a *single reducer with a synchronization barrier*.
//! This crate reproduces that execution model:
//!
//! * user code implements [`api::Mapper`] / [`api::Reducer`] and really
//!   executes over really generated records (outputs are checked for
//!   correctness in tests — the engine is not a stub);
//! * wall-clock *time* is charged by a calibrated cost model
//!   ([`cost::JobCostModel`]) driven by the nominal data volumes, so a
//!   laptop can sweep `n` up to hundreds of simulated 128 MB shards while
//!   executing smaller samples of real records (see
//!   [`split::InputSplit::sample_fraction`]);
//! * both execution modes of the paper are provided: the scale-out run
//!   ([`engine::try_run_scale_out`]) and the sequential-execution reference
//!   model defining the speedup numerator ([`engine::run_sequential`]);
//! * [`measure`] converts paired runs into the `RunMeasurement`
//!   decomposition the IPSO analysis consumes.
//!
//! The division of labour mirrors Section V of the paper: the map phase is
//! the parallel portion, shuffle + merge + reduce form the serial merging
//! portion, and overheads present only in the scale-out run (job setup,
//! dispatch serialization, barrier skew) constitute `Wo(n)`.

pub mod api;
pub mod config;
pub mod cost;
mod datapath;
pub mod engine;
pub mod measure;
pub mod plan;
pub mod split;

pub use api::{Mapper, OutputScaling, Reducer, Sizeable};
pub use config::JobSpec;
pub use cost::JobCostModel;
pub use engine::{run_sequential, try_run_scale_out, JobRun};
pub use measure::{measurement_from_runs, ScalingSweep};
pub use plan::plan_scale_out;
pub use split::InputSplit;
