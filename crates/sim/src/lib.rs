#![warn(missing_docs)]

//! Simulation core for the IPSO reproduction.
//!
//! The paper's measurements come from Amazon EC2/EMR clusters; this crate
//! is the foundation of the simulated substitute. It provides:
//!
//! * [`time`] — a virtual-clock time type with the total order
//!   [`ServerPool`]'s min-heap of next-free times needs;
//! * [`resource`] — FIFO single/multi-server resources for modelling
//!   serialization points (master NIC, centralized scheduler, executor
//!   slots);
//! * [`rng`] — seeded random-number helpers so every simulated experiment
//!   is reproducible run-to-run;
//! * [`distribution`] — the task-time [`Distribution`] behind stragglers,
//!   failure times and the stochastic IPSO model, with sampling, mean and
//!   analytic `E[max]`;
//! * [`special`] — special functions for the analytic `E[max]`.
//!
//! # Example
//!
//! ```
//! use ipso_sim::{ServerPool, SimTime};
//!
//! // Three unit tasks on two executor slots: the third queues behind the
//! // first two, so the wave takes 2 s.
//! let mut slots = ServerPool::new(2);
//! for _ in 0..3 {
//!     slots.submit(SimTime::ZERO, 1.0);
//! }
//! assert_eq!(slots.makespan().as_secs(), 2.0);
//! ```

pub mod distribution;
pub mod resource;
pub mod rng;
pub mod special;
pub mod time;

pub use distribution::Distribution;
pub use resource::{FifoServer, ServerPool};
pub use rng::{stream_seed, SimRng};
pub use special::{harmonic, ln_beta, ln_gamma};
pub use time::SimTime;
