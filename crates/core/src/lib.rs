#![warn(missing_docs)]

//! # IPSO — In-Proportion and Scale-Out-induced scaling model
//!
//! A from-scratch implementation of the scaling model of
//! *"IPSO: A Scaling Model for Data-Intensive Applications"*
//! (Li, Duan, Nguyen, Che, Lei, Jiang — ICDCS 2019).
//!
//! IPSO generalizes Amdahl's, Gustafson's and Sun-Ni's laws for scale-out,
//! data-intensive workloads along two axes:
//!
//! * **in-proportion scaling** — the serial (merge) portion of a job grows
//!   with the parallelizable portion: `Ws(n) = Ws(1)·IN(n)`;
//! * **scale-out-induced scaling** — scaling out itself induces collective
//!   overhead: `Wo(n) = (Wp(n)/n)·q(n)`.
//!
//! The deterministic speedup (paper Eq. 10) is
//!
//! ```text
//!          η·EX(n) + (1−η)·IN(n)
//! S(n) = ─────────────────────────────────────────
//!        η·EX(n)/n·(1 + q(n)) + (1−η)·IN(n)
//! ```
//!
//! # Quick start
//!
//! ```
//! use ipso::model::IpsoModel;
//! use ipso::factors::ScalingFactor;
//!
//! # fn main() -> Result<(), ipso::ModelError> {
//! // A fixed-time workload whose merge phase grows in proportion to the
//! // external scaling (the paper's Sort), with no scale-out-induced
//! // overhead.
//! let model = IpsoModel::builder(0.9)
//!     .external(ScalingFactor::linear())
//!     .internal(ScalingFactor::affine(0.36, 0.64))
//!     .build()?;
//!
//! let s = model.speedup(64.0)?;
//! assert!(s > 1.0 && s < 64.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate layout
//!
//! * [`factors`] — scaling-factor functions `EX(n)`, `IN(n)`, `q(n)`.
//! * [`model`] — the deterministic IPSO model (Eq. 10) and its builder.
//! * [`asymptotic`] — the highest-order-term form (Eqs. 14–17).
//! * [`classic`] — Amdahl's, Gustafson's and Sun-Ni's laws (Eq. 12).
//! * [`stochastic`] — the statistic model (Eqs. 7–8, 18) driven by task-time
//!   distributions or samples.
//! * [`taxonomy`] — the solution-space classification of Figs. 2–3
//!   (`It … IVt`, `Is … IVs`) with closed-form bounds.
//! * [`measurement`] — measurement containers (speedup points, per-phase
//!   time breakdowns).
//! * [`estimate`] — estimating `EX`, `IN`, `q` from phase breakdowns.
//! * [`predict`] — the Section-V prediction pipeline (fit at small `n`,
//!   extrapolate to large `n`).
//! * [`diagnose`] — the six-step diagnostic procedure of Section V.
//! * [`provision`] — speedup-versus-cost provisioning (Section I/VI).
//! * [`multiround`] — multi-round jobs with a shared scale-out degree
//!   (Section III).
//! * [`sensitivity`] — parameter elasticities of the asymptotic speedup.

pub mod asymptotic;
pub mod classic;
pub mod diagnose;
pub mod error;
pub mod estimate;
pub mod factors;
pub mod measurement;
pub mod model;
pub mod multiround;
pub mod predict;
pub mod provision;
pub mod report;
pub mod sensitivity;
pub mod stochastic;
pub mod taxonomy;

pub use asymptotic::AsymptoticParams;
pub use diagnose::{DiagnosisReport, Diagnostician};
pub use error::ModelError;
pub use factors::ScalingFactor;
pub use measurement::{
    overhead_breakdown, OverheadBreakdown, RunMeasurement, SpeedupCurve, SpeedupPoint,
};
pub use model::IpsoModel;
pub use taxonomy::{FixedSizeClass, FixedTimeClass, ScalingClass, WorkloadType};
