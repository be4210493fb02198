#![warn(missing_docs)]

//! The nine case-study workloads of the IPSO paper.
//!
//! Four single-stage MapReduce benchmarks (HiBench micro benchmarks plus
//! the Hadoop-examples QMC job, paper Section V-A, fixed-time):
//!
//! * [`qmc`] — Quasi-Monte-Carlo π estimation (no serial workload, type It);
//! * [`wordcount`] — WordCount over dictionary text (`IN(n) ≈ 1`, It/IIt);
//! * [`sort`] — Sort (in-proportion scaling, type IIIt,1);
//! * [`terasort`] — TeraSort (in-proportion scaling plus the memory-spill
//!   step of Fig. 5);
//!
//! one fixed-size Spark case extracted from the Orchestra paper \[12\]:
//!
//! * [`collab_filter`] — Collaborative Filtering with per-iteration driver
//!   broadcasts (Table I / Fig. 8, the pathological type IVs);
//!
//! and four multi-stage Spark benchmarks (Section V-B, Figs. 9–10):
//!
//! * [`bayes`] — naive Bayes training;
//! * [`random_forest`] — random-forest training;
//! * [`svm`] — SVM via distributed gradient descent;
//! * [`nweight`] — the NWeight graph workload;
//!
//! plus a Dryad-style extension beyond the paper's nine:
//!
//! * [`join`] — a two-branch join exercising the general stage DAG of
//!   [`ipso_spark::run_dag`].
//!
//! Only the MapReduce jobs execute records: they map, sort, count and
//! reduce real inputs from [`datagen`]. Each Spark case is a calibrated
//! stage spec (`job()`: task counts, per-task seconds, bytes per task),
//! the per-stage view the paper reads from Spark's stage timestamps;
//! `ipso-spark` times it without touching a record.

pub mod bayes;
pub mod collab_filter;
pub mod datagen;
pub mod join;
pub mod nweight;
pub mod qmc;
pub mod random_forest;
pub mod sort;
pub mod svm;
pub mod terasort;
pub mod wordcount;

/// The n-sweep used by the paper's MapReduce figures (n up to 200, fitted
/// on n ≤ 16).
pub const PAPER_SWEEP: &[u32] = &[1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 200];

/// The small-n fitting window the paper uses for scaling prediction.
pub const FIT_WINDOW: u32 = 16;
