//! The paper's figures, tables and ablations as in-process emitters:
//! one module per experiment, whose `emit` runs alone in the binary of
//! the same name ([`main`]) or with all the others in one process
//! ([`run_all`]).
//!
//! Every emitter takes the shared [`Context`]: one [`SweepRunner`] and a
//! per-process cache of MapReduce sweep points keyed by workload and
//! `n`. fig4, fig5, fig6, fig7 and provisioning request overlapping
//! grids, so under [`run_all`] each point runs once. A point depends
//! only on its workload and `n`, so a cached point equals a fresh one.

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};

use ipso_mapreduce::measure::SweepPoint;
use ipso_mapreduce::ScalingSweep;
use ipso_spark::SparkJobSpec;
use ipso_workloads::{bayes, nweight, qmc, random_forest, sort, svm, terasort, wordcount};

use crate::{FlagError, Flags, SweepRunner};

mod ablation_broadcast;
mod ablation_faults;
mod ablation_memory;
mod ablation_scheduler;
mod ablation_shuffle_pipelining;
mod ablation_stragglers;
mod fig10_spark_fixed_size;
mod fig2_taxonomy_fixed_time;
mod fig3_taxonomy_fixed_size;
mod fig4_mapreduce_speedups;
mod fig5_terasort_stepwise;
mod fig6_scaling_factors;
mod fig7_ipso_prediction;
mod fig8_collab_filtering;
mod fig9_spark_fixed_time;
mod provisioning_tradeoffs;
mod sensitivity_analysis;
mod table1_collab_filtering;

/// An experiment: its name, which is also the name of the binary that
/// runs it alone, and its emitter.
type Experiment = (&'static str, fn(&mut Context));

/// Every experiment, in the order `all_experiments` runs them.
const EXPERIMENTS: [Experiment; 18] = [
    ("fig2_taxonomy_fixed_time", fig2_taxonomy_fixed_time::emit),
    ("fig3_taxonomy_fixed_size", fig3_taxonomy_fixed_size::emit),
    ("fig4_mapreduce_speedups", fig4_mapreduce_speedups::emit),
    ("fig5_terasort_stepwise", fig5_terasort_stepwise::emit),
    ("fig6_scaling_factors", fig6_scaling_factors::emit),
    ("fig7_ipso_prediction", fig7_ipso_prediction::emit),
    ("table1_collab_filtering", table1_collab_filtering::emit),
    ("fig8_collab_filtering", fig8_collab_filtering::emit),
    ("fig9_spark_fixed_time", fig9_spark_fixed_time::emit),
    ("fig10_spark_fixed_size", fig10_spark_fixed_size::emit),
    ("provisioning_tradeoffs", provisioning_tradeoffs::emit),
    // Ablations of the mechanisms behind the paper's pathologies.
    ("ablation_broadcast", ablation_broadcast::emit),
    ("ablation_scheduler", ablation_scheduler::emit),
    ("ablation_stragglers", ablation_stragglers::emit),
    ("ablation_memory", ablation_memory::emit),
    (
        "ablation_shuffle_pipelining",
        ablation_shuffle_pipelining::emit,
    ),
    ("ablation_faults", ablation_faults::emit),
    ("sensitivity_analysis", sensitivity_analysis::emit),
];

/// The binaries that accept `--trace-out FILE`.
const TRACED: [&str; 4] = [
    "fig4_mapreduce_speedups",
    "fig5_terasort_stepwise",
    "fig9_spark_fixed_time",
    "fig10_spark_fixed_size",
];

/// The flags of the binary `name`. On a bad command line, `--trace-out`
/// to a binary that is not `traced` included, prints `error: …` and a
/// usage line to stderr and exits with status 1.
fn flags_or_exit(name: &str, traced: bool) -> Flags {
    let flags = Flags::from_env().and_then(|flags| match flags.trace_out {
        Some(_) if !traced => Err(FlagError(format!("{name} does not accept --trace-out"))),
        _ => Ok(flags),
    });
    flags.unwrap_or_else(|e| {
        let trace_out = if traced { " [--trace-out FILE]" } else { "" };
        eprintln!("error: {e}\nusage: {name} [--jobs N]{trace_out}");
        std::process::exit(1)
    })
}

/// The `main` of the binary `name`: runs the experiment with a fresh
/// [`Context`] and, for a traced figure given `--trace-out FILE`, writes
/// the run as a Chrome trace-event (Perfetto) file; a file it cannot
/// write is an error with exit status 1.
pub fn main(name: &str) {
    let flags = flags_or_exit(name, TRACED.contains(&name));
    let (_, emit) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no experiment named {name:?}"));
    if flags.trace_out.is_some() {
        ipso_obs::set_enabled(true);
        ipso_obs::reset();
    }
    emit(&mut Context::new(flags.jobs));
    if let Some(path) = flags.trace_out {
        let events = ipso_obs::take_events();
        ipso_obs::set_enabled(false);
        if let Err(e) = ipso_obs::write_chrome_trace(&path, &events) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "{} trace events -> {} (open in https://ui.perfetto.dev)",
            events.len(),
            path.display()
        );
    }
}

/// The `main` of `all_experiments`: every experiment in order, in one
/// process, sharing one [`Context`]. A failing experiment does not stop
/// the rest; the process then exits with status 1. `--trace-out` is
/// refused: the traced figures take it one at a time.
pub fn run_all() {
    let flags = flags_or_exit("all_experiments", false);
    let mut ctx = Context::new(flags.jobs);
    let mut failures = Vec::new();
    for (name, emit) in EXPERIMENTS {
        println!("──────────────────────────────────────────────────────");
        println!("▶ {name}");
        println!("──────────────────────────────────────────────────────");
        if panic::catch_unwind(AssertUnwindSafe(|| emit(&mut ctx))).is_err() {
            failures.push(name);
        }
    }
    if !failures.is_empty() {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
    let count = EXPERIMENTS.len();
    println!("\nall {count} experiments completed; CSVs under results/");
}

/// A MapReduce case study of Figs. 4–7: its name, as in the CSV file
/// names, and its sweep. The point cache tells workloads apart by name.
pub type Workload = (&'static str, fn(&[u32]) -> ScalingSweep);

/// QMC-Pi.
pub const QMC: Workload = ("qmc", qmc::sweep);
/// WordCount.
pub const WORDCOUNT: Workload = ("wordcount", wordcount::sweep);
/// Sort.
pub const SORT: Workload = ("sort", sort::sweep);
/// TeraSort.
pub const TERASORT: Workload = ("terasort", terasort::sweep);
/// The four case studies, in the figures' order.
pub const WORKLOADS: [Workload; 4] = [QMC, WORDCOUNT, SORT, TERASORT];

/// The Spark applications of Figs. 9 and 10: name and `job(load, m)`.
type SparkApp = (&'static str, fn(u32, u32) -> SparkJobSpec);

/// Bayes, Random Forest, SVM and NWeight, in the figures' order.
const SPARK_APPS: [SparkApp; 4] = [
    ("bayes", bayes::job),
    ("random_forest", random_forest::job),
    ("svm", svm::job),
    ("nweight", nweight::job),
];

/// What every emitter shares: the grid runner and the MapReduce point
/// cache.
#[derive(Debug)]
pub struct Context {
    runner: SweepRunner,
    points: HashMap<(&'static str, u32), SweepPoint>,
}

impl Context {
    /// A context with an empty cache and a runner of `jobs` workers
    /// (`0`: one per hardware thread).
    pub fn new(jobs: usize) -> Context {
        Context {
            runner: SweepRunner::new(jobs),
            points: HashMap::new(),
        }
    }

    /// One sweep per request, over the request's `ns` in the given order.
    ///
    /// Points not yet cached run first, in one [`SweepRunner::map`] grid
    /// ordered request by request and `n` by `n`, so a cold cache runs
    /// (and traces) exactly the grid the requests list.
    pub fn sweeps(&mut self, requests: &[(Workload, &[u32])]) -> Vec<ScalingSweep> {
        let mut queued = HashSet::new();
        let missing: Vec<(Workload, u32)> = requests
            .iter()
            .flat_map(|&(workload, ns)| ns.iter().map(move |&n| (workload, n)))
            .filter(|&((name, _), n)| {
                !self.points.contains_key(&(name, n)) && queued.insert((name, n))
            })
            .collect();
        let keys: Vec<(&str, u32)> = missing.iter().map(|&((name, _), n)| (name, n)).collect();
        let computed = self.runner.map(missing, |((_, sweep), n)| {
            sweep(&[n]).points.pop().expect("one point per n")
        });
        self.points.extend(keys.into_iter().zip(computed));
        requests
            .iter()
            .map(|&((name, _), ns)| ScalingSweep {
                points: ns
                    .iter()
                    .map(|&n| self.points[&(name, n)].clone())
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_binary_is_an_experiment() {
        let bin_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut binaries: Vec<String> = std::fs::read_dir(bin_dir)
            .expect("src/bin")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                path.file_stem()
                    .expect("file name")
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name != "all_experiments")
            .collect();
        binaries.sort();
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        assert_eq!(binaries, names);
        assert!(TRACED.iter().all(|t| names.contains(t)));
    }
}
