//! Spark jobs: the op of `spark_faults`, and the Spark half of
//! `trace_export`.
//!
//! An op is one Spark sweep point: `try_run_job` (or `run_dag` for the
//! join DAG) plus `run_sequential_reference`, the pair the `fig9`/`fig10`
//! binaries compute per grid cell. Specs are built during set-up; the
//! jobs generate no data.

use ipso_cluster::runtime::RuntimeConfig;
use ipso_cluster::{FaultModel, RecoveryPolicy, RunOutcome, SchedulerPolicy, TaskGraph};
use ipso_sim::SimRng;
use ipso_spark::{
    lower_chain, lower_levels, run_dag, run_sequential_reference, try_run_job, SparkJobSpec,
    SparkRun,
};
use ipso_workloads::{bayes, join, nweight, random_forest, svm};

use crate::cluster::{count_outcome, fault_digest, standalone};
use crate::harness::{Digest, Tracer};
use crate::seed::perturb;

/// A Spark application: `(name, job(N, m))`.
pub type SparkApp = (&'static str, fn(u32, u32) -> SparkJobSpec);

/// The four Spark applications of Figs. 9 and 10.
pub const APPS: [SparkApp; 4] = [
    ("bayes", bayes::job),
    ("random_forest", random_forest::job),
    ("svm", svm::job),
    ("nweight", nweight::job),
];

/// Where a fault-free op sits in a committed figure CSV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureCell {
    /// `"fig9"` or `"fig10"`.
    pub figure: &'static str,
    /// Application index into [`APPS`].
    pub app: usize,
    /// Row (index into the figure's `m` grid).
    pub row: usize,
    /// Column (index into its loads or sizes).
    pub col: usize,
}

/// One prepared Spark op.
#[derive(Debug, Clone)]
pub struct SparkOp {
    /// The job, faults applied.
    pub spec: SparkJobSpec,
    /// DAG edges for `run_dag`; `None` runs the stage chain.
    pub edges: Option<Vec<(usize, usize)>>,
    /// The figure cell this op reproduces, for fault-free figure ops.
    pub cell: Option<FigureCell>,
}

impl SparkOp {
    /// A chain job built by `job(problem_size, m)` with the ablation's
    /// fault setting `p` and the workload seed applied.
    pub fn new(
        job: fn(u32, u32) -> SparkJobSpec,
        problem_size: u32,
        m: u32,
        p: f64,
        seed: u64,
    ) -> SparkOp {
        let mut spec = job(problem_size, m);
        spec.seed = perturb(spec.seed, seed);
        spec.engine.threads = 1;
        if p > 0.0 {
            // The `ablation_faults` setting; p = 0 keeps the stock spec.
            let mut faults = FaultModel::flaky(p);
            faults.node_crash_prob = p / 10.0;
            spec.faults = faults;
            let mut recovery = RecoveryPolicy::hadoop_like().with_speculation();
            recovery.max_attempts = 8;
            spec.recovery = recovery;
        }
        SparkOp {
            spec,
            edges: None,
            cell: None,
        }
    }

    /// The join DAG at `(problem_size, m)`.
    pub fn join(problem_size: u32, m: u32, p: f64, seed: u64) -> SparkOp {
        let mut op = SparkOp::new(join::job, problem_size, m, p, seed);
        op.edges = Some(join::job_edges());
        op
    }

    /// Runs the op and returns its output digest and speedup (NaN for
    /// a job that aborted as its fault model allows).
    ///
    /// # Errors
    ///
    /// Returns an unexpected engine error, or why an output check failed.
    pub fn run(&self, t: &mut Tracer) -> Result<(u64, f64), String> {
        let spec = &self.spec;
        let run = if t.is_on() {
            self.run_traced(t)?
        } else {
            match &self.edges {
                None => try_run_job(spec).map_err(|e| e.to_string()),
                Some(edges) => run_dag(spec, edges),
            }
        };
        let run = match run {
            Ok(run) => run,
            Err(e) if self.expected_abort(&e) => {
                let mut d = Digest::default();
                d.bytes(e.as_bytes());
                return Ok((d.finish(), f64::NAN));
            }
            Err(e) => return Err(format!("{}: {e}", self.label())),
        };
        let (seq, d_seq) = t.span("spark.sequential_reference", |_| {
            run_sequential_reference(spec)
        });
        t.add("layer.spark", d_seq);
        digest(self, &run, seq)
    }

    /// The op's name in failure messages.
    fn label(&self) -> String {
        let spec = &self.spec;
        format!(
            "{} N={} m={}",
            spec.name, spec.problem_size, spec.parallelism
        )
    }

    /// Whether `error` is an outcome the fault model allows: with faults
    /// on, a task may fail every one of its attempts and abort the job
    /// with `ClusterError::RetriesExhausted` (`run_dag` reports it as
    /// that error's message).
    fn expected_abort(&self, error: &str) -> bool {
        let suffix = format!(" failed all {} attempts", self.spec.recovery.max_attempts);
        self.spec.faults.enabled() && error.starts_with("task ") && error.ends_with(&suffix)
    }

    /// The composite call, then a standalone lowering + execute that must
    /// reproduce its outcome — the same abort, or the same fault
    /// summaries and overhead bit for bit. The outer `Result` is a failed
    /// check; the inner one the engine's own result.
    fn run_traced(&self, t: &mut Tracer) -> Result<Result<SparkRun, String>, String> {
        let spec = &self.spec;
        let label = self.label();
        let (run, d_run, graph, d_lower, levels) = match &self.edges {
            None => {
                let (run, d_run) = t.span("spark.run_job", |_| try_run_job(spec));
                let (graph, d_lower) =
                    t.span("spark.lower_chain", |_| standalone(|| lower_chain(spec)));
                (run.map_err(|e| e.to_string()), d_run, graph, d_lower, None)
            }
            Some(edges) => {
                let (run, d_run) = t.span("spark.run_dag", |_| run_dag(spec, edges));
                let (lowered, d_lower) = t.span("spark.lower_levels", |_| {
                    standalone(|| lower_levels(spec, edges))
                });
                let (graph, levels) = lowered.map_err(|e| format!("{label}: {e}"))?;
                (run, d_run, graph, d_lower, Some(levels))
            }
        };
        let m = spec.parallelism;
        let runtime = RuntimeConfig {
            executors: m as usize,
            scheduler: spec.scheduler,
            policy: SchedulerPolicy::Fifo,
            straggler: spec.straggler,
            faults: spec.faults,
            recovery: spec.recovery,
            threads: spec.engine.threads,
        };
        let mut rng =
            SimRng::seed_from(spec.seed ^ (u64::from(m) << 32) ^ u64::from(spec.problem_size));
        let (outcome, d_exec) = t.span("cluster.execute", |_| {
            standalone(|| ipso_cluster::execute(&graph, &runtime, &mut rng))
        });
        let reproduced = match (&run, &outcome) {
            (Ok(run), Ok(outcome)) => {
                standalone(|| reproduces(spec, &graph, levels.as_deref(), outcome, run))
            }
            (Err(a), Err(b)) => *a == b.to_string(),
            _ => false,
        };
        if !reproduced {
            return Err(format!(
                "{label}: standalone lowering + execute disagrees with the engine"
            ));
        }

        t.add("spark.lower_s", d_lower);
        t.add("spark.clock_walk_self_s", d_run - d_lower - d_exec);
        t.add("layer.spark", d_run - d_exec);
        if let (Ok(run), Ok(outcome)) = (&run, &outcome) {
            count_outcome(t, &graph, outcome, d_exec);
            t.add("spark.event_log_bytes", run.log.len() as f64);
            t.add(
                "spark.tasks",
                spec.stages.iter().map(|s| f64::from(s.tasks)).sum(),
            );
        } else {
            t.add("cluster.execute_s", d_exec);
            t.add("layer.cluster", d_exec);
        }
        Ok(run)
    }
}

/// Whether a standalone execute reproduces the engine's run: the same
/// fault summaries, and the same scale-out overhead to the bit when
/// re-added in the engine's order from the graph and the outcome.
fn reproduces(
    spec: &SparkJobSpec,
    graph: &TaskGraph,
    levels: Option<&[Vec<usize>]>,
    outcome: &RunOutcome,
    run: &SparkRun,
) -> bool {
    let faults: Vec<_> = outcome
        .stages
        .iter()
        .filter_map(|s| s.fault.as_ref().map(|f| f.summary.clone()))
        .collect();
    let mut overhead = outcome.setup_overhead;
    match levels {
        None => {
            for (node, stage) in graph.stages.iter().zip(&outcome.stages) {
                overhead += node.pre_overhead;
                overhead += stage.schedule_overhead();
                if let Some(f) = &stage.fault {
                    overhead += f.summary.wasted_total();
                }
                if let Some(l) = &stage.lineage {
                    overhead += l.work;
                }
            }
        }
        Some(levels) => {
            for (members, stage) in levels.iter().zip(&outcome.stages) {
                for &s in members {
                    overhead += spec
                        .network
                        .broadcast_time(spec.stages[s].broadcast_bytes, spec.parallelism);
                }
                if let Some(f) = &stage.fault {
                    overhead += f.summary.wasted_total();
                }
                overhead += stage.schedule_overhead();
            }
        }
    }
    faults == run.fault_summaries && overhead.to_bits() == run.overhead_time.to_bits()
}

/// Digest of a Spark op after its output checks.
fn digest(op: &SparkOp, run: &SparkRun, seq: f64) -> Result<(u64, f64), String> {
    let speedup = seq / run.total_time;
    if !(speedup.is_finite() && speedup > 0.0)
        || run.stage_times.len() != op.spec.stages.len()
        || !(run.overhead_time.is_finite() && run.overhead_time >= 0.0)
    {
        return Err(format!(
            "{}: implausible run (total {}, overhead {}, {} stage times)",
            op.label(),
            run.total_time,
            run.overhead_time,
            run.stage_times.len()
        ));
    }
    let mut d = Digest::default();
    d.f64(run.total_time).f64(run.overhead_time).f64(seq);
    for &s in &run.stage_times {
        d.f64(s);
    }
    for f in &run.fault_summaries {
        fault_digest(&mut d, f).map_err(|e| format!("{}: {e}", op.label()))?;
    }
    d.u64(run.log.len() as u64);
    Ok((d.finish(), speedup))
}
