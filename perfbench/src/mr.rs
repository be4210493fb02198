//! MapReduce sweep points: the op of `mr_sweep`, and the MapReduce half
//! of `trace_export`.
//!
//! An op is one sweep point — a scale-out run plus its sequential
//! reference over splits generated during set-up — exactly what a grid
//! cell of the `fig4`/`fig6`/`fig7` binaries computes through
//! [`ScalingSweep::run`]. The op makes that function's three calls
//! itself, over borrowed splits: `ScalingSweep::run` takes its splits
//! from closures by value, and cloning pre-generated splits twice per op
//! would be benchmark work (a fifth of a `trace_export` pass).
//! Layer-traced, it also checks that a standalone `plan_scale_out` +
//! `execute` reproduces the composite call's schedule bit for bit
//! before subtracting their time from it.

use ipso::estimate::estimate_factors_windowed;
use ipso::measurement::RunMeasurement;
use ipso_cluster::runtime::RuntimeConfig;
use ipso_cluster::JobTrace;
use ipso_mapreduce::measure::SweepPoint;
use ipso_mapreduce::{
    measurement_from_runs, plan_scale_out, run_sequential, try_run_scale_out, InputSplit, JobSpec,
    Mapper, Reducer,
};
use ipso_sim::SimRng;
use ipso_workloads::{qmc, sort, terasort, wordcount, FIT_WINDOW, PAPER_SWEEP};
use std::time::Instant;

use crate::cluster::{count_outcome, standalone};
use crate::harness::{Digest, Tracer};
use crate::seed::perturb;

/// One MapReduce application with its pre-generated sweep inputs.
pub trait MrCase {
    /// Application name, as in the figure CSVs.
    fn name(&self) -> &'static str;
    /// The scale-out degrees of the prepared points.
    fn ns(&self) -> Vec<u32>;
    /// Host seconds spent in the workload crate's `make_splits`.
    fn make_splits_s(&self) -> f64;
    /// Records generated into the splits.
    fn sample_records(&self) -> u64;
    /// Runs point `i`: the op.
    ///
    /// # Errors
    ///
    /// Returns why the point failed.
    fn run_point(&self, i: usize, t: &mut Tracer) -> Result<SweepPoint, String>;
}

struct Point<I> {
    n: u32,
    spec: JobSpec,
    splits: Vec<InputSplit<I>>,
}

struct App<M: Mapper, R> {
    name: &'static str,
    mapper: M,
    reducer: R,
    points: Vec<Point<M::Input>>,
    make_splits_s: f64,
}

impl<M, R> App<M, R>
where
    M: Mapper,
{
    fn new(
        name: &'static str,
        mapper: M,
        reducer: R,
        ns: &[u32],
        seed: u64,
        job_spec: fn(u32) -> JobSpec,
        mut make_splits: impl FnMut(u32) -> Vec<InputSplit<M::Input>>,
    ) -> App<M, R> {
        let mut make_splits_s = 0.0;
        let points = ns
            .iter()
            .map(|&n| {
                let mut spec = job_spec(n);
                spec.seed = perturb(spec.seed, seed);
                spec.engine.threads = 1;
                let start = Instant::now();
                let splits = make_splits(n);
                make_splits_s += start.elapsed().as_secs_f64();
                Point { n, spec, splits }
            })
            .collect();
        App {
            name,
            mapper,
            reducer,
            points,
            make_splits_s,
        }
    }
}

impl<M, R> MrCase for App<M, R>
where
    M: Mapper + Sync,
    M::Input: Sync,
    M::Key: Send,
    M::Value: Send,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn ns(&self) -> Vec<u32> {
        self.points.iter().map(|p| p.n).collect()
    }

    fn make_splits_s(&self) -> f64 {
        self.make_splits_s
    }

    fn sample_records(&self) -> u64 {
        self.points
            .iter()
            .flat_map(|p| &p.splits)
            .map(|s| s.records.len() as u64)
            .sum()
    }

    fn run_point(&self, i: usize, t: &mut Tracer) -> Result<SweepPoint, String> {
        let Point { n, spec, splits } = &self.points[i];
        let n = *n;
        let (par, d_run) = t.span("mapreduce.run_scale_out", |_| {
            try_run_scale_out(spec, &self.mapper, &self.reducer, splits)
        });
        let par = par.map_err(|e| format!("{} n={n}: {e}", self.name))?;
        if t.is_on() {
            let (graph, d_plan) = t.span("mapreduce.plan_scale_out", |_| {
                standalone(|| plan_scale_out(spec, splits))
            });
            let runtime = RuntimeConfig {
                executors: (spec.cluster.total_slots() as usize).min(splits.len()),
                scheduler: spec.scheduler,
                policy: spec.policy,
                straggler: spec.straggler,
                faults: spec.faults,
                recovery: spec.recovery,
                threads: spec.engine.threads,
            };
            let mut rng = SimRng::seed_from(spec.seed ^ u64::from(n));
            let (outcome, d_exec) = t.span("cluster.execute", |_| {
                standalone(|| ipso_cluster::execute(&graph, &runtime, &mut rng))
            });
            let outcome =
                outcome.map_err(|e| format!("{} n={n}: standalone execute: {e}", self.name))?;
            check_schedule(&par.trace, &outcome)?;
            count_outcome(t, &graph, &outcome, d_exec);
            t.add("mapreduce.plan_s", d_plan);
            t.add("mapreduce.scale_out_self_s", d_run - d_plan - d_exec);
            t.add("layer.mapreduce", d_run - d_exec);
        }
        let (seq, d_seq) = t.span("mapreduce.run_sequential", |_| {
            run_sequential(spec, &self.mapper, &self.reducer, splits)
        });
        // As ScalingSweep::run: the sequential model's n is the sweep's n.
        let mut seq_trace = seq.trace;
        seq_trace.n = n;
        let measurement = measurement_from_runs(&seq_trace, &par.trace);

        let records: u64 = splits.iter().map(|s| s.records.len() as u64).sum();
        t.add("mapreduce.records_mapped", 2.0 * records as f64);
        t.add("mapreduce.seq_records", records as f64);
        t.add(
            "mapreduce.reduce_input_bytes",
            (par.reduce_input_bytes + seq.reduce_input_bytes) as f64,
        );
        t.add("layer.mapreduce", d_seq);
        Ok(SweepPoint {
            n,
            seq: seq_trace,
            par: par.trace,
            measurement,
        })
    }
}

/// Checks that the standalone execute reproduced the composite run's
/// schedule, fault outcome and scale-out overhead bit for bit.
fn check_schedule(par: &JobTrace, outcome: &ipso_cluster::RunOutcome) -> Result<(), String> {
    let stage = outcome
        .stages
        .first()
        .ok_or("standalone execute returned no stage")?;
    let same_tasks = stage.schedule.records.len() == par.tasks.len()
        && stage.schedule.records.iter().zip(&par.tasks).all(|(a, b)| {
            a.task_id == b.task_id
                && a.executor == b.executor
                && a.start.to_bits() == b.start.to_bits()
                && a.end.to_bits() == b.end.to_bits()
        });
    let overhead = outcome.setup_overhead + stage.schedule_overhead() + stage.wasted();
    let faults = stage.fault.as_ref().map(|f| &f.summary);
    if !same_tasks
        || overhead.to_bits() != par.scale_out_overhead.to_bits()
        || faults != par.faults.as_ref()
    {
        return Err(format!(
            "{} n={}: standalone plan + execute disagrees with run_scale_out",
            par.job, par.n
        ));
    }
    Ok(())
}

/// Digest of a sweep point after its output checks: both traces'
/// invariants, their phases and fault summaries, and the measurement.
pub fn point_digest(p: &SweepPoint) -> Result<u64, String> {
    let mut d = Digest::default();
    for trace in [&p.par, &p.seq] {
        trace
            .check_invariants()
            .map_err(|e| format!("{} n={}: {e}", trace.job, p.n))?;
        let ph = &trace.phases;
        d.f64(ph.init)
            .f64(ph.map)
            .f64(ph.shuffle)
            .f64(ph.merge)
            .f64(ph.reduce)
            .f64(trace.scale_out_overhead)
            .u64(trace.tasks.len() as u64);
        if let Some(f) = &trace.faults {
            crate::cluster::fault_digest(&mut d, f)?;
        }
    }
    let m = &p.measurement;
    d.u64(u64::from(m.n))
        .f64(m.seq_parallel_work)
        .f64(m.seq_serial_work)
        .f64(m.par_map_time)
        .f64(m.par_serial_time)
        .f64(m.par_overhead);
    let s = m.speedup();
    if !(s.is_finite() && s > 0.0) {
        return Err(format!("{} n={}: speedup {s}", p.par.job, p.n));
    }
    Ok(d.finish())
}

/// Fits one application's sweep the way `fig6`/`fig7` do — the factors
/// on `n <= FIT_WINDOW`, reduced to the asymptotic form — and predicts
/// the whole paper sweep. Returns the digest of the fit and predictions.
pub fn fit_digest(measurements: &[RunMeasurement], t: &mut Tracer) -> Result<u64, String> {
    let (est, _) = t.span("core.estimate_factors", |_| {
        estimate_factors_windowed(measurements, 0, FIT_WINDOW)
    });
    let est = est.map_err(|e| format!("estimate_factors: {e}"))?;
    let (predicted, _) = t.span("core.predict", |_| {
        let asym = est.to_asymptotic()?;
        let speedups = PAPER_SWEEP
            .iter()
            .map(|&n| asym.speedup(f64::from(n)))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok::<_, ipso::ModelError>((asym, speedups))
    });
    let (asym, speedups) = predicted.map_err(|e| format!("prediction: {e}"))?;
    let fit_points = measurements.iter().filter(|m| m.n <= FIT_WINDOW).count();
    t.add("core.fit_points", fit_points as f64);

    let mut d = Digest::default();
    d.f64(asym.eta)
        .f64(asym.alpha)
        .f64(asym.delta)
        .f64(asym.beta)
        .f64(asym.gamma);
    for s in speedups {
        if !s.is_finite() {
            return Err(format!("predicted speedup {s}"));
        }
        d.f64(s);
    }
    Ok(d.finish())
}

/// Builds the named application over `ns`, with inputs derived from the
/// workload seed. At the default seed these are exactly the figure
/// binaries' inputs (split seeds 1, 2, 3; QMC's Halton slices are fixed
/// by construction, so only its straggler seed varies).
pub fn build(name: &str, ns: &[u32], seed: u64) -> Box<dyn MrCase> {
    match name {
        "qmc" => Box::new(App::new(
            "qmc",
            qmc::QmcMapper,
            qmc::QmcReducer,
            ns,
            seed,
            qmc::job_spec,
            qmc::make_splits,
        )),
        "wordcount" => Box::new(App::new(
            "wordcount",
            wordcount::WordCountMapper::new(),
            wordcount::WordCountReducer,
            ns,
            seed,
            wordcount::job_spec,
            |n| wordcount::make_splits(n, perturb(1, seed)),
        )),
        "sort" => Box::new(App::new(
            "sort",
            sort::SortMapper,
            sort::SortReducer,
            ns,
            seed,
            sort::job_spec,
            |n| sort::make_splits(n, perturb(2, seed)),
        )),
        "terasort" => Box::new(App::new(
            "terasort",
            terasort::TeraSortMapper,
            terasort::TeraSortReducer,
            ns,
            seed,
            terasort::job_spec,
            |n| terasort::make_splits(n, perturb(3, seed)),
        )),
        other => panic!("unknown MapReduce application {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::DEFAULT_SEED;
    use ipso_mapreduce::ScalingSweep;

    #[test]
    fn ops_equal_the_figure_sweeps_at_the_default_seed() {
        let _lock = crate::harness::engine_lock();
        let ns = [1, 4, 16];
        type FigureSweep = (&'static str, fn(&[u32]) -> ScalingSweep);
        let sweeps: [FigureSweep; 4] = [
            ("qmc", qmc::sweep),
            ("wordcount", wordcount::sweep),
            ("sort", sort::sweep),
            ("terasort", terasort::sweep),
        ];
        for (name, sweep) in sweeps {
            let app = build(name, &ns, DEFAULT_SEED);
            for (i, &n) in ns.iter().enumerate() {
                let op = app.run_point(i, &mut Tracer::new(false)).unwrap();
                assert_eq!(op, sweep(&[n]).points[0], "{name} n={n}");
                let traced = app.run_point(i, &mut Tracer::new(true)).unwrap();
                assert_eq!(traced, op, "{name} n={n} traced");
            }
        }
    }
}
