//! The three workloads. Each builds its inputs from the workload seed in
//! set-up and then runs whole passes over a fixed grid of ops.

use ipso_workloads::PAPER_SWEEP;

use crate::figures;
use crate::harness::{Digest, PassLog, Tracer, PASS_LEVEL};
use crate::mr::{self, fit_digest, point_digest, MrCase};
use crate::spark::{FigureCell, SparkOp, APPS};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["mr_sweep", "spark_faults", "trace_export"];

/// Digest of the cold pass at [`crate::seed::DEFAULT_SEED`], per workload.
pub const REFERENCE: [(&str, u64); 3] = [
    ("mr_sweep", 0x932d_be54_b709_975f),
    ("spark_faults", 0xe053_3285_3165_ffb0),
    ("trace_export", 0x02bd_5ad8_8c3e_78d2),
];

/// A workload: a fixed grid of ops run as whole passes.
pub trait Workload {
    /// Ops per pass.
    fn ops_per_pass(&self) -> usize;
    /// Runs one pass. `capture` runs ops under observability capture
    /// (only `trace_export` records; the others keep it disabled).
    fn pass(&mut self, t: &mut Tracer, capture: bool) -> PassLog;
    /// Host seconds of input generation in set-up.
    fn make_splits_s(&self) -> f64 {
        0.0
    }
    /// Records generated in set-up.
    fn sample_records(&self) -> u64 {
        0
    }
    /// Compares the last pass against the committed figure CSVs and
    /// returns the number of cells compared (0 when it has no figure).
    ///
    /// # Errors
    ///
    /// Names the first disagreeing cell.
    fn figure_check(&self) -> Result<usize, String> {
        Ok(0)
    }
}

/// Builds the named workload at full size.
///
/// # Errors
///
/// Rejects unknown names.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "mr_sweep" => Box::new(MrSweep::new(seed, PAPER_SWEEP)),
        "spark_faults" => Box::new(SparkFaults::new(seed, &FIG9_MS, &FIG10_MS, &FAULT_RATES)),
        "trace_export" => Box::new(TraceExport::new(seed, &[8, 32, 128], &[8, 32, 128])),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

/// `mr_sweep`: the fig4/6/7 computation. One op per `(app, n)`, then a
/// fit and prediction per app.
pub struct MrSweep {
    apps: Vec<Box<dyn MrCase>>,
    speedups: Vec<Vec<f64>>,
}

impl MrSweep {
    /// The four MapReduce applications over `ns`.
    pub fn new(seed: u64, ns: &[u32]) -> MrSweep {
        let apps = ["qmc", "wordcount", "sort", "terasort"]
            .iter()
            .map(|name| mr::build(name, ns, seed))
            .collect();
        MrSweep {
            apps,
            speedups: Vec::new(),
        }
    }
}

impl Workload for MrSweep {
    fn ops_per_pass(&self) -> usize {
        self.apps.iter().map(|a| a.ns().len()).sum()
    }

    fn pass(&mut self, t: &mut Tracer, _capture: bool) -> PassLog {
        let mut log = PassLog::default();
        self.speedups.clear();
        let mut op = 0u32;
        for app in &self.apps {
            let mut measurements = Vec::new();
            for i in 0..app.ns().len() {
                t.set_op(op);
                op += 1;
                log.op(|| {
                    let point = app.run_point(i, t)?;
                    let d = point_digest(&point)?;
                    measurements.push(point.measurement);
                    Ok(d)
                });
            }
            t.set_op(PASS_LEVEL);
            self.speedups
                .push(measurements.iter().map(|m| m.speedup()).collect());
            let fit = fit_digest(&measurements, t).map_err(|e| format!("{}: {e}", app.name()));
            log.record(fit);
        }
        log
    }

    fn make_splits_s(&self) -> f64 {
        self.apps.iter().map(|a| a.make_splits_s()).sum()
    }

    fn sample_records(&self) -> u64 {
        self.apps.iter().map(|a| a.sample_records()).sum()
    }

    fn figure_check(&self) -> Result<usize, String> {
        let mut cells = 0;
        for (app, speedups) in self.apps.iter().zip(&self.speedups) {
            let rows: Vec<Vec<f64>> = speedups.iter().map(|&s| vec![s]).collect();
            cells += figures::compare(&format!("fig4_{}", app.name()), &app.ns(), &rows)?;
        }
        Ok(cells)
    }
}

/// Fig. 9's parallel degrees (fixed time, `N = load · m`).
pub const FIG9_MS: [u32; 9] = [1, 2, 4, 8, 16, 24, 32, 48, 64];
/// Fig. 9's loads `N/m`.
pub const FIG9_LOADS: [u32; 4] = [1, 2, 4, 8];
/// Fig. 10's parallel degrees (fixed size).
pub const FIG10_MS: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256];
/// Fig. 10's problem sizes `N`.
pub const FIG10_SIZES: [u32; 3] = [32, 64, 128];
/// The `ablation_faults` per-attempt failure probabilities.
pub const FAULT_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];

/// `spark_faults`: the fig9 and fig10 grids plus the join DAG (at the
/// fig9 grid), at every fault rate.
pub struct SparkFaults {
    ops: Vec<SparkOp>,
    speedups: Vec<f64>,
    fig9_ms: Vec<u32>,
    fig10_ms: Vec<u32>,
}

impl SparkFaults {
    /// The grids over the given degrees and fault rates.
    pub fn new(seed: u64, fig9_ms: &[u32], fig10_ms: &[u32], rates: &[f64]) -> SparkFaults {
        let mut ops = Vec::new();
        for &p in rates {
            let cell = |figure, app, row, col| {
                (p == 0.0).then_some(FigureCell {
                    figure,
                    app,
                    row,
                    col,
                })
            };
            for (a, &(_, job)) in APPS.iter().enumerate() {
                for (col, &load) in FIG9_LOADS.iter().enumerate() {
                    for (row, &m) in fig9_ms.iter().enumerate() {
                        let mut op = SparkOp::new(job, load * m, m, p, seed);
                        op.cell = cell("fig9", a, row, col);
                        ops.push(op);
                    }
                }
                for (col, &size) in FIG10_SIZES.iter().enumerate() {
                    for (row, &m) in fig10_ms.iter().enumerate() {
                        let mut op = SparkOp::new(job, size, m, p, seed);
                        op.cell = cell("fig10", a, row, col);
                        ops.push(op);
                    }
                }
            }
            for &load in &FIG9_LOADS {
                for &m in fig9_ms {
                    ops.push(SparkOp::join(load * m, m, p, seed));
                }
            }
        }
        SparkFaults {
            speedups: vec![f64::NAN; ops.len()],
            ops,
            fig9_ms: fig9_ms.to_vec(),
            fig10_ms: fig10_ms.to_vec(),
        }
    }
}

impl Workload for SparkFaults {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn pass(&mut self, t: &mut Tracer, _capture: bool) -> PassLog {
        let mut log = PassLog::default();
        for (i, (op, speedup)) in self.ops.iter().zip(&mut self.speedups).enumerate() {
            t.set_op(i as u32);
            log.op(|| {
                let (d, s) = op.run(t)?;
                *speedup = s;
                Ok(d)
            });
        }
        t.set_op(PASS_LEVEL);
        log
    }

    fn figure_check(&self) -> Result<usize, String> {
        let mut cells = 0;
        for (figure, ms, cols) in [
            ("fig9", &self.fig9_ms, FIG9_LOADS.len()),
            ("fig10", &self.fig10_ms, FIG10_SIZES.len()),
        ] {
            for (a, (app, _)) in APPS.iter().enumerate() {
                let mut table = vec![vec![f64::NAN; cols]; ms.len()];
                for (op, &s) in self.ops.iter().zip(&self.speedups) {
                    if let Some(c) = op.cell.filter(|c| c.figure == figure && c.app == a) {
                        table[c.row][c.col] = s;
                    }
                }
                cells += figures::compare(&format!("{figure}_{app}"), ms, &table)?;
            }
        }
        Ok(cells)
    }
}

/// `trace_export`: MapReduce and faulted Spark ops recorded with
/// observability on, each inside `ipso_obs::capture` and merged, then
/// the pass's timeline exported as a Chrome trace and the metrics
/// snapshotted — what `ipso-cli trace` and `--trace-out` do.
pub struct TraceExport {
    mr: Vec<Box<dyn MrCase>>,
    spark: Vec<SparkOp>,
}

/// Fault rate of `trace_export`'s Spark jobs.
const TRACE_FAULT_RATE: f64 = 0.05;
/// Per-executor load `N/m` of `trace_export`'s Spark jobs.
const TRACE_LOAD: u32 = 2;

impl TraceExport {
    /// Sort, WordCount and TeraSort at `ns`; the four Spark apps at `ms`.
    pub fn new(seed: u64, ns: &[u32], ms: &[u32]) -> TraceExport {
        let mr = ["sort", "wordcount", "terasort"]
            .iter()
            .map(|name| mr::build(name, ns, seed))
            .collect();
        let spark = APPS
            .iter()
            .flat_map(|&(_, job)| {
                ms.iter()
                    .map(move |&m| SparkOp::new(job, TRACE_LOAD * m, m, TRACE_FAULT_RATE, seed))
            })
            .collect();
        TraceExport { mr, spark }
    }
}

/// Runs `f` inside an observability capture scope and merges what it
/// recorded, timing both as `obs.*` spans.
fn captured<R>(t: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> R {
    let ((result, records), _) = t.span("obs.capture", |t| ipso_obs::capture(|| f(t)));
    let ((), d_merge) = t.span("obs.merge", |_| ipso_obs::merge(records));
    t.add("layer.obs", d_merge);
    result
}

impl Workload for TraceExport {
    fn ops_per_pass(&self) -> usize {
        self.mr.iter().map(|a| a.ns().len()).sum::<usize>() + self.spark.len()
    }

    fn pass(&mut self, t: &mut Tracer, capture: bool) -> PassLog {
        let mut log = PassLog::default();
        if capture {
            ipso_obs::set_enabled(true);
            ipso_obs::reset();
        }
        let mut op = 0u32;
        for app in &self.mr {
            for i in 0..app.ns().len() {
                t.set_op(op);
                op += 1;
                log.op(|| {
                    let point = if capture {
                        captured(t, |t| app.run_point(i, t))
                    } else {
                        app.run_point(i, t)
                    }?;
                    point_digest(&point)
                });
            }
        }
        for spark in &self.spark {
            t.set_op(op);
            op += 1;
            log.op(|| {
                let result = if capture {
                    captured(t, |t| spark.run(t))
                } else {
                    spark.run(t)
                };
                result.map(|(d, _)| d)
            });
        }
        t.set_op(PASS_LEVEL);
        if capture {
            log.record(export(t));
            ipso_obs::set_enabled(false);
            ipso_obs::reset();
        }
        log
    }

    fn make_splits_s(&self) -> f64 {
        self.mr.iter().map(|a| a.make_splits_s()).sum()
    }

    fn sample_records(&self) -> u64 {
        self.mr.iter().map(|a| a.sample_records()).sum()
    }
}

/// Exports the pass's timeline and snapshots its metrics; returns the
/// digest of the trace bytes and the snapshot.
fn export(t: &mut Tracer) -> Result<u64, String> {
    let (events, d_events) = t.span("obs.snapshot_events", |_| ipso_obs::snapshot_events());
    let (json, d_export) = t.span("obs.export", |_| ipso_obs::export_chrome_trace(&events));
    let (metrics, d_metrics) = t.span("obs.metrics_snapshot", |_| ipso_obs::snapshot());
    t.add("obs.events", events.len() as f64);
    t.add("obs.trace_bytes", json.len() as f64);
    t.add("layer.obs", d_events + d_export + d_metrics);
    if events.is_empty() || !json.starts_with('{') || !json.contains("\"traceEvents\"") {
        return Err(format!(
            "exported trace is malformed ({} events, {} bytes)",
            events.len(),
            json.len()
        ));
    }
    let mut d = Digest::default();
    d.bytes(json.as_bytes());
    for (name, v) in &metrics.counters {
        d.bytes(name.as_bytes()).u64(*v);
    }
    for (name, v) in &metrics.gauges {
        d.bytes(name.as_bytes()).f64(*v);
    }
    for (name, h) in &metrics.histograms {
        d.bytes(name.as_bytes()).u64(h.count).u64(h.sum);
    }
    Ok(d.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_passes_agree(w: &mut dyn Workload, capture: bool) {
        let mut off = Tracer::new(false);
        let first = w.pass(&mut off, capture);
        let mut second = w.pass(&mut off, capture);
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        second.check_against(&first.digests);
        assert!(second.failures.is_empty(), "{:?}", second.failures);
        assert_eq!(first.pass_digest(), second.pass_digest());
        assert_eq!(first.op_ns.len(), w.ops_per_pass());

        // The layer-traced pass makes the calls one by one; it must
        // reproduce the same results.
        let mut on = Tracer::new(true);
        let mut traced = w.pass(&mut on, capture);
        traced.check_against(&first.digests);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert!(!on.spans().is_empty());
    }

    #[test]
    fn mr_sweep_digests_are_stable_on_a_tiny_grid() {
        let _lock = crate::harness::engine_lock();
        two_passes_agree(&mut MrSweep::new(5, &[1, 2, 4, 8]), false);
    }

    #[test]
    fn spark_faults_digests_are_stable_on_a_tiny_grid() {
        let _lock = crate::harness::engine_lock();
        two_passes_agree(
            &mut SparkFaults::new(5, &[2, 8], &[4, 16], &[0.0, 0.2]),
            false,
        );
    }

    #[test]
    fn trace_export_digests_are_stable_on_a_tiny_grid() {
        let _lock = crate::harness::engine_lock();
        two_passes_agree(&mut TraceExport::new(5, &[4], &[4]), true);
    }

    #[test]
    fn default_seed_reproduces_the_reference_digests_and_figures() {
        let _lock = crate::harness::engine_lock();
        for name in NAMES {
            let mut w = build(name, crate::seed::DEFAULT_SEED).unwrap();
            let log = w.pass(&mut Tracer::new(false), true);
            assert!(log.failures.is_empty(), "{name}: {:?}", log.failures);
            let reference = REFERENCE.iter().find(|r| r.0 == name).unwrap().1;
            assert_eq!(log.pass_digest(), reference, "{name}");
            w.figure_check().unwrap();
        }
    }

    #[test]
    fn seeds_change_the_results() {
        let _lock = crate::harness::engine_lock();
        let mut off = Tracer::new(false);
        let a = SparkFaults::new(5, &[8], &[16], &[0.1]).pass(&mut off, false);
        let b = SparkFaults::new(6, &[8], &[16], &[0.1]).pass(&mut off, false);
        assert_ne!(a.pass_digest(), b.pass_digest());
    }
}
