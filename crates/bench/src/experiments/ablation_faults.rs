//! Ablation: fault injection and recovery overhead versus scale.
//!
//! IPSO charges everything the sequential reference does not pay into
//! the scale-out-induced workload `Wo(n) = (Wp(n)/n)·q(n)` — and fault
//! tolerance is a pure `Wo` citizen: retried attempts, outputs lost to
//! node crashes and losing speculative copies all burn work that a
//! one-machine run never burns. This ablation sweeps the per-attempt
//! failure probability against the scale-out degree on the Sort
//! workload, decomposes the measured overhead into
//! {stragglers, scheduler, retries, speculation}, and fits the IPSO
//! induced factor per failure rate: more faults show up as a measurably
//! inflated `q(n)` (larger fitted `β·n^γ`), exactly how the model says
//! an unreliable cluster should look.
//!
//! Every run is simulated and seeded: the CSV and `BENCH_faults.json`
//! are byte-identical for any `--jobs` value.

use crate::{Context, Table};
use ipso::estimate::estimate_factors;
use ipso::measurement::RunMeasurement;
use ipso_cluster::{FaultModel, RecoveryPolicy};
use ipso_mapreduce::measure::SweepPoint;
use ipso_workloads::sort;
use serde::Serialize;

/// Per-attempt failure probabilities swept (node-crash probability is
/// coupled at a tenth of each).
const FAIL_PROBS: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];
/// Scale-out degrees swept at every failure rate.
const NS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Scales reported in the committed regression record.
const REPORT_NS: [u32; 3] = [8, 32, 128];

/// Where the regression record lands: the workspace root, NOT
/// `results/` — it sits next to `BENCH_engines.json` and is validated
/// (schema + sanity) by CI.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");

/// One grid point: a paired sequential/scale-out Sort execution under
/// one `(fail_prob, n)` setting, reduced to the numbers the table and
/// the regression record need.
struct Point {
    measurement: RunMeasurement,
    wasted_frac: f64,
    straggler_s: f64,
    scheduler_s: f64,
    retry_s: f64,
    speculation_s: f64,
}

#[derive(Debug, Serialize)]
struct FaultBenchPoint {
    fail_prob: f64,
    n: u32,
    speedup: f64,
    wasted_frac: f64,
}

#[derive(Debug, Serialize)]
struct FaultFit {
    fail_prob: f64,
    beta: f64,
    gamma: f64,
}

#[derive(Debug, Serialize)]
struct FaultReport {
    schema: &'static str,
    workload: &'static str,
    recovery: &'static str,
    points: Vec<FaultBenchPoint>,
    fits: Vec<FaultFit>,
}

/// The Sort job spec with the ablation's fault setting applied.
///
/// `p = 0` keeps the stock (fault-free) spec: the engines then consume
/// zero fault RNG draws and the row doubles as the pre-fault baseline.
fn spec_for(p: f64, n: u32) -> ipso_mapreduce::JobSpec {
    let mut spec = sort::job_spec(n);
    if p > 0.0 {
        let mut faults = FaultModel::flaky(p);
        faults.node_crash_prob = p / 10.0;
        spec.faults = faults;
        let mut recovery = RecoveryPolicy::hadoop_like().with_speculation();
        recovery.max_attempts = 8;
        spec.recovery = recovery;
    }
    spec
}

fn run_point(p: f64, n: u32) -> Point {
    let SweepPoint {
        seq,
        par,
        measurement,
        ..
    } = SweepPoint::run(
        &spec_for(p, n),
        &sort::SortMapper,
        &sort::SortReducer,
        &sort::make_splits(n, 2),
    )
    .expect("recoverable under the hadoop-like policy");

    let wasted = par
        .faults
        .as_ref()
        .map_or(0.0, ipso_cluster::FaultSummary::wasted_total);
    let (retry_s, speculation_s) = par.faults.as_ref().map_or((0.0, 0.0), |s| {
        (s.retry_wasted_s + s.crash_wasted_s, s.speculation_wasted_s)
    });
    Point {
        measurement,
        // Fraction of the map-phase work burnt by recovery.
        wasted_frac: wasted / (seq.phases.map + wasted),
        // Critical-path stretch of the map phase over the ideal even
        // split: straggler noise plus recovery latency on the slowest
        // executor.
        straggler_s: (par.phases.map - seq.phases.map / f64::from(n)).max(0.0),
        // Scheduler-attributed overhead: job setup beyond the
        // sequential environment plus dispatch-induced barrier stretch
        // (everything in Wo that is not wasted recovery work).
        scheduler_s: (par.scale_out_overhead - wasted).max(0.0),
        retry_s,
        speculation_s,
    }
}

pub(super) fn emit(ctx: &mut Context) {
    // One grid point per (fail_prob, n), failure-rate-major so each
    // runner chunk of NS.len() points is one failure rate's sweep.
    let grid: Vec<(usize, u32)> = (0..FAIL_PROBS.len())
        .flat_map(|p| NS.iter().map(move |&n| (p, n)))
        .collect();
    let points = ctx.runner.map(grid, |(pi, n)| run_point(FAIL_PROBS[pi], n));

    let mut table = Table::new(
        "ablation_faults",
        &[
            "fail_prob",
            "n",
            "speedup",
            "wasted_frac",
            "straggler_s",
            "scheduler_s",
            "retry_s",
            "speculation_s",
            "beta",
            "gamma",
        ],
    );

    let mut report = FaultReport {
        schema: "ipso-bench-faults/v1",
        workload: "sort",
        recovery: "hadoop_like + speculation, max_attempts = 8",
        points: Vec::new(),
        fits: Vec::new(),
    };
    let mut fitted_q_at_max: Vec<f64> = Vec::new();

    println!("fitted induced factor q(n) = beta * n^gamma per failure rate:\n");
    for (pi, chunk) in points.chunks(NS.len()).enumerate() {
        let p = FAIL_PROBS[pi];
        let measurements: Vec<RunMeasurement> = chunk.iter().map(|pt| pt.measurement).collect();
        let est = estimate_factors(&measurements).expect("estimable sweep");
        let asym = est.to_asymptotic().expect("non-degenerate leading terms");
        fitted_q_at_max.push(est.induced.factor.eval(f64::from(NS[NS.len() - 1])));

        for (pt, &n) in chunk.iter().zip(&NS) {
            table.push(vec![
                p,
                f64::from(n),
                pt.measurement.speedup(),
                pt.wasted_frac,
                pt.straggler_s,
                pt.scheduler_s,
                pt.retry_s,
                pt.speculation_s,
                asym.beta,
                asym.gamma,
            ]);
            if REPORT_NS.contains(&n) {
                report.points.push(FaultBenchPoint {
                    fail_prob: p,
                    n,
                    speedup: pt.measurement.speedup(),
                    wasted_frac: pt.wasted_frac,
                });
            }
        }
        report.fits.push(FaultFit {
            fail_prob: p,
            beta: asym.beta,
            gamma: asym.gamma,
        });
        let last = chunk.last().expect("non-empty sweep");
        println!(
            "  p = {p:4.2}: beta = {:9.3e}, gamma = {:5.3}, fitted q(128) = {:8.1}; \
             at n = 128: S = {:5.2}, wasted = {:4.1}% \
             (retry {:6.2} s, speculation {:5.2} s, scheduler {:5.2} s)",
            asym.beta,
            asym.gamma,
            fitted_q_at_max[pi],
            last.measurement.speedup(),
            last.wasted_frac * 100.0,
            last.retry_s,
            last.speculation_s,
            last.scheduler_s,
        );
    }
    println!();
    table.emit();

    let json = serde_json::to_string_pretty(&report).expect("fault report serializes");
    std::fs::write(REPORT_PATH, json + "\n").expect("write BENCH_faults.json");
    println!("wrote {REPORT_PATH}");

    println!(
        "\nfault recovery is scale-out-induced workload: the sequential reference never\n\
         re-executes, so every retried attempt, crash-lost output and losing speculative\n\
         copy lands in Wo(n) and inflates the fitted q(n) — the reliability tax grows\n\
         with the cluster, not with the problem."
    );

    // Sanity, on the deterministic seeded sweep. Rows are
    // failure-rate-major; the last row of each chunk is n = 128.
    let speedup_col = table.column("speedup");
    let wasted_col = table.column("wasted_frac");
    let at_max = |pi: usize| &table.rows[(pi + 1) * NS.len() - 1];
    assert!(
        at_max(FAIL_PROBS.len() - 1)[speedup_col] < at_max(0)[speedup_col],
        "faults at p = 0.2 must cost speedup at n = 128"
    );
    for pi in 1..FAIL_PROBS.len() {
        assert!(
            at_max(pi)[wasted_col] > at_max(pi - 1)[wasted_col],
            "wasted-work fraction must grow with the failure rate at n = 128"
        );
    }
    assert!(
        fitted_q_at_max[FAIL_PROBS.len() - 1] > fitted_q_at_max[0],
        "the fitted induced factor q(128) must be inflated by faults: {} vs {}",
        fitted_q_at_max[FAIL_PROBS.len() - 1],
        fitted_q_at_max[0]
    );
}
