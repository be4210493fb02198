//! End-to-end integration: simulated MapReduce execution → measurement →
//! factor estimation → classification → prediction, across crates.

use ipso::diagnose::Trend;
use ipso::estimate::{estimate_factors, FactorShape};
use ipso::predict::ScalingPredictor;
use ipso::taxonomy::{FixedTimeClass, ScalingClass, WorkloadType};
use ipso::Diagnostician;
use ipso_mapreduce::measure::SweepPoint;
use ipso_workloads::{qmc, sort, terasort, wordcount};

const SWEEP: &[u32] = &[1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128];

#[test]
fn sort_pipeline_identifies_in_proportion_scaling() {
    let sweep = sort::sweep(SWEEP);
    let measurements = sweep.measurements();

    // The factor estimates expose the in-proportion scaling.
    let est = estimate_factors(&measurements).unwrap();
    assert_eq!(est.internal.shape, FactorShape::Linear);
    assert!((0.5..0.7).contains(&est.eta), "eta = {}", est.eta);

    // The diagnosis lands on the pathological bounded type; refinement
    // resolves the sub-type to IIIt,1.
    let curve = sweep.speedup_curve().unwrap();
    let d = Diagnostician::new();
    let coarse = d.diagnose(&curve, WorkloadType::FixedTime).unwrap();
    assert_eq!(coarse.trend, Trend::Bounded);
    let refined = d.refine(&coarse, &est).unwrap();
    assert_eq!(
        refined.class,
        ScalingClass::FixedTime(FixedTimeClass::IIIt1)
    );
    assert!(refined.subtype_resolved);
}

#[test]
fn qmc_pipeline_identifies_gustafson_like_scaling() {
    let sweep = qmc::sweep(SWEEP);
    let curve = sweep.speedup_curve().unwrap();
    let report = Diagnostician::new()
        .diagnose(&curve, WorkloadType::FixedTime)
        .unwrap();
    assert_eq!(report.trend, Trend::Linear, "report: {report}");
    assert_eq!(report.class, ScalingClass::FixedTime(FixedTimeClass::It));
}

#[test]
fn prediction_from_small_n_matches_large_n_within_tolerance() {
    // The paper's central prediction claim, on all four applications.
    for (name, sweep, lo, hi) in [
        ("qmc", qmc::sweep(SWEEP), 0u32, 16u32),
        ("wordcount", wordcount::sweep(SWEEP), 0, 16),
        ("sort", sort::sweep(SWEEP), 0, 16),
        ("terasort", terasort::sweep(SWEEP), 16, 64),
    ] {
        let measurements = sweep.measurements();
        let predictor = if lo > 0 {
            ScalingPredictor::fit_range(&measurements, lo, hi).unwrap()
        } else {
            ScalingPredictor::fit(&measurements, hi).unwrap()
        };
        for m in measurements.iter().filter(|m| m.n > hi) {
            let predicted = predictor.predict(f64::from(m.n)).unwrap();
            let measured = m.speedup();
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.12,
                "{name} at n = {}: predicted {predicted:.2}, measured {measured:.2} ({:.0}%)",
                m.n,
                rel * 100.0
            );
        }
    }
}

#[test]
fn terasort_speedup_dips_near_the_spill_boundary() {
    // Fig. 4d: "a small surge of the speedup around n = 15 and then falls
    // back before it grows again" — in factor terms, the spill raises the
    // serial workload discontinuously at the boundary.
    // 16 shards of 128 MiB equal the 2 GiB reducer memory exactly; the
    // 17th pushes it over and triggers the spill.
    let sweep = terasort::sweep(&[14, 15, 16, 17, 18, 20]);
    let ms = sweep.measurements();
    let ws: Vec<f64> = ms.iter().map(|m| m.seq_serial_work).collect();
    // Crossing 16 -> 17 jumps Ws by more than the neighbouring steps.
    let step_before = ws[1] - ws[0];
    let step_across = ws[3] - ws[2];
    assert!(
        step_across > 3.0 * step_before.max(1e-9),
        "no spill jump: before = {step_before}, across = {step_across}"
    );
}

#[test]
fn outputs_are_correct_across_the_sweep() {
    // The engines really compute: verify Sort output order and WordCount
    // totals at a mid-size scale.
    let splits = sort::make_splits(8, 123);
    let run = ipso_mapreduce::try_run_scale_out(
        &sort::job_spec(8),
        &sort::SortMapper,
        &sort::SortReducer,
        &splits,
    )
    .unwrap();
    assert!(run.output.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        run.output.len(),
        splits.iter().map(|s| s.records.len()).sum::<usize>()
    );

    let wc_splits = wordcount::make_splits(4, 5);
    let wc = ipso_mapreduce::run_sequential(
        &wordcount::job_spec(4),
        &wordcount::WordCountMapper::new(),
        &wordcount::WordCountReducer,
        &wc_splits,
    );
    let words_in: u64 = wc_splits
        .iter()
        .flat_map(|s| s.records.iter())
        .map(|l| l.split_whitespace().count() as u64)
        .sum();
    let words_out: u64 = wc.output.iter().map(|(_, c)| c).sum();
    assert_eq!(words_in, words_out);
}

#[test]
fn sweeps_are_deterministic() {
    let a = sort::sweep(&[1, 4, 16]);
    let b = sort::sweep(&[1, 4, 16]);
    assert_eq!(a, b);
}

#[test]
fn scale_out_serial_phases_are_charged_as_in_the_sequential_run() {
    // The single reducer's shuffle, merge and reduce cost the same in the
    // scale-out run as in the sequential one (no incast, same memory
    // slowdown), so no serial excess is attributed to Wo(n). TeraSort's
    // reducer spills from n = 17 on.
    fn check(name: &str, point: &SweepPoint) {
        let (par, seq) = (&point.par.phases, &point.seq.phases);
        for (phase, p, s) in [
            ("shuffle", par.shuffle, seq.shuffle),
            ("merge", par.merge, seq.merge),
            ("reduce", par.reduce, seq.reduce),
        ] {
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "{name} n = {}: scale-out {phase} {p} vs sequential {s}",
                point.n
            );
        }
        assert_eq!(
            point.measurement.par_overhead.to_bits(),
            point.par.scale_out_overhead.to_bits(),
            "{name} n = {}: serial excess attributed to Wo",
            point.n
        );
    }
    for n in [1, 3, 8, 16, 17] {
        let point = SweepPoint::run(
            &sort::job_spec(n),
            &sort::SortMapper,
            &sort::SortReducer,
            &sort::make_splits(n, 2),
        )
        .unwrap();
        check("sort", &point);
        let point = SweepPoint::run(
            &terasort::job_spec(n),
            &terasort::TeraSortMapper,
            &terasort::TeraSortReducer,
            &terasort::make_splits(n, 3),
        )
        .unwrap();
        check("terasort", &point);
    }
}
