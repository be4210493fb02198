//! Integration of the Collaborative Filtering analysis (paper Table I and
//! Fig. 8): the fixed-size prediction pipeline on the paper's data, the
//! simulated reproduction, and the cross-check between them.

use ipso::predict::FixedSizePredictor;
use ipso::stochastic::fixed_size_speedup;
use ipso::taxonomy::{classify, FixedSizeClass, ScalingClass, WorkloadType};
use ipso::AsymptoticParams;
use ipso_spark::{sweep_fixed_size, try_run_job};
use ipso_workloads::collab_filter::{job, table1_samples, CF_TASKS, TABLE_I};

#[test]
fn paper_data_yields_gamma_two_and_peak_near_sixty() {
    let p = FixedSizePredictor::fit(&table1_samples()).unwrap();
    assert!((p.gamma - 2.0).abs() < 0.25, "gamma = {}", p.gamma);
    assert!((p.tp1 - 1602.5).abs() / 1602.5 < 0.35, "tp1 = {}", p.tp1);
    let (n_peak, s_peak) = p.peak(240).unwrap();
    assert!((40..=80).contains(&n_peak), "peak at {n_peak}");
    assert!((15.0..=30.0).contains(&s_peak), "peak S = {s_peak}");
    // Beyond the peak the predicted speedup decays towards zero.
    assert!(p.speedup(240.0).unwrap() < s_peak * 0.8);
}

#[test]
fn measured_speedups_match_eq18_row_by_row() {
    let p = FixedSizePredictor::fit(&table1_samples()).unwrap();
    for &(n, tmax, wo) in &TABLE_I {
        let via_eq18 = fixed_size_speedup(p.tp1, tmax, wo).unwrap();
        let via_model = p.speedup(f64::from(n)).unwrap();
        // The model interpolates the measured rows closely.
        let rel = (via_eq18 - via_model).abs() / via_eq18;
        assert!(
            rel < 0.15,
            "n = {n}: eq18 {via_eq18:.2} vs model {via_model:.2}"
        );
    }
}

#[test]
fn asymptotic_classification_is_ivs() {
    let p = FixedSizePredictor::fit(&table1_samples()).unwrap();
    // Convert the fitted overhead into the asymptotic form: β from the
    // induced-factor coefficient normalized by Wp(1) = tp1.
    let beta = p.overhead_coeff / p.tp1;
    let params = AsymptoticParams::new(1.0, 1.0, 0.0, beta.max(1e-9), p.gamma).unwrap();
    let (class, bound) = classify(&params, WorkloadType::FixedSize).unwrap();
    assert_eq!(class, ScalingClass::FixedSize(FixedSizeClass::IVs));
    assert_eq!(bound, Some(0.0));
}

#[test]
fn simulated_cf_reproduces_the_paper_shape() {
    // The simulated broadcast-heavy job: same 1/n task times, same linear
    // overhead, same interior peak.
    let pts = sweep_fixed_size(job, CF_TASKS, &[10, 30, 60, 90, 120, 180]).unwrap();
    let peak = pts
        .iter()
        .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).unwrap())
        .unwrap();
    assert!((30..=90).contains(&peak.m), "peak at m = {}", peak.m);
    assert!(pts.last().unwrap().speedup < peak.speedup);

    // Overheads at the Table I points are within 2× of the paper's.
    for &(n, _, paper_wo) in &TABLE_I {
        let run = try_run_job(&job(CF_TASKS, n)).unwrap();
        let ratio = run.overhead_time / paper_wo;
        assert!(
            (0.5..2.0).contains(&ratio),
            "Wo({n}) = {:.1} vs paper {paper_wo} (ratio {ratio:.2})",
            run.overhead_time
        );
    }
}

#[test]
fn broadcast_is_the_root_cause() {
    // Ablation: remove the broadcasts and the pathology disappears.
    let with = sweep_fixed_size(job, CF_TASKS, &[10, 60, 180]).unwrap();
    let without = sweep_fixed_size(
        |n, m| {
            let mut spec = job(n, m);
            for s in &mut spec.stages {
                s.broadcast_bytes = 0;
            }
            spec
        },
        CF_TASKS,
        &[10, 60, 180],
    )
    .unwrap();
    // Without broadcast the speedup at m = 180 keeps improving over 60.
    assert!(without[2].speedup > with[2].speedup * 1.5);
    assert!(without[2].speedup > without[1].speedup * 0.95);
}
