//! Fig. 8 — Collaborative Filtering: fitted workload curves and the
//! measured/IPSO/Amdahl speedups.
//!
//! Reproduces the paper's analysis of Table I: nonlinear regression fits
//! `E[max Tp,i(n)] = a/n + c` and `Wo(n) = b·n^(γ−1)` (so the induced
//! factor has γ = 2), extrapolates `E[Tp,1(1)] ≈ 1602.5`, and evaluates
//! Eq. 18. The speedup peaks near n = 60 at a dismal ≈ 21 and then
//! decays — type IVs — while Amdahl's law (η = 1) predicts S(n) = n.

use crate::{Context, Table};
use ipso::predict::FixedSizePredictor;
use ipso::stochastic::fixed_size_speedup;
use ipso_workloads::collab_filter::{table1_samples, TABLE_I};

pub(super) fn emit(ctx: &mut Context) {
    let samples = table1_samples();
    let predictor = FixedSizePredictor::fit(&samples).expect("fit Table I");

    println!("fitted workload curves (paper Fig. 8a):");
    println!(
        "  E[max Tp,i(n)] = {:.1}/n + {:.1}   (extrapolated E[Tp,1(1)] = {:.1}; paper: 1602.5)",
        predictor.task_coeff, predictor.task_offset, predictor.tp1
    );
    println!(
        "  Wo(n) = {:.3}·n^{:.2}  =>  q(n) ~ n^{:.2}  (paper: gamma = 2)\n",
        predictor.overhead_coeff,
        predictor.gamma - 1.0,
        predictor.gamma
    );

    let mut table = Table::new(
        "fig8_collab_filtering",
        &["n", "measured", "ipso", "amdahl"],
    );
    // Grid: measured points from Table I (with their raw measurements)
    // followed by the extrapolated ns beyond them.
    let grid: Vec<(u32, Option<(f64, f64)>)> = TABLE_I
        .iter()
        .map(|&(n, tmax, wo)| (n, Some((tmax, wo))))
        .chain([120u32, 150, 180, 210, 240].into_iter().map(|n| (n, None)))
        .collect();
    let rows = ctx.runner.map(grid, |(n, sample)| {
        let ipso = predictor.speedup(f64::from(n)).expect("valid");
        // Measured points evaluate Eq. 18 with the fitted Tp,1(1).
        let measured = match sample {
            Some((tmax, wo)) => fixed_size_speedup(predictor.tp1, tmax, wo).expect("valid"),
            None => f64::NAN,
        };
        vec![f64::from(n), measured, ipso, f64::from(n)]
    });
    for row in rows {
        table.push(row);
    }
    table.emit();

    let (n_peak, s_peak) = predictor.peak(240).expect("peak");
    println!(
        "IPSO peak: S({n_peak}) = {s_peak:.1} (paper: ~21 near n = 60), then decay — type IVs."
    );
    println!("Scaling out beyond n = {n_peak} only harms performance; Amdahl predicts S(n) = n.");
}
