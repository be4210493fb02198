//! Sensitivity of the speedup to the five asymptotic parameters, for the
//! paper's representative workload classes.
//!
//! Answers the question behind the paper's future work ("how to quickly
//! estimate the two scaling parameters, δ and γ"): which parameter is
//! worth measuring precisely depends on the workload class and the
//! operating point.

use crate::{Context, Table};
use ipso::sensitivity::sensitivity_profile;
use ipso::AsymptoticParams;

pub(super) fn emit(ctx: &mut Context) {
    let cases: Vec<(&str, AsymptoticParams)> = vec![
        (
            "gustafson_like",
            AsymptoticParams::new(0.93, 1.0, 1.0, 0.0, 0.0).expect("valid"),
        ),
        (
            "sort_like",
            AsymptoticParams::new(0.61, 2.3, 0.0, 0.0, 0.0).expect("valid"),
        ),
        (
            "cf_like",
            AsymptoticParams::new(1.0, 1.0, 0.0, 0.0003, 2.0).expect("valid"),
        ),
        (
            "mixed_overheads",
            AsymptoticParams::new(0.85, 1.5, 0.5, 0.01, 1.5).expect("valid"),
        ),
    ];

    // One grid point per workload class.
    let profiles = ctx.runner.map((0..cases.len()).collect(), |i| {
        sensitivity_profile(&cases[i].1, [2u32, 8, 32, 64, 128, 256]).expect("evaluable")
    });

    for ((name, _), profile) in cases.iter().zip(&profiles) {
        let mut table = Table::new(
            &format!("sensitivity_{name}"),
            &[
                "n", "speedup", "d_eta", "d_alpha", "d_delta", "d_beta", "d_gamma",
            ],
        );
        for s in profile {
            table.push(vec![
                s.n, s.speedup, s.eta, s.alpha, s.delta, s.beta, s.gamma,
            ]);
        }
        table.emit();
        let last = profile.last().expect("non-empty");
        println!(
            "  {name}: dominant parameter at n = 256 is {}\n",
            last.dominant()
        );
    }

    println!(
        "takeaway: benign workloads are η-dominated (measure the serial fraction),\n\
         in-proportion workloads are α/δ-dominated (measure the merge growth), and\n\
         pathological ones are γ-dominated (find the superlinear overhead) — measure\n\
         what the class makes decisive."
    );
}
