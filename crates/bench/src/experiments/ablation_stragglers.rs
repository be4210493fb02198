//! Ablation: straggler severity under barrier synchronization.
//!
//! The paper's statistic model (Eq. 8) carries `E[max_i Tp,i(n)]` in the
//! denominator precisely because stragglers plus a barrier make the
//! slowest task decisive. This ablation sweeps task-time distributions of
//! increasing tail weight through the stochastic model and reports the
//! speedup loss versus the deterministic Eq. 10 — including the
//! heavy-tailed Pareto regime of [Zaharia et al., OSDI '08].

use crate::{Context, Table};
use ipso::stochastic::{StochasticIpso, TaskTimeDistribution};
use ipso::ScalingFactor;

pub(super) fn emit(ctx: &mut Context) {
    let dists: Vec<(&str, TaskTimeDistribution)> = vec![
        (
            "deterministic",
            TaskTimeDistribution::Deterministic { value: 10.0 },
        ),
        (
            "uniform_5pct",
            TaskTimeDistribution::Uniform { lo: 9.5, hi: 10.5 },
        ),
        (
            "uniform_30pct",
            TaskTimeDistribution::Uniform { lo: 7.0, hi: 13.0 },
        ),
        (
            "exponential",
            TaskTimeDistribution::Exponential { mean: 10.0 },
        ),
        (
            "shifted_exp",
            TaskTimeDistribution::ShiftedExponential {
                shift: 8.0,
                mean: 2.0,
            },
        ),
        (
            "pareto_2_5",
            TaskTimeDistribution::Pareto {
                scale: 6.0,
                shape: 2.5,
            },
        ),
    ];

    let mut columns = vec!["n".to_string()];
    columns.extend(dists.iter().map(|(name, _)| name.to_string()));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("ablation_stragglers", &col_refs);

    let models: Vec<StochasticIpso> = dists
        .iter()
        .map(|(_, dist)| {
            StochasticIpso::new(
                *dist,
                1.0, // 10:1 parallel-to-serial workload at n = 1
                ScalingFactor::linear(),
                ScalingFactor::one(),
                ScalingFactor::zero(),
            )
            .expect("valid model")
        })
        .collect();

    // One grid point per n-row; every distribution is evaluated at it.
    let rows = ctx.runner.map(vec![1u32, 4, 16, 64, 128, 256], |n| {
        let mut row = vec![f64::from(n)];
        for m in &models {
            row.push(m.speedup(n).expect("evaluable"));
        }
        row
    });
    for row in rows {
        table.push(row);
    }
    table.emit();

    // Loss relative to the deterministic model at n = 256.
    let last = table.rows.last().expect("rows present");
    println!("speedup retained versus the deterministic model at n = 256:");
    for (i, (name, _)) in dists.iter().enumerate() {
        let retained = last[i + 1] / last[1];
        println!("  {name:15} {:5.1}%", retained * 100.0);
    }
    println!(
        "\nheavier tails cost more under barrier synchronization: E[max] grows like the\n\
         tail's order statistics (log n for exponential, n^(1/a) for Pareto) while the\n\
         mean workload stays fixed — the effective serial workload of [9]."
    );
    // Sanity: ordering by tail weight at n = 256 (columns: n,
    // deterministic, uniform_5pct, uniform_30pct, exponential,
    // shifted_exp, pareto_2_5).
    assert!(last[1] > last[2], "noise must cost something");
    assert!(last[2] > last[3], "wider uniform jitter costs more");
    assert!(
        last[3] > last[4],
        "exponential tails cost more than bounded jitter"
    );
}
