//! Fig. 2 — the four fixed-time scaling behaviours (It, IIt, IIIt,1,
//! IIIt,2, IVt) with their bounds.
//!
//! Regenerates one speedup series per representative parameter set and
//! prints the taxonomy classification and closed-form bound for each.

use crate::{Context, Table};
use ipso::taxonomy::{classify, WorkloadType};
use ipso::AsymptoticParams;

pub(super) fn emit(ctx: &mut Context) {
    // Representative parameter sets (η, α, δ, β, γ) for each behaviour.
    let cases: Vec<(&str, AsymptoticParams)> = vec![
        (
            "It",
            AsymptoticParams::new(0.9, 1.0, 1.0, 0.0, 0.0).expect("valid"),
        ),
        (
            "IIt",
            AsymptoticParams::new(0.9, 1.0, 0.5, 0.0, 0.0).expect("valid"),
        ),
        (
            "IIIt1",
            AsymptoticParams::new(0.8, 4.3, 0.0, 0.0, 0.0).expect("valid"),
        ),
        (
            "IIIt2",
            AsymptoticParams::new(1.0, 1.0, 0.0, 0.05, 1.0).expect("valid"),
        ),
        (
            "IVt",
            AsymptoticParams::new(0.9, 1.0, 1.0, 0.001, 2.0).expect("valid"),
        ),
    ];

    let ns: Vec<u32> = (0..=50).map(|i| 1 + i * 10).collect();
    let mut columns = vec!["n".to_string()];
    columns.extend(cases.iter().map(|(name, _)| name.to_string()));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("fig2_taxonomy_fixed_time", &col_refs);

    // One grid point per n-row; every case is evaluated at that n.
    let rows = ctx.runner.map(ns, |n| {
        let mut row = vec![f64::from(n)];
        for (_, p) in &cases {
            row.push(p.speedup(f64::from(n)).expect("evaluable"));
        }
        row
    });
    for row in rows {
        table.push(row);
    }
    table.emit();

    println!("classification and bounds (paper Fig. 2 annotations):");
    for (name, p) in &cases {
        let (class, bound) = classify(p, WorkloadType::FixedTime).expect("classifiable");
        match bound {
            Some(b) => println!("  {name:7} -> {class} bound = {b:.2}"),
            None => println!("  {name:7} -> {class} unbounded"),
        }
    }
}
