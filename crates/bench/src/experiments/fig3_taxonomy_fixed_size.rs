//! Fig. 3 — the four fixed-size scaling behaviours (Is, IIs, IIIs,1,
//! IIIs,2, IVs) with their bounds. Amdahl's law appears as the special
//! case of IIIs,1 with γ = 0 and α = 1.

use crate::{Context, Table};
use ipso::taxonomy::{classify, WorkloadType};
use ipso::AsymptoticParams;

pub(super) fn emit(ctx: &mut Context) {
    let cases: Vec<(&str, AsymptoticParams)> = vec![
        (
            "Is",
            AsymptoticParams::new(1.0, 1.0, 0.0, 0.0, 0.0).expect("valid"),
        ),
        (
            "IIs",
            AsymptoticParams::new(1.0, 1.0, 0.0, 0.3, 0.5).expect("valid"),
        ),
        (
            "IIIs1_amdahl",
            AsymptoticParams::new(0.95, 1.0, 0.0, 0.0, 0.0).expect("valid"),
        ),
        (
            "IIIs2",
            AsymptoticParams::new(0.95, 1.0, 0.0, 0.02, 1.0).expect("valid"),
        ),
        (
            "IVs",
            AsymptoticParams::new(1.0, 1.0, 0.0, 0.0006, 2.0).expect("valid"),
        ),
    ];

    let ns: Vec<u32> = (0..=50).map(|i| 1 + i * 10).collect();
    let mut columns = vec!["n".to_string()];
    columns.extend(cases.iter().map(|(name, _)| name.to_string()));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("fig3_taxonomy_fixed_size", &col_refs);

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

    println!("classification and bounds (paper Fig. 3 annotations):");
    for (name, p) in &cases {
        let (class, bound) = classify(p, WorkloadType::FixedSize).expect("classifiable");
        match bound {
            Some(b) => println!("  {name:13} -> {class} bound = {b:.2}"),
            None => println!("  {name:13} -> {class} unbounded"),
        }
    }
}
