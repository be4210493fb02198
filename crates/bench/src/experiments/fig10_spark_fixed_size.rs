//! Fig. 10 — the Spark benchmarks along the fixed-size dimension
//! (`N` constant while scaling `m`).
//!
//! Paper finding to reproduce: for large fixed `N`, every application's
//! speedup peaks and then falls as `m` grows — the pathological IVs
//! behaviour caused by scale-out-induced overhead — in stark contrast to
//! the monotone IIIs curve Amdahl's law predicts.

use crate::experiments::{Context, SPARK_APPS};
use crate::Table;
use ipso_spark::{sweep_fixed_size, SparkSweepPoint};

pub(super) fn emit(ctx: &mut Context) {
    let ms = [1u32, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256];
    let sizes = [32u32, 64, 128];

    // One grid point per (app, size, m), app-major then size-major so
    // each app's per-size series are contiguous.
    let grid: Vec<(usize, u32, u32)> = (0..SPARK_APPS.len())
        .flat_map(|a| {
            sizes
                .into_iter()
                .flat_map(move |x| ms.into_iter().map(move |m| (a, x, m)))
        })
        .collect();
    let points = ctx.runner.map(grid, |(a, size, m)| {
        let (name, job) = SPARK_APPS[a];
        sweep_fixed_size(job, size, &[m])
            .unwrap_or_else(|e| panic!("fig10 {name} N = {size}, m = {m}: {e}"))
            .remove(0)
    });
    let series: Vec<&[SparkSweepPoint]> = points.chunks(ms.len()).collect();

    for ((name, _), sweeps) in SPARK_APPS.iter().zip(series.chunks(sizes.len())) {
        let mut table = Table::new(&format!("fig10_{name}"), &["m", "n32", "n64", "n128"]);
        for (i, &m) in ms.iter().enumerate() {
            table.push(vec![
                f64::from(m),
                sweeps[0][i].speedup,
                sweeps[1][i].speedup,
                sweeps[2][i].speedup,
            ]);
        }
        table.emit();

        for (s_idx, &n) in sizes.iter().enumerate() {
            let peak = sweeps[s_idx]
                .iter()
                .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                .expect("non-empty");
            let last = sweeps[s_idx].last().expect("non-empty");
            println!(
                "  {name} N = {n}: peak S({}) = {:.1}, S({}) = {:.1} — {}",
                peak.m,
                peak.speedup,
                last.m,
                last.speedup,
                if last.speedup < peak.speedup && peak.m < last.m {
                    "peaks and falls (IVs)"
                } else {
                    "monotone in the measured range"
                }
            );
        }
        println!();
    }
}
