//! Fig. 9 — the Spark benchmarks along the fixed-time dimension
//! (`N/m` constant while scaling `m`).
//!
//! Paper findings to reproduce, for all four applications:
//! the speedup curve at `N/m = 4` lies above `N/m = 2`, which lies above
//! `N/m = 1` (first-wave scheduling/deserialization amortizes over more
//! tasks per executor) — but `N/m = 8` drops below `N/m = 4` because the
//! cached partitions overflow executor memory and spill.

use crate::experiments::{Context, SPARK_APPS};
use crate::Table;
use ipso_spark::{sweep_fixed_time, SparkSweepPoint};

pub(super) fn emit(ctx: &mut Context) {
    let ms = [1u32, 2, 4, 8, 16, 24, 32, 48, 64];
    let loads = [1u32, 2, 4, 8];

    // One grid point per (app, load, m), app-major then load-major so
    // each app's per-load series are contiguous.
    let grid: Vec<(usize, u32, u32)> = (0..SPARK_APPS.len())
        .flat_map(|a| {
            loads
                .into_iter()
                .flat_map(move |x| ms.into_iter().map(move |m| (a, x, m)))
        })
        .collect();
    let points = ctx.runner.map(grid, |(a, load, m)| {
        sweep_fixed_time(SPARK_APPS[a].1, load, &[m]).remove(0)
    });
    let series: Vec<&[SparkSweepPoint]> = points.chunks(ms.len()).collect();

    for ((name, _), sweeps) in SPARK_APPS.iter().zip(series.chunks(loads.len())) {
        let mut table = Table::new(
            &format!("fig9_{name}"),
            &["m", "load1", "load2", "load4", "load8"],
        );
        for (i, &m) in ms.iter().enumerate() {
            table.push(vec![
                f64::from(m),
                sweeps[0][i].speedup,
                sweeps[1][i].speedup,
                sweeps[2][i].speedup,
                sweeps[3][i].speedup,
            ]);
        }
        table.emit();

        // The paper's ordering at the largest m.
        let last = ms.len() - 1;
        println!(
            "  {name}: at m = {}: S[N/m=1] = {:.1}, S[N/m=2] = {:.1}, S[N/m=4] = {:.1}, S[N/m=8] = {:.1}",
            ms[last],
            sweeps[0][last].speedup,
            sweeps[1][last].speedup,
            sweeps[2][last].speedup,
            sweeps[3][last].speedup,
        );
        println!(
            "  expected ordering 4 > 2 > 1 and 8 < 4 (memory spill): {}\n",
            if sweeps[2][last].speedup > sweeps[1][last].speedup
                && sweeps[1][last].speedup > sweeps[0][last].speedup
                && sweeps[3][last].speedup < sweeps[2][last].speedup
            {
                "reproduced"
            } else {
                "NOT reproduced"
            }
        );
    }
}
