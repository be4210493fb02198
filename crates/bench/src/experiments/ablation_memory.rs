//! Ablation: executor memory versus the optimal per-executor load.
//!
//! The paper concludes from Fig. 9 that "the optimal scale-out level, or
//! parallel degree m is determined by both the workload size and the
//! resource availability at individual executors". This ablation sweeps
//! executor memory and shows the best load level `N/m` moving with it:
//! more RAM shifts the spill boundary right and makes heavier loads
//! optimal.

use crate::{Context, Table};
use ipso_spark::sweep_fixed_time;
use ipso_workloads::bayes;

const GIB: u64 = 1024 * 1024 * 1024;

pub(super) fn emit(ctx: &mut Context) {
    let loads = [1u32, 2, 4, 8, 16];
    let memories = [2 * GIB, 4 * GIB, 8 * GIB, 16 * GIB];
    let m = 16;

    let mut table = Table::new(
        "ablation_memory",
        &[
            "memory_gib",
            "load1",
            "load2",
            "load4",
            "load8",
            "load16",
            "best_load",
        ],
    );

    // Grid: (memory, load), memory-major so each memory's load series
    // reassembles contiguously.
    let grid: Vec<(u64, u32)> = memories
        .iter()
        .flat_map(|&mem| loads.iter().map(move |&load| (mem, load)))
        .collect();
    let all_speedups = ctx.runner.map(grid, |(mem, load)| {
        let job = |n, mm| {
            let mut spec = bayes::job(n, mm);
            spec.executor_memory = mem;
            spec
        };
        sweep_fixed_time(job, load, &[m])[0].speedup
    });

    println!("speedup at m = {m} by per-executor load level and executor memory:");
    for (&mem, speedups) in memories.iter().zip(all_speedups.chunks(loads.len())) {
        let best_idx = speedups
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0;
        let best_load = loads[best_idx];
        println!(
            "  {:2} GiB: best N/m = {:2} (S = {:.2})",
            mem / GIB,
            best_load,
            speedups[best_idx]
        );
        let mut row = vec![(mem / GIB) as f64];
        row.extend(speedups);
        row.push(f64::from(best_load));
        table.push(row);
    }
    table.emit();

    let best_loads = table.values("best_load");
    assert!(
        best_loads.windows(2).all(|w| w[1] >= w[0]),
        "the optimal load level should be non-decreasing in executor memory: {best_loads:?}"
    );
    println!(
        "the optimal per-executor load follows the memory: the spill boundary\n\
         (load x 640 MB vs executor RAM) decides where Fig. 9's inversion happens."
    );
}
