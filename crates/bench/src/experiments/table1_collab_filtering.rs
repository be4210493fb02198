//! Table I — the Collaborative Filtering workload measurements
//! (`E[max Tp,i(n)]` and `Wo(n)` at n = 10, 30, 60, 90).
//!
//! Two columns of provenance: the paper's values (extracted from \[12\])
//! and our simulated broadcast-heavy CF job measured the same way, to
//! show the simulator reproduces the measured workload shape.

use crate::{Context, Table};
use ipso_spark::try_run_job;
use ipso_workloads::collab_filter::{job, CF_TASKS, TABLE_I};

pub(super) fn emit(ctx: &mut Context) {
    let mut table = Table::new(
        "table1_collab_filtering",
        &[
            "n",
            "paper_max_task",
            "paper_overhead",
            "sim_split_time",
            "sim_overhead",
        ],
    );
    // One grid point per Table I row: each runs its own simulated job.
    let rows = ctx
        .runner
        .map(TABLE_I.to_vec(), |(n, paper_tmax, paper_wo)| {
            let run = try_run_job(&job(CF_TASKS, n)).expect("fault-free run");
            let sim_split = run.total_time - run.overhead_time;
            vec![
                f64::from(n),
                paper_tmax,
                paper_wo,
                sim_split,
                run.overhead_time,
            ]
        });
    for row in rows {
        table.push(row);
    }
    table.emit();

    println!("shape checks (paper Section V-A, fixed-size):");
    let rows = &table.rows;
    let tmax_ratio = rows[0][3] / rows[3][3];
    println!(
        "  split time scales ~1/n: T(10)/T(90) = {tmax_ratio:.1} (ideal 9.0, paper {:.1})",
        209.0 / 31.1
    );
    let wo_ratio = rows[3][4] / rows[0][4];
    println!(
        "  overhead scales ~n: Wo(90)/Wo(10) = {wo_ratio:.1} (ideal 9.0, paper {:.1})",
        54.3 / 5.5
    );
}
