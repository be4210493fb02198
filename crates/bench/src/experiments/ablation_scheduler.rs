//! Ablation: centralized scheduler dispatch cost.
//!
//! [Qu et al.] (the paper's reference \[7\]) blame centralized schedulers
//! for a quadratic task-dispatch burden. This ablation runs the same
//! large Spark job under three dispatch models — Hadoop-like, Spark-like
//! and an idealized distributed scheduler — and measures how much of the
//! wall clock the dispatcher eats as the task count grows.

use crate::{Context, Table};
use ipso_cluster::CentralScheduler;
use ipso_spark::{run_sequential_reference, try_run_job};
use ipso_workloads::bayes;

pub(super) fn emit(ctx: &mut Context) {
    let schedulers: [(&str, CentralScheduler); 3] = [
        ("hadoop", CentralScheduler::hadoop_like()),
        ("spark", CentralScheduler::spark_like()),
        ("idealized", CentralScheduler::idealized()),
    ];
    let task_counts = [64u32, 128, 256, 512, 1024, 2048];

    let mut table = Table::new(
        "ablation_scheduler",
        &[
            "tasks",
            "hadoop_speedup",
            "spark_speedup",
            "idealized_speedup",
        ],
    );

    // Grid: (tasks, scheduler), task-count-major to match the row order.
    let grid: Vec<(u32, usize)> = task_counts
        .iter()
        .flat_map(|&t| (0..schedulers.len()).map(move |s| (t, s)))
        .collect();
    let speedups = ctx.runner.map(grid, |(tasks, s)| {
        let m = 64;
        let mut spec = bayes::job(tasks, m);
        // Shrink per-task compute so dispatch matters, as in
        // fine-grained cloud workloads.
        for stage in &mut spec.stages {
            stage.task_compute /= 8.0;
            stage.input_bytes_per_task = 0;
            stage.caches_input = false;
        }
        spec.scheduler = schedulers[s].1;
        run_sequential_reference(&spec) / try_run_job(&spec).expect("fault-free run").total_time
    });

    for (&tasks, row_speedups) in task_counts.iter().zip(speedups.chunks(schedulers.len())) {
        let mut row = vec![f64::from(tasks)];
        row.extend(row_speedups);
        table.push(row);
    }
    table.emit();

    let hadoop = table.values("hadoop_speedup");
    let ideal = table.values("idealized_speedup");
    let last = hadoop.len() - 1;
    println!(
        "at 2048 fine-grained tasks the idealized scheduler is {:.1}x faster than the\n\
         hadoop-like one ({:.1} vs {:.1}) — the centralized-dispatch bottleneck of [7]",
        ideal[last] / hadoop[last],
        ideal[last],
        hadoop[last]
    );
    assert!(
        ideal[last] > hadoop[last],
        "idealized dispatch must win at scale"
    );
}
