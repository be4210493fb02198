//! Ablation: serialized driver broadcast versus a binomial broadcast
//! tree, on the Collaborative Filtering workload.
//!
//! The paper attributes CF's pathological IVs scaling to the broadcast
//! overhead growing linearly per node (\[12\]). If that diagnosis is right,
//! replacing the serialized unicasts with a log₂(n)-depth tree (what
//! Spark's later TorrentBroadcast does) should defer the peak and raise
//! it — which is exactly what this ablation shows.

use crate::{Context, Table};
use ipso_spark::sweep_fixed_size;
use ipso_workloads::collab_filter::{job, CF_TASKS};

pub(super) fn emit(ctx: &mut Context) {
    let ms = [10u32, 20, 30, 45, 60, 90, 120, 180, 240];

    // Grid: (tree?, m), variant-major so each variant's points
    // reassemble contiguously.
    let grid: Vec<(bool, u32)> = [false, true]
        .iter()
        .flat_map(|&t| ms.iter().map(move |&m| (t, m)))
        .collect();
    let points = ctx.runner.map(grid, |(tree_broadcast, m)| {
        let job = |n, mm| {
            let mut spec = job(n, mm);
            spec.network.tree_broadcast = tree_broadcast;
            spec
        };
        sweep_fixed_size(job, CF_TASKS, &[m])
            .unwrap_or_else(|e| panic!("tree broadcast {tree_broadcast}, m = {m}: {e}"))
            .remove(0)
    });
    let (serial, tree) = points.split_at(ms.len());

    let mut table = Table::new(
        "ablation_broadcast",
        &[
            "m",
            "serial_speedup",
            "tree_speedup",
            "serial_overhead",
            "tree_overhead",
        ],
    );
    for (s, t) in serial.iter().zip(tree) {
        table.push(vec![
            f64::from(s.m),
            s.speedup,
            t.speedup,
            s.overhead_time,
            t.overhead_time,
        ]);
    }
    table.emit();

    let peak = |pts: &[ipso_spark::SparkSweepPoint]| {
        pts.iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .map(|p| (p.m, p.speedup))
            .expect("non-empty")
    };
    let (sm, ss) = peak(serial);
    let (tm, ts) = peak(tree);
    println!("serialized broadcast: peak S({sm}) = {ss:.1} — the paper's IVs pathology");
    println!("tree broadcast      : peak S({tm}) = {ts:.1}");
    println!(
        "the tree defers the peak by {:.1}x and lifts it by {:.1}x — confirming the\n\
         broadcast as the root cause of the CF pathology",
        f64::from(tm) / f64::from(sm),
        ts / ss
    );
    assert!(tm >= sm && ts > ss, "tree broadcast should dominate");
}
