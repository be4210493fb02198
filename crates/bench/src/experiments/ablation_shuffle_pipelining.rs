//! Ablation: barrier shuffle versus pipelined (slow-start) shuffle on
//! the Sort workload — a *negative* result that IPSO explains.
//!
//! The paper's Sort saturates because the single reducer's serial
//! workload grows in proportion to the map side (type IIIt,1). A natural
//! engineering response is to overlap the shuffle with the map phase
//! (Hadoop's slow-start). IPSO predicts this cannot help a fixed-time
//! workload at scale: overlap can hide at most `min(map, shuffle)` per
//! job, and the map phase is a *per-shard* constant while the shuffle
//! grows like `IN(n)` — so the hideable fraction vanishes as `n` grows
//! and the IIIt,1 bound is untouched. This ablation measures exactly
//! that.

use crate::{Context, Table};
use ipso::estimate::estimate_factors;
use ipso_mapreduce::measure::SweepPoint;
use ipso_workloads::sort;

pub(super) fn emit(ctx: &mut Context) {
    let ns: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64, 96, 128, 160];

    // Grid: (pipelined?, n), variant-major so each variant's points
    // are contiguous.
    let grid: Vec<(bool, u32)> = [false, true]
        .iter()
        .flat_map(|&p| ns.iter().map(move |&n| (p, n)))
        .collect();
    let measurements = ctx.runner.map(grid, |(pipelined, n)| {
        // A shuffle-heavy Sort variant: the reducer ingests at 90 MB/s,
        // so the transfer is a large share of the serial portion and
        // pipelining has something to hide.
        let mut spec = sort::job_spec(n);
        spec.cost.shuffle_rate = 90.0e6;
        spec.pipelined_shuffle = pipelined;
        let splits = sort::make_splits(n, 2);
        SweepPoint::run(&spec, &sort::SortMapper, &sort::SortReducer, &splits)
            .expect("fault-free run")
            .measurement
    });
    let (b, p) = measurements.split_at(ns.len());

    let mut table = Table::new(
        "ablation_shuffle_pipelining",
        &["n", "barrier", "pipelined"],
    );
    for (mb, mp) in b.iter().zip(p) {
        table.push(vec![f64::from(mb.n), mb.speedup(), mp.speedup()]);
    }
    table.emit();

    let last = table.rows.last().expect("rows");
    println!(
        "S(160): barrier = {:.2}, pipelined = {:.2} ({:+.0}%)",
        last[1],
        last[2],
        100.0 * (last[2] / last[1] - 1.0)
    );

    // The hideable fraction at n = 160: one map wave (~1.7 s) against a
    // ~240 s in-proportion shuffle.
    let est_b = estimate_factors(b).expect("estimable");
    println!(
        "IN(160)/IN(1) = {:.1} — the serial portion grows linearly while the map wave\n\
         is a per-shard constant, so slow-start can hide at most min(map, shuffle) =\n\
         a vanishing fraction of the transfer. Pipelining buys {:+.1}% here: overlap\n\
         engineering cannot beat in-proportion scaling; only reducing the *order* of\n\
         IN(n) (e.g. a parallel reduce tree) changes the scaling type.",
        est_b.internal.factor.eval(160.0) / est_b.internal.factor.eval(1.0),
        100.0 * (last[2] / last[1] - 1.0),
    );
    // Pipelining helps slightly and never hurts, but cannot lift the
    // IIIt,1 bound: the improvement stays marginal at scale.
    assert!(last[2] >= last[1] - 1e-9, "pipelining must not hurt");
    assert!(
        last[2] < 1.1 * last[1],
        "at scale the improvement must stay marginal — IPSO's point"
    );
}
