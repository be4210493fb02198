//! Fig. 6 — measured and fitted `EX(n)` and `IN(n)` for the four
//! MapReduce cases.
//!
//! Paper findings to reproduce: `EX(n) ≈ n` for all four cases (the
//! memory-bounded workload is indistinguishable from fixed-time);
//! `IN(n) ≈ 1` for WordCount and QMC; linear `IN(n)` with substantial
//! slope for Sort (0.36·n − 0.11) and TeraSort (0.23·n + 2.72 past the
//! spill).

use crate::experiments::{Context, WORKLOADS};
use crate::Table;
use ipso::estimate::estimate_factors;

pub(super) fn emit(ctx: &mut Context) {
    let ns: Vec<u32> = vec![1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128, 160];
    let sweeps = ctx.sweeps(&WORKLOADS.map(|w| (w, &ns[..])));

    let mut table = Table::new("fig6_scaling_factors", &["n", "ex", "in", "case"]);
    println!("fitted factors (fit window: n <= 16, as in the paper):\n");
    for (idx, ((name, _), sweep)) in WORKLOADS.iter().zip(&sweeps).enumerate() {
        let all = sweep.measurements();
        for m in &all {
            let base = &all[0];
            table.push(vec![
                f64::from(m.n),
                m.seq_parallel_work / base.seq_parallel_work,
                if base.seq_serial_work > 0.0 {
                    m.seq_serial_work / base.seq_serial_work
                } else {
                    1.0
                },
                idx as f64,
            ]);
        }
        let window: Vec<_> = all.iter().copied().filter(|m| m.n <= 16).collect();
        let est = estimate_factors(&window).expect("estimable");
        let ex16 = est.external.factor.eval(16.0) / est.external.factor.eval(1.0);
        println!(
            "  {name:9}: EX(16)/EX(1) = {ex16:.2} (fixed-time expects 16.00), IN shape = {:?}, IN fit = {:?}",
            est.internal.shape, est.internal.factor
        );
        println!(
            "             eta = {:.3}, epsilon(160) = {:.2}",
            est.eta,
            est.epsilon(160.0)
        );
    }
    println!();
    table.emit();
}
