//! Scaling a Spark-style ML job along both of the paper's dimensions,
//! reading stage latencies from the JSON event log exactly as the paper
//! does.
//!
//! ```text
//! cargo run --release --example spark_scaling
//! ```

use ipso::measurement::SpeedupCurve;
use ipso::taxonomy::WorkloadType;
use ipso::Diagnostician;
use ipso_spark::{parse_event_log, sweep_fixed_size, sweep_fixed_time, try_run_job};
use ipso_workloads::bayes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Inspect one run through its event log ───────────────────────────
    let job = bayes::job(64, 16);
    let run = try_run_job(&job)?;
    let (stages, duration) = parse_event_log(&run.log)?;
    println!("bayes N = 64, m = 16 — stage latencies from the JSON event log:");
    for s in &stages {
        println!(
            "  stage {:2} {:<18} {:4} tasks  {:7.2}s",
            s.stage_id, s.stage_name, s.num_tasks, s.latency
        );
    }
    println!(
        "  total {:.2}s (overhead {:.2}s = {:.0}%)\n",
        duration.unwrap_or(run.total_time),
        run.overhead_time,
        100.0 * run.overhead_fraction()
    );

    // ── Fixed-time dimension (N/m constant) ─────────────────────────────
    let ms = [1u32, 2, 4, 8, 16, 32, 64];
    println!("fixed-time dimension (paper Fig. 9): speedup at load levels N/m:");
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>8}",
        "m", "N/m=1", "N/m=2", "N/m=4", "N/m=8"
    );
    let by_load: Vec<_> = [1, 2, 4, 8]
        .iter()
        .map(|&l| sweep_fixed_time(bayes::job, l, &ms))
        .collect();
    for (i, &m) in ms.iter().enumerate() {
        println!(
            "{:>5} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            m,
            by_load[0][i].speedup,
            by_load[1][i].speedup,
            by_load[2][i].speedup,
            by_load[3][i].speedup
        );
    }
    println!("  -> N/m = 4 wins; N/m = 8 spills executor memory, as in the paper.\n");

    // ── Fixed-size dimension (N constant) ───────────────────────────────
    let ms_wide = [1u32, 2, 4, 8, 16, 32, 64, 128, 192, 256];
    let pts = sweep_fixed_size(bayes::job, 64, &ms_wide);
    println!("fixed-size dimension (paper Fig. 10), N = 64:");
    for p in &pts {
        println!("  m = {:4}  S = {:6.2}", p.m, p.speedup);
    }

    // Diagnose the curve with the paper's procedure.
    let curve = SpeedupCurve::from_pairs(pts.iter().map(|p| (p.m, p.speedup)))?;
    let report = Diagnostician::new().diagnose(&curve, WorkloadType::FixedSize)?;
    println!("\ndiagnosis:\n{report}");
    Ok(())
}
