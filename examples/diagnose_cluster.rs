//! The paper's six-step diagnostic procedure, end to end: run a workload
//! on the simulated cluster, measure its speedup curve, identify the
//! scaling type, and pin down the root cause with factor estimates.
//!
//! ```text
//! cargo run --release --example diagnose_cluster
//! ```

use ipso::estimate::estimate_factors;
use ipso::taxonomy::WorkloadType;
use ipso::Diagnostician;
use ipso_workloads::{sort, terasort};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let diagnostician = Diagnostician::new();

    for (name, sweep) in [
        (
            "sort",
            sort::sweep(&[1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128]),
        ),
        (
            "terasort",
            terasort::sweep(&[1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128]),
        ),
    ] {
        println!("════════ {name} ════════");

        // Steps 1–3: workload type is fixed-time (128 MB per node);
        // measure and plot the speedup curve.
        let curve = sweep.speedup_curve()?;
        for p in curve.points() {
            let bar = "#".repeat((p.speedup * 8.0) as usize);
            println!("  n = {:4}  S = {:6.2}  {bar}", p.n, p.speedup);
        }

        // Steps 4–5: match the trend against Figs. 2–3.
        let coarse = diagnostician.diagnose(&curve, WorkloadType::FixedTime)?;
        println!("\ncoarse diagnosis:\n{coarse}\n");

        // Step 6: resolve the sub-type with exact factor estimates.
        let estimates = estimate_factors(&sweep.measurements())?;
        let refined = diagnostician.refine(&coarse, &estimates)?;
        println!("refined (step 6): {}", refined.class);
        println!("  {}", refined.root_cause);
        println!(
            "  in-proportion ratio epsilon(128) = {:.2}",
            estimates.epsilon(128.0)
        );
        println!();
    }
    Ok(())
}
