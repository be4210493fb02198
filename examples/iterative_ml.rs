//! Sensitivity analysis of an iterative ML job: which scaling parameter
//! to measure carefully.
//!
//! Paper Section III models a job of several rounds at one scale-out
//! degree by summing each workload over the rounds; a measured run
//! already reports those sums (see `ipso::RunMeasurement`). This example
//! starts from the asymptotic parameters of such a sum.
//!
//! ```text
//! cargo run --release --example iterative_ml
//! ```

use ipso::sensitivity::sensitivity;
use ipso::AsymptoticParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ALS-style job (the paper's Collaborative Filtering structure):
    // six fixed-size broadcast-then-map rounds of 260 s each and a
    // 120 s evaluation pass, with 25 s of serial merge in all. The
    // broadcasts add scale-out overhead q(n) = n²/3600 times the
    // parallel work.
    let eta = (6.0 * 260.0 + 120.0) / (6.0 * 260.0 + 120.0 + 25.0);
    let params = AsymptoticParams::new(eta, 1.0, 0.0, 1.0 / 3600.0, 2.0)?;

    println!("eta = {eta:.3}");
    println!("\n{:>5} {:>10}", "n", "speedup");
    for n in [1u32, 10, 30, 60, 90, 120, 180] {
        println!("{n:>5} {:>10.2}", params.speedup(f64::from(n))?);
    }
    let mut peak = (1u32, params.speedup(1.0)?);
    for n in 2..=300u32 {
        let s = params.speedup(f64::from(n))?;
        if s > peak.1 {
            peak = (n, s);
        }
    }
    let (n_peak, s_peak) = peak;
    println!(
        "\npeak: S({n_peak}) = {s_peak:.1} — past it, the broadcasts' growing\n\
         cost outgrows the shrinking per-node work (type IVs)"
    );

    // Which parameter controls the fate of this job?
    let sens = sensitivity(&params, f64::from(n_peak))?;
    println!(
        "\nsensitivities at the peak: eta {:+.2}, alpha {:+.2}, delta {:+.2}, \
         beta {:+.2}, gamma {:+.2}",
        sens.eta, sens.alpha, sens.delta, sens.beta, sens.gamma
    );
    println!(
        "dominant parameter: {} — spend measurement effort there first",
        sens.dominant()
    );
    Ok(())
}
