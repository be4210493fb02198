//! Sections I/VI — speedup-versus-cost provisioning.
//!
//! The paper motivates IPSO with "the best speedup-versus-cost tradeoffs"
//! and proposes measurement-based provisioning as future work. This
//! experiment closes the loop: fit IPSO to the simulated Sort workload at
//! small n, then pick the scale-out degree that (a) maximizes speedup,
//! (b) maximizes speedup per dollar, and (c) meets a deadline at minimum
//! cost.

use crate::experiments::{Context, SORT};
use crate::Table;
use ipso::predict::ScalingPredictor;
use ipso::provision::{CostModel, Provisioner};
use ipso_workloads::FIT_WINDOW;

pub(super) fn emit(ctx: &mut Context) {
    let sweep = ctx.sweeps(&[(SORT, &[1, 2, 4, 8, 12, 16])]).remove(0);
    let measurements = sweep.measurements();
    let predictor = ScalingPredictor::fit(&measurements, FIT_WINDOW).expect("fit");
    let t1 = measurements[0].sequential_time();

    let provisioner =
        Provisioner::new(predictor.model().clone(), t1, CostModel::default()).expect("valid");

    let mut table = Table::new(
        "provisioning_tradeoffs",
        &[
            "n",
            "speedup",
            "job_time_s",
            "job_cost_usd",
            "speedup_per_usd",
        ],
    );
    for p in provisioner.sweep(200).expect("sweep") {
        if p.n == 1 || p.n % 10 == 0 {
            table.push(vec![
                f64::from(p.n),
                p.speedup,
                p.job_time,
                p.job_cost,
                p.speedup_per_dollar,
            ]);
        }
    }
    table.emit();

    let fastest = provisioner.fastest(200).expect("evaluable");
    let efficient = provisioner.most_efficient(200).expect("evaluable");
    let knee = provisioner.knee(0.9, 200).expect("evaluable");
    println!(
        "fastest          : n = {:3}  S = {:.2}  cost = ${:.3}",
        fastest.n, fastest.speedup, fastest.job_cost
    );
    println!(
        "most efficient   : n = {:3}  S = {:.2}  cost = ${:.3}",
        efficient.n, efficient.speedup, efficient.job_cost
    );
    println!(
        "90%-of-peak knee : n = {:3}  S = {:.2}  cost = ${:.3}",
        knee.n, knee.speedup, knee.job_cost
    );
    match provisioner
        .cheapest_meeting_deadline(t1 / 3.0, 200)
        .expect("evaluable")
    {
        Some(p) => println!(
            "deadline T1/3    : n = {:3}  time = {:.1}s  cost = ${:.3}",
            p.n, p.job_time, p.job_cost
        ),
        None => println!("deadline T1/3    : unreachable at any n <= 200"),
    }
    println!(
        "\nFor this IIIt,1 workload the knee sits far below the speedup peak: paying for\n\
         nodes past n = {} buys almost nothing — exactly the provisioning insight IPSO\n\
         exists to provide.",
        knee.n
    );
}
