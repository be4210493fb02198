//! End-to-end integration of the Spark engine: event-log-driven analysis
//! and the paper's two scaling dimensions for all four applications.

use ipso::measurement::SpeedupCurve;
use ipso::taxonomy::{FixedSizeClass, ScalingClass, WorkloadType};
use ipso::Diagnostician;
use ipso_spark::{parse_event_log, sweep_fixed_size, sweep_fixed_time, try_run_job, SparkJobSpec};
use ipso_workloads::{bayes, nweight, random_forest, svm};

type JobFn = fn(u32, u32) -> SparkJobSpec;

const APPS: [(&str, JobFn); 4] = [
    ("bayes", bayes::job as JobFn),
    ("random_forest", random_forest::job as JobFn),
    ("svm", svm::job as JobFn),
    ("nweight", nweight::job as JobFn),
];

#[test]
fn event_logs_reconstruct_total_latency() {
    for (name, job) in APPS {
        let run = try_run_job(&job(32, 8)).unwrap();
        let (stages, duration) = parse_event_log(&run.log).unwrap();
        assert!(!stages.is_empty(), "{name} produced no stages");
        let total = duration.unwrap();
        assert!(
            (total - run.total_time).abs() < 1e-9,
            "{name}: log total {total} vs engine {}",
            run.total_time
        );
        // Stage latencies plus pre-stage overhead (executor launch) cover
        // the whole application window.
        let stage_sum: f64 = stages.iter().map(|s| s.latency).sum();
        assert!(stage_sum <= total + 1e-9, "{name}: stages exceed total");
    }
}

#[test]
fn fixed_time_load_ordering_holds_for_all_apps() {
    // Paper Fig. 9: higher per-executor load scales better, up to the
    // memory limit.
    let ms = [8u32, 16, 32];
    for (name, job) in APPS {
        let l1 = sweep_fixed_time(job, 1, &ms);
        let l4 = sweep_fixed_time(job, 4, &ms);
        let l8 = sweep_fixed_time(job, 8, &ms);
        for i in 0..ms.len() {
            assert!(
                l4[i].speedup > l1[i].speedup,
                "{name} m = {}: N/m=4 ({:.2}) should beat N/m=1 ({:.2})",
                ms[i],
                l4[i].speedup,
                l1[i].speedup
            );
            assert!(
                l8[i].speedup < l4[i].speedup,
                "{name} m = {}: N/m=8 ({:.2}) should trail N/m=4 ({:.2}) via spill",
                ms[i],
                l8[i].speedup,
                l4[i].speedup
            );
        }
    }
}

#[test]
fn fixed_size_dimension_is_type_ivs_for_all_apps() {
    // Paper Fig. 10: for fixed N the speedup peaks and falls, and the
    // diagnostic procedure classifies it as IVs.
    let ms = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
    for (name, job) in APPS {
        let pts = sweep_fixed_size(job, 64, &ms);
        let curve = SpeedupCurve::from_pairs(pts.iter().map(|p| (p.m, p.speedup))).unwrap();
        let report = Diagnostician::new()
            .diagnose(&curve, WorkloadType::FixedSize)
            .unwrap();
        assert_eq!(
            report.class,
            ScalingClass::FixedSize(FixedSizeClass::IVs),
            "{name}: {report}"
        );
        let (peak_m, _) = report.peak.expect("peaked curve");
        assert!(peak_m < 256, "{name}: peak at the edge");
    }
}

#[test]
fn overhead_fraction_grows_with_parallelism() {
    for (name, job) in APPS {
        let small = try_run_job(&job(64, 4)).unwrap();
        let large = try_run_job(&job(64, 64)).unwrap();
        assert!(
            large.overhead_fraction() > small.overhead_fraction(),
            "{name}: overhead fraction should grow: {:.3} -> {:.3}",
            small.overhead_fraction(),
            large.overhead_fraction()
        );
    }
}

#[test]
fn spark_runs_are_deterministic() {
    for (_, job) in APPS {
        assert_eq!(
            try_run_job(&job(16, 8)).unwrap(),
            try_run_job(&job(16, 8)).unwrap()
        );
    }
}
