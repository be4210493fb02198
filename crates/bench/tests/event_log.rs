//! The paper's Spark measurement path: the stage latencies and the
//! application duration read back from a run's JSON event log are the
//! engine's own `stage_times` and `total_time`.
//!
//! The comparison is on `f64::to_bits`, so it is exact: the log writes
//! every timestamp in shortest round-trip form, the reader parses back
//! the same bits, and completion minus submission is the subtraction the
//! engine made. Covered: every Fig. 9 and Fig. 10 grid point of the four
//! applications, each application's chain at the fault ablation's
//! failure rates, and the two-branch join DAG at those rates.

use ipso_cluster::{FaultModel, RecoveryPolicy};
use ipso_spark::{parse_event_log, run_dag, try_run_job, SparkJobSpec, SparkRun};
use ipso_workloads::{bayes, join, nweight, random_forest, svm};

type JobFn = fn(u32, u32) -> SparkJobSpec;

const APPS: [(&str, JobFn); 4] = [
    ("bayes", bayes::job),
    ("random_forest", random_forest::job),
    ("svm", svm::job),
    ("nweight", nweight::job),
];

/// Fig. 9's parallel degrees and loads `N/m`.
const FIG9_MS: [u32; 9] = [1, 2, 4, 8, 16, 24, 32, 48, 64];
const FIG9_LOADS: [u32; 4] = [1, 2, 4, 8];
/// Fig. 10's parallel degrees and problem sizes `N`.
const FIG10_MS: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256];
const FIG10_SIZES: [u32; 3] = [32, 64, 128];

/// The `ablation_faults` per-attempt failure probabilities above zero.
const FAIL_PROBS: [f64; 4] = [0.02, 0.05, 0.1, 0.2];
/// Parallel degrees of the faulted runs, each at load `N/m = 4`.
const FAULTED_MS: [u32; 3] = [4, 16, 64];

/// `spec` with the fault ablation's setting at failure probability `p`.
fn faulted(mut spec: SparkJobSpec, p: f64) -> SparkJobSpec {
    let mut faults = FaultModel::flaky(p);
    faults.node_crash_prob = p / 10.0;
    spec.faults = faults;
    let mut recovery = RecoveryPolicy::hadoop_like().with_speculation();
    recovery.max_attempts = 8;
    spec.recovery = recovery;
    spec
}

fn assert_log_reproduces(label: &str, run: &SparkRun) {
    let (stages, duration) = parse_event_log(&run.log).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        duration.map(f64::to_bits),
        Some(run.total_time.to_bits()),
        "{label}: duration"
    );
    let ids: Vec<u32> = stages.iter().map(|s| s.stage_id).collect();
    assert_eq!(
        ids,
        (0..run.stage_times.len() as u32).collect::<Vec<_>>(),
        "{label}: stage ids"
    );
    let logged: Vec<u64> = stages.iter().map(|s| s.latency.to_bits()).collect();
    let engine: Vec<u64> = run.stage_times.iter().map(|t| t.to_bits()).collect();
    assert_eq!(logged, engine, "{label}: stage latencies");
}

#[test]
fn figure_grid_logs_reproduce_the_engine_bits() {
    for (name, job) in APPS {
        for load in FIG9_LOADS {
            for m in FIG9_MS {
                let run = try_run_job(&job(load * m, m)).unwrap();
                assert_log_reproduces(&format!("fig9 {name} N/m = {load}, m = {m}"), &run);
            }
        }
        for size in FIG10_SIZES {
            for m in FIG10_MS {
                let run = try_run_job(&job(size, m)).unwrap();
                assert_log_reproduces(&format!("fig10 {name} N = {size}, m = {m}"), &run);
            }
        }
    }
}

#[test]
fn faulted_chain_and_join_logs_reproduce_the_engine_bits() {
    for p in FAIL_PROBS {
        for m in FAULTED_MS {
            for (name, job) in APPS {
                let run = try_run_job(&faulted(job(4 * m, m), p)).unwrap();
                assert!(!run.fault_summaries.is_empty());
                assert_log_reproduces(&format!("{name} p = {p}, m = {m}"), &run);
            }
            let run = run_dag(&faulted(join::job(4 * m, m), p), &join::job_edges()).unwrap();
            assert_log_reproduces(&format!("join p = {p}, m = {m}"), &run);
        }
    }
}
