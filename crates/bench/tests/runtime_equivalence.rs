//! Engine-equivalence suite for the unified cluster runtime.
//!
//! Both engines were refactored from private schedule/fault/accounting
//! loops onto one task-graph IR ([`ipso_cluster::TaskGraph`]) and one
//! executor ([`ipso_cluster::execute`]). The refactor's contract is
//! *byte*-equivalence: identical RNG draw order, float-operation
//! association and accumulation order, so every simulated time is
//! bit-for-bit the number the pre-refactor engines produced.
//!
//! The `golden_*` constants below are `f64::to_bits` patterns captured
//! from the last pre-refactor build (straggler noise on, seeds as in
//! the workload specs). If one of these tests fails, the runtime's
//! arithmetic drifted — every committed `results/*.csv` and trace
//! artifact would silently change with it.

use ipso_cluster::{FaultModel, RecoveryPolicy};
use ipso_spark::{run_dag, try_run_job, SparkRun};
use ipso_workloads::{bayes, join, sort, terasort, wordcount};

/// Recovery used for every faulted golden run.
fn golden_recovery() -> RecoveryPolicy {
    let mut recovery = RecoveryPolicy::hadoop_like().with_speculation();
    recovery.max_attempts = 12;
    recovery
}

fn assert_spark_bits(run: &SparkRun, total: u64, overhead: u64, stages: &[u64]) {
    assert_eq!(run.total_time.to_bits(), total, "total_time drifted");
    assert_eq!(run.overhead_time.to_bits(), overhead, "overhead drifted");
    let got: Vec<u64> = run.stage_times.iter().map(|t| t.to_bits()).collect();
    assert_eq!(got, stages, "stage_times drifted");
}

#[test]
fn mapreduce_totals_match_pre_refactor_bits() {
    let run = ipso_mapreduce::try_run_scale_out(
        &sort::job_spec(8),
        &sort::SortMapper,
        &sort::SortReducer,
        &sort::make_splits(8, 2),
    )
    .unwrap()
    .trace;
    assert_eq!(run.total_time().to_bits(), 0x40226db782e184dd);
    assert_eq!(run.scale_out_overhead.to_bits(), 0x3ff091148fd9fd37);

    let run = ipso_mapreduce::try_run_scale_out(
        &terasort::job_spec(8),
        &terasort::TeraSortMapper,
        &terasort::TeraSortReducer,
        &terasort::make_splits(8, 2),
    )
    .unwrap()
    .trace;
    assert_eq!(run.total_time().to_bits(), 0x4026a29dca047a8a);
    assert_eq!(run.scale_out_overhead.to_bits(), 0x3ff091148fd9fd36);

    let mapper = wordcount::WordCountMapper::new();
    let run = ipso_mapreduce::try_run_scale_out(
        &wordcount::job_spec(8),
        &mapper,
        &wordcount::WordCountReducer,
        &wordcount::make_splits(8, 2),
    )
    .unwrap()
    .trace;
    assert_eq!(run.total_time().to_bits(), 0x40321b96b0061364);
    assert_eq!(run.scale_out_overhead.to_bits(), 0x3ff091148fd9fd38);
}

/// TeraSort at n = 32: the reducer's 4 GiB input outgrows its 2 GiB
/// memory, so the merge and reduce times pass through the spill
/// slowdown that the n = 8 pin above never reaches.
#[test]
fn mapreduce_spilling_reducer_matches_pinned_bits() {
    let run = ipso_mapreduce::try_run_scale_out(
        &terasort::job_spec(32),
        &terasort::TeraSortMapper,
        &terasort::TeraSortReducer,
        &terasort::make_splits(32, 2),
    )
    .unwrap()
    .trace;
    assert_eq!(run.total_time().to_bits(), 0x403cad304425acd7);
    assert_eq!(run.scale_out_overhead.to_bits(), 0x3ff2732df505d0fa);
}

/// Node crashes without task failures: the retry loop never runs, and
/// each crash-lost output is charged the same 0.25 s restart as in a
/// faulted run.
#[test]
fn mapreduce_crash_only_run_matches_pinned_bits() {
    let mut spec = sort::job_spec(12);
    spec.faults = FaultModel {
        node_crash_prob: 0.3,
        ..FaultModel::none()
    };
    let run = ipso_mapreduce::try_run_scale_out(
        &spec,
        &sort::SortMapper,
        &sort::SortReducer,
        &sort::make_splits(12, 2),
    )
    .unwrap()
    .trace;
    let faults = run.faults.as_ref().expect("crash model is enabled");
    assert!(faults.node_crashes > 0 && faults.retries == 0);
    assert_eq!(run.total_time().to_bits(), 0x40324a5689d4d484);
    assert_eq!(run.scale_out_overhead.to_bits(), 0x4019b1cc8e440150);
}

#[test]
fn mapreduce_faulted_run_matches_pre_refactor_bits() {
    let mut spec = sort::job_spec(13);
    spec.faults = FaultModel::flaky(0.15);
    spec.faults.node_crash_prob = 0.02;
    spec.recovery = golden_recovery();
    let run = ipso_mapreduce::try_run_scale_out(
        &spec,
        &sort::SortMapper,
        &sort::SortReducer,
        &sort::make_splits(13, 2),
    )
    .unwrap()
    .trace;
    assert_eq!(run.total_time().to_bits(), 0x40273cad5dd04788);
    assert_eq!(run.scale_out_overhead.to_bits(), 0x3ff0fc8f6b2c7290);
}

#[test]
fn spark_chain_matches_pre_refactor_bits() {
    let cases: [(u32, u64, u64, &[u64]); 3] = [
        (
            4,
            0x40858805b3d36683,
            0x4012d799126648c5,
            &[0x408580499b2d3ce4, 0x3fe36b43e0549000],
        ),
        (
            8,
            0x40759fe9f9dd5b10,
            0x400d989f2d83c8dc,
            &[0x40758a81f0322116, 0x3fe3c5d5e5d01c00],
        ),
        (
            32,
            0x4056e23cd75854b0,
            0x4016f2fdf4417094,
            &[0x4055ff4c83a39e89, 0x3fe54f3417cbb780],
        ),
    ];
    for (m, total, overhead, stages) in cases {
        let run = try_run_job(&bayes::job(256, m)).unwrap();
        assert_spark_bits(&run, total, overhead, stages);
    }
}

#[test]
fn spark_chain_faulted_run_matches_pre_refactor_bits() {
    let mut spec = bayes::job(256, 8);
    spec.faults = FaultModel::flaky(0.12);
    spec.faults.node_crash_prob = 0.015;
    spec.recovery = golden_recovery();
    let run = try_run_job(&spec).unwrap();
    assert_spark_bits(
        &run,
        0x4076b1590c4e005b,
        0x406008c1281e605b,
        &[0x40768dabba58c08c, 0x3ff828333cede300],
    );
}

#[test]
fn spark_dag_matches_pre_refactor_bits() {
    let cases: [(u32, u64, u64, &[u64]); 2] = [
        (
            4,
            0x406ade5cb17222b7,
            0x3ffe04153abb6571,
            &[0x406685bca7159497, 0x406685bca7159497, 0x4041346bae90f0d0],
        ),
        (
            16,
            0x404d7dbf3cf5bb63,
            0x4002fa302d5812c9,
            &[0x404823bd16a38266, 0x404823bd16a38266, 0x402286c0eb346914],
        ),
    ];
    for (m, total, overhead, stages) in cases {
        let run = run_dag(&join::job(128, m), &join::job_edges()).unwrap();
        assert_spark_bits(&run, total, overhead, stages);
    }
}

#[test]
fn spark_dag_faulted_run_matches_pre_refactor_bits() {
    let mut spec = join::job(128, 8);
    spec.faults = FaultModel::flaky(0.1);
    spec.faults.node_crash_prob = 0.01;
    spec.recovery = golden_recovery();
    let run = run_dag(&spec, &join::job_edges()).unwrap();
    assert_spark_bits(
        &run,
        0x405ccdfe6a410df3,
        0x4051a6a40c99fa2d,
        &[0x4057cace06f33fec, 0x4057cace06f33fec, 0x4033546fa1b21964],
    );
}
