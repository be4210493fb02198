//! End-to-end tests of the observability layer across the engines:
//! event logs from instrumented runs still round-trip, the exported
//! timeline is structurally sound, and the overhead breakdown assembled
//! from the engines' gauges accounts for the measured `Wo(n)`.

use ipso::overhead_breakdown;
use ipso_cluster::{FaultModel, RecoveryPolicy};
use ipso_obs::SpanKind;
use ipso_spark::{parse_event_log, try_run_job};
use ipso_workloads::{bayes, terasort};

fn breakdown_from_gauges(total: f64) -> ipso::OverheadBreakdown {
    overhead_breakdown(
        total,
        ipso_obs::gauge_value("overhead.scheduling_s"),
        ipso_obs::gauge_value("overhead.broadcast_s"),
        ipso_obs::gauge_value("overhead.shuffle_wait_s"),
        ipso_obs::gauge_value("overhead.straggler_tail_s"),
        [
            "overhead.retry_wasted_s",
            "overhead.crash_wasted_s",
            "overhead.speculation_wasted_s",
            "overhead.lineage_recompute_s",
        ]
        .map(ipso_obs::gauge_value)
        .iter()
        .sum(),
    )
}

#[test]
fn instrumented_spark_event_log_still_roundtrips() {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    let job = bayes::job(64, 16);
    let run = try_run_job(&job).unwrap();
    let events = ipso_obs::take_events();
    ipso_obs::set_enabled(false);
    ipso_obs::reset();

    // The log written by the instrumented run parses exactly as before.
    let (stages, duration) = parse_event_log(&run.log).expect("instrumented log must parse");
    assert_eq!(stages.len(), run.stage_times.len());
    for (stage, time) in stages.iter().zip(&run.stage_times) {
        assert!(
            (stage.latency - time).abs() < 1e-9,
            "log latency {} != engine latency {time}",
            stage.latency
        );
    }
    assert!((duration.expect("app start/end present") - run.total_time).abs() < 1e-9);

    // And the instrumentation itself recorded driver spans per stage.
    let driver_spans = events
        .iter()
        .filter(|e| e.track == "driver" && matches!(e.kind, SpanKind::Complete { .. }))
        .count();
    assert!(
        driver_spans > run.stage_times.len(),
        "expected per-stage driver spans plus launch, got {driver_spans}"
    );
}

#[test]
fn uninstrumented_run_matches_instrumented_run() {
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    let job = bayes::job(64, 16);
    let plain = try_run_job(&job).unwrap();
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    let traced = try_run_job(&job).unwrap();
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    assert_eq!(plain, traced, "tracing must not perturb the simulation");
}

#[test]
fn spark_overhead_gauges_sum_to_measured_overhead() {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    let run = try_run_job(&bayes::job(128, 32)).unwrap();
    let b = breakdown_from_gauges(run.overhead_time);
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
    assert!(b.total > 0.0, "bayes at m = 32 must pay scale-out overhead");
    assert!(b.scheduling > 0.0);
    assert!(b.broadcast > 0.0, "bayes broadcasts its model every stage");
    assert!(
        (b.components_sum() - b.total).abs() < 1e-6,
        "components {} != total {}",
        b.components_sum(),
        b.total
    );
    // The named gauges alone explain the whole Wo: the residual is noise.
    assert!(
        b.other.abs() < 1e-6,
        "spark gauges left {} s unattributed",
        b.other
    );
}

#[test]
fn mapreduce_overhead_gauges_sum_to_trace_overhead() {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    let n = 8;
    let trace = ipso_mapreduce::try_run_scale_out(
        &terasort::job_spec(n),
        &terasort::TeraSortMapper,
        &terasort::TeraSortReducer,
        &terasort::make_splits(n, 3),
    )
    .unwrap()
    .trace;
    let b = breakdown_from_gauges(trace.scale_out_overhead);
    let events = ipso_obs::take_events();
    ipso_obs::set_enabled(false);
    ipso_obs::reset();

    assert!(b.total > 0.0);
    assert!(
        (b.components_sum() - b.total).abs() < 1e-6,
        "components {} != total {}",
        b.components_sum(),
        b.total
    );
    assert!(b.other.abs() < 1e-6);

    // The timeline covers the driver phases and every task.
    let task_spans = events
        .iter()
        .filter(|e| e.track.starts_with("executor-") && matches!(e.kind, SpanKind::Complete { .. }))
        .count();
    assert_eq!(task_spans as u32, n);
    let driver = ["init", "map", "shuffle", "merge", "reduce"];
    for name in driver {
        assert!(
            events.iter().any(|e| e.track == "driver" && e.name == name),
            "missing driver span {name:?}"
        );
    }
}

/// Faulted runs: the recovery gauges (wasted attempts, crash-lost
/// outputs, losing speculative copies, lineage recomputation) account
/// for the wasted work, so nothing is left in `other`.
#[test]
fn recovery_gauges_account_for_wasted_work() {
    let crash_only = FaultModel {
        node_crash_prob: 0.3,
        ..FaultModel::none()
    };
    let faulted = FaultModel {
        task_fail_prob: 0.1,
        node_crash_prob: 0.2,
    };
    let recovery = RecoveryPolicy {
        max_attempts: 12,
        ..RecoveryPolicy::hadoop_like().with_speculation()
    };
    ipso_obs::set_enabled(true);
    let mut breakdowns = Vec::new();
    for faults in [crash_only, faulted] {
        ipso_obs::reset();
        let mut spec = terasort::job_spec(16);
        spec.faults = faults;
        spec.recovery = recovery;
        let trace = ipso_mapreduce::try_run_scale_out(
            &spec,
            &terasort::TeraSortMapper,
            &terasort::TeraSortReducer,
            &terasort::make_splits(16, 3),
        )
        .unwrap()
        .trace;
        breakdowns.push(breakdown_from_gauges(trace.scale_out_overhead));
    }
    ipso_obs::reset();
    let mut job = bayes::job(256, 16);
    job.faults = faulted;
    job.recovery = recovery;
    let run = try_run_job(&job).unwrap();
    breakdowns.push(breakdown_from_gauges(run.overhead_time));
    assert!(ipso_obs::gauge_value("overhead.lineage_recompute_s") > 0.0);
    ipso_obs::set_enabled(false);
    ipso_obs::reset();

    for b in breakdowns {
        assert!(b.recovery > 0.0, "{b}");
        assert!(b.other.abs() < 1e-9, "{b}");
    }
}

/// `ipso-cli trace` of a faulted Sort run writes the committed timeline
/// byte for byte: task spans and recovery instants on every executor
/// track, with the exporter's microsecond timestamps.
#[test]
fn faulted_sort_trace_matches_golden_file() {
    const GOLDEN: &str = include_str!("golden/sort_faulted.trace.json");
    let out = std::env::temp_dir().join(format!("ipso-golden-{}.trace.json", std::process::id()));
    let flags = "trace sort --n 12 --fail-prob 0.2 --node-crash-prob 0.05 --max-attempts 8 --speculate --out";
    let mut args: Vec<String> = flags.split(' ').map(String::from).collect();
    args.push(out.display().to_string());
    ipso_repro::cli::run(&args).expect("traced run");
    let json = std::fs::read_to_string(&out).expect("trace file");
    std::fs::remove_file(&out).expect("remove trace file");
    for event in [
        "\"task-11\"",
        "\"task-retry\"",
        "\"speculative-copy\"",
        "\"executor-11\"",
    ] {
        assert!(GOLDEN.contains(event), "golden lacks {event}");
    }
    assert_eq!(json, GOLDEN, "trace drifted from the golden file");
}
