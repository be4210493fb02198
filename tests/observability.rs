//! End-to-end tests of the observability layer across the engines:
//! event logs from instrumented runs still round-trip, the exported
//! timeline is structurally sound, and the overhead breakdown assembled
//! from the engines' gauges accounts for the measured `Wo(n)`.

use ipso::overhead_breakdown;
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
    // The run's config rode along on the trace.
    let config = trace.config.expect("scale-out runs record their config");
    assert_eq!(config.seed, terasort::job_spec(n).seed);
    assert_eq!(config.scheduler, terasort::job_spec(n).scheduler);
}
