//! Single-threaded end-to-end and per-layer benchmark of the IPSO
//! simulator. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <mr_sweep|spark_faults|trace_export> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line with the metrics,
//! and exits nonzero when any output check fails.

mod cluster;
mod figures;
mod harness;
mod host;
mod mr;
mod seed;
mod spark;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use harness::{median, percentile, span_totals, PassLog, Tracer};
use host::{peak_rss_mb, HostClock, Timed};
use workloads::Workload;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. Times are host seconds
/// per pass and counts are per pass, except the `workloads.*` set-up
/// metrics; shares are of `trace.share_base_s`.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.make_splits_s", "s"),
    ("workloads.sample_records", "count"),
    ("mapreduce.run_scale_out_s", "s"),
    ("mapreduce.run_sequential_s", "s"),
    ("mapreduce.plan_s", "s"),
    ("mapreduce.scale_out_self_s", "s"),
    ("mapreduce.records_mapped", "count"),
    ("mapreduce.datapath_ns_per_record", "ns"),
    ("mapreduce.reduce_input_bytes", "bytes"),
    ("mapreduce.share", "ratio"),
    ("cluster.execute_s", "s"),
    ("cluster.execute_us_per_task", "us"),
    ("cluster.tasks", "count"),
    ("cluster.attempts", "count"),
    ("cluster.retries", "count"),
    ("cluster.speculative_launches", "count"),
    ("cluster.node_crashes", "count"),
    ("cluster.outputs_lost", "count"),
    ("cluster.lineage_nodes", "count"),
    ("cluster.useful_ratio", "ratio"),
    ("cluster.wasted_frac", "ratio"),
    ("cluster.share", "ratio"),
    ("spark.lower_s", "s"),
    ("spark.run_job_s", "s"),
    ("spark.run_dag_s", "s"),
    ("spark.clock_walk_self_s", "s"),
    ("spark.sequential_reference_s", "s"),
    ("spark.event_log_bytes", "bytes"),
    ("spark.tasks", "count"),
    ("spark.share", "ratio"),
    ("core.estimate_factors_s", "s"),
    ("core.predict_s", "s"),
    ("core.fit_points", "count"),
    ("core.share", "ratio"),
    ("obs.capture_overhead_s", "s"),
    ("obs.merge_s", "s"),
    ("obs.export_s", "s"),
    ("obs.export_ns_per_event", "ns"),
    ("obs.events", "count"),
    ("obs.trace_bytes", "bytes"),
    ("obs.share", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.share_base_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Set-up (input generation and spec building) is repeated this many
/// times and its median reported.
const SETUP_REPEATS: usize = 3;
/// Fewest measured passes: enough for a median pass time.
const MIN_PASSES: usize = 3;
/// Fewest measured ops: enough for ten samples beyond the 90th
/// percentile.
const MIN_OPS: usize = 100;
/// Measuring stops starting new passes after this many seconds, so a
/// run ends well within three minutes whatever `--seconds` says.
const MAX_MEASURE_S: f64 = 120.0;

const USAGE: &str = "usage: perfbench --workload <mr_sweep|spark_faults|trace_export> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = seed::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything measured in one run. Times are normalized to the
/// reference host (see [`host`]) unless named `raw`.
struct Run {
    ops_per_pass: usize,
    setup_s: f64,
    make_splits_s: f64,
    sample_records: u64,
    /// Untraced measured passes: wall seconds, raw wall seconds, and op
    /// latencies in ms.
    walls: Vec<f64>,
    raw_walls: Vec<f64>,
    op_ms: Vec<f64>,
    /// Raw walls of `trace_export` passes with observability off (trace
    /// mode only, paired with `raw_walls`).
    obs_off_walls: Vec<f64>,
    /// Raw walls of layer-traced passes (trace mode only, paired with
    /// `raw_walls`).
    traced_walls: Vec<f64>,
    tracer: Tracer,
    clock: HostClock,
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Run {
    /// Runs one timed pass and checks it against the cold pass.
    fn pass(
        &mut self,
        w: &mut dyn Workload,
        cold: &PassLog,
        traced: bool,
        capture: bool,
    ) -> (Timed, PassLog) {
        let mut off = Tracer::new(false);
        let tracer = if traced { &mut self.tracer } else { &mut off };
        let (mut log, timed) = self.clock.time(|| w.pass(tracer, capture));
        // A pass without capture exports nothing: compare its ops only.
        let compared = if capture {
            cold.digests.len()
        } else {
            log.digests.len().min(cold.digests.len())
        };
        log.check_against(&cold.digests[..compared]);
        self.absorb(&log);
        (timed, log)
    }

    fn absorb(&mut self, log: &PassLog) {
        self.attempted += log.op_ns.len() as u64;
        self.failures
            .extend(log.failures.iter().map(|(_, reason)| reason.clone()));
    }
}

fn run(args: &Args) -> Result<Run, String> {
    let started = Instant::now();
    let uses_obs = args.workload == "trace_export";
    let mut clock = HostClock::new();

    // Set-up: input generation and spec building, repeated; the median
    // counts, and the last build is the one measured.
    let mut builds = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let (w, timed) = clock.time(|| workloads::build(&args.workload, args.seed));
        builds.push(timed.seconds());
        workload = Some(w?);
    }
    let mut w = workload.expect("set-up ran");

    // The cold pass: the first in the process, part of set-up.
    let (cold, cold_timed) = clock.time(|| w.pass(&mut Tracer::new(false), true));

    let ops_per_pass = w.ops_per_pass();
    let mut run = Run {
        ops_per_pass,
        setup_s: median(&builds) + cold_timed.seconds(),
        make_splits_s: w.make_splits_s(),
        sample_records: w.sample_records(),
        walls: Vec::new(),
        raw_walls: Vec::new(),
        op_ms: Vec::new(),
        obs_off_walls: Vec::new(),
        traced_walls: Vec::new(),
        tracer: Tracer::new(true),
        clock,
        attempted: 0,
        failures: Vec::new(),
        notes: Vec::new(),
    };
    run.absorb(&cold);

    if args.seed == seed::DEFAULT_SEED {
        let reference = workloads::REFERENCE
            .iter()
            .find(|(name, _)| *name == args.workload)
            .map(|r| r.1)
            .expect("every workload has a reference digest");
        let digest = cold.pass_digest();
        if digest == reference {
            run.notes
                .push(format!("reference digest {digest:#018x} matches"));
        } else {
            run.failures.push(format!(
                "pass digest {digest:#018x} differs from the reference {reference:#018x}"
            ));
        }
        match w.figure_check() {
            Ok(0) => {}
            Ok(cells) => run.notes.push(format!(
                "figure cross-check: {cells} cells match results/*.csv"
            )),
            Err(e) => run.failures.push(format!("figure cross-check: {e}")),
        }
    }

    let measuring = Instant::now();
    let out_of_time = |passes: usize, min: usize| {
        (measuring.elapsed().as_secs_f64() >= args.seconds && passes >= min)
            || started.elapsed().as_secs_f64() >= MAX_MEASURE_S
    };
    if !args.trace {
        let min_passes = MIN_PASSES.max(MIN_OPS.div_ceil(ops_per_pass.max(1)));
        // Room for every latency sample up front: reallocating a growing
        // Vec would show in `peak_rss_mb`, varying with the pass count.
        let expected_passes = 4 * (args.seconds / cold_timed.raw_s.max(1e-3)).ceil() as usize;
        run.op_ms
            .reserve((expected_passes + min_passes) * ops_per_pass);
        while !out_of_time(run.walls.len(), min_passes) {
            let (timed, log) = run.pass(w.as_mut(), &cold, false, true);
            run.walls.push(timed.seconds());
            run.raw_walls.push(timed.raw_s);
            let scale = timed.factor * 1e-6;
            run.op_ms
                .extend(log.op_ns.iter().map(|&ns| ns as f64 * scale));
        }
    } else {
        // Rounds of an untraced pass, (for trace_export) a pass with
        // observability off, and a layer-traced pass: overheads are taken
        // within a round.
        while !out_of_time(run.walls.len(), 1) {
            let (timed, _) = run.pass(w.as_mut(), &cold, false, true);
            run.walls.push(timed.seconds());
            run.raw_walls.push(timed.raw_s);
            if uses_obs {
                let (timed, _) = run.pass(w.as_mut(), &cold, false, false);
                run.obs_off_walls.push(timed.raw_s);
            }
            let (timed, _) = run.pass(w.as_mut(), &cold, true, true);
            run.traced_walls.push(timed.raw_s);
        }
    }

    // Hygiene: only trace_export may record anything.
    if !uses_obs
        && (ipso_obs::enabled()
            || !ipso_obs::snapshot_events().is_empty()
            || ipso_obs::snapshot() != ipso_obs::MetricsSnapshot::default())
    {
        run.failures
            .push("observability recorded data on a workload that must keep it disabled".into());
    }
    Ok(run)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Result<BTreeMap<&'static str, f64>, String> {
    let p = |q| {
        percentile(&run.op_ms, q)
            .ok_or_else(|| format!("{} ops are too few for a {q} percentile", run.op_ms.len()))
    };
    let mut m = BTreeMap::new();
    m.insert("setup_s", run.setup_s);
    m.insert("wall_s", median(&run.walls));
    // The median proper, not the nearest-rank 50th percentile: whole
    // passes hold every op equally often, so the nearest rank falls
    // exactly between two kinds of op and jumps between them with noise;
    // the mean of the two middle samples does not.
    p(0.5)?;
    m.insert("op_ms_p50", median(&run.op_ms));
    m.insert("op_ms_p90", p(0.9)?);
    m.insert(
        "peak_rss_mb",
        peak_rss_mb().ok_or("peak RSS unavailable (no /proc/self/status)")?,
    );
    Ok(m)
}

/// The per-layer metrics of a traced run, in raw host seconds: they are
/// compared with each other within one run, never across runs.
fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let t = &run.tracer;
    let passes = run.traced_walls.len().max(1) as f64;
    let spans = span_totals(t.spans());
    let incl = |name: &str| spans.get(name).map_or(0.0, |s| s.inclusive_s) / passes;
    let sum = |name: &str| t.sum(name) / passes;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pass_s = median(&run.traced_walls);
    let untraced_s = median(&run.raw_walls);
    // Shares are of the traced pass less the standalone duplicates of
    // calls the composites already made: the pass as the composite
    // calls see it.
    let duplicates: f64 = [
        "mapreduce.plan_scale_out",
        "spark.lower_chain",
        "spark.lower_levels",
        "cluster.execute",
    ]
    .iter()
    .map(|name| incl(name))
    .sum();
    let base = pass_s - duplicates;
    let paired = |a: &[f64], b: &[f64]| {
        let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        if diffs.is_empty() {
            0.0
        } else {
            median(&diffs)
        }
    };
    let capture_overhead = paired(&run.raw_walls, &run.obs_off_walls);

    let mut m = BTreeMap::new();
    m.insert("workloads.make_splits_s", run.make_splits_s);
    m.insert("workloads.sample_records", run.sample_records as f64);

    let seq_s = incl("mapreduce.run_sequential");
    m.insert("mapreduce.run_scale_out_s", incl("mapreduce.run_scale_out"));
    m.insert("mapreduce.run_sequential_s", seq_s);
    m.insert("mapreduce.plan_s", sum("mapreduce.plan_s"));
    m.insert(
        "mapreduce.scale_out_self_s",
        sum("mapreduce.scale_out_self_s"),
    );
    m.insert("mapreduce.records_mapped", sum("mapreduce.records_mapped"));
    m.insert(
        "mapreduce.datapath_ns_per_record",
        ratio(seq_s * 1e9, sum("mapreduce.seq_records")),
    );
    m.insert(
        "mapreduce.reduce_input_bytes",
        sum("mapreduce.reduce_input_bytes"),
    );
    m.insert("mapreduce.share", ratio(sum("layer.mapreduce"), base));

    let exec_s = sum("cluster.execute_s");
    let tasks = sum("cluster.tasks");
    let attempts = sum("cluster.attempts");
    let wasted = sum("cluster.wasted_s");
    m.insert("cluster.execute_s", exec_s);
    m.insert("cluster.execute_us_per_task", ratio(exec_s * 1e6, tasks));
    m.insert("cluster.tasks", tasks);
    m.insert("cluster.attempts", attempts);
    for name in [
        "cluster.retries",
        "cluster.speculative_launches",
        "cluster.node_crashes",
        "cluster.outputs_lost",
        "cluster.lineage_nodes",
    ] {
        m.insert(name, sum(name));
    }
    m.insert("cluster.useful_ratio", ratio(tasks, attempts));
    m.insert(
        "cluster.wasted_frac",
        ratio(wasted, sum("cluster.nominal_work_s") + wasted),
    );
    m.insert("cluster.share", ratio(sum("layer.cluster"), base));

    m.insert("spark.lower_s", sum("spark.lower_s"));
    m.insert("spark.run_job_s", incl("spark.run_job"));
    m.insert("spark.run_dag_s", incl("spark.run_dag"));
    m.insert("spark.clock_walk_self_s", sum("spark.clock_walk_self_s"));
    m.insert(
        "spark.sequential_reference_s",
        incl("spark.sequential_reference"),
    );
    m.insert("spark.event_log_bytes", sum("spark.event_log_bytes"));
    m.insert("spark.tasks", sum("spark.tasks"));
    m.insert("spark.share", ratio(sum("layer.spark"), base));

    let estimate = incl("core.estimate_factors");
    let predict = incl("core.predict");
    m.insert("core.estimate_factors_s", estimate);
    m.insert("core.predict_s", predict);
    m.insert("core.fit_points", sum("core.fit_points"));
    m.insert("core.share", ratio(estimate + predict, base));

    let export_s = incl("obs.export");
    let events = sum("obs.events");
    m.insert("obs.capture_overhead_s", capture_overhead);
    m.insert("obs.merge_s", incl("obs.merge"));
    m.insert("obs.export_s", export_s);
    m.insert("obs.export_ns_per_event", ratio(export_s * 1e9, events));
    m.insert("obs.events", events);
    m.insert("obs.trace_bytes", sum("obs.trace_bytes"));
    m.insert(
        "obs.share",
        ratio(capture_overhead + sum("layer.obs"), base),
    );

    m.insert("trace.pass_s", pass_s);
    m.insert("trace.share_base_s", base);
    m.insert("trace.untraced_pass_s", untraced_s);
    m.insert(
        "trace.overhead_s",
        paired(&run.traced_walls, &run.raw_walls),
    );
    m
}

/// Where the layer spans of a traced run are written: the Cargo target
/// directory the benchmark was built into.
fn spans_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("perfbench")
        .join(format!("spans-{workload}.json"))
}

fn write_spans(path: &PathBuf, t: &Tracer) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, s) in t.spans().iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = if s.op == harness::PASS_LEVEL {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        let sep = if i + 1 == t.spans().len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{op},\"parent\":{parent}}}{sep}",
            s.name, s.start, s.end
        );
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run = run(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} trace={} nproc={nproc} threads=1 ops_per_pass={} \
         passes={} traced_passes={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.ops_per_pass,
        run.walls.len(),
        run.traced_walls.len(),
    );
    let cal = &run.clock.calibrations;
    println!(
        "host: calibration kernel median {:.3} ms over {} runs (reference {:.3} ms); \
         raw pass wall median {:.4} s, normalized {:.4} s",
        median(cal) * 1e3,
        cal.len(),
        host::REFERENCE_S * 1e3,
        median(&run.raw_walls),
        median(&run.walls),
    );
    for note in &run.notes {
        println!("{note}");
    }
    let failed = (run.failures.len() as u64).min(run.attempted);
    println!(
        "error_rate = {} ({failed} failed of {} ops attempted)",
        failed as f64 / run.attempted as f64,
        run.attempted
    );
    for f in run.failures.iter().take(20) {
        println!("FAILED: {f}");
    }

    let (metrics, units): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        let metrics = per_layer(&run);
        let totals = span_totals(run.tracer.spans());
        let passes = run.traced_walls.len().max(1) as f64;
        let base = metrics["trace.share_base_s"];
        println!(
            "{:<32} {:>9} {:>12} {:>12} {:>8}",
            "span (per traced pass)", "calls", "incl_s", "self_s", "share"
        );
        for (name, s) in &totals {
            println!(
                "{name:<32} {:>9} {:>12.6} {:>12.6} {:>8.4}",
                s.count as f64 / passes,
                s.inclusive_s / passes,
                s.self_s / passes,
                s.inclusive_s / passes / base
            );
        }
        let path = spans_path(&args.workload);
        match write_spans(&path, &run.tracer) {
            Ok(()) => println!("{} spans -> {}", run.tracer.spans().len(), path.display()),
            Err(e) => println!("could not write spans to {}: {e}", path.display()),
        }
        (metrics, &PER_LAYER[..])
    } else {
        let metrics = end_to_end(&run).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        });
        match percentile(&run.op_ms, 0.99) {
            Some(p99) => println!("op_ms_p99 = {p99} ms ({} ops)", run.op_ms.len()),
            None => println!("op_ms_p99 = n/a ({} ops; needs 1000)", run.op_ms.len()),
        }
        (metrics, &END_TO_END[..])
    };

    let mut body = String::new();
    let mut non_finite = Vec::new();
    for (name, unit) in units {
        let mut value = metrics[name];
        println!("{name} = {value} {unit}");
        if !value.is_finite() {
            non_finite.push(*name);
            value = 0.0;
        }
        let sep = if body.is_empty() { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if !non_finite.is_empty() {
        println!("FAILED: non-finite metrics {non_finite:?}");
    }
    let correct = run.failures.is_empty() && non_finite.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        run.attempted
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric entry in one list of
    /// `BENCHMARK.json`, in order.
    fn listed(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..json[start..].find(']').map_or(json.len(), |e| start + e)];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap_or("")
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let expect = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), expect(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), expect(&PER_LAYER));
        let names: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args("--workload mr_sweep --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("mr_sweep", 7, 2.0, true)
        );
        for bad in [
            "--seed 1",
            "--workload mr_sweep --trace 2",
            "--workload mr_sweep --seconds 0",
            "--workload mr_sweep --seed",
            "--workload mr_sweep --colour red",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(workloads::build("nope", 1).is_err());
    }
}
