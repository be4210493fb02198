//! Implementation of the `ipso` command-line tool.
//!
//! The binary (`src/bin/ipso.rs`) is a thin shell around these functions
//! so the parsing and command logic stay unit-testable.
//!
//! ```text
//! ipso classify  --eta 0.9 --alpha 2.8 --delta 0 [--beta B --gamma G] [--fixed-size]
//! ipso diagnose  curve.csv [--fixed-size]          # CSV: n,speedup
//! ipso estimate  runs.csv
//! ipso predict   runs.csv --window 16 --at 64,128,200
//! ipso provision runs.csv --window 16 --n-max 200 [--worker-cost 0.10 --master-cost 0.80]
//! ipso report    runs.csv --window 16 --n-max 200 [--fixed-size]
//! ipso trace     terasort --n 8 --out run.trace.json
//! ipso metrics   terasort --n 8
//! ```
//!
//! `runs.csv` columns: `n,seq_parallel,seq_serial,par_map,par_serial,par_overhead`
//! (the paper's run decomposition, seconds).

use std::collections::HashMap;
use std::fmt::Write as _;

use ipso::estimate::estimate_factors;
use ipso::predict::ScalingPredictor;
use ipso::provision::{CostModel, Provisioner};
use ipso::report::{analyze, ReportOptions};
use ipso::taxonomy::{classify, WorkloadType};
use ipso::{AsymptoticParams, Diagnostician, RunMeasurement, SpeedupCurve};

/// A CLI failure: message for stderr, non-zero exit.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ipso::ModelError> for CliError {
    fn from(e: ipso::ModelError) -> Self {
        CliError(e.to_string())
    }
}

/// Parsed command line: positional arguments and `--flag [value]` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// Flags; boolean flags map to an empty string.
    pub flags: HashMap<String, String>,
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Rejects flags without names.
pub fn parse_args(raw: &[String]) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if let Some(name) = a.strip_prefix("--") {
            if name.is_empty() {
                return Err(CliError("empty flag name".into()));
            }
            // A flag consumes the next token as its value unless that
            // token is itself a flag (or absent): boolean flag.
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                args.flags.insert(name.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                args.flags.insert(name.to_string(), String::new());
                i += 1;
            }
        } else {
            args.positional.push(a.clone());
            i += 1;
        }
    }
    Ok(args)
}

impl Args {
    /// Checks that every flag is one of the space-separated names in
    /// `accepted`, so that a misspelled or retired flag fails instead of
    /// being ignored.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag in name order.
    pub fn only(&self, command: &str, accepted: &str) -> Result<(), CliError> {
        let known = |name: &&String| accepted.split(' ').any(|a| a == name.as_str());
        match self.flags.keys().filter(|name| !known(name)).min() {
            None => Ok(()),
            Some(name) => Err(CliError(format!(
                "unknown flag --{name} for {command}; `ipso help` lists its flags"
            ))),
        }
    }

    /// A required numeric flag.
    ///
    /// # Errors
    ///
    /// Missing or non-numeric flag.
    pub fn require_f64(&self, name: &str) -> Result<f64, CliError> {
        self.flags
            .get(name)
            .ok_or_else(|| CliError(format!("missing required flag --{name}")))?
            .parse()
            .map_err(|_| CliError(format!("flag --{name} must be a number")))
    }

    /// An optional numeric flag with default.
    ///
    /// # Errors
    ///
    /// Non-numeric value.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("flag --{name} must be a number"))),
        }
    }

    /// An optional count, size or seed flag with default. Only the
    /// digits of a non-negative integer parse: `2.9` and `-1` are
    /// errors, not truncated or wrapped.
    ///
    /// # Errors
    ///
    /// A value that is not a non-negative integer of type `T`.
    pub fn int_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("flag --{name} must be a non-negative integer"))),
        }
    }

    /// The workload type: `--fixed-size` selects fixed-size, default is
    /// fixed-time.
    pub fn workload(&self) -> WorkloadType {
        if self.flags.contains_key("fixed-size") {
            WorkloadType::FixedSize
        } else {
            WorkloadType::FixedTime
        }
    }
}

/// Parses `n,speedup` CSV content (header optional).
///
/// # Errors
///
/// Malformed rows or an unusable curve.
pub fn parse_curve_csv(content: &str) -> Result<SpeedupCurve, CliError> {
    let mut pairs = Vec::new();
    for (lineno, line) in data_lines(content) {
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        if cols.len() < 2 {
            return Err(CliError(format!("line {lineno}: expected 'n,speedup'")));
        }
        let n: u32 = cols[0]
            .parse()
            .map_err(|_| CliError(format!("line {lineno}: bad n {:?}", cols[0])))?;
        let s: f64 = cols[1]
            .parse()
            .map_err(|_| CliError(format!("line {lineno}: bad speedup {:?}", cols[1])))?;
        pairs.push((n, s));
    }
    if pairs.is_empty() {
        return Err(CliError("no data rows found".into()));
    }
    SpeedupCurve::from_pairs(pairs).map_err(CliError::from)
}

/// Parses the run-decomposition CSV
/// (`n,seq_parallel,seq_serial,par_map,par_serial,par_overhead`).
///
/// # Errors
///
/// Malformed rows.
pub fn parse_runs_csv(content: &str) -> Result<Vec<RunMeasurement>, CliError> {
    let mut runs = Vec::new();
    for (lineno, line) in data_lines(content) {
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        if cols.len() < 6 {
            return Err(CliError(format!(
                "line {lineno}: expected 6 columns (n,seq_parallel,seq_serial,par_map,par_serial,par_overhead)"
            )));
        }
        let parse = |idx: usize| -> Result<f64, CliError> {
            cols[idx]
                .parse()
                .map_err(|_| CliError(format!("line {lineno}: bad number {:?}", cols[idx])))
        };
        let run = RunMeasurement {
            n: cols[0]
                .parse()
                .map_err(|_| CliError(format!("line {lineno}: bad n {:?}", cols[0])))?,
            seq_parallel_work: parse(1)?,
            seq_serial_work: parse(2)?,
            par_map_time: parse(3)?,
            par_serial_time: parse(4)?,
            par_overhead: parse(5)?,
        };
        run.validate().map_err(CliError::from)?;
        runs.push(run);
    }
    if runs.is_empty() {
        return Err(CliError("no data rows found".into()));
    }
    Ok(runs)
}

/// The trimmed non-empty lines of a CSV with their 1-based line numbers.
/// Only the first of them may be a header (a first column that is not a
/// number); every later line is a data row, so a bad one is an error
/// rather than a skipped row.
fn data_lines(content: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut lines = content
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty())
        .peekable();
    lines.next_if(|(_, first)| {
        first
            .split(',')
            .next()
            .is_some_and(|c| c.trim().parse::<f64>().is_err())
    });
    lines
}

/// `ipso classify` — classify asymptotic parameters.
///
/// # Errors
///
/// Invalid flags or parameters.
pub fn cmd_classify(args: &Args) -> Result<String, CliError> {
    let params = AsymptoticParams::new(
        args.require_f64("eta")?,
        args.f64_or("alpha", 1.0)?,
        args.f64_or("delta", 0.0)?,
        args.f64_or("beta", 0.0)?,
        args.f64_or("gamma", 0.0)?,
    )?;
    let workload = args.workload();
    let (class, bound) = classify(&params, workload)?;
    let mut out = String::new();
    writeln!(out, "workload : {workload}").expect("string write");
    writeln!(out, "class    : {class}").expect("string write");
    match bound {
        Some(b) => {
            if b == 0.0 {
                writeln!(out, "bound    : peaks then decays towards 0").expect("string write")
            } else {
                writeln!(out, "bound    : {b:.3}").expect("string write")
            }
        }
        None => writeln!(out, "bound    : unbounded").expect("string write"),
    }
    for n in [4u32, 16, 64, 256] {
        writeln!(out, "S({n:>3})   : {:.3}", params.speedup(f64::from(n))?).expect("string write");
    }
    Ok(out)
}

/// `ipso diagnose` — run the six-step procedure on a speedup curve CSV.
///
/// # Errors
///
/// Parse or diagnosis failures.
pub fn cmd_diagnose(args: &Args, csv: &str) -> Result<String, CliError> {
    let curve = parse_curve_csv(csv)?;
    let report = Diagnostician::new().diagnose(&curve, args.workload())?;
    Ok(format!("{report}\n"))
}

/// `ipso predict` — fit on a window and predict requested degrees.
///
/// # Errors
///
/// Parse, fit or evaluation failures.
pub fn cmd_predict(args: &Args, csv: &str) -> Result<String, CliError> {
    let runs = parse_runs_csv(csv)?;
    let window = args.int_or("window", 16u32)?;
    let predictor = ScalingPredictor::fit(&runs, window)?;
    let est = predictor.estimates();

    let mut out = String::new();
    writeln!(
        out,
        "fitted on n <= {window} ({} runs)",
        est.external_samples.len()
    )
    .expect("string write");
    writeln!(out, "eta      : {:.4}", est.eta).expect("string write");
    writeln!(out, "EX shape : {:?}", est.external.shape).expect("string write");
    writeln!(
        out,
        "IN shape : {:?}  ({:?})",
        est.internal.shape, est.internal.factor
    )
    .expect("string write");
    writeln!(out, "q  shape : {:?}", est.induced.shape).expect("string write");

    let targets: Vec<u32> = match args.flags.get("at") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| CliError(format!("bad --at entry {t:?}")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![32, 64, 128, 200],
    };
    writeln!(out, "\npredictions:").expect("string write");
    for n in targets {
        writeln!(out, "  S({n:>4}) = {:.3}", predictor.predict(f64::from(n))?)
            .expect("string write");
    }
    Ok(out)
}

/// `ipso provision` — fit, then recommend cluster sizes under a price
/// model.
///
/// # Errors
///
/// Parse, fit or evaluation failures.
pub fn cmd_provision(args: &Args, csv: &str) -> Result<String, CliError> {
    let runs = parse_runs_csv(csv)?;
    let window = args.int_or("window", 16u32)?;
    let n_max = args.int_or("n-max", 200u32)?;
    let cost = CostModel::new(
        args.f64_or("worker-cost", 0.10)?,
        args.f64_or("master-cost", 0.80)?,
    )?;
    let predictor = ScalingPredictor::fit(&runs, window)?;
    let t1 = runs
        .iter()
        .min_by_key(|r| r.n)
        .expect("non-empty")
        .sequential_time();
    let provisioner = Provisioner::new(predictor.model().clone(), t1, cost)?;

    let fastest = provisioner.fastest(n_max)?;
    let efficient = provisioner.most_efficient(n_max)?;
    let knee = provisioner.knee(0.9, n_max)?;
    let mut out = String::new();
    writeln!(
        out,
        "fastest        : n = {:4}  S = {:8.2}  time = {:8.1}s  cost = ${:.4}",
        fastest.n, fastest.speedup, fastest.job_time, fastest.job_cost
    )
    .expect("string write");
    writeln!(
        out,
        "most efficient : n = {:4}  S = {:8.2}  time = {:8.1}s  cost = ${:.4}",
        efficient.n, efficient.speedup, efficient.job_time, efficient.job_cost
    )
    .expect("string write");
    writeln!(
        out,
        "90%-peak knee  : n = {:4}  S = {:8.2}  time = {:8.1}s  cost = ${:.4}",
        knee.n, knee.speedup, knee.job_time, knee.job_cost
    )
    .expect("string write");
    if let Some(deadline) = args.flags.get("deadline") {
        let d: f64 = deadline
            .parse()
            .map_err(|_| CliError("flag --deadline must be seconds".into()))?;
        match provisioner.cheapest_meeting_deadline(d, n_max)? {
            Some(p) => writeln!(
                out,
                "deadline {d:.0}s  : n = {:4}  S = {:8.2}  time = {:8.1}s  cost = ${:.4}",
                p.n, p.speedup, p.job_time, p.job_cost
            )
            .expect("string write"),
            None => writeln!(out, "deadline {d:.0}s  : unreachable below n = {n_max}")
                .expect("string write"),
        }
    }
    Ok(out)
}

/// `ipso estimate` — print the fitted factors for a runs CSV.
///
/// # Errors
///
/// Parse or estimation failures.
pub fn cmd_estimate(csv: &str) -> Result<String, CliError> {
    let runs = parse_runs_csv(csv)?;
    let est = estimate_factors(&runs)?;
    let params = est.to_asymptotic()?;
    let mut out = String::new();
    writeln!(out, "eta    : {:.4}", est.eta).expect("string write");
    writeln!(out, "EX(n)  : {:?}", est.external.factor).expect("string write");
    writeln!(out, "IN(n)  : {:?}", est.internal.factor).expect("string write");
    writeln!(out, "q(n)   : {:?}", est.induced.factor).expect("string write");
    writeln!(
        out,
        "asymptotic: alpha = {:.4}, delta = {:.4}, beta = {:.6}, gamma = {:.4}",
        params.alpha, params.delta, params.beta, params.gamma
    )
    .expect("string write");
    Ok(out)
}

/// `ipso report` — render the full Markdown analysis report.
///
/// # Errors
///
/// Parse or analysis failures.
pub fn cmd_report(args: &Args, csv: &str) -> Result<String, CliError> {
    let runs = parse_runs_csv(csv)?;
    let opts = ReportOptions {
        workload: args.workload(),
        fit_window: args.int_or("window", 16u32)?,
        n_max: args.int_or("n-max", 200u32)?,
        cost: CostModel::new(
            args.f64_or("worker-cost", 0.10)?,
            args.f64_or("master-cost", 0.80)?,
        )?,
    };
    analyze(&runs, &opts).map_err(CliError::from)
}

/// Workloads runnable by `ipso trace` / `ipso metrics`.
const TRACEABLE_WORKLOADS: &str = "terasort, sort, wordcount";

/// Fault-injection settings shared by `trace` and `metrics`, parsed
/// from `--fail-prob`, `--node-crash-prob`, `--max-attempts`,
/// `--speculate` and `--fail-fast`. All default to off, which keeps the
/// run byte-identical to a fault-free build.
fn parse_fault_flags(
    args: &Args,
) -> Result<(ipso_cluster::FaultModel, ipso_cluster::RecoveryPolicy), CliError> {
    let faults = ipso_cluster::FaultModel {
        task_fail_prob: args.f64_or("fail-prob", 0.0)?,
        node_crash_prob: args.f64_or("node-crash-prob", 0.0)?,
    };
    let mut recovery = ipso_cluster::RecoveryPolicy::hadoop_like();
    recovery.max_attempts = args.int_or("max-attempts", 4u32)?;
    recovery.speculation = args.flags.contains_key("speculate");
    recovery.max_wasted_fraction = args.f64_or("fail-fast", 0.0)?;
    faults.validate().map_err(|e| CliError(e.to_string()))?;
    recovery.validate().map_err(|e| CliError(e.to_string()))?;
    Ok((faults, recovery))
}

/// Runs one named workload at scale-out degree `n` with the
/// observability layer enabled and returns its job trace; the global
/// span buffer and metrics registry hold the instrumentation afterwards.
/// Unrecoverable faults (retries exhausted, fail-fast budget
/// blown) surface as errors — and a non-zero process exit — after
/// resetting the observability layer.
fn run_traced_workload(
    name: &str,
    n: u32,
    seed: u64,
    args: &Args,
) -> Result<ipso_cluster::JobTrace, CliError> {
    use ipso_mapreduce::try_run_scale_out;
    use ipso_workloads::{sort, terasort, wordcount};
    if n == 0 {
        return Err(CliError("flag --n must be at least 1".into()));
    }
    let (faults, recovery) = parse_fault_flags(args)?;
    let configure = |mut spec: ipso_mapreduce::JobSpec| {
        spec.faults = faults;
        spec.recovery = recovery;
        spec
    };
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    let run = match name {
        "terasort" => try_run_scale_out(
            &configure(terasort::job_spec(n)),
            &terasort::TeraSortMapper,
            &terasort::TeraSortReducer,
            &terasort::make_splits(n, seed),
        )
        .map(|run| run.trace),
        "sort" => try_run_scale_out(
            &configure(sort::job_spec(n)),
            &sort::SortMapper,
            &sort::SortReducer,
            &sort::make_splits(n, seed),
        )
        .map(|run| run.trace),
        "wordcount" => try_run_scale_out(
            &configure(wordcount::job_spec(n)),
            &wordcount::WordCountMapper::new(),
            &wordcount::WordCountReducer,
            &wordcount::make_splits(n, seed),
        )
        .map(|run| run.trace),
        other => {
            ipso_obs::set_enabled(false);
            ipso_obs::reset();
            return Err(CliError(format!(
                "unknown workload {other:?} (expected one of: {TRACEABLE_WORKLOADS})"
            )));
        }
    };
    match run {
        Ok(trace) => Ok(trace),
        Err(e) => {
            ipso_obs::set_enabled(false);
            ipso_obs::reset();
            Err(CliError(format!("{name} run aborted: {e}")))
        }
    }
}

/// Assembles the overhead breakdown from the engines' overhead gauges,
/// with the trace's measured `Wo(n)` as the total.
fn breakdown_from_gauges(total: f64) -> ipso::OverheadBreakdown {
    ipso::overhead_breakdown(
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

/// `ipso trace` — run an instrumented workload and export a Chrome
/// trace-event (Perfetto) timeline.
///
/// # Errors
///
/// Unknown workload, bad flags, or an unwritable output path.
pub fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let workload = args
        .positional
        .first()
        .ok_or_else(|| CliError(format!("missing workload (one of: {TRACEABLE_WORKLOADS})")))?
        .clone();
    let n = args.int_or("n", 8u32)?;
    let seed = args.int_or("seed", 3u64)?;
    let out = args
        .flags
        .get("out")
        .filter(|p| !p.is_empty())
        .ok_or_else(|| CliError("missing required flag --out FILE".into()))?
        .clone();
    let trace = run_traced_workload(&workload, n, seed, args)?;
    let events = ipso_obs::take_events();
    ipso_obs::set_enabled(false);
    ipso_obs::write_chrome_trace(std::path::Path::new(&out), &events)
        .map_err(|e| CliError(format!("cannot write {out}: {e}")))?;
    let mut text = String::new();
    writeln!(
        text,
        "{workload} @ n = {n}: {} trace events -> {out}",
        events.len()
    )
    .expect("string write");
    writeln!(
        text,
        "makespan phases (s): init {:.3}  map {:.3}  shuffle {:.3}  merge {:.3}  reduce {:.3}",
        trace.phases.init,
        trace.phases.map,
        trace.phases.shuffle,
        trace.phases.merge,
        trace.phases.reduce
    )
    .expect("string write");
    write!(text, "{}", breakdown_from_gauges(trace.scale_out_overhead)).expect("string write");
    writeln!(text, "open in https://ui.perfetto.dev or chrome://tracing").expect("string write");
    Ok(text)
}

/// `ipso metrics` — run an instrumented workload and print the metrics
/// registry snapshot plus the overhead breakdown.
///
/// # Errors
///
/// Unknown workload or bad flags.
pub fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    let workload = args
        .positional
        .first()
        .ok_or_else(|| CliError(format!("missing workload (one of: {TRACEABLE_WORKLOADS})")))?
        .clone();
    let n = args.int_or("n", 8u32)?;
    let seed = args.int_or("seed", 3u64)?;
    let trace = run_traced_workload(&workload, n, seed, args)?;
    let snapshot = ipso_obs::snapshot();
    ipso_obs::set_enabled(false);
    let mut text = String::new();
    writeln!(text, "{workload} @ n = {n} (seed {seed})").expect("string write");
    write!(text, "{snapshot}").expect("string write");
    write!(text, "{}", breakdown_from_gauges(trace.scale_out_overhead)).expect("string write");
    Ok(text)
}

/// Usage text.
pub fn usage() -> &'static str {
    "ipso — scaling analysis for data-intensive applications (ICDCS 2019)

USAGE:
  ipso classify  --eta E [--alpha A --delta D --beta B --gamma G] [--fixed-size]
  ipso diagnose  <curve.csv> [--fixed-size]
  ipso estimate  <runs.csv>
  ipso predict   <runs.csv> [--window 16] [--at 64,128,200]
  ipso provision <runs.csv> [--window 16] [--n-max 200]
                 [--worker-cost 0.10] [--master-cost 0.80] [--deadline SECS]
  ipso report    <runs.csv> [--window 16] [--n-max 200] [--fixed-size]
  ipso trace     <workload> [--n 8] [--seed 3] [FAULTS] --out run.trace.json
  ipso metrics   <workload> [--n 8] [--seed 3] [FAULTS]

FILES:
  curve.csv : n,speedup
  runs.csv  : n,seq_parallel,seq_serial,par_map,par_serial,par_overhead

WORKLOADS (trace / metrics): terasort, sort, wordcount
  trace   writes a Chrome trace-event (Perfetto) timeline of the run
  metrics prints the metrics-registry snapshot and overhead breakdown

Any other flag is an error.

FAULTS (trace / metrics; all off by default):
  --fail-prob P        per-attempt task failure probability in [0, 1)
  --node-crash-prob P  per-node crash probability in [0, 1]
  --max-attempts K     retry budget per task (default 4)
  --speculate          launch backup copies for stragglers
  --fail-fast F        abort (exit 1) when wasted work exceeds F x total
"
}

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Any command failure; the message is ready for stderr.
pub fn run(raw: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = raw.split_first() else {
        return Ok(usage().to_string());
    };
    let args = parse_args(rest)?;
    // The flags each command reads; `help` and unknown commands read none.
    let faults = "fail-prob node-crash-prob max-attempts speculate fail-fast";
    let (trace, metrics) = (format!("out n seed {faults}"), format!("n seed {faults}"));
    let accepted = match cmd.as_str() {
        "classify" => Some("eta alpha delta beta gamma fixed-size"),
        "diagnose" => Some("fixed-size"),
        "estimate" => Some(""),
        "predict" => Some("window at"),
        "provision" => Some("window n-max worker-cost master-cost deadline"),
        "report" => Some("window n-max worker-cost master-cost fixed-size"),
        "trace" => Some(trace.as_str()),
        "metrics" => Some(metrics.as_str()),
        _ => None,
    };
    if let Some(accepted) = accepted {
        args.only(cmd, accepted)?;
    }
    let read_file = |args: &Args| -> Result<String, CliError> {
        let path = args
            .positional
            .first()
            .ok_or_else(|| CliError("missing input CSV path".into()))?;
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))
    };
    match cmd.as_str() {
        "classify" => cmd_classify(&args),
        "diagnose" => {
            let csv = read_file(&args)?;
            cmd_diagnose(&args, &csv)
        }
        "estimate" => {
            let csv = read_file(&args)?;
            cmd_estimate(&csv)
        }
        "predict" => {
            let csv = read_file(&args)?;
            cmd_predict(&args, &csv)
        }
        "provision" => {
            let csv = read_file(&args)?;
            cmd_provision(&args, &csv)
        }
        "report" => {
            let csv = read_file(&args)?;
            cmd_report(&args, &csv)
        }
        "trace" => cmd_trace(&args),
        "metrics" => cmd_metrics(&args),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(CliError(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    }
}
