//! End-to-end wall time of the experiment binaries.
//!
//! Times `all_experiments` and every experiment binary, each at
//! `--jobs 1` and `--jobs 2`, as child processes with their output
//! discarded, and writes `BENCH_e2e.json` at the repository root: per
//! configuration the independent samples, their median and IQR, plus
//! the host's thread count. One untimed warm-up round goes first; the
//! timed rounds then visit every configuration in turn, so drift in the
//! host's speed spreads over all of them alike.
//!
//! ```text
//! cargo bench -p ipso-bench --bench e2e
//! ```
//!
//! The binaries write `results/` and `BENCH_faults.json` as usual; their
//! bytes do not depend on `--jobs`, so a run leaves them unchanged.
//!
//! The record is one sweep of 5 samples (`SAMPLES`) per configuration with
//! no baseline beside it, so it is a smoke record that cannot back a
//! before/after: two runs of one unchanged build have read
//! `all_experiments --jobs 1` at 1.01 s and 1.22 s. The before/after of
//! record is `perfbench`, run in alternating parent/change pairs.

use serde::Serialize;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Timed rounds; each round runs every configuration once.
const SAMPLES: usize = 5;
/// The `--jobs` values timed for every binary.
const JOBS: [usize; 2] = [1, 2];

/// A binary's name and the path cargo built it at.
macro_rules! binary {
    ($name:literal) => {
        ($name, env!(concat!("CARGO_BIN_EXE_", $name)))
    };
}

/// Every binary of the crate, `all_experiments` first.
const BINARIES: [(&str, &str); 19] = [
    binary!("all_experiments"),
    binary!("fig2_taxonomy_fixed_time"),
    binary!("fig3_taxonomy_fixed_size"),
    binary!("fig4_mapreduce_speedups"),
    binary!("fig5_terasort_stepwise"),
    binary!("fig6_scaling_factors"),
    binary!("fig7_ipso_prediction"),
    binary!("table1_collab_filtering"),
    binary!("fig8_collab_filtering"),
    binary!("fig9_spark_fixed_time"),
    binary!("fig10_spark_fixed_size"),
    binary!("provisioning_tradeoffs"),
    binary!("ablation_broadcast"),
    binary!("ablation_scheduler"),
    binary!("ablation_stragglers"),
    binary!("ablation_memory"),
    binary!("ablation_shuffle_pipelining"),
    binary!("ablation_faults"),
    binary!("sensitivity_analysis"),
];

/// Where the report lands: the repository root.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json");

#[derive(Debug, Serialize)]
struct Record {
    binary: &'static str,
    jobs: usize,
    median_s: f64,
    iqr_s: f64,
    samples_s: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: &'static str,
    host_threads: usize,
    samples: usize,
    records: Vec<Record>,
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly
/// between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs `exe --jobs N` to completion and returns its wall time in
/// seconds.
///
/// # Panics
///
/// Panics if the binary cannot be launched or fails.
fn time_run(name: &str, exe: &str, jobs: usize) -> f64 {
    let start = Instant::now();
    let status = Command::new(exe)
        .args(["--jobs", &jobs.to_string()])
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("cannot launch {name}: {e}"));
    let elapsed = start.elapsed().as_secs_f64();
    assert!(status.success(), "{name} --jobs {jobs} failed: {status}");
    elapsed
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test --benches` does not,
    // and a minute of timing is not the smoke test it asks for.
    if !std::env::args().any(|a| a == "--bench") {
        println!("e2e: timing runs under `cargo bench` only");
        return;
    }
    let configs: Vec<(&str, &str, usize)> = BINARIES
        .iter()
        .flat_map(|&(name, exe)| JOBS.map(|jobs| (name, exe, jobs)))
        .collect();
    for &(name, exe, jobs) in &configs {
        time_run(name, exe, jobs);
    }
    let mut samples = vec![Vec::with_capacity(SAMPLES); configs.len()];
    for _ in 0..SAMPLES {
        for (&(name, exe, jobs), times) in configs.iter().zip(&mut samples) {
            times.push(time_run(name, exe, jobs));
        }
    }

    let records: Vec<Record> = configs
        .iter()
        .zip(samples)
        .map(|(&(binary, _, jobs), samples_s)| {
            let mut sorted = samples_s.clone();
            sorted.sort_by(f64::total_cmp);
            let record = Record {
                binary,
                jobs,
                median_s: quantile(&sorted, 0.5),
                iqr_s: quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
                samples_s,
            };
            println!(
                "e2e {binary:<28} --jobs {jobs}: {:>8.3} s median, IQR {:.3} s ({SAMPLES} samples)",
                record.median_s, record.iqr_s
            );
            record
        })
        .collect();
    let report = Report {
        schema: "ipso-bench-e2e/v1",
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        samples: SAMPLES,
        records,
    };
    let json = serde_json::to_string_pretty(&report).expect("e2e report serializes");
    std::fs::write(REPORT_PATH, json + "\n").expect("write BENCH_e2e.json");
    println!("wrote {REPORT_PATH}");
}
