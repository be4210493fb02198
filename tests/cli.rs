//! Tests of the `ipso` CLI layer (argument parsing, CSV parsing and the
//! command implementations).

use ipso_repro::cli::{
    cmd_classify, cmd_diagnose, cmd_estimate, cmd_predict, cmd_provision, cmd_report, parse_args,
    parse_curve_csv, parse_runs_csv, run, usage,
};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A Sort-like runs CSV: EX = n, IN = 0.4n + 0.6, no overhead.
fn runs_csv() -> String {
    let mut out = String::from("n,seq_parallel,seq_serial,par_map,par_serial,par_overhead\n");
    for n in [1u32, 2, 4, 8, 12, 16, 32, 64] {
        let nf = f64::from(n);
        let inn = 0.4 * nf + 0.6;
        out.push_str(&format!(
            "{n},{},{},{},{},0\n",
            10.0 * nf,
            3.0 * inn,
            10.0,
            3.0 * inn
        ));
    }
    out
}

#[test]
fn arg_parser_handles_flags_and_positionals() {
    let a = parse_args(&args(&[
        "file.csv",
        "--window",
        "16",
        "--fixed-size",
        "--at",
        "1,2",
    ]))
    .unwrap();
    assert_eq!(a.positional, vec!["file.csv"]);
    assert_eq!(a.flags.get("window").unwrap(), "16");
    assert_eq!(a.flags.get("at").unwrap(), "1,2");
    assert!(a.flags.contains_key("fixed-size"));
    assert!(parse_args(&args(&["--"])).is_err());
}

#[test]
fn curve_csv_accepts_header_and_blank_lines() {
    let curve = parse_curve_csv("n,speedup\n\n1,1.0\n4,3.5\n2,1.9\n").unwrap();
    assert_eq!(curve.len(), 3);
    assert_eq!(curve.points()[1].n, 2);
    assert!(parse_curve_csv("header only\n").is_err());
    assert!(parse_curve_csv("1\n").is_err());
    assert!(parse_curve_csv("x,y\nnot,a number\n").is_err());
}

#[test]
fn runs_csv_roundtrip() {
    let runs = parse_runs_csv(&runs_csv()).unwrap();
    assert_eq!(runs.len(), 8);
    assert_eq!(runs[0].n, 1);
    assert!((runs[7].speedup() - (640.0 + 3.0 * 26.2) / (10.0 + 3.0 * 26.2)).abs() < 1e-9);
    assert!(parse_runs_csv("1,2,3\n").is_err());
}

#[test]
fn curve_csv_rejects_a_non_numeric_row_after_the_first_line() {
    let err = parse_curve_csv("n,speedup\n1,1.0\nx4,3.7\n8,6.5\n").unwrap_err();
    assert_eq!(err.0, "line 3: bad n \"x4\"");
    // Blank lines keep their numbers and do not make a later row a header.
    let err = parse_curve_csv("\n1,1.0\n\nspeedup,n\n").unwrap_err();
    assert_eq!(err.0, "line 4: bad n \"speedup\"");
}

#[test]
fn runs_csv_rejects_a_repeated_header_row() {
    let mut csv = runs_csv();
    csv.push_str("n,seq_parallel,seq_serial,par_map,par_serial,par_overhead\n");
    let err = parse_runs_csv(&csv).unwrap_err();
    assert_eq!(err.0, "line 10: bad n \"n\"");
    // A header is still accepted after leading blank lines.
    assert_eq!(
        parse_runs_csv(&format!("\n\n{}", runs_csv()))
            .unwrap()
            .len(),
        8
    );
}

#[test]
fn classify_command_formats_report() {
    let a = parse_args(&args(&["--eta", "0.9", "--alpha", "2.8"])).unwrap();
    let out = cmd_classify(&a).unwrap();
    assert!(out.contains("IIIt,1"));
    assert!(out.contains("bound    : 26.200"));
    // Missing eta is an error.
    let bad = parse_args(&args(&["--alpha", "2.8"])).unwrap();
    assert!(cmd_classify(&bad).is_err());
}

#[test]
fn classify_fixed_size_flag() {
    let a = parse_args(&args(&["--eta", "0.9", "--fixed-size"])).unwrap();
    let out = cmd_classify(&a).unwrap();
    assert!(out.contains("fixed-size"));
    assert!(out.contains("IIIs,1"));
}

#[test]
fn diagnose_command_detects_peak() {
    let csv = "n,speedup\n1,1\n10,15\n30,21\n60,22\n90,18\n120,14\n150,11\n";
    let a = parse_args(&args(&["--fixed-size"])).unwrap();
    let out = cmd_diagnose(&a, csv).unwrap();
    assert!(out.contains("IVs"));
    assert!(out.contains("peaked"));
}

#[test]
fn estimate_command_reports_factors() {
    let out = cmd_estimate(&runs_csv()).unwrap();
    assert!(out.contains("eta    : 0.7692"), "{out}");
    assert!(out.contains("Affine"));
    assert!(out.contains("delta = 0.0000"), "{out}");
}

#[test]
fn predict_command_extrapolates() {
    let a = parse_args(&args(&["--window", "16", "--at", "64"])).unwrap();
    let out = cmd_predict(&a, &runs_csv()).unwrap();
    // True S(64) from the synthetic model.
    let expected = (640.0 + 3.0 * 26.2) / (10.0 + 3.0 * 26.2);
    let line = out
        .lines()
        .find(|l| l.contains("S(  64)"))
        .expect("prediction line");
    let value: f64 = line.split('=').nth(1).unwrap().trim().parse().unwrap();
    assert!(
        (value - expected).abs() / expected < 0.02,
        "{line} vs {expected}"
    );
}

#[test]
fn provision_command_recommends() {
    let a = parse_args(&args(&[
        "--window",
        "16",
        "--n-max",
        "100",
        "--deadline",
        "30",
    ]))
    .unwrap();
    let out = cmd_provision(&a, &runs_csv()).unwrap();
    assert!(out.contains("fastest"));
    assert!(out.contains("most efficient"));
    assert!(out.contains("90%-peak knee"));
    assert!(out.contains("deadline 30s"));
}

#[test]
fn report_command_renders_markdown() {
    let a = parse_args(&args(&["--window", "16", "--n-max", "64"])).unwrap();
    let out = cmd_report(&a, &runs_csv()).unwrap();
    assert!(out.contains("# IPSO scaling analysis"));
    assert!(out.contains("## Scaling classification"));
    assert!(out.contains("IIIt,1"));
    assert!(out.contains("## Provisioning"));
}

#[test]
fn run_dispatches_and_reports_unknown_commands() {
    assert!(run(&args(&[])).unwrap().contains("USAGE"));
    assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
    let err = run(&args(&["frobnicate"])).unwrap_err();
    assert!(err.0.contains("unknown command"));
    let err = run(&args(&["diagnose"])).unwrap_err();
    assert!(err.0.contains("missing input CSV"));
    let err = run(&args(&["diagnose", "/definitely/not/here.csv"])).unwrap_err();
    assert!(err.0.contains("cannot read"));
}

#[test]
fn usage_mentions_every_command() {
    let u = usage();
    for cmd in [
        "classify",
        "diagnose",
        "estimate",
        "predict",
        "provision",
        "report",
    ] {
        assert!(u.contains(cmd), "usage missing {cmd}");
    }
    for flag in ["--fail-prob", "--speculate", "--fail-fast"] {
        assert!(u.contains(flag), "usage missing {flag}");
    }
}

#[test]
fn metrics_command_reports_fault_recovery() {
    let cmd = args(&[
        "metrics",
        "sort",
        "--n",
        "4",
        "--fail-prob",
        "0.6",
        "--max-attempts",
        "8",
        "--speculate",
    ]);
    let out = run(&cmd).unwrap();
    assert!(out.contains("fault.task_retries"), "got:\n{out}");
    // Byte-deterministic: the same flags reproduce the same report.
    assert_eq!(run(&cmd).unwrap(), out);
}

#[test]
fn fail_fast_flag_aborts_with_an_error() {
    let err = run(&args(&[
        "metrics",
        "sort",
        "--n",
        "4",
        "--fail-prob",
        "0.6",
        "--max-attempts",
        "16",
        "--fail-fast",
        "0.0000001",
    ]))
    .unwrap_err();
    assert!(err.0.contains("aborted"), "got: {err}");
    assert!(err.0.contains("fail-fast budget"), "got: {err}");
}

#[test]
fn invalid_fault_flags_are_rejected() {
    let err = run(&args(&[
        "metrics",
        "sort",
        "--n",
        "4",
        "--fail-prob",
        "1.5",
    ]))
    .unwrap_err();
    assert!(err.0.contains("invalid"), "got: {err}");
}

#[test]
fn integer_flags_reject_fractions_and_negatives() {
    let csv = runs_csv();
    let expected = |flag: &str| format!("flag --{flag} must be a non-negative integer");
    for value in ["16.5", "-16"] {
        let a = parse_args(&args(&["--window", value])).unwrap();
        assert_eq!(cmd_predict(&a, &csv).unwrap_err().0, expected("window"));
    }
    for (flag, value) in [("--n-max", "200.5"), ("--window", "8.9")] {
        let a = parse_args(&args(&[flag, value])).unwrap();
        assert_eq!(cmd_provision(&a, &csv).unwrap_err().0, expected(&flag[2..]));
        assert_eq!(cmd_report(&a, &csv).unwrap_err().0, expected(&flag[2..]));
    }
    for (flag, value) in [
        ("n", "2.9"),
        ("n", "-4"),
        ("seed", "1.5"),
        ("max-attempts", "2.5"),
    ] {
        let flag_arg = format!("--{flag}");
        for command in [
            &["metrics", "sort", &flag_arg, value][..],
            &[
                "trace",
                "sort",
                &flag_arg,
                value,
                "--out",
                "unused.trace.json",
            ],
        ] {
            let err = run(&args(command)).unwrap_err();
            assert_eq!(err.0, expected(flag), "{command:?}");
        }
    }
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // A typo must not fall back to the flag's default, which would
    // classify `--gama 2` as if gamma were 0.
    let err = run(&args(&[
        "classify", "--eta", "0.9", "--beta", "0.01", "--gama", "2",
    ]))
    .unwrap_err();
    assert_eq!(
        err.0,
        "unknown flag --gama for classify; `ipso help` lists its flags"
    );
    // `--out` belongs to `trace` only; of several unknown flags the
    // first in name order is named.
    let err = run(&args(&[
        "metrics",
        "sort",
        "--out",
        "x",
        "--fail-prb",
        "0.3",
    ]))
    .unwrap_err();
    assert!(
        err.0.starts_with("unknown flag --fail-prb for metrics"),
        "{err}"
    );
    let err = run(&args(&["estimate", "runs.csv", "--window", "8"])).unwrap_err();
    assert!(
        err.0.starts_with("unknown flag --window for estimate"),
        "{err}"
    );
    // Retired options fail by name instead of being ignored.
    let err = run(&args(&["predict", "runs.csv", "--confidence", "0.9"])).unwrap_err();
    assert!(
        err.0.starts_with("unknown flag --confidence for predict"),
        "{err}"
    );
    let err = run(&args(&["metrics", "sort", "--scheduler", "fifo"])).unwrap_err();
    assert!(
        err.0.starts_with("unknown flag --scheduler for metrics"),
        "{err}"
    );
}

/// Jobs run on the calling thread: the retired `--threads` fails loudly
/// instead of being ignored.
#[test]
fn the_retired_threads_flag_is_an_error() {
    let err = run(&args(&[
        "trace",
        "sort",
        "--threads",
        "2",
        "--out",
        "unused.trace.json",
    ]))
    .unwrap_err();
    assert!(err.0.contains("unknown flag --threads for trace"), "{err}");
}
