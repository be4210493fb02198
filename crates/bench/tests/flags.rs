//! The experiment binaries refuse arguments they do not read: a typo or
//! a `--trace-out` to a binary that writes no trace fails with status 1
//! before any experiment runs, naming the argument and printing a usage
//! line, instead of exiting 0 without the file the caller asked for.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `exe` with `args`; asserts that it exits with status 1 and a
/// usage line without writing `trace`, and returns its stderr.
fn refused(exe: &str, args: &[&str], trace: &Path) -> String {
    let _ = std::fs::remove_file(trace);
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("binary starts");
    assert_eq!(out.status.code(), Some(1), "{exe} {args:?}");
    assert!(!trace.exists(), "{exe} {args:?} wrote {}", trace.display());
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("\nusage: "), "{stderr}");
    stderr
}

fn trace_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipso-flags-{}-{name}.json", std::process::id()))
}

#[test]
fn untraced_binaries_refuse_trace_out() {
    let trace = trace_path("fig6");
    let path = trace.to_str().expect("utf-8 temp path");
    let stderr = refused(
        env!("CARGO_BIN_EXE_fig6_scaling_factors"),
        &["--trace-out", path],
        &trace,
    );
    assert!(
        stderr.contains("fig6_scaling_factors does not accept --trace-out"),
        "{stderr}"
    );
}

#[test]
fn all_experiments_refuses_trace_out() {
    let trace = trace_path("all");
    let flag = format!("--trace-out={}", trace.display());
    let stderr = refused(env!("CARGO_BIN_EXE_all_experiments"), &[&flag], &trace);
    assert!(
        stderr.contains("all_experiments does not accept --trace-out"),
        "{stderr}"
    );
}

#[test]
fn misspelled_flags_are_named() {
    let trace = trace_path("fig5");
    let path = trace.to_str().expect("utf-8 temp path");
    let stderr = refused(
        env!("CARGO_BIN_EXE_fig5_terasort_stepwise"),
        &["--job", "1", "--trace_out", path],
        &trace,
    );
    assert!(stderr.contains("unknown argument \"--job\""), "{stderr}");
}
