#![warn(missing_docs)]

//! Experiment harness regenerating the paper's figures and tables.
//!
//! Every table and figure of the paper's evaluation has an emitter in
//! [`experiments`] that prints the series the paper plots and writes the
//! same data as CSV under `results/`. A binary of the same name runs one
//! emitter; `all_experiments` runs them all in one process. Run it with
//! `cargo run -p ipso-bench --bin all_experiments --release`.
//!
//! | Emitter | Paper artifact |
//! |---|---|
//! | `fig2_taxonomy_fixed_time` | Fig. 2 — fixed-time taxonomy curves |
//! | `fig3_taxonomy_fixed_size` | Fig. 3 — fixed-size taxonomy curves |
//! | `fig4_mapreduce_speedups` | Fig. 4 — measured vs Gustafson, 4 jobs |
//! | `fig5_terasort_stepwise` | Fig. 5 — TeraSort step-wise `IN(n)` |
//! | `fig6_scaling_factors` | Fig. 6 — `EX(n)`, `IN(n)` fits |
//! | `fig7_ipso_prediction` | Fig. 7 — IPSO vs measured vs Gustafson |
//! | `table1_collab_filtering` | Table I — CF workload measurements |
//! | `fig8_collab_filtering` | Fig. 8 — CF workload fits and speedups |
//! | `fig9_spark_fixed_time` | Fig. 9 — Spark fixed-time dimension |
//! | `fig10_spark_fixed_size` | Fig. 10 — Spark fixed-size dimension |
//! | `provisioning_tradeoffs` | §I/§VI — speedup-versus-cost analysis |
//! | `ablation_*`, `sensitivity_analysis` | the mechanisms behind the pathologies |

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub mod experiments;
pub mod json;
pub mod parallel;
pub mod reference;

pub use experiments::Context;
pub use json::Json;
pub use parallel::SweepRunner;

/// Where experiment CSVs are written: `<workspace>/results/`.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Locates the workspace root by walking up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels down")
        .to_path_buf()
}

/// A rectangular experiment result: named columns plus rows of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment identifier (`fig4-sort`, `table1`, …).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each must match `columns` in length.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(name: &str, columns: &[&str]) -> Table {
        assert!(!columns.is_empty(), "a table needs columns");
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned, human-readable table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| format_number(*v)).collect())
            .collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Writes the table as `results/<name>.csv` and returns the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiment binaries want loud failures).
    pub fn write_csv(&self) -> PathBuf {
        let path = results_dir().join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path).expect("cannot create CSV");
        writeln!(f, "{}", self.columns.join(",")).expect("csv write failed");
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format_number(*v)).collect();
            writeln!(f, "{}", line.join(",")).expect("csv write failed");
        }
        path
    }

    /// Prints the table and writes the CSV — what every binary does.
    pub fn emit(&self) {
        print!("{}", self.render());
        let path = self.write_csv();
        println!("-> {}\n", path.display());
    }

    /// Column index by name.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn column(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in table {}", self.name))
    }

    /// All values of one column.
    pub fn values(&self, name: &str) -> Vec<f64> {
        let idx = self.column(name);
        self.rows.iter().map(|r| r[idx]).collect()
    }
}

/// The flags of the experiment binaries, each also spelled
/// `--flag=value`; only the traced figures take `--trace-out`.
#[derive(Debug, Default, PartialEq)]
pub struct Flags {
    /// `--jobs N`: sweep workers; `0` (the default) means one per
    /// hardware thread.
    pub jobs: usize,
    /// `--trace-out FILE`: where the traced figures write their Perfetto
    /// timeline.
    pub trace_out: Option<PathBuf>,
}

/// A bad experiment-binary command line: the message for stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagError(pub String);

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

impl Flags {
    /// [`Flags::parse`] over the process arguments.
    ///
    /// # Errors
    ///
    /// As [`Flags::parse`].
    pub fn from_env() -> Result<Flags, FlagError> {
        Flags::parse(std::env::args().skip(1))
    }

    /// Parses an argument list; the last occurrence of a flag wins.
    ///
    /// # Errors
    ///
    /// Any other argument, a flag without a value and a malformed
    /// `--jobs` value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Flags, FlagError> {
        let mut args = args.into_iter();
        let mut flags = Flags::default();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if flag != "--jobs" && flag != "--trace-out" {
                return Err(FlagError(format!("unknown argument {flag:?}")));
            }
            let value = inline
                .or_else(|| args.next())
                .filter(|v| !v.is_empty())
                .ok_or_else(|| FlagError(format!("{flag} needs a value")))?;
            if flag == "--jobs" {
                flags.jobs = value
                    .parse()
                    .map_err(|e| FlagError(format!("invalid --jobs value {value:?}: {e}")))?;
            } else {
                flags.trace_out = Some(PathBuf::from(value));
            }
        }
        Ok(flags)
    }
}

fn format_number(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.fract() == 0.0 && v.abs() < 1e9 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "speedup"]);
        t.push(vec![1.0, 1.0]);
        t.push(vec![128.0, 20.5]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("n  speedup"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn column_lookup() {
        let mut t = Table::new("x", &["n", "s"]);
        t.push(vec![2.0, 3.0]);
        assert_eq!(t.column("s"), 1);
        assert_eq!(t.values("n"), vec![2.0]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(3.25), "3.250");
        assert_eq!(format_number(0.0061), "0.00610");
        // Banker's rounding of {:.0}.
        assert_eq!(format_number(1602.5), "1602");
    }

    fn parse(args: &[&str]) -> Result<Flags, FlagError> {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |args: &[&str]| parse(args).unwrap();
        assert_eq!(parse(&[]).jobs, 0);
        assert_eq!(parse(&["--jobs", "4"]).jobs, 4);
        assert_eq!(parse(&["--jobs=2"]).jobs, 2);
        let both = parse(&["--trace-out", "x.json", "--jobs", "3"]);
        assert_eq!(both.jobs, 3);
        assert_eq!(both.trace_out, Some(PathBuf::from("x.json")));
        assert_eq!(
            parse(&["--trace-out=a=b.json"]).trace_out,
            Some(PathBuf::from("a=b.json"))
        );
        // Last flag wins, like most CLIs.
        assert_eq!(parse(&["--jobs=2", "--jobs=5"]).jobs, 5);
    }

    #[test]
    fn unknown_flags_are_loud() {
        let err = parse(&["--jobs=1", "--trace_out=x.json"]).unwrap_err();
        assert_eq!(err.0, "unknown argument \"--trace_out\"");
    }

    #[test]
    fn positional_arguments_are_loud() {
        assert_eq!(parse(&["x"]).unwrap_err().0, "unknown argument \"x\"");
    }

    #[test]
    fn malformed_jobs_flag_is_loud() {
        let err = parse(&["--jobs", "many"]).unwrap_err();
        assert!(err.0.starts_with("invalid --jobs value"), "{err}");
    }

    #[test]
    fn trailing_trace_out_flag_is_loud() {
        let err = parse(&["--jobs=1", "--trace-out"]).unwrap_err();
        assert_eq!(err.0, "--trace-out needs a value");
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = Table::new("unit-test-csv", &["a", "b"]);
        t.push(vec![1.0, 2.0]);
        let path = t.write_csv();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("a,b\n1,2\n"));
        std::fs::remove_file(path).ok();
    }
}
