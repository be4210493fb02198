//! Cross-check against the committed figure CSVs under `results/`.
//!
//! At the default workload seed the benchmark's inputs are exactly the
//! figure binaries' inputs, so its speedups must equal the committed
//! values to the precision the CSVs print. The CSVs are only read.

use std::path::PathBuf;

/// `results/` of the repository the benchmark was built from.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("results")
}

/// Reads `results/<name>.csv` as rows of cells, header excluded.
///
/// # Errors
///
/// Returns a message when the file is missing or empty.
fn read(name: &str) -> Result<Vec<Vec<String>>, String> {
    let path = results_dir().join(format!("{name}.csv"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rows: Vec<Vec<String>> = text
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    if rows.is_empty() {
        return Err(format!("{} has no rows", path.display()));
    }
    Ok(rows)
}

/// Whether `value` prints as `cell`: equal within half a unit of the
/// cell's last printed decimal.
pub fn agrees(value: f64, cell: &str) -> bool {
    let Ok(printed) = cell.trim().parse::<f64>() else {
        return false;
    };
    let decimals = cell.split_once('.').map_or(0, |(_, frac)| frac.len());
    let half_unit = 0.5 * 10f64.powi(-(decimals as i32));
    (value - printed).abs() <= half_unit * (1.0 + 1e-9)
}

/// Compares `values[row][col]` against the CSV's `row`, column `col + 1`
/// (column 0 holds the scale-out degree, checked against `ns[row]`).
/// Returns the number of cells compared.
///
/// # Errors
///
/// Names the first disagreeing cell.
pub fn compare(name: &str, ns: &[u32], values: &[Vec<f64>]) -> Result<usize, String> {
    let rows = read(name)?;
    if rows.len() != ns.len() {
        return Err(format!(
            "{name}.csv has {} rows, expected {}",
            rows.len(),
            ns.len()
        ));
    }
    let mut cells = 0;
    for (r, (row, &n)) in rows.iter().zip(ns).enumerate() {
        if row.first().map(|c| c.trim()) != Some(n.to_string().as_str()) {
            return Err(format!("{name}.csv row {r}: expected n = {n}"));
        }
        for (c, &v) in values[r].iter().enumerate() {
            let cell = row.get(c + 1).map_or("", String::as_str);
            if !agrees(v, cell) {
                return Err(format!(
                    "{name}.csv row {r} column {}: benchmark {v} vs committed {cell}",
                    c + 1
                ));
            }
            cells += 1;
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_at_printed_precision() {
        assert!(agrees(1.8334, "1.833"));
        assert!(!agrees(1.8336, "1.833"));
        assert!(agrees(0.935_044, "0.93504"));
        assert!(!agrees(0.93506, "0.93504"));
        assert!(agrees(128.2, "128"));
        assert!(!agrees(1.0, "x"));
    }
}
