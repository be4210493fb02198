//! Percentile helper for simulation metrics.

/// The `p`-th percentile (0–100) of a sample set, by linear interpolation
/// between closest ranks.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`. Samples are ranked in IEEE
/// total order, so non-finite values sort deterministically instead of
/// panicking.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 100.0), Some(4.0));
        assert_eq!(percentile(&data, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_on_unsorted_input() {
        let data = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&data, 50.0), Some(5.0));
    }
}
