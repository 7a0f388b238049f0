//! Order statistics over latency samples.

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The nearest-rank `q`-quantile of `values` (`0 < q <= 1`): the
/// smallest sample with at least a `q` share of the samples at or below
/// it. `0.0` for an empty slice.
#[must_use]
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail latency a run reports as `p99_ms`: the nearest-rank 99th
/// percentile, plus how many samples lie strictly beyond it. With 1000
/// or more samples at least ten lie beyond, the reporting rule for a
/// tail percentile; with fewer the value degenerates towards the
/// maximum, and the stated count says so.
#[must_use]
pub fn p99_with_beyond(values: &[f64]) -> (f64, usize) {
    let p99 = nearest_rank(values, 0.99);
    let beyond = values.iter().filter(|&&v| v > p99).count();
    (p99, beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p99, beyond) = p99_with_beyond(&values);
        assert_eq!(p99, 990.0);
        assert_eq!(beyond, 10);
        assert_eq!(nearest_rank(&values, 0.5), 500.0);
    }
}
