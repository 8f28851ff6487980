//! Order statistics over measured samples.

use std::time::Duration;

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly between
/// the order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = at.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The first quartile of `values`: how the end-to-end timings summarize a
/// run's repetitions. The host's neighbours slow it down in bursts of a few
/// seconds; the lower quartile ignores bursts that cover up to three
/// quarters of a run, the median only those that cover up to half.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Durations as milliseconds.
pub fn millis(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
        assert_eq!(lower_quartile(&[10.0, 20.0]), 12.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 1.0), 4.0);
    }

    #[test]
    fn ratio_is_zero_without_a_whole() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(millis(&[Duration::from_micros(1500)]), vec![1.5]);
    }
}
