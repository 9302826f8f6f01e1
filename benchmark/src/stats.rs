//! Order statistics for the reported timings.

/// Fewest samples that must lie beyond a reported percentile: a tail
/// figure resting on fewer would be a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of a few conventional percentiles that `sorted` supports,
/// as `(q, value)`; `None` below `2 × MIN_BEYOND` samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.99, 0.95, 0.9, 0.8, 0.75, 0.5]
        .into_iter()
        .find_map(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median of a small set of repeated measurements (set-up times, probe
/// repetitions), where no tail is reported and the percentile rule does
/// not apply.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts timings ascending (they are never NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0), "exactly ten beyond");
        assert_eq!(percentile(&v, 0.95), None, "only five beyond");
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..19], 0.5), None, "nine beyond the median");
        assert_eq!(percentile(&[], 0.5), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(tail(&v), Some((0.9, 90.0)));
        assert_eq!(tail(&v[..15]), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
