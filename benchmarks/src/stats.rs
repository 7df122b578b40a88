//! Order statistics used by every report: percentiles, quartiles as the
//! driver computes them, and the "highest percentile the sample supports".

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last so they surface in the maximum instead of panicking).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `p`-quantile (`0.0 ..= 1.0`) of an ascending slice by linear
/// interpolation between closest ranks. Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the driver judges run-to-run spread with that function, so
/// the A/A mode must agree with it to the last digit.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the conventional tail percentiles that still has at
/// least ten samples beyond it, as a fraction (`0.99` for p99). With fewer
/// than 20 samples not even the median qualifies and `None` is returned.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        // The epsilon absorbs `1.0 - 0.9 = 0.09999…` so 100 samples reach p90.
        .find(|p| samples as f64 * (1.0 - p) + 1e-9 >= 10.0)
}

/// Label of a percentile fraction: `0.99 → "p99"`, `0.999 → "p99.9"`.
pub fn percentile_label(p: f64) -> String {
    let pct = p * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct:.2}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

/// Coefficient of variation (population standard deviation over mean).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([10, 20, 30, 45, 50, 52], n=4) == [17.5, 37.5, 50.5]
        let (q1, q3) = quartiles(&[10.0, 20.0, 30.0, 45.0, 50.0, 52.0]);
        assert!((q1 - 17.5).abs() < 1e-12 && (q3 - 50.5).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.999), "p99.9");
        assert_eq!(percentile_label(0.5), "p50");
    }

    #[test]
    fn coefficient_of_variation_is_scale_free() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        let a = coefficient_of_variation(&[1.0, 2.0, 3.0]);
        let b = coefficient_of_variation(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12 && a > 0.0);
    }
}
