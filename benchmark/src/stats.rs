//! Order statistics the benchmark reports: the segment median, the
//! quartile spread the acceptance rule uses, and the tail-percentile rule.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the spread computed here is the
/// spread the acceptance rule computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / med).abs()
}

/// The value at quantile `q` of `sorted`, but only when at least ten
/// samples lie beyond it: a tail percentile resting on fewer samples is
/// one or two outliers, not a percentile.
pub fn supported_percentile(sorted: &[u32], q: f64) -> Option<u32> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// The highest of p50/p90/p99/p99.9/p99.99 that `sorted` supports under
/// [`supported_percentile`]'s rule, as `(q, value)`.
pub fn highest_supported(sorted: &[u32]) -> Option<(f64, u32)> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|q| supported_percentile(sorted, q).map(|v| (q, v)))
}

/// Exact median of `sorted` nanosecond samples, in microseconds.
pub fn p50_us(sorted: &[u32]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let mid = if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    };
    mid / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        // Four steady segments and one hit by a host stall.
        assert_eq!(median(&[100.0, 101.0, 60.0, 99.0, 100.5]), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), (15.0, 45.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        // p99 of 1000 samples has exactly 10 beyond it; p99.9 has 1.
        assert_eq!(supported_percentile(&v, 0.99), Some(990));
        assert_eq!(supported_percentile(&v, 0.999), None);
        assert_eq!(highest_supported(&v), Some((0.99, 990)));
        // 999 samples: only 9 lie beyond the p99, so p90 is the highest.
        let v: Vec<u32> = (1..=999).collect();
        assert_eq!(supported_percentile(&v, 0.99), None);
        assert_eq!(highest_supported(&v), Some((0.9, 900)));
        // 19 samples support nothing above the median; 10 support nothing.
        let v: Vec<u32> = (1..=19).collect();
        assert_eq!(highest_supported(&v), None);
        let v: Vec<u32> = (1..=20).collect();
        assert_eq!(highest_supported(&v), Some((0.5, 10)));
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn p50_is_exact() {
        assert_eq!(p50_us(&[1000, 2000, 9000]), 2.0);
        assert_eq!(p50_us(&[1000, 3000]), 2.0);
        assert_eq!(p50_us(&[]), 0.0);
    }
}
