//! Order statistics over the benchmark's own samples.
//!
//! Simulated latencies are ranked exactly (every sample is kept), so a
//! percentile is a value the simulator produced and repeats bit for bit
//! under one seed; a bucketed histogram would move it by a bucket width
//! instead. Wall-clock timings, which are noisy anyway, go through the
//! repo's log-linear `fdpcache_metrics::Histogram`.

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p` percent of the samples at or
/// below it. `None` when there are no samples. Reorders `samples`.
pub fn percentile(samples: &mut [u32], p: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    let (_, v, _) = samples.select_nth_unstable(rank.min(samples.len()) - 1);
    Some(*v)
}

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// First and third quartile by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)` that the acceptance
/// procedure uses. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: i64| {
        // As CPython: position q*(n+1)/4 on a 1-based scale, the index
        // clamped to the data and the remainder left to extrapolate.
        let m = n as i64 + 1;
        let j = (q * m / 4).clamp(1, n as i64 - 1);
        let delta = (q * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance procedure compares against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50));
        assert_eq!(percentile(&mut v, 99.0), Some(99));
        assert_eq!(percentile(&mut v, 100.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(percentile(&mut [7], 99.0), Some(7));
    }

    #[test]
    fn percentile_returns_a_recorded_value() {
        let mut v = vec![2_000, 2_000, 2_000, 650_000];
        assert_eq!(percentile(&mut v, 50.0), Some(2_000));
        assert_eq!(percentile(&mut v, 99.0), Some(650_000));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
