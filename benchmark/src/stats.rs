//! Order statistics: medians, the quartile rule the acceptance check
//! uses, and the rule that picks which tail percentile a sample supports.

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    median(&mut v)
}

/// Nearest rank of percentile `p` among `n` samples, in whole
/// per-mille steps so that p99.9 of 10 000 is rank 9 990 exactly (in
/// floating point it is 9 990.000000000002, whose ceiling is wrong).
fn rank(n: usize, p: f64) -> usize {
    ((p * 10.0).round() as usize * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it — the only tail a sample of size `n` supports.
/// Falls back to the median when even p75 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(LADDER[0])
}

/// `(percentile chosen, its value in ns)` for nanosecond samples.
pub fn tail_ns(samples: &[u64]) -> (f64, f64) {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    v.sort_unstable_by(f64::total_cmp);
    let p = tail_percentile(v.len());
    (p, percentile(&v, p))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method) — the rule the acceptance check
/// applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    /// The rule: report the highest percentile with ≥ 10 samples beyond.
    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(15), 50.0); // p75 of 15 leaves 3
        assert_eq!(tail_percentile(40), 75.0); // p75 leaves 10, p90 leaves 4
        assert_eq!(tail_percentile(100), 90.0); // p90 leaves 10, p95 leaves 5
        assert_eq!(tail_percentile(199), 90.0); // p95 leaves 9
        assert_eq!(tail_percentile(200), 95.0); // p95 leaves exactly 10
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0); // p99.9 leaves 9
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` =
    /// `[2.75, 5.5, 8.25]`; `quantiles([1, 2], n=4)` = `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(relative_spread(&ten), 1.0);
    }
}
