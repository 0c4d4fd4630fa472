//! Order statistics used by every metric.

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one pass or op.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // The small slack keeps an exact rank (p90 of 100 samples = the 90th)
    // from being pushed up by floating-point rounding of the product.
    let rank = (p * s.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Tail percentiles the harness considers, lowest first, each with the
/// share of samples beyond it in parts per 10 000 (integers, so the
/// ten-sample rule is exact at the boundaries).
pub const TAILS: [(f64, u64); 4] = [(90.0, 1000), (95.0, 500), (99.0, 100), (99.9, 10)];

/// The highest percentile of [`TAILS`] that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample this size can support.
/// `None` when even p90 has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rfind(|(_, beyond)| n as u64 * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(v, n=4)` gives
/// (the "exclusive" method) — the spread the acceptance rule uses.
pub fn iqr_share(v: &[f64]) -> f64 {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample, as the exclusive method does.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (q(3) - q(1)) / median(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 3.0, 1.0, 2.0, 4.0];
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
