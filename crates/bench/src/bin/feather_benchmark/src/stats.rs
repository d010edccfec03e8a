//! Order statistics used by every workload: nearest-rank percentiles, the
//! rule that decides which percentile a sample count supports, and the
//! quartile spread the `compare` mode judges noise by.

/// Samples that must lie beyond a percentile before it may be printed.
pub const SAMPLES_BEYOND: usize = 10;

/// Sorts a sample vector in place (all harness samples are finite).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// 1-based nearest-rank of percentile `p` (0 < p ≤ 100) among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] of them beyond
/// percentile `p` — the condition under which the harness prints it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= SAMPLES_BEYOND
}

/// A tail percentile for the per-layer lists: reads 0 when fewer than
/// [`SAMPLES_BEYOND`] samples lie beyond it, so a short window cannot pass a
/// few outliers off as a tail.
pub fn tail_percentile_of(samples: &[f64], p: f64) -> f64 {
    if supports(samples.len(), p) {
        percentile_of(samples, p)
    } else {
        0.0
    }
}

/// Sorts a copy and returns its nearest-rank percentile.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile(&sorted, p)
}

/// Median as the mean of the two middle values for even counts — the
/// convention `statistics.median` uses, so spreads match the driver's.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread as a share of the median: the quartile distance for
/// four or more samples, the full range for two or three, 0 for one.
pub fn spread(samples: &[f64]) -> f64 {
    let mid = median(samples).abs();
    if mid == 0.0 || samples.len() < 2 {
        return 0.0;
    }
    let width = if samples.len() >= 4 {
        let (q1, q3) = quartiles(samples).expect("two or more samples");
        q3 - q1
    } else {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    width / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        // Nearest rank never interpolates: 5 samples, p50 is the third.
        assert_eq!(percentile(&[1.0, 2.0, 10.0, 20.0, 30.0], 50.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        // p99 needs a thousand.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        // A 24-iteration cold-start window supports its median and no more.
        assert!(supports(24, 50.0));
        assert!(!supports(24, 75.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile_of(&samples, 95.0), 190.0);
        assert_eq!(tail_percentile_of(&samples[..199], 95.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_of_few_runs_is_the_range() {
        assert_eq!(spread(&[100.0]), 0.0);
        assert!((spread(&[100.0, 110.0, 90.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
