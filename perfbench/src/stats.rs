//! Order statistics for timing samples.

/// A tail percentile is only reported where at least this many samples lie
/// beyond it; below that, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// A tail reading: the percentile actually reported, its value, and the
/// sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, as a fraction (`0.99` for p99).
    pub quantile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile of `n` samples that has at least [`MIN_BEYOND`]
/// samples beyond it under the nearest-rank rule, or `None` when there are
/// too few samples for any tail.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| (n - MIN_BEYOND) as f64 / n as f64)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `want` percentile of `samples`, lowered to the highest percentile
/// with at least [`MIN_BEYOND`] samples beyond it when `samples` is too
/// small to support `want`. `None` for fewer than `MIN_BEYOND + 1` samples.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let quantile = want.min(highest_supported(samples.len())?);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        quantile,
        value: nearest_rank(&sorted, quantile),
        samples: sorted.len(),
    })
}

/// The median (mean of the middle pair for even counts); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(10), None);
        assert!(tail(&[1.0; 10], 0.99).is_none());
        // 11 samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven, 0.99).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        // 100 samples support p90 but not p99.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred, 0.99).unwrap();
        assert!((t.quantile - 0.90).abs() < 1e-12);
        assert_eq!(t.value, 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);
        // 1000 samples support p99 exactly, with ten samples beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 0.99).unwrap();
        assert_eq!((t.quantile, t.value, t.samples), (0.99, 990.0, 1000));
        // The median is never capped.
        assert_eq!(tail(&thousand, 0.5).unwrap().value, 500.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
