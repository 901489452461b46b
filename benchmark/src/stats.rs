//! Order statistics over rep times.

/// The sample sorted ascending.
///
/// # Panics
///
/// Panics on NaN: every sample here is a measured duration or count.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Nearest-rank quantile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest percentile of an ascending sample that still has at
/// least ten samples beyond it, as `(percentile, value)`. With fewer
/// than eleven samples no percentile qualifies and the maximum is
/// returned as percentile 100, which says "this is one sample, not a
/// tail estimate".
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn highest_with_ten_beyond(sorted: &[f64]) -> (f64, f64) {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    if n < 11 {
        return (100.0, sorted[n - 1]);
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(quantile(&s, 0.10), 1.0);
        assert_eq!(quantile(&s, 0.11), 2.0);
        assert_eq!(quantile(&s, 0.50), 5.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.10), 7.0);
    }

    #[test]
    fn fast_decile_of_two_hundred() {
        // 200 reps: the p10 is the 20th fastest.
        assert_eq!(quantile(&ramp(200), 0.10), 20.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let s = ramp(200);
        let (pct, v) = highest_with_ten_beyond(&s);
        assert_eq!(v, 190.0);
        assert_eq!(pct, 95.0);
        assert_eq!(s.iter().filter(|x| **x > v).count(), 10);

        let (pct, v) = highest_with_ten_beyond(&ramp(11));
        assert_eq!((pct, v), (100.0 / 11.0, 1.0));
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum() {
        assert_eq!(highest_with_ten_beyond(&ramp(10)), (100.0, 10.0));
        assert_eq!(highest_with_ten_beyond(&[5.0]), (100.0, 5.0));
    }
}
