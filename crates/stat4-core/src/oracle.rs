//! Exact (floating-point and big-integer) reference statistics.
//!
//! Nothing here is data-plane-legal; these functions are the *host-side*
//! oracle of the paper's validation experiment (Sec. 3, Fig. 5): the host
//! recomputes every statistic in software and compares with what the
//! switch reports. They are also used by the `repro` binary to grade
//! the approximation errors of Tables 2 and 3.

/// Exact arithmetic mean of `values`.
#[must_use]
pub fn mean(values: &[i64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Exact population variance of `values` (the paper uses the population
/// form `E[X²] − E[X]²`).
#[must_use]
pub fn variance(values: &[i64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values
        .iter()
        .map(|&v| {
            let d = v as f64 - m;
            d * d
        })
        .sum::<f64>()
        / values.len() as f64
}

/// Exact population standard deviation.
#[must_use]
pub fn stddev(values: &[i64]) -> f64 {
    variance(values).sqrt()
}

/// Exact `σ²(NX) = N·Xsumsq − Xsum²` in big integers — the quantity the
/// switch's registers must hold bit-for-bit.
#[must_use]
pub fn variance_nx_exact(values: &[i64]) -> u128 {
    let n = values.len() as i128;
    let sum: i128 = values.iter().map(|&v| v as i128).sum();
    let sumsq: i128 = values.iter().map(|&v| (v as i128) * (v as i128)).sum();
    let v = n * sumsq - sum * sum;
    debug_assert!(v >= 0, "Cauchy-Schwarz violated?");
    v.max(0) as u128
}

/// Exact `q`-quantile (0 < q < 1) of `values` using the nearest-rank
/// definition on the sorted multiset — the ground truth for Table 3's
/// median-error measurements.
#[must_use]
pub fn quantile(values: &[i64], q: f64) -> Option<i64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Exact median (50th percentile, nearest rank).
#[must_use]
pub fn median(values: &[i64]) -> Option<i64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(median(&[]), None);
        assert_eq!(variance_nx_exact(&[]), 0);
    }

    #[test]
    fn mean_and_variance_by_hand() {
        let v = [2i64, 4, 4, 4, 5, 5, 7, 9];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((variance(&v) - 4.0).abs() < 1e-12);
        assert!((stddev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_nx_is_n2_times_variance() {
        let v = [2i64, 4, 4, 4, 5, 5, 7, 9];
        let n = v.len() as f64;
        let expected = n * n * variance(&v);
        assert!((variance_nx_exact(&v) as f64 - expected).abs() < 1e-6);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3, 1, 2]), Some(2));
        // Nearest-rank lower median for even counts.
        assert_eq!(median(&[4, 1, 3, 2]), Some(2));
        assert_eq!(median(&[5]), Some(5));
    }

    #[test]
    fn quantile_extremes_and_bounds() {
        let v = [10i64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(quantile(&v, 0.9), Some(90));
        assert_eq!(quantile(&v, 0.1), Some(10));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&v, 1.5), None);
        assert_eq!(quantile(&v, -0.1), None);
    }

    #[test]
    fn quantile_of_constant_stream() {
        let v = [7i64; 31];
        assert_eq!(quantile(&v, 0.5), Some(7));
        assert_eq!(quantile(&v, 0.9), Some(7));
    }
}
