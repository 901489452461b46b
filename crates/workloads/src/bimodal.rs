//! Bimodal value streams.
//!
//! The paper's future-work section: "if a distribution is bimodal, the
//! controller can instruct switches to separately track and check the
//! two modes of the distribution". This workload produces such a
//! stream — per-interval values drawn from two well-separated clusters
//! (think: request traffic vs periodic bulk backups) — plus an optional
//! *mid-gap anomaly*: a value sitting between the modes, blatantly
//! abnormal to an operator yet **inside** the naive mean ± 2σ band,
//! because the two modes inflate σ to cover the whole gap. The
//! `bimodal_adaptation` example shows the controller-side fix the paper
//! sketches.

use crate::rng;
use rand::Rng;

/// One mode of the distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Centre of the mode.
    pub mean: i64,
    /// Half-width of the uniform jitter around the centre.
    pub jitter: i64,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct BimodalValues {
    /// The low mode (e.g. interactive traffic).
    pub low: Mode,
    /// The high mode (e.g. periodic bulk transfers).
    pub high: Mode,
    /// One sample in `high_period` comes from the high mode.
    pub high_period: usize,
    /// Number of samples.
    pub count: usize,
    /// If set, sample `anomaly_at` is replaced by this value.
    pub anomaly: Option<(usize, i64)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BimodalValues {
    fn default() -> Self {
        Self {
            low: Mode {
                mean: 100,
                jitter: 10,
            },
            high: Mode {
                mean: 10_000,
                jitter: 500,
            },
            high_period: 10,
            count: 1_000,
            anomaly: None,
            seed: 1,
        }
    }
}

impl BimodalValues {
    /// Generates the sample stream and, per sample, which mode produced
    /// it (`false` = low, `true` = high; the anomaly keeps the slot's
    /// original label).
    #[must_use]
    pub fn generate(&self) -> (Vec<i64>, Vec<bool>) {
        let mut r = rng(self.seed);
        let mut values = Vec::with_capacity(self.count);
        let mut labels = Vec::with_capacity(self.count);
        for i in 0..self.count {
            let is_high = self.high_period > 0 && i % self.high_period == self.high_period - 1;
            let m = if is_high { self.high } else { self.low };
            let v = m.mean + r.random_range(-m.jitter..=m.jitter);
            values.push(v);
            labels.push(is_high);
        }
        if let Some((at, v)) = self.anomaly {
            if at < values.len() {
                values[at] = v;
            }
        }
        (values, labels)
    }

    /// A threshold separating the modes (controller-side: it can
    /// divide), as the midpoint of the two means.
    #[must_use]
    pub fn split_threshold(&self) -> i64 {
        (self.low.mean + self.high.mean) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_separated_and_labelled() {
        let w = BimodalValues::default();
        let (values, labels) = w.generate();
        let t = w.split_threshold();
        for (v, is_high) in values.iter().zip(&labels) {
            if *is_high {
                assert!(*v > t, "high sample {v} above threshold {t}");
            } else {
                assert!(*v < t, "low sample {v} below threshold {t}");
            }
        }
        let highs = labels.iter().filter(|l| **l).count();
        assert_eq!(highs, 100, "one in ten samples is high");
    }

    #[test]
    fn anomaly_is_injected() {
        let w = BimodalValues {
            anomaly: Some((500, 5_000)),
            ..BimodalValues::default()
        };
        let (values, _) = w.generate();
        assert_eq!(values[500], 5_000);
    }

    #[test]
    fn deterministic() {
        let w = BimodalValues::default();
        assert_eq!(w.generate().0, w.generate().0);
    }

    /// The motivating pathology: a mid-gap value is inside the naive
    /// global 2σ band.
    #[test]
    fn mid_gap_value_hides_in_global_band() {
        use stat4_core::running::RunningStats;
        let w = BimodalValues::default();
        let (values, _) = w.generate();
        let mut s = RunningStats::new();
        for &v in &values {
            s.push(v);
        }
        let mid = 5_000;
        assert!(
            !s.is_upper_outlier(mid, 2) && !s.is_lower_outlier(mid, 2),
            "mid-gap value invisible to the global band"
        );
    }
}
