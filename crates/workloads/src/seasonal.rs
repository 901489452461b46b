//! Seasonal-drift workload: periodic traffic whose *phase* flips.
//!
//! Background: a square-wave diurnal pattern — each season is
//! `season_len` intervals, the first half at `high_rate` packets per
//! interval, the second at `low_rate`. Anomaly: from `drift_start`
//! (season-aligned) the halves swap. Mean, variance, packet sizes,
//! kinds and source set are all exactly preserved — per-interval
//! bands, multi-scale sums (the period divides every scale), CUSUM,
//! cardinality and length engines see nothing. Only a seasonal
//! forecaster, which knows *which phase* each interval is in, sees a
//! full-swing residual.

use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use rand::Rng;
use std::net::Ipv4Addr;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SeasonalDriftWorkload {
    /// Fixed client pool size (keeps cardinality flat).
    pub sources: u8,
    /// Detector interval the pattern is phased to (ns).
    pub interval_ns: u64,
    /// Intervals per season (must be even; halves alternate).
    pub season_len: u64,
    /// Packets per interval during the high half-season.
    pub high_rate: u64,
    /// Packets per interval during the low half-season.
    pub low_rate: u64,
    /// When the halves swap (ns; rounded down to a season boundary).
    pub drift_start: u64,
    /// Workload duration (ns).
    pub duration: u64,
    /// RNG seed (jitters packet spacing only, never counts).
    pub seed: u64,
}

impl Default for SeasonalDriftWorkload {
    fn default() -> Self {
        Self {
            sources: 32,
            interval_ns: 10_000_000,
            season_len: 16,
            high_rate: 180,
            low_rate: 60,
            drift_start: 640_000_000,
            duration: 1_280_000_000,
            seed: 1,
        }
    }
}

impl SeasonalDriftWorkload {
    /// The fixed client pool.
    #[must_use]
    pub(crate) fn clients(&self) -> Vec<Ipv4Addr> {
        (1..=self.sources)
            .map(|h| Ipv4Addr::new(172, 16, 0, h))
            .collect()
    }

    /// The effective (season-aligned) drift onset time.
    #[must_use]
    pub fn aligned_drift_start(&self) -> u64 {
        let season_ns = self.season_len * self.interval_ns;
        (self.drift_start / season_ns) * season_ns
    }

    /// Packets scheduled for the interval starting at `t`.
    #[must_use]
    pub(crate) fn rate_at(&self, t: u64) -> u64 {
        let idx = t / self.interval_ns;
        let pos = idx % self.season_len;
        let mut high = pos < self.season_len / 2;
        if t >= self.aligned_drift_start() {
            high = !high;
        }
        if high {
            self.high_rate
        } else {
            self.low_rate
        }
    }

    /// Generates the schedule.
    #[must_use]
    pub fn generate(&self) -> Schedule {
        let mut r = rng(self.seed);
        let clients = self.clients();
        let server = Ipv4Addr::new(10, 0, 2, 1);
        let mut schedule = Vec::new();
        let mut t = 0u64;
        let mut turn = 0usize;
        while t < self.duration {
            let count = self.rate_at(t);
            let gap = self.interval_ns / count.max(1);
            for k in 0..count {
                let src = clients[turn % clients.len()];
                turn += 1;
                // Jitter stays inside this packet's slot, so the
                // per-interval count is exact.
                let at = t + k * gap + r.random_range(0..gap / 2 + 1);
                schedule.push((
                    at,
                    PacketBuilder::udp(src, server, 5353, 53)
                        .payload(b"seasonal-query--")
                        .build_bytes(),
                ));
            }
            t += self.interval_ns;
        }
        crate::sorted(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_per_interval(w: &SeasonalDriftWorkload) -> Vec<u64> {
        let s = w.generate();
        let n = (w.duration / w.interval_ns) as usize;
        let mut counts = vec![0u64; n];
        for (t, _) in &s {
            counts[(t / w.interval_ns) as usize] += 1;
        }
        counts
    }

    #[test]
    fn pattern_is_exact_and_swaps_at_drift() {
        let w = SeasonalDriftWorkload::default();
        let counts = counts_per_interval(&w);
        let drift_idx = (w.aligned_drift_start() / w.interval_ns) as usize;
        for (i, c) in counts.iter().enumerate() {
            let pos = i as u64 % w.season_len;
            let mut high = pos < w.season_len / 2;
            if i >= drift_idx {
                high = !high;
            }
            let want = if high { w.high_rate } else { w.low_rate };
            assert_eq!(*c, want, "interval {i}");
        }
    }

    #[test]
    fn mean_and_value_set_preserved_across_drift() {
        let w = SeasonalDriftWorkload::default();
        let counts = counts_per_interval(&w);
        let drift_idx = (w.aligned_drift_start() / w.interval_ns) as usize;
        let before: u64 = counts[..drift_idx].iter().sum::<u64>() / drift_idx as u64;
        let after: u64 =
            counts[drift_idx..].iter().sum::<u64>() / (counts.len() - drift_idx) as u64;
        assert_eq!(before, after, "phase swap must not move the mean");
    }

    #[test]
    fn deterministic() {
        let w = SeasonalDriftWorkload::default();
        assert_eq!(w.generate(), w.generate());
    }
}
