//! Per-detector telemetry: fire counters and detection-delay tracking.
//!
//! Every detector knows two timestamps the operator cares about: when
//! the underlying signal *first looked anomalous* (the raw Stat4 check
//! fired, ignoring warm-up gating) and when the detector actually
//! *alerted* (after `min_intervals`, margins, …). The gap between them
//! is the detection delay the paper's case study measures; here it
//! feeds a [`LogLinearHistogram`] so a replay exports the whole delay
//! distribution, not just the first-alert scalar.
//!
//! An *episode* starts at the first anomalous observation after a
//! quiet one and ends when the signal goes quiet again; at most one
//! delay sample is recorded per episode (the first alert). Fires are
//! counted per check (`rate` / `share`) every time.

use stat4_core::{Mergeable, Stat4Result};
use telemetry::{Counter, LogLinearHistogram, Snapshot};

/// Which Stat4 check raised an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Per-interval rate spike (windowed mean + k·σ).
    Rate,
    /// Composition share outlier (`n·f > Xsum + k·σ(NX) + margin·n`).
    Share,
}

/// Fire counters and detection-delay histogram for one detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorMetrics {
    /// Rate-check alerts raised.
    pub rate_fires: Counter,
    /// Share-check alerts raised.
    pub share_fires: Counter,
    /// Delay from the first anomalous epoch of an episode to its first
    /// alert, in the same time unit the detector observes (ns here).
    pub detection_delay: LogLinearHistogram,
    episode_start: Option<u64>,
    episode_alerted: bool,
}

// Counters, the delay histogram and the open episode: the part of a
// detector's state that is bookkeeping rather than statistics,
// checkpointed with it so a resumed run's telemetry equals an
// uninterrupted run's.
telemetry::json_struct!(DetectorMetrics {
    rate_fires,
    share_fires,
    detection_delay,
    episode_start,
    episode_alerted
});

impl Default for DetectorMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectorMetrics {
    /// Fresh, quiet metrics.
    #[must_use]
    pub fn new() -> Self {
        Self {
            rate_fires: Counter::new(),
            share_fires: Counter::new(),
            detection_delay: LogLinearHistogram::default(),
            episode_start: None,
            episode_alerted: false,
        }
    }

    /// Feeds the raw (ungated) anomaly signal for the observation at
    /// `at`: opens an episode on the first anomalous observation,
    /// closes it when the signal goes quiet.
    pub fn signal(&mut self, at: u64, anomalous: bool) {
        if anomalous {
            if self.episode_start.is_none() {
                self.episode_start = Some(at);
                self.episode_alerted = false;
            }
        } else {
            self.episode_start = None;
            self.episode_alerted = false;
        }
    }

    /// Records an alert from `check` at time `at`; the first alert of
    /// an episode contributes `at − episode_start` to the delay
    /// histogram.
    pub fn fired(&mut self, check: Check, at: u64) {
        match check {
            Check::Rate => self.rate_fires.inc(),
            Check::Share => self.share_fires.inc(),
        }
        if let Some(start) = self.episode_start {
            if !self.episode_alerted {
                self.detection_delay.record(at.saturating_sub(start));
                self.episode_alerted = true;
            }
        }
    }

    /// Total alerts across checks.
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.rate_fires.get() + self.share_fires.get()
    }

    /// Exports the standard detector families into `snap`, labelled
    /// with `detector="<name>"`.
    pub fn export(&self, snap: &mut Snapshot, detector: &str) {
        snap.push_counter(
            "anomaly_detector_fires_total",
            "alerts raised, by detector and check",
            &[("detector", detector), ("check", "rate")],
            self.rate_fires.get(),
        );
        snap.push_counter(
            "anomaly_detector_fires_total",
            "alerts raised, by detector and check",
            &[("detector", detector), ("check", "share")],
            self.share_fires.get(),
        );
        snap.push_histogram(
            "anomaly_detection_delay_ns",
            "first anomalous epoch to first alert, per episode",
            &[("detector", detector)],
            &self.detection_delay,
        );
    }
}

impl Mergeable for DetectorMetrics {
    /// Counters and delay histograms add; episode state (an open
    /// episode is a *path* through one detector's timeline) resets —
    /// merged metrics are a report, not a live detector.
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        self.rate_fires.merge_from(&other.rate_fires)?;
        self.share_fires.merge_from(&other.share_fires)?;
        self.detection_delay.merge_from(&other.detection_delay)?;
        self.episode_start = None;
        self.episode_alerted = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{At, FromJson, Json, ToJson};

    #[test]
    fn one_delay_sample_per_episode() {
        let mut m = DetectorMetrics::new();
        m.signal(100, true); // episode opens
        m.signal(200, true);
        m.fired(Check::Rate, 300); // delay 200
        m.fired(Check::Share, 300); // same episode: counted, no new delay
        assert_eq!(m.fires(), 2);
        assert_eq!(m.detection_delay.count(), 1);
        assert_eq!(m.detection_delay.max(), Some(200));

        m.signal(400, false); // episode closes
        m.signal(500, true); // new episode
        m.fired(Check::Rate, 500); // delay 0
        assert_eq!(m.detection_delay.count(), 2);
        assert_eq!(m.detection_delay.min(), Some(0));
    }

    #[test]
    fn fire_without_episode_counts_but_records_no_delay() {
        let mut m = DetectorMetrics::new();
        m.fired(Check::Rate, 10);
        assert_eq!(m.rate_fires.get(), 1);
        assert!(m.detection_delay.is_empty());
    }

    #[test]
    fn state_round_trips_mid_episode() {
        let mut m = DetectorMetrics::new();
        m.signal(100, true);
        m.fired(Check::Rate, 300);
        m.signal(400, false);
        m.signal(500, true); // open, not yet alerted
        let back = DetectorMetrics::from_json(&m.to_json(), At::Root("$")).unwrap();
        assert_eq!(back, m);
        let mut a = m.clone();
        let mut b = back;
        a.fired(Check::Share, 700);
        b.fired(Check::Share, 700);
        assert_eq!(a, b, "the open episode's delay sample lands identically");
        let err = DetectorMetrics::from_json(&Json::Null, At::Root("$.metrics")).unwrap_err();
        assert!(err.starts_with("$.metrics"), "{err}");
    }

    #[test]
    fn export_shape() {
        let mut m = DetectorMetrics::new();
        m.signal(0, true);
        m.fired(Check::Rate, 50);
        let mut snap = Snapshot::new();
        m.export(&mut snap, "epoch_synflood");
        assert_eq!(snap.counter_sum("anomaly_detector_fires_total"), 1);
        assert!(snap.find("anomaly_detection_delay_ns").is_some());
    }
}
