//! Per-detector telemetry: a fire counter and detection-delay tracking.
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
//! counted every time.

use telemetry::{Counter, LogLinearHistogram, Snapshot};

/// Fire counter and detection-delay histogram for one detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorMetrics {
    /// Alerts raised.
    pub fires: Counter,
    /// Delay from the first anomalous epoch of an episode to its first
    /// alert, in the same time unit the detector observes (ns here).
    pub detection_delay: LogLinearHistogram,
    episode_start: Option<u64>,
    episode_alerted: bool,
}

// The counter, the delay histogram and the open episode: the part of a
// detector's state that is bookkeeping rather than statistics,
// checkpointed with it so a resumed run's telemetry equals an
// uninterrupted run's.
telemetry::json_struct!(DetectorMetrics {
    fires,
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
            fires: Counter::new(),
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

    /// Records an alert at time `at`; the first alert of an episode
    /// contributes `at − episode_start` to the delay histogram.
    pub fn fired(&mut self, at: u64) {
        self.fires.inc();
        if let Some(start) = self.episode_start {
            if !self.episode_alerted {
                self.detection_delay.record(at.saturating_sub(start));
                self.episode_alerted = true;
            }
        }
    }

    /// Exports the standard detector families into `snap`, labelled
    /// with `detector="<name>"`.
    pub fn export(&self, snap: &mut Snapshot, detector: &str) {
        snap.push_counter(
            "anomaly_detector_fires_total",
            "alerts raised, by detector",
            &[("detector", detector)],
            self.fires.get(),
        );
        snap.push_histogram(
            "anomaly_detection_delay_ns",
            "first anomalous epoch to first alert, per episode",
            &[("detector", detector)],
            &self.detection_delay,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{read, write, At};

    #[test]
    fn one_delay_sample_per_episode() {
        let mut m = DetectorMetrics::new();
        m.signal(100, true); // episode opens
        m.signal(200, true);
        m.fired(300); // delay 200
        m.fired(300); // same episode: counted, no new delay
        assert_eq!(m.fires.get(), 2);
        assert_eq!(m.detection_delay.count(), 1);
        assert_eq!(m.detection_delay.max(), Some(200));

        m.signal(400, false); // episode closes
        m.signal(500, true); // new episode
        m.fired(500); // delay 0
        assert_eq!(m.detection_delay.count(), 2);
        assert_eq!(m.detection_delay.min(), Some(0));
    }

    #[test]
    fn fire_without_episode_counts_but_records_no_delay() {
        let mut m = DetectorMetrics::new();
        m.fired(10);
        assert_eq!(m.fires.get(), 1);
        assert!(m.detection_delay.is_empty());
    }

    #[test]
    fn state_round_trips_mid_episode() {
        let mut m = DetectorMetrics::new();
        m.signal(100, true);
        m.fired(300);
        m.signal(400, false);
        m.signal(500, true); // open, not yet alerted
        let back = read::<DetectorMetrics>(&write(&m), At::Root("$")).unwrap();
        assert_eq!(back, m);
        let mut a = m.clone();
        let mut b = back;
        a.fired(700);
        b.fired(700);
        assert_eq!(a, b, "the open episode's delay sample lands identically");
        let err = read::<DetectorMetrics>("null", At::Root("$.metrics")).unwrap_err();
        assert!(err.starts_with("$.metrics"), "{err}");
    }

    #[test]
    fn export_shape() {
        let mut m = DetectorMetrics::new();
        m.signal(0, true);
        m.fired(50);
        let mut snap = Snapshot::new();
        m.export(&mut snap, "synflood");
        assert_eq!(snap.counter_sum("anomaly_detector_fires_total"), 1);
        assert!(snap.find("anomaly_detection_delay_ns").is_some());
    }
}
