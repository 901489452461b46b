//! Percentile-shift detection (paper Sec. 2: "we can track values and
//! change rates of percentiles, which may be indicative of anomalies").
//!
//! The marker of a [`stat4_core::percentile::PercentileTracker`] moves
//! at most one cell per packet; on a stable distribution it jitters
//! around the true quantile, so its *movement count per interval* is a
//! small, steady value. A distribution shift (a latency regression, a
//! load imbalance changing the shape rather than the volume of traffic)
//! sends the marker on a long walk — the per-interval movement count
//! spikes. Because the marker moves (or not) once per *packet*, raw
//! per-interval counts scale with traffic volume; to keep this detector
//! orthogonal to the rate detectors, the movement count is normalised
//! per packet (in 1/1024ths, one shift and one divide per interval
//! close — controller-side math, not data-plane) before it enters the
//! [`WindowedDist`]. The standard margined band over that normalised
//! rate turns "the median is on the move" into an alert using only
//! machinery the paper already has.

use crate::alerts::Alert;
use crate::detector::{DetectionResult, Detector, SignalContext};
use crate::state::{WindowState, WindowStateOf};
use stat4_core::percentile::{MarkerRaw, PercentileTracker, Quantile};
use stat4_core::window::WindowedDist;
use telemetry::json::{need, read_obj, write_obj, At, Form, FromJson, Lexer, Sparse, ToJson};
use telemetry::json_struct;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShiftConfig {
    /// Tracked quantile.
    pub quantile: Quantile,
    /// Value domain (inclusive).
    pub domain: (i64, i64),
    /// Interval length (ns) for the movement-rate window.
    pub interval_ns: u64,
    /// Window capacity in intervals.
    pub window: usize,
    /// σ multiplier for the movement-rate band.
    pub k: u32,
    /// Minimum closed intervals before alerts.
    pub min_intervals: usize,
}

impl Default for ShiftConfig {
    fn default() -> Self {
        Self {
            quantile: Quantile::median(),
            domain: (0, 1023),
            interval_ns: 10_000_000,
            window: 32,
            k: 2,
            min_intervals: 10,
        }
    }
}

/// Streaming percentile-shift detector.
#[derive(Debug)]
pub struct PercentileShiftDetector {
    cfg: ShiftConfig,
    tracker: PercentileTracker,
    moves_window: WindowedDist,
    last_moves: u64,
    /// Marker moves accumulated in the still-open interval.
    moves_in_interval: u64,
    /// Packets observed in the still-open interval.
    pkts_in_interval: u64,
    current_interval: Option<u64>,
}

impl PercentileShiftDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate domain or window.
    #[must_use]
    pub fn new(cfg: ShiftConfig) -> Self {
        Self {
            tracker: PercentileTracker::new(cfg.domain.0, cfg.domain.1, cfg.quantile)
                .expect("valid domain"),
            moves_window: WindowedDist::new(cfg.window).expect("non-empty window"),
            last_moves: 0,
            moves_in_interval: 0,
            pkts_in_interval: 0,
            current_interval: None,
            cfg,
        }
    }

    /// Feeds one observed value at time `at`; returns an alert when the
    /// interval that just closed saw an outlying amount of marker
    /// movement.
    pub fn observe(&mut self, at: u64, value: i64) -> Option<Alert> {
        let mut raised = None;
        let ivl = at / self.cfg.interval_ns;
        match self.current_interval {
            None => self.current_interval = Some(ivl),
            Some(cur) if cur != ivl => {
                // Per-packet movement rate of the ended interval, in
                // 1/1024ths: volume changes cancel out, shape changes
                // do not. The interval became current on a packet, so
                // pkts_in_interval >= 1.
                let moved =
                    ((self.moves_in_interval << 10) / self.pkts_in_interval.max(1)) as i64;
                self.moves_in_interval = 0;
                self.pkts_in_interval = 0;
                self.moves_window.accumulate(moved);
                let shift = self.moves_window.is_spike_margined(
                    moved,
                    self.cfg.k,
                    self.cfg.min_intervals,
                    3,
                    4,
                );
                self.moves_window.close_interval();
                self.current_interval = Some(ivl);
                if shift {
                    raised = Some(Alert::CompositionDrift {
                        at,
                        // Report the marker's landing cell as the "kind".
                        kind: usize::try_from(self.tracker.estimate().unwrap_or(0))
                            .unwrap_or(0),
                    });
                }
            }
            _ => {}
        }
        if self.tracker.observe(value).is_ok() {
            let moves = self.tracker.moves();
            self.moves_in_interval += moves - self.last_moves;
            self.pkts_in_interval += 1;
            self.last_moves = moves;
        }
        raised
    }

    /// The current quantile estimate.
    #[must_use]
    pub fn estimate(&self) -> Option<i64> {
        self.tracker.estimate()
    }
}

/// The tracker's populated cells, as [`Sparse`] writes them, borrowed
/// from the tracker.
struct CellsOf<'a>(&'a [u64]);

impl ToJson for CellsOf<'_> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        let populated = self.0.iter().enumerate().filter(|(_, c)| **c != 0);
        for (n, (i, &c)) in populated.enumerate() {
            if n > 0 {
                out.push(',');
            }
            [i as u64, c].write_json(out);
        }
        out.push(']');
    }
}

/// Everything but the tracker's cells: their total, the marker's walk
/// position verbatim, the movement window and the open interval's
/// tallies. `last_moves` always equals the marker's move count and is
/// not written. `W` is the movement window's state as written or as
/// read. The detector's state is `{"cells": .., "walk": ..}`: the cells
/// are read where they lie, into as many as the configured domain has,
/// so they are not a member of this struct.
struct Walk<W> {
    total: u64,
    marker_pos: Option<usize>,
    marker_low: u64,
    marker_high: u64,
    marker_moves: u64,
    moves_window: W,
    moves_in_interval: u64,
    pkts_in_interval: u64,
    current_interval: Option<u64>,
}

json_struct!(@write Walk<WindowStateOf<'_>> {
    total, marker_pos, marker_low, marker_high, marker_moves, moves_window,
    moves_in_interval, pkts_in_interval, current_interval
});
json_struct!(@read Walk<WindowState> {
    total, marker_pos, marker_low, marker_high, marker_moves, moves_window,
    moves_in_interval, pkts_in_interval, current_interval
});

/// The ensemble's `median_shift` engine. Signal binding: the exact
/// merged median frame length, fed once per interval, so a shift in
/// the length distribution sends the marker walking after the
/// migrating estimate and the movement band fires. Constant-size
/// traffic keeps the estimate pinned and the engine silent, which is
/// what keeps it orthogonal to the volume engines.
impl Detector for PercentileShiftDetector {
    fn name(&self) -> &'static str {
        "median_shift"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let fired = self.observe(ctx.at, ctx.median_len).is_some();
        let expected = self.estimate().unwrap_or(0);
        Some(DetectionResult::saturated(self.name(), ctx, fired, expected, ctx.median_len))
    }

    fn export_state(&self, out: &mut String) {
        let set = self.tracker.as_set();
        let m = set.export_markers()[0];
        let walk = Walk {
            total: set.total(),
            marker_pos: m.pos,
            marker_low: m.low,
            marker_high: m.high,
            marker_moves: m.moves,
            moves_window: WindowStateOf::of(&self.moves_window),
            moves_in_interval: self.moves_in_interval,
            pkts_in_interval: self.pkts_in_interval,
            current_interval: self.current_interval,
        };
        write_obj(out, [("cells", &CellsOf(set.counts()) as &dyn ToJson), ("walk", &walk)]);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("median_shift");
        let cells = Sparse(self.tracker.as_set().counts().len());
        let (mut counts, mut walk) = (None, None);
        read_obj(lx, at, |key, lx, at| {
            match key {
                "cells" if counts.is_none() => counts = Some(cells.read_json(lx, at)?),
                "walk" if walk.is_none() => walk = Some(Walk::<WindowState>::read_json(lx, at)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let (counts, s) = (need(counts, at, "cells")?, need(walk, at, "walk")?);
        let q = self.cfg.quantile;
        let marker = MarkerRaw {
            low_weight: q.low_weight(),
            high_weight: q.high_weight(),
            pos: s.marker_pos,
            low: s.marker_low,
            high: s.marker_high,
            moves: s.marker_moves,
        };
        self.tracker.restore(counts, s.total, marker).map_err(|e| at.err(e))?;
        let walk_at = At::Key(&at, "walk");
        s.moves_window.restore(&mut self.moves_window, At::Key(&walk_at, "moves_window"))?;
        // `observe` keeps this equal to the marker's own count.
        self.last_moves = marker.moves;
        self.moves_in_interval = s.moves_in_interval;
        self.pkts_in_interval = s.pkts_in_interval;
        self.current_interval = s.current_interval;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn cfg() -> ShiftConfig {
        ShiftConfig {
            interval_ns: 1_000_000,
            window: 24,
            min_intervals: 8,
            ..ShiftConfig::default()
        }
    }

    /// A stable latency distribution, then a regression shifting the
    /// median by 60 cells: the movement rate spikes once the marker
    /// starts its walk into the new cluster.
    #[test]
    fn detects_distribution_shift() {
        let mut rng = workloads::rng(8);
        let mut det = PercentileShiftDetector::new(cfg());
        let mut t = 0u64;
        // Healthy: values ~ uniform(90..110), ~100 per interval.
        let mut raised = Vec::new();
        for _ in 0..3_000 {
            raised.extend(det.observe(t, rng.random_range(90..110)));
            t += 10_000;
        }
        assert!(raised.is_empty(), "stable phase clean: {raised:?}");
        let shift_at = t;
        // Regression: values ~ uniform(150..170). Enough samples that
        // the combined median genuinely crosses into the new cluster
        // (the old 3000 samples anchor it until the new ones outnumber
        // them).
        for _ in 0..5_000 {
            raised.extend(det.observe(t, rng.random_range(150..170)));
            t += 10_000;
        }
        let at = raised.first().expect("shift detected").at();
        assert!(at >= shift_at);
        // The marker cannot outrun the data: it stays anchored near the
        // old median until the new cluster's mass outweighs the 3000
        // old samples below it (~30 intervals at ~100 samples each),
        // then walks the 60 cells within an interval — an unmissable
        // movement spike. Allow those ~30 intervals plus slack.
        assert!(
            at <= shift_at + 35_000_000,
            "detected within 35 intervals: +{} ns",
            at - shift_at
        );
        // The marker itself has migrated to the new median.
        let est = det.estimate().unwrap();
        assert!((150..170).contains(&est), "marker followed: {est}");
    }

    /// Volume changes without shape changes do not alert (the rate
    /// detector's job, not this one's).
    #[test]
    fn volume_change_alone_is_quiet() {
        let mut rng = workloads::rng(9);
        let mut det = PercentileShiftDetector::new(cfg());
        let mut t = 0u64;
        let mut raised = Vec::new();
        for _ in 0..2_000 {
            raised.extend(det.observe(t, rng.random_range(90..110)));
            t += 10_000;
        }
        // 5x the packet rate, same value distribution.
        for _ in 0..5_000 {
            raised.extend(det.observe(t, rng.random_range(90..110)));
            t += 2_000;
        }
        assert!(raised.is_empty(), "alerts: {raised:?}");
    }
}
