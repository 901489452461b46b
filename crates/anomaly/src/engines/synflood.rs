//! The epoch SYN-flood detector lifted behind the `Detector` trait.
//!
//! The wrapper is deliberately thin: `update` forwards the context's
//! span-averaged SYN estimate and cumulative kind composition to
//! [`EpochSynFloodDetector::observe_interval`] with the exact call
//! sequence the replay engine used before the trait existed, so the
//! legacy alert stream (`alerts`, `detected_at`, `metrics`) is
//! bit-identical to the pre-refactor outputs — the behavior
//! preservation suite compares against captured goldens.

use crate::alerts::Alert;
use crate::detector::{DetectionResult, Detector, SignalContext, Q16};
use crate::epoch::EpochSynFloodDetector;
use crate::metrics::DetectorMetrics;
use crate::synflood::SynFloodConfig;
use std::any::Any;
use telemetry::json::{At, Json};

/// Trait adapter over [`EpochSynFloodDetector`].
#[derive(Debug)]
pub struct SynFloodEngine {
    inner: EpochSynFloodDetector,
}

impl SynFloodEngine {
    /// Wraps a fresh epoch detector.
    #[must_use]
    pub fn new(cfg: SynFloodConfig) -> Self {
        Self {
            inner: EpochSynFloodDetector::new(cfg),
        }
    }

    /// The legacy alert stream (the replay outcome's alert source).
    #[must_use]
    pub fn alerts(&self) -> &[Alert] {
        &self.inner.alerts
    }

    /// First detection time, if any.
    #[must_use]
    pub fn detected_at(&self) -> Option<u64> {
        self.inner.detected_at
    }

    /// The inner detector's episode metrics.
    #[must_use]
    pub fn metrics(&self) -> &DetectorMetrics {
        &self.inner.metrics
    }
}

impl Detector for SynFloodEngine {
    fn name(&self) -> &'static str {
        "synflood"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let raised = self.inner.observe_interval(ctx.at, ctx.syns, ctx.kinds);
        let fired = !raised.is_empty();
        let stats = self.inner.rate_stats();
        let expected = stats.xsum() / (stats.n().max(1) as i64);
        Some(DetectionResult {
            engine: self.name(),
            at: ctx.at,
            epoch: ctx.epoch,
            // The inner detector exposes booleans, not margins: report
            // a saturated score (see the module docs in `detector`).
            score: if fired { 2 * Q16 } else { 0 },
            weight: self.weight_q16(),
            confidence: if fired { Q16 } else { 0 },
            expected,
            observed: ctx.syns,
            fired,
        })
    }

    fn export_state(&self) -> Json {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        self.inner.import_state(state, At::Root("synflood"))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
