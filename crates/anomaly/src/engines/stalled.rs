//! The stalled-flow detector lifted behind the `Detector` trait.
//!
//! Signal binding: per-interval merged packet count as the activity
//! measure. The inner detector is timestamp-driven; each `update`
//! feeds it one bulk activity record at the interval end via
//! [`StalledFlowDetector::observe_activity_n`], whose equivalence to
//! repeated single observations is proptested in `stalled`. The inner
//! window therefore closes interval `e`'s value when interval `e+1`
//! reports — a one-interval judgement lag inherited from the
//! streaming design and preserved here.

use crate::detector::{DetectionResult, Detector, SignalContext, Q16};
use crate::stalled::{StalledFlowConfig, StalledFlowDetector};
use std::any::Any;
use telemetry::json::{At, Json};

/// Trait adapter over [`StalledFlowDetector`].
#[derive(Debug)]
pub struct StalledEngine {
    inner: StalledFlowDetector,
}

impl StalledEngine {
    /// Wraps a fresh stalled-flow detector.
    #[must_use]
    pub fn new(cfg: StalledFlowConfig) -> Self {
        Self {
            inner: StalledFlowDetector::new(cfg),
        }
    }

    /// The inner detector (alert stream, window stats).
    #[must_use]
    pub fn inner(&self) -> &StalledFlowDetector {
        &self.inner
    }
}

impl Detector for StalledEngine {
    fn name(&self) -> &'static str {
        "stalled"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let before = self.inner.alerts.len();
        let n = u64::try_from(ctx.packets.max(0)).unwrap_or(0);
        self.inner.observe_activity_n(ctx.at, n);
        let fired = self.inner.alerts.len() > before;
        let stats = self.inner.stats();
        let expected = stats.xsum() / (stats.n().max(1) as i64);
        Some(DetectionResult {
            engine: self.name(),
            at: ctx.at,
            epoch: ctx.epoch,
            score: if fired { 2 * Q16 } else { 0 },
            weight: self.weight_q16(),
            confidence: if fired { Q16 } else { 0 },
            expected,
            observed: ctx.packets,
            fired,
        })
    }

    fn export_state(&self) -> Json {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        self.inner.import_state(state, At::Root("stalled"))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
