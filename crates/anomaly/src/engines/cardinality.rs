//! HyperLogLog cardinality engine.
//!
//! Signal binding: the per-interval distinct-source estimate from the
//! replay's merged [`stat4_core::HyperLogLog`] registers. A spoofed
//! sweep (one packet per random source, constant total rate) keeps
//! every volume counter, kind share and frame length flat — only the
//! number of *distinct senders* moves. The engine runs the standard
//! margined spike band over the estimate stream, exactly the paper's
//! `N·x > Xsum + k·σ(NX) + margin` check with a different x.

use crate::detector::{confidence_q16, ratio_q16, DetectionResult, Detector, SignalContext};
use crate::state::WindowState;
use stat4_core::WindowedDist;
use std::any::Any;
use telemetry::json::{At, FromJson, Lexer, ToJson};

/// Window capacity in intervals.
const WINDOW: usize = 64;
/// σ multiplier.
const K: u32 = 2;
/// Minimum closed intervals before alerts.
const MIN_INTERVALS: usize = 10;
/// Relative margin shift (2 = 25%: HLL estimates carry ±3.3% noise at
/// precision 10, so the band needs more headroom than exact counters
/// get).
const MARGIN_SHIFT: u32 = 2;
/// Margin floor (absolute, in the NX domain).
const MARGIN_FLOOR: u64 = 8;

/// Margined spike band over per-interval distinct-source estimates.
#[derive(Debug)]
pub struct CardinalityEngine {
    window: WindowedDist,
}

impl CardinalityEngine {
    /// Creates an engine with an empty history window.
    #[must_use]
    pub fn new() -> Self {
        Self {
            window: WindowedDist::new(WINDOW).expect("non-empty window"),
        }
    }

    /// The estimate history window.
    #[must_use]
    pub fn window(&self) -> &WindowedDist {
        &self.window
    }
}

impl Default for CardinalityEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector for CardinalityEngine {
    fn name(&self) -> &'static str {
        "cardinality"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let x = ctx.distinct_sources;
        self.window.accumulate(x);
        let fired = self
            .window
            .is_spike_margined(x, K, MIN_INTERVALS, MARGIN_SHIFT, MARGIN_FLOOR);
        let stats = self.window.stats();
        let n = stats.n() as i64;
        let margin = stats.relative_margin(MARGIN_SHIFT, MARGIN_FLOOR);
        let bound = stats
            .xsum()
            .saturating_add(K as i64 * stats.sd_nx() as i64)
            .saturating_add(margin as i64);
        let score = ratio_q16(n.saturating_mul(x), bound);
        let expected = stats.xsum() / n.max(1);
        self.window.close_interval();
        Some(DetectionResult {
            engine: "cardinality",
            at: ctx.at,
            epoch: ctx.epoch,
            score,
            weight: self.weight_q16(),
            confidence: confidence_q16(score),
            expected,
            observed: x,
            fired,
        })
    }

    fn export_state(&self, out: &mut String) {
        WindowState::of(&self.window).write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("cardinality");
        WindowState::read_json(lx, at)?.restore(&mut self.window, at)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
