//! Multi-scale window engine.
//!
//! Signal binding: packets per interval, summed into tumbling windows
//! at scales 1, 4 and 16 intervals, each with its own margined spike
//! band. A swell too gradual for the single-interval band (each
//! interval inside the noise margin) still accumulates in the coarser
//! sums, where the margin is relatively smaller against the aggregated
//! drift — the volume analogue of what CUSUM does for SYNs, but
//! windowed and therefore self-forgetting. Upper-tail only: the
//! lower tail belongs to the stalled engine.

use crate::detector::{confidence_q16, ratio_q16, DetectionResult, Detector, SignalContext};
use crate::state::WindowState;
use stat4_core::WindowedDist;
use std::any::Any;
use telemetry::json::{At, FromJson, Lexer, ToJson};
use telemetry::json_struct;

/// The tumbling-window scales, in intervals.
pub(crate) const SCALES: [u32; 3] = [1, 4, 16];

/// Per-scale history window, in closed sums (this tuning is shared by
/// all scales).
const WINDOW: usize = 32;
/// σ multiplier.
const K: u32 = 2;
/// Minimum closed sums per scale before alerts.
const MIN_INTERVALS: usize = 8;
/// Relative margin shift (3 = 12.5%).
const MARGIN_SHIFT: u32 = 3;
/// Margin floor (absolute, in the NX domain).
const MARGIN_FLOOR: u64 = 4;

#[derive(Debug)]
struct ScaleState {
    scale: u32,
    acc: i64,
    count: u32,
    window: WindowedDist,
}

/// One scale's open tumbling sum, its fill, and its window; the scale
/// itself is the engine's constant and is not written.
struct ScaleSnap {
    acc: i64,
    count: u32,
    window: WindowState,
}

json_struct!(ScaleSnap { acc, count, window });

/// Tumbling-window spike bands at `SCALES`.
#[derive(Debug)]
pub struct MultiScaleEngine {
    scales: Vec<ScaleState>,
}

impl MultiScaleEngine {
    /// Creates an engine with empty windows at every scale.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scales: SCALES
                .iter()
                .map(|s| ScaleState {
                    scale: *s,
                    acc: 0,
                    count: 0,
                    window: WindowedDist::new(WINDOW).expect("non-empty window"),
                })
                .collect(),
        }
    }
}

impl Default for MultiScaleEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector for MultiScaleEngine {
    fn name(&self) -> &'static str {
        "multiscale"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let x = ctx.packets;
        let mut best_score = 0i64;
        let mut expected = 0i64;
        let mut observed = x;
        let mut fired = false;
        for s in &mut self.scales {
            s.acc = s.acc.saturating_add(x);
            s.count += 1;
            if s.count < s.scale {
                continue;
            }
            let v = s.acc;
            s.acc = 0;
            s.count = 0;
            s.window.accumulate(v);
            fired |= s
                .window
                .is_spike_margined(v, K, MIN_INTERVALS, MARGIN_SHIFT, MARGIN_FLOOR);
            let stats = s.window.stats();
            let n = stats.n() as i64;
            let margin = stats.relative_margin(MARGIN_SHIFT, MARGIN_FLOOR);
            let bound = stats
                .xsum()
                .saturating_add(K as i64 * stats.sd_nx() as i64)
                .saturating_add(margin as i64);
            let score = ratio_q16(n.saturating_mul(v), bound);
            if score > best_score {
                best_score = score;
                expected = stats.xsum() / n.max(1);
                observed = v;
            }
            s.window.close_interval();
        }
        Some(DetectionResult {
            engine: "multiscale",
            at: ctx.at,
            epoch: ctx.epoch,
            score: best_score,
            weight: self.weight_q16(),
            confidence: confidence_q16(best_score),
            expected,
            observed,
            fired,
        })
    }

    fn export_state(&self, out: &mut String) {
        let snap = |s: &ScaleState| ScaleSnap { acc: s.acc, count: s.count, window: WindowState::of(&s.window) };
        self.scales.iter().map(snap).collect::<Vec<_>>().write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let snaps = Vec::<ScaleSnap>::read_json(lx, At::Root("multiscale"))?;
        if snaps.len() != self.scales.len() {
            return Err(format!(
                "multiscale: state holds {} scale(s), the engine runs {}",
                snaps.len(),
                self.scales.len()
            ));
        }
        for (s, snap) in self.scales.iter_mut().zip(snaps) {
            let name = format!("multiscale.scale{}", s.scale);
            let at = At::Root(&name);
            // A tumbling sum closes when `count` reaches `scale`.
            if snap.count >= s.scale {
                return Err(at.err("\"count\" is not below the scale"));
            }
            s.acc = snap.acc;
            s.count = snap.count;
            snap.window.restore(&mut s.window, At::Key(&at, "window"))?;
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
