//! Holt-Winters seasonal forecasting engine.
//!
//! Signal binding: packets per interval. Periodic traffic breaks the
//! stationary-band assumption — the seasonal swing inflates σ until
//! the band tolerates anything, so an anomaly that preserves mean and
//! variance (a phase flip, a pattern permutation) sails through every
//! other volume engine. [`HoltWinters`] learns a per-phase forecast;
//! this engine keeps an integer EWMA of the absolute residual and
//! fires when a residual beats `k·dev + margin` — the same margined
//! band idiom as the rest of the repo, but over *forecast residuals*
//! instead of raw values.

use crate::detector::{confidence_q16, ratio_q16, DetectionResult, Detector, SignalContext};
use stat4_core::HoltWinters;
use telemetry::json::{At, FromJson, Lexer, ToJson};
use telemetry::json_struct;

/// Intervals per season (must divide the workload's period for a clean
/// fit, but any value ≥ 2 is legal).
const SEASON_LEN: usize = 16;
/// Level smoothing `α = 2^-ALPHA_SHIFT`.
const ALPHA_SHIFT: u32 = 2;
/// Trend smoothing `β = 2^-BETA_SHIFT`.
const BETA_SHIFT: u32 = 4;
/// Season smoothing `γ = 2^-GAMMA_SHIFT`.
const GAMMA_SHIFT: u32 = 2;
/// Residual-deviation EWMA smoothing (`2^-DEV_SHIFT`).
const DEV_SHIFT: u32 = 2;
/// Band width in deviation multiples.
const K: i64 = 2;
/// Relative margin shift on the level (3 = 12.5%).
const MARGIN_SHIFT: u32 = 3;
/// Margin floor in raw signal units.
const MARGIN_FLOOR: i64 = 8;
/// Seasons after seeding before the engine may fire.
const WARM_SEASONS: u64 = 2;

/// Seasonal forecast-residual band over per-interval packet counts.
#[derive(Debug)]
pub struct HoltWintersEngine {
    model: HoltWinters,
    /// EWMA of |residual| in Q16.
    dev_q16: i64,
    /// Post-seed intervals observed.
    observed: u64,
}

impl HoltWintersEngine {
    /// Creates an unseeded engine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            model: HoltWinters::new(SEASON_LEN, ALPHA_SHIFT, BETA_SHIFT, GAMMA_SHIFT)
                .expect("valid Holt-Winters config"),
            dev_q16: 0,
            observed: 0,
        }
    }

    /// The underlying forecaster (level/trend/season inspection).
    #[must_use]
    pub fn model(&self) -> &HoltWinters {
        &self.model
    }
}

impl Default for HoltWintersEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// The model's level, trend, seasonal factors, seed buffer and phase,
/// the residual band and the intervals observed.
struct HoltWintersState {
    level_q16: i64,
    trend_q16: i64,
    season_q16: Vec<i64>,
    seed: Vec<i64>,
    phase: usize,
    dev_q16: i64,
    observed: u64,
}

json_struct!(HoltWintersState { level_q16, trend_q16, season_q16, seed, phase, dev_q16, observed });

impl Detector for HoltWintersEngine {
    fn name(&self) -> &'static str {
        "holtwinters"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let x = ctx.packets;
        let forecast = self.model.observe(x)?;
        self.observed += 1;
        let r = forecast.residual_q16.abs();
        let margin = (self.model.level_q16().abs() >> MARGIN_SHIFT).max(MARGIN_FLOOR << 16);
        let band = K * self.dev_q16 + margin;
        let score = ratio_q16(r, band.max(1));
        let warm = self.observed > WARM_SEASONS * SEASON_LEN as u64;
        let fired = warm && r > band;
        // Band first, then learn: the residual that fired must not
        // have widened its own band.
        self.dev_q16 += (r - self.dev_q16) >> DEV_SHIFT;
        Some(DetectionResult {
            engine: "holtwinters",
            at: ctx.at,
            epoch: ctx.epoch,
            score,
            confidence: confidence_q16(score),
            expected: forecast.forecast_q16 >> 16,
            observed: x,
            fired,
        })
    }

    fn export_state(&self, out: &mut String) {
        HoltWintersState {
            level_q16: self.model.level_q16(),
            trend_q16: self.model.trend_q16(),
            season_q16: self.model.seasons_q16().to_vec(),
            seed: self.model.seed_values().to_vec(),
            phase: self.model.phase(),
            dev_q16: self.dev_q16,
            observed: self.observed,
        }
        .write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("holtwinters");
        let s = HoltWintersState::read_json(lx, at)?;
        self.model
            .restore(s.level_q16, s.trend_q16, s.season_q16, s.seed, s.phase)
            .map_err(|e| at.err(e))?;
        self.dev_q16 = s.dev_q16;
        self.observed = s.observed;
        Ok(())
    }
}
