//! Integer additive Holt-Winters seasonal forecasting.
//!
//! The paper's band check models traffic as a stationary distribution;
//! diurnal or otherwise periodic traffic breaks that assumption — the
//! seasonal swing either saturates the σ band (missed detections) or
//! the trough false-alarms the lower band. Holt-Winters decomposes the
//! signal into level + trend + per-phase seasonal offsets and judges
//! each interval against its *phase-specific* forecast, so a phase
//! inversion that leaves mean and variance untouched is still caught.
//!
//! The smoothing constants are powers of two (`α = 2^-a`, `β = 2^-b`,
//! `γ = 2^-g`), making every update a shift-and-add in Q16 fixed
//! point — the same arithmetic discipline as [`crate::ewma::Ewma`],
//! P4-expressible per the paper's constraints. Seeding takes one full
//! season: the level seeds to the season mean and each phase offset to
//! its deviation from that mean (one division per season at the
//! controller, never per packet).

use crate::error::{Stat4Error, Stat4Result};

/// One observation's forecast decomposition, in Q16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forecast {
    /// What the model expected for this interval (Q16).
    pub forecast_q16: i64,
    /// Observed minus forecast (Q16).
    pub residual_q16: i64,
}

/// Additive Holt-Winters smoother over Q16 fixed point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoltWinters {
    season_len: usize,
    alpha_shift: u32,
    beta_shift: u32,
    gamma_shift: u32,
    level_q16: i64,
    trend_q16: i64,
    season_q16: Vec<i64>,
    /// Raw values buffered while seeding the first season.
    seed_buf: Vec<i64>,
    /// Phase of the *next* observation once seeded.
    phase: usize,
}

impl HoltWinters {
    /// Creates a smoother with `season_len` intervals per season and
    /// power-of-two smoothing constants `2^-alpha_shift` (level),
    /// `2^-beta_shift` (trend), `2^-gamma_shift` (season).
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidDomain`] if `season_len < 2` or any shift
    /// is outside `1..=16`.
    pub fn new(
        season_len: usize,
        alpha_shift: u32,
        beta_shift: u32,
        gamma_shift: u32,
    ) -> Stat4Result<Self> {
        if season_len < 2 {
            return Err(Stat4Error::InvalidDomain {
                min: 2,
                max: i64::MAX,
            });
        }
        for s in [alpha_shift, beta_shift, gamma_shift] {
            if !(1..=16).contains(&s) {
                return Err(Stat4Error::InvalidDomain { min: 1, max: 16 });
            }
        }
        Ok(Self {
            season_len,
            alpha_shift,
            beta_shift,
            gamma_shift,
            level_q16: 0,
            trend_q16: 0,
            season_q16: vec![0; season_len],
            seed_buf: Vec::with_capacity(season_len),
            phase: 0,
        })
    }

    /// Intervals per season.
    #[must_use]
    pub fn season_len(&self) -> usize {
        self.season_len
    }

    /// True once one full season has seeded the model.
    #[must_use]
    pub(crate) fn is_seeded(&self) -> bool {
        self.seed_buf.len() >= self.season_len
    }

    /// Current smoothed level (Q16), meaningful once seeded.
    #[must_use]
    pub fn level_q16(&self) -> i64 {
        self.level_q16
    }

    /// Current smoothed trend per interval (Q16).
    #[must_use]
    pub fn trend_q16(&self) -> i64 {
        self.trend_q16
    }

    /// Seasonal offset for `phase` (Q16).
    #[must_use]
    pub fn season_q16(&self, phase: usize) -> i64 {
        self.season_q16[phase % self.season_len]
    }

    /// Forecast for the *next* observation (Q16), `None` until seeded.
    #[must_use]
    pub fn forecast_q16(&self) -> Option<i64> {
        if !self.is_seeded() {
            return None;
        }
        Some(self.level_q16 + self.trend_q16 + self.season_q16[self.phase])
    }

    /// Feeds one interval value. Returns `None` during the seeding
    /// season, then the forecast/residual pair for every interval.
    pub fn observe(&mut self, x: i64) -> Option<Forecast> {
        if !self.is_seeded() {
            self.seed_buf.push(x);
            if self.seed_buf.len() == self.season_len {
                // Controller-side seeding: level = season mean, one
                // offset per phase. One division per season.
                let sum: i64 = self.seed_buf.iter().sum();
                self.level_q16 = (sum << 16) / self.season_len as i64;
                self.trend_q16 = 0;
                for (i, v) in self.seed_buf.iter().enumerate() {
                    self.season_q16[i] = (v << 16) - self.level_q16;
                }
                self.phase = 0;
            }
            return None;
        }
        let xq = x << 16;
        let forecast = self.level_q16 + self.trend_q16 + self.season_q16[self.phase];
        let residual = xq - forecast;
        // l' = (l + b) + α·(x − s − l − b); the bracket is the residual.
        let prev_level = self.level_q16;
        self.level_q16 = prev_level + self.trend_q16 + (residual >> self.alpha_shift);
        // b' = b + β·(l' − l − b)
        self.trend_q16 += (self.level_q16 - prev_level - self.trend_q16) >> self.beta_shift;
        // s' = s + γ·(x − l' − s)
        self.season_q16[self.phase] +=
            (xq - self.level_q16 - self.season_q16[self.phase]) >> self.gamma_shift;
        self.phase = (self.phase + 1) % self.season_len;
        Some(Forecast {
            forecast_q16: forecast,
            residual_q16: residual,
        })
    }

    /// Every per-phase seasonal offset (Q16), phase 0 first.
    #[must_use]
    pub fn seasons_q16(&self) -> &[i64] {
        &self.season_q16
    }

    /// Raw values buffered so far for the seeding season (a full
    /// season's worth once seeded).
    #[must_use]
    pub fn seed_values(&self) -> &[i64] {
        &self.seed_buf
    }

    /// Phase of the next observation.
    #[must_use]
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Reloads learned state exported through the accessors above (and
    /// [`Self::level_q16`] / [`Self::trend_q16`]) from a smoother of
    /// the same configuration.
    ///
    /// # Errors
    ///
    /// [`Stat4Error::InvalidState`] if there is not one offset per
    /// phase, the seed buffer is longer than a season, or the phase is
    /// not inside the season; `self` is left untouched.
    pub fn restore(
        &mut self,
        level_q16: i64,
        trend_q16: i64,
        season_q16: Vec<i64>,
        seed_buf: Vec<i64>,
        phase: usize,
    ) -> Stat4Result<()> {
        let what = if season_q16.len() != self.season_len {
            "seasonal offsets do not match the season length"
        } else if seed_buf.len() > self.season_len {
            "seed buffer longer than a season"
        } else if phase >= self.season_len {
            "season phase outside the season"
        } else {
            self.level_q16 = level_q16;
            self.trend_q16 = trend_q16;
            self.season_q16 = season_q16;
            self.seed_buf = seed_buf;
            self.phase = phase;
            return Ok(());
        };
        Err(Stat4Error::InvalidState { what })
    }

    /// Drops all learned state, keeping the configuration.
    pub fn reset(&mut self) {
        self.level_q16 = 0;
        self.trend_q16 = 0;
        self.season_q16.fill(0);
        self.seed_buf.clear();
        self.phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Float oracle with the exact same recurrence and seeding, using
    /// real multiplications by `2^-shift` instead of shifts.
    struct FloatHw {
        season_len: usize,
        alpha: f64,
        beta: f64,
        gamma: f64,
        level: f64,
        trend: f64,
        season: Vec<f64>,
        seed_buf: Vec<f64>,
        phase: usize,
    }

    impl FloatHw {
        fn new(season_len: usize, a: u32, b: u32, g: u32) -> Self {
            Self {
                season_len,
                alpha: 0.5f64.powi(a as i32),
                beta: 0.5f64.powi(b as i32),
                gamma: 0.5f64.powi(g as i32),
                level: 0.0,
                trend: 0.0,
                season: vec![0.0; season_len],
                seed_buf: Vec::new(),
                phase: 0,
            }
        }

        fn observe(&mut self, x: f64) -> Option<f64> {
            if self.seed_buf.len() < self.season_len {
                self.seed_buf.push(x);
                if self.seed_buf.len() == self.season_len {
                    let mean: f64 =
                        self.seed_buf.iter().sum::<f64>() / self.season_len as f64;
                    self.level = mean;
                    for (i, v) in self.seed_buf.iter().enumerate() {
                        self.season[i] = v - mean;
                    }
                    self.phase = 0;
                }
                return None;
            }
            let forecast = self.level + self.trend + self.season[self.phase];
            let r = x - forecast;
            let prev = self.level;
            self.level = prev + self.trend + self.alpha * r;
            self.trend += self.beta * (self.level - prev - self.trend);
            self.season[self.phase] += self.gamma * (x - self.level - self.season[self.phase]);
            self.phase = (self.phase + 1) % self.season_len;
            Some(forecast)
        }
    }

    #[test]
    fn config_bounds_enforced() {
        assert!(HoltWinters::new(1, 2, 4, 2).is_err());
        assert!(HoltWinters::new(8, 0, 4, 2).is_err());
        assert!(HoltWinters::new(8, 2, 17, 2).is_err());
        assert!(HoltWinters::new(8, 2, 4, 2).is_ok());
    }

    #[test]
    fn seeding_takes_one_season_then_forecasts() {
        let mut hw = HoltWinters::new(4, 2, 4, 2).unwrap();
        let pattern = [100i64, 140, 100, 60];
        for v in pattern {
            assert!(hw.observe(v).is_none());
        }
        assert!(hw.is_seeded());
        // A repeating pattern forecasts itself almost exactly.
        for _ in 0..5 {
            for v in pattern {
                let f = hw.observe(v).unwrap();
                assert!(
                    (f.residual_q16).abs() < 2 << 16,
                    "residual {} for value {v}",
                    f.residual_q16
                );
            }
        }
    }

    #[test]
    fn phase_inversion_produces_large_residual() {
        let mut hw = HoltWinters::new(8, 2, 4, 2).unwrap();
        let season: Vec<i64> = (0..8).map(|i| if i < 4 { 180 } else { 60 }).collect();
        for _ in 0..6 {
            for &v in &season {
                hw.observe(v);
            }
        }
        // Swap the halves: same mean, same variance, wrong phase.
        let swapped: Vec<i64> = (0..8).map(|i| if i < 4 { 60 } else { 180 }).collect();
        let f = hw.observe(swapped[0]).unwrap();
        assert!(
            f.residual_q16.abs() > 100 << 16,
            "phase flip residual {}",
            f.residual_q16
        );
    }

    #[test]
    fn trend_is_learned() {
        let mut hw = HoltWinters::new(4, 1, 2, 3).unwrap();
        // Linear ramp, no seasonality: trend should converge near the
        // per-interval slope (Q16 of 10).
        for i in 0..200i64 {
            hw.observe(100 + 10 * i);
        }
        let slope = hw.trend_q16() as f64 / 65536.0;
        assert!((slope - 10.0).abs() < 1.5, "learned slope {slope}");
    }

    #[test]
    fn reset_clears_learning() {
        let mut hw = HoltWinters::new(4, 2, 4, 2).unwrap();
        for i in 0..20 {
            hw.observe(i * 7 % 50);
        }
        hw.reset();
        assert!(!hw.is_seeded());
        assert!(hw.forecast_q16().is_none());
    }

    proptest! {
        /// The Q16 integer model tracks the float oracle: truncation
        /// loses at most a few Q16 ulps per update and the smoothing
        /// recurrence is contractive, so forecasts stay within a small
        /// absolute band of the float reference.
        #[test]
        fn forecast_matches_float_oracle(
            values in proptest::collection::vec(0i64..20_000, 24..300),
            season_pow in 1u32..5,
            a in 1u32..5,
            b in 2u32..6,
            g in 1u32..5,
        ) {
            let season = 1usize << season_pow;
            let mut hw = HoltWinters::new(season, a, b, g).unwrap();
            let mut oracle = FloatHw::new(season, a, b, g);
            for &v in &values {
                let got = hw.observe(v);
                let want = oracle.observe(v as f64);
                if let (Some(f), Some(wf)) = (got, want) {
                    let fi = f.forecast_q16 as f64 / 65536.0;
                    prop_assert!(
                        (fi - wf).abs() <= 1.0,
                        "int forecast {} float {}", fi, wf
                    );
                }
            }
        }

        /// Seeding is exact: after one season the level is the floor
        /// mean and offsets reconstruct the seed values.
        #[test]
        fn seeding_reconstructs_first_season(
            values in proptest::collection::vec(0i64..10_000, 8),
        ) {
            let mut hw = HoltWinters::new(8, 2, 4, 2).unwrap();
            for &v in &values {
                hw.observe(v);
            }
            for (i, &v) in values.iter().enumerate() {
                let rebuilt = hw.level_q16() + hw.season_q16(i);
                prop_assert_eq!(rebuilt, v << 16);
            }
        }
    }

    #[test]
    fn restore_is_exact_mid_seed_and_mid_season() {
        for fed in [0usize, 3, 4, 11] {
            let mut live = HoltWinters::new(4, 2, 4, 2).unwrap();
            for i in 0..fed {
                live.observe(100 + (i as i64 * 37) % 50);
            }
            let mut back = HoltWinters::new(4, 2, 4, 2).unwrap();
            back.restore(
                live.level_q16(),
                live.trend_q16(),
                live.seasons_q16().to_vec(),
                live.seed_values().to_vec(),
                live.phase(),
            )
            .unwrap();
            assert_eq!(back, live, "after {fed} observations");
            for x in [120, 90, 140, 101, 99] {
                assert_eq!(back.observe(x), live.observe(x));
            }
            assert_eq!(back, live);
        }
    }

    #[test]
    fn restore_rejects_state_outside_the_season() {
        let fresh = HoltWinters::new(4, 2, 4, 2).unwrap();
        let mut hw = fresh.clone();
        let invalid = |r: Stat4Result<()>| matches!(r, Err(Stat4Error::InvalidState { .. }));
        assert!(invalid(hw.restore(0, 0, vec![0; 3], vec![], 0)));
        assert!(invalid(hw.restore(0, 0, vec![0; 4], vec![1; 5], 0)));
        assert!(invalid(hw.restore(0, 0, vec![0; 4], vec![1; 4], 4)));
        assert_eq!(hw, fresh, "a failed restore changes nothing");
    }
}
