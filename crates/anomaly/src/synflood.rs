//! SYN-flood detection (paper Table 1: "SYN flood — protect servers,
//! SYN rate over time").
//!
//! [`SynFloodDetector`] consumes one observation per closed interval —
//! the merged SYN count of the interval and the merged cumulative kind
//! distribution — and runs two complementary Stat4 checks, both
//! integer-only:
//!
//! 1. **SYN rate**: the per-interval SYN count feeds a [`WindowedDist`]
//!    with the mean + k·σ spike test — the same machinery as the
//!    case-study rate monitor, bound to a different value of interest.
//! 2. **SYN share**: the [`FrequencyDist`] of packet kinds is tested
//!    for the SYN cell being an upper outlier
//!    (`n·f > Xsum + k·σ(NX) + margin·n`), which signals a flood
//!    regardless of absolute rate.
//!
//! It judges intervals, not packets, because the sharded replay engine
//! has no totally-ordered packet stream: packets are processed by N
//! independent shard pipelines and only the *merged* statistics exist
//! at the epoch barrier. Every input is a pure function of merged
//! (order-free) shard state, so the verdicts are *shard-count invariant
//! by construction*: a 1-shard and an 8-shard replay hand the detector
//! bit-identical aggregates and therefore produce identical alert
//! sequences. That is the property the cross-shard conformance suite
//! asserts.
//!
//! The detector is the ensemble's `synflood` engine: its
//! [`Detector::update`] forwards the context's span-averaged SYN
//! estimate and cumulative kind composition to
//! `SynFloodDetector::observe_interval`. It keeps the statistics its
//! checks read and no record of what they decided: the ensemble's
//! fired log and provenance are the run's alerts.

use crate::detector::{DetectionResult, Detector, SignalContext};
use crate::state::{WindowState, WindowStateOf};
use stat4_core::freq::FrequencyDist;
use stat4_core::window::WindowedDist;
use telemetry::json::{At, FromJson, Lexer, ToJson};

/// Configuration of the detector.
#[derive(Debug, Clone, Copy)]
pub struct SynFloodConfig {
    /// Interval length (ns): the replay's epoch length. The detector
    /// judges the intervals it is handed and never reads it.
    pub interval_ns: u64,
}

impl Default for SynFloodConfig {
    fn default() -> Self {
        Self {
            interval_ns: 10_000_000, // 10 ms
        }
    }
}

/// Window capacity in intervals.
const WINDOW: usize = 64;
/// σ multiplier.
const K: u32 = 2;
/// Minimum closed intervals before rate alerts.
const MIN_INTERVALS: usize = 10;
/// Extra absolute margin for the share check (see the case-study
/// `imbalance_margin` rationale).
const SHARE_MARGIN: u64 = 16;

/// Kind cell used for SYN packets in the share distribution.
pub const KIND_SYN: i64 = 1;

/// SYN-flood detector driven by per-interval merged aggregates.
#[derive(Debug)]
pub struct SynFloodDetector {
    syn_rate: WindowedDist,
}

impl SynFloodDetector {
    /// Creates a detector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            syn_rate: WindowedDist::new(WINDOW).expect("non-empty window"),
        }
    }

    /// Feeds one closed interval: the merged SYN count of the interval
    /// and the merged cumulative kind distribution. Returns whether
    /// either check fired.
    pub(crate) fn observe_interval(
        &mut self,
        syn_in_interval: i64,
        kind_freq: &FrequencyDist,
    ) -> bool {
        self.syn_rate.accumulate(syn_in_interval);
        let spike = self.syn_rate.is_spike_margined(
            syn_in_interval,
            K,
            MIN_INTERVALS,
            3, // +12.5% of the mean
            4,
        );
        self.syn_rate.close_interval();
        spike || Self::share_outlier(kind_freq)
    }

    fn share_outlier(kind_freq: &FrequencyDist) -> bool {
        let f = kind_freq.frequency(KIND_SYN);
        let n = kind_freq.n_distinct();
        if n < 4 {
            return false;
        }
        let nf = u128::from(n) * u128::from(f);
        let bound = u128::from(kind_freq.xsum())
            + u128::from(K) * u128::from(kind_freq.sd_nx())
            + u128::from(SHARE_MARGIN) * u128::from(n);
        nf > bound
    }

    /// The tracked SYN-per-interval statistics (for reports).
    #[must_use]
    pub(crate) fn rate_stats(&self) -> &stat4_core::running::RunningStats {
        self.syn_rate.stats()
    }
}

impl Default for SynFloodDetector {
    fn default() -> Self {
        Self::new()
    }
}

/// The state is the rate window alone.
impl Detector for SynFloodDetector {
    fn name(&self) -> &'static str {
        "synflood"
    }

    fn update(&mut self, ctx: &SignalContext<'_>) -> Option<DetectionResult> {
        let fired = self.observe_interval(ctx.syns, ctx.kinds);
        let stats = self.rate_stats();
        let expected = stats.xsum() / (stats.n().max(1) as i64);
        Some(DetectionResult::saturated(self.name(), ctx, fired, expected, ctx.syns))
    }

    fn export_state(&self, out: &mut String) {
        WindowStateOf::of(&self.syn_rate).write_json(out);
    }

    fn import_state(&mut self, lx: &mut Lexer<'_>) -> Result<(), String> {
        let at = At::Root("synflood");
        WindowState::read_json(lx, at)?.restore(&mut self.syn_rate, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EthernetFrame, Ipv4Packet, TcpSegment};
    use workloads::SynFloodWorkload;

    fn kind_of(frame: &[u8]) -> i64 {
        let eth = EthernetFrame::new_checked(frame).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        match TcpSegment::new_checked(ip.payload()) {
            Ok(t) if t.syn() && !t.ack() => KIND_SYN,
            Ok(_) => 0,
            Err(_) => 2,
        }
    }

    /// Kind cells, as many as a replay shard has.
    const KINDS: i64 = 8;

    /// Replays a schedule through the detector exactly as the
    /// replay engine does: aggregate per interval, observe at each
    /// interval close. Returns the end time of every interval that
    /// fired.
    fn run_epoch(schedule: &workloads::Schedule, cfg: SynFloodConfig) -> Vec<u64> {
        let mut det = SynFloodDetector::new();
        let mut kinds = FrequencyDist::new(0, KINDS - 1).unwrap();
        let mut cur: Option<u64> = None;
        let mut syns: i64 = 0;
        let mut fired = Vec::new();
        for (t, frame) in schedule {
            let ivl = t / cfg.interval_ns;
            if let Some(c) = cur {
                if c != ivl {
                    if det.observe_interval(syns, &kinds) {
                        fired.push((c + 1) * cfg.interval_ns);
                    }
                    syns = 0;
                    cur = Some(ivl);
                }
            } else {
                cur = Some(ivl);
            }
            let k = kind_of(frame);
            let _ = kinds.observe(k.clamp(0, KINDS - 1));
            if k == KIND_SYN {
                syns += 1;
            }
        }
        fired
    }

    #[test]
    fn detects_flood_not_background() {
        let w = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 50_000,
            flood_start: 400_000_000,
            duration: 900_000_000,
            seed: 4,
            ..SynFloodWorkload::default()
        };
        let (schedule, _victim) = w.generate();
        let fired = run_epoch(&schedule, SynFloodConfig::default());
        let at = *fired.first().expect("flood must be detected");
        assert!(
            at >= w.flood_start,
            "no false positive before the flood: {at}"
        );
        assert!(
            at < w.flood_start + 100_000_000,
            "detected within 100 ms of onset, got +{} ms",
            (at - w.flood_start) / 1_000_000
        );
    }

    #[test]
    fn quiet_traffic_never_alerts() {
        let w = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 50_000,
            flood_start: 2_000_000_000, // after the end
            duration: 900_000_000,
            seed: 4,
            ..SynFloodWorkload::default()
        };
        let (schedule, _) = w.generate();
        let fired = run_epoch(&schedule, SynFloodConfig::default());
        assert!(fired.is_empty(), "fired at {fired:?}");
    }

    #[test]
    fn identical_aggregates_identical_alerts() {
        // The conformance property in miniature: two detectors fed the
        // same per-interval aggregates fire in the same intervals.
        let w = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 50_000,
            flood_start: 300_000_000,
            duration: 700_000_000,
            seed: 9,
            ..SynFloodWorkload::default()
        };
        let (schedule, _) = w.generate();
        let a = run_epoch(&schedule, SynFloodConfig::default());
        let b = run_epoch(&schedule, SynFloodConfig::default());
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn rate_stats_populated() {
        let mut det = SynFloodDetector::new();
        let kinds = FrequencyDist::new(0, 7).unwrap();
        for _ in 0..20 {
            det.observe_interval(5, &kinds);
        }
        assert!(det.rate_stats().n() > 0);
    }
}
