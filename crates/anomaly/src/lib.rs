//! # anomaly
//!
//! In-switch anomaly-detection applications built on Stat4 — one per
//! use case in the paper's Table 1:
//!
//! | use case | module | values of interest |
//! |---|---|---|
//! | volumetric DDoS | [`drilldown`] | traffic rate over time (+ drill-down) |
//! | SYN flood | [`synflood`] | SYN rate / SYN share of packet types |
//! | remote failure | [`stalled`] | stalled flows over time |
//! | load balancing | [`drilldown`] | traffic rate across IPs |
//! | traffic classification | [`classify`] | packets by type |
//!
//! The centrepiece is [`drilldown::DrilldownController`], the
//! controller half of the paper's Sec. 4 case study: it reacts to
//! in-switch spike alerts by progressively narrowing the switch's
//! binding tables (/8 rate → per-/24 groups → per-destination) until
//! the spike's destination is pinpointed, and records the timeline so
//! experiments can measure detection and pinpoint latency.
//!
//! The other detectors are *software-side* users of `stat4-core`,
//! demonstrating that the same integer algorithms serve both in-switch
//! (via `stat4-p4`) and host-side deployment.
//!
//! Detection is organised as a pluggable ensemble: every engine
//! implements [`detector::Detector`] over a shared per-interval
//! [`detector::SignalContext`], and [`detector::Ensemble`] collects
//! their verdicts. Nothing combines their scores: a verdict is one
//! engine's fire. [`synflood`], [`stalled`] and [`shift`] are
//! engines themselves; see [`engines`] for the catalogue.
#![forbid(unsafe_code)]


pub mod alerts;
pub(crate) mod backoff;
pub mod classify;
pub mod detector;
pub mod drilldown;
pub mod engines;
pub mod metrics;
pub mod polling;
pub mod shift;
pub mod stalled;
mod state;
pub mod synflood;

pub use alerts::Alert;
pub use detector::{
    AlertProvenance, DetectionResult, Detector, EngineAtFire, EngineSummary, Ensemble,
    EnsembleVerdict, SignalContext, SignalValues, Q16,
};
pub use engines::{CardinalityEngine, CusumEngine, EnsembleConfig, HoltWintersEngine};
pub use metrics::DetectorMetrics;
pub use classify::DriftMonitor;
pub use drilldown::{
    DrilldownController, DrilldownPhase, DrilldownReport, DrilldownStats,
    EnsembleTriggerConfig, RebindTransaction, ScoreDrilldown,
};
pub use polling::PollingController;
pub use shift::PercentileShiftDetector;
pub use stalled::StalledFlowDetector;
pub use synflood::SynFloodDetector;
