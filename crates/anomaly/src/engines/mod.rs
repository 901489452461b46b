//! The ensemble's engines: one statistical check each.
//!
//! The three Table 1 detectors implement
//! [`crate::detector::Detector`] themselves
//! ([`crate::synflood::SynFloodDetector`],
//! [`crate::stalled::StalledFlowDetector`],
//! [`crate::shift::PercentileShiftDetector`]; the
//! behavior-preservation suite pins their alert streams bit-for-bit);
//! the five in this module each cover a signal those cannot see.
//!
//! | engine        | signal                    | catches                      |
//! |---------------|---------------------------|------------------------------|
//! | `synflood`    | SYNs/interval + kind share| volumetric SYN floods        |
//! | `stalled`     | packets/interval (lower)  | activity collapse            |
//! | `median_shift`| median frame length       | length-distribution shifts   |
//! | `cusum`       | SYNs/interval (cumulative)| low-and-slow scans           |
//! | `holtwinters` | packets/interval (seasonal)| phase drift in periodic load |
//! | `cardinality` | distinct sources/interval | spoofed-source sweeps        |
//! | `multiscale`  | packets at scales 1/4/16  | slow swells under the band   |
//! | `adaptive`    | mean frame length (EWMA)  | size regime changes          |

pub mod adaptive;
pub mod cardinality;
pub mod cusum;
pub mod holtwinters;
pub mod multiscale;

pub use adaptive::{AdaptiveEngine, AdaptiveEngineConfig};
pub use cardinality::{CardinalityEngine, CardinalityEngineConfig};
pub use cusum::{CusumEngine, CusumEngineConfig};
pub use holtwinters::{HoltWintersEngine, HoltWintersEngineConfig};
pub use multiscale::{MultiScaleEngine, MultiScaleEngineConfig};

/// Configuration for the five engines of this module (the three Table 1
/// detectors take their own configs).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnsembleConfig {
    /// CUSUM change-point engine.
    pub cusum: CusumEngineConfig,
    /// Holt-Winters seasonal forecaster.
    pub holtwinters: HoltWintersEngineConfig,
    /// HyperLogLog cardinality band.
    pub cardinality: CardinalityEngineConfig,
    /// Multi-scale volume bands.
    pub multiscale: MultiScaleEngineConfig,
    /// Adaptive 2σ EWMA band.
    pub adaptive: AdaptiveEngineConfig,
    /// Drilldown trigger policy (per-engine fires + combined score).
    pub trigger: crate::drilldown::EnsembleTriggerConfig,
}
