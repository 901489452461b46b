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
//!
//! Like a Stat4 program's, each engine's tuning is fixed: constants
//! beside the code that reads them, not configuration.

pub mod adaptive;
pub mod cardinality;
pub mod cusum;
pub mod holtwinters;
pub mod multiscale;

pub use adaptive::AdaptiveEngine;
pub use cardinality::CardinalityEngine;
pub use cusum::CusumEngine;
pub use holtwinters::HoltWintersEngine;
pub use multiscale::MultiScaleEngine;

/// Configuration of the ensemble around the engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnsembleConfig {
    /// Drilldown trigger policy (per-engine fires + combined score).
    pub trigger: crate::drilldown::EnsembleTriggerConfig,
}
