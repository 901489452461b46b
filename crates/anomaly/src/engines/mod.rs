//! The ensemble's engines: one statistical check each.
//!
//! The three Table 1 detectors implement
//! [`crate::detector::Detector`] themselves
//! ([`crate::synflood::SynFloodDetector`],
//! [`crate::stalled::StalledFlowDetector`],
//! [`crate::shift::PercentileShiftDetector`]; the
//! behavior-preservation suite pins their alert streams bit-for-bit);
//! the three in this module each cover a signal those cannot see.
//!
//! | engine        | signal                    | catches                      |
//! |---------------|---------------------------|------------------------------|
//! | `synflood`    | SYNs/interval + kind share| volumetric SYN floods        |
//! | `stalled`     | packets/interval (lower)  | activity collapse            |
//! | `median_shift`| median frame length       | length-distribution shifts   |
//! | `cusum`       | SYNs/interval (cumulative)| low-and-slow scans           |
//! | `holtwinters` | packets/interval (seasonal)| phase drift in periodic load |
//! | `cardinality` | distinct sources/interval | spoofed-source sweeps        |
//!
//! Like a Stat4 program's, each engine's tuning is fixed: constants
//! beside the code that reads them, not configuration.
//!
//! Nothing combines the engines' scores: a verdict is one engine's fire.
//! So an engine stays only while some run needs it, a run whose first
//! verdict or drill-down outcome changes when the engine is left out
//! (`replay`'s leave-one-out test holds each engine to its witness run).

pub mod cardinality;
pub mod cusum;
pub mod holtwinters;

pub use cardinality::CardinalityEngine;
pub use cusum::CusumEngine;
pub use holtwinters::HoltWintersEngine;

/// Configuration of the ensemble around the engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnsembleConfig {
    /// Drilldown ladder policy.
    pub trigger: crate::drilldown::EnsembleTriggerConfig,
}
