//! # telemetry
//!
//! Hand-rolled observability for the Stat4 reproduction: metrics,
//! traces and exposition with **zero external dependencies** (the
//! workspace builds offline), in the spirit of the paper itself — the
//! switch observes itself with cheap integer statistics, so the
//! software model should too.
//!
//! ## Layers
//!
//! - **Value types** ([`metrics`], [`hist`]) — plain [`Counter`] and
//!   [`LogLinearHistogram`] structs, each owned by one thread. Updates
//!   are branch-light integer arithmetic with **no allocation and no
//!   locking**, so they can sit on per-packet hot paths. Both implement
//!   [`stat4_core::Mergeable`]: per-shard metric sets fold at the same
//!   epoch barriers as the Stat4 trackers themselves.
//! - **Tracer** ([`trace`]) — a bounded buffer of begin/end/instant
//!   events for epoch lifecycle (split → ingest → barrier → merge →
//!   detect), cheap enough to leave on.
//! - **Exposition** (`expo`) — renders a [`Snapshot`] in Prometheus
//!   text format; [`render_json`] writes it as a JSON document through
//!   [`json`], the one codec every document is written and read with;
//!   [`check`] validates Prometheus output (used by CI against the real
//!   replay binary).
//!
//! ## Histogram bucketing = the paper's Figure 2 decomposition
//!
//! [`LogLinearHistogram`] buckets by
//! [`stat4_core::isqrt::log_linear_bucket`]: the value's MSB position
//! (exponent) concatenated with its top mantissa bits — exactly the
//! bit string the approximate square root halves. One decomposition,
//! two uses: `approx_isqrt` shifts it, the histogram indexes with it.
//! With `m` mantissa bits the relative bucket width is `2^-m`, so any
//! quantile read from the histogram is within one bucket width of the
//! exact sample quantile.
//!
//! ## Naming scheme
//!
//! Metric names follow Prometheus conventions:
//! `<layer>_<what>_<unit>[_total]`, e.g. `replay_shard_packets_total`,
//! `replay_epoch_ns`, `replay_recover_ns`. Per-shard series carry a
//! `shard="<i>"` label.
#![forbid(unsafe_code)]


pub mod check;
pub(crate) mod expo;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use check::{
    check_prometheus, check_trace, parse_trace, PromSummary, TraceDoc, TraceRecord, TraceSummary,
};
pub use expo::render_prometheus;
pub use hist::LogLinearHistogram;
pub use json::Json;
pub use metrics::Counter;
pub use snapshot::{
    render_json, Bucket, HistogramSnapshot, Metric, MetricKind, Sample, SampleValue, Snapshot,
};
pub use trace::{MergedTrace, TraceEvent, TracePhase, Tracer, COORDINATOR_TID};
