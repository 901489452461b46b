//! # stat4-core
//!
//! Integer-only online statistics for programmable data planes — the core
//! algorithms of *Stats 101 in P4: Towards In-Switch Anomaly Detection*
//! (Gao, Handley, Vissicchio — HotNets '21) as a portable Rust library.
//!
//! P4 pipelines cannot divide, take square roots, loop, or (on some
//! hardware targets) multiply two runtime values. The paper shows that
//! mean, variance, standard deviation, the median and arbitrary
//! percentiles of a distribution can nevertheless be tracked online, one
//! constant-work update per packet, by:
//!
//! 1. **Tracking the scaled distribution `NX`** instead of `X`
//!    ([`running::RunningStats`]): for `X = {x1..xN}` the mean of
//!    `NX = {N·x1..N·xN}` is exactly `Xsum = Σxi` and its variance is
//!    `σ²(NX) = N·Xsumsq − Xsum²` — both division-free.
//! 2. **Approximating `√y` with shifts** ([`isqrt::approx_isqrt`]):
//!    halve the exponent (MSB position) and interpolate with the top
//!    mantissa bits (paper Figure 2, accuracy in Table 2).
//! 3. **Constant-work frequency updates** ([`freq::FrequencyDist`]):
//!    bumping the count of value `k` updates the sum of squares as
//!    `Xsumsq += 2·f_k + 1`.
//! 4. **One-step-per-packet percentile tracking**
//!    ([`percentile::PercentileTracker`]): keep the mass strictly below
//!    and strictly above a marker and nudge the marker at most one value
//!    per packet (paper Figure 3, accuracy in Table 3).
//!
//! Everything in this crate is written in the *data-plane-legal* subset
//! of arithmetic — addition, subtraction, comparison, shifts and masks;
//! multiplications appear only where the paper's bmv2 target allows them
//! and each has a shift-approximated alternative in [`square`] for
//! multiply-less hardware targets. The floating-point *oracles* used to
//! validate accuracy live in [`oracle`] and are `#[cfg]`-free but clearly
//! separated: nothing in the online paths touches them.
//!
//! ## Quick start
//!
//! ```
//! use stat4_core::running::RunningStats;
//!
//! // Track packets-per-interval and flag outlier intervals.
//! let mut stats = RunningStats::new();
//! for rate in [100, 104, 98, 101, 99, 102, 97, 103] {
//!     stats.push(rate);
//! }
//! // "is 250 an outlier?" — integer-only check in the NX domain:
//! //    N·x  >  Xsum + 2·σ(NX)
//! assert!(stats.is_upper_outlier(250, 2));
//! assert!(!stats.is_upper_outlier(103, 2));
//! ```
#![forbid(unsafe_code)]


pub mod cusum;
pub mod delta;
pub mod error;
pub mod ewma;
pub mod freq;
pub mod hll;
pub mod holtwinters;
pub mod isqrt;
pub mod merge;
pub mod oracle;
pub mod percentile;
pub mod running;
pub mod scale;
pub mod sketch;
pub mod square;
pub mod window;

pub use cusum::CusumDetector;
pub use delta::{
    DeltaMergeable, DirtyJournal, FreqDelta, HllDelta, PercentileDelta, RunningDelta,
    SketchDelta,
};
pub use ewma::Ewma;
pub use error::{Stat4Error, Stat4Result};
pub use freq::FrequencyDist;
pub use hll::HyperLogLog;
pub use holtwinters::{Forecast, HoltWinters};
pub use isqrt::{
    approx_isqrt, exact_isqrt, log_linear_bucket, log_linear_bucket_count,
    log_linear_lower_bound, msb_decompose,
};
pub use merge::Mergeable;
pub use percentile::{MarkerRaw, PercentileTracker, Quantile, QuantileCounts};
pub use running::RunningStats;
pub use scale::Scale;
pub use sketch::CountMinSketch;
pub use square::approx_square;
pub use window::WindowedDist;

/// The SplitMix64 increment, the odd 64-bit golden ratio: a SplitMix64
/// stream adds it to its state before every draw.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a full-avalanche 64-bit mix of `z` plus
/// [`SPLITMIX64_GAMMA`]. The HLL spreads raw keys over its registers
/// with it, the drill-down backoff draws its jitter from it, and the
/// symbolic verifier's witness corpus is a SplitMix64 stream.
#[must_use]
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic RNG for this crate's tests (kept here so test modules
/// don't each redeclare the seeding dance).
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
