//! # stat4-p4
//!
//! Stat4 as a *data-plane library*: the paper's Sec. 2 algorithms
//! emitted as [`p4sim`] pipeline programs, plus the two applications the
//! paper builds on top of it — the echo validation app (Sec. 3, Fig. 5)
//! and the traffic-spike drill-down app of the case study (Sec. 4,
//! Fig. 6).
//!
//! Where [`stat4_core`](https://docs.rs) implements the algorithms as
//! ordinary Rust (the portable API and the validation oracle), this
//! crate implements them **under P4's constraints**: straight-line
//! actions, branches only in control flow, state in registers, no
//! division anywhere, and runtime multiplication only where the chosen
//! target allows it. The unit tests cross-validate every fragment
//! against `stat4_core` — e.g. the IR square root must agree with
//! [`stat4_core::isqrt::approx_isqrt`] bit for bit on every input.
//!
//! ## Crate layout
//!
//! - [`config`] — `STAT_COUNTER_NUM` / `STAT_COUNTER_SIZE` as runtime
//!   configuration, plus the case-study parameters.
//! - [`scratch`] — the PHV scratch-field allocation fragments share.
//! - [`fragments`] — reusable program pieces: the shift-based integer
//!   square root, `NX`-variance computation (exact and multiply-free),
//!   frequency-distribution moment updates.
//! - [`echo`] — the echo application: tracks the frequency distribution
//!   of payload integers and digests `(N, Xsum, Xsumsq, σ², σ)` per
//!   packet for host-side comparison.
//! - [`casestudy`] — the Fig. 6 application: windowed packet-rate spike
//!   detection on a /8 plus binding-table-driven drill-down to /24s and
//!   destinations.
//! - [`binding`] — helpers building the controller-side
//!   [`p4sim::RuntimeRequest`]s that retarget monitoring at runtime
//!   without recompiling.

pub mod binding;
pub mod casestudy;
pub mod config;
pub mod echo;
pub mod fragments;
pub mod lint;
pub mod median;
pub(crate) mod sketch_app;
pub mod scratch;

pub use casestudy::{CaseStudyApp, CaseStudyHandles, CaseStudyParams, DIGEST_IMBALANCE, DIGEST_SPIKE};
pub use config::Stat4Config;
pub use echo::{EchoApp, DIGEST_ECHO};
pub use median::{MedianApp, MedianAppParams};
pub use sketch_app::{SketchApp, SketchAppParams, DIGEST_HEAVY};
