//! Deterministic fault injection for the Stat4 reproduction.
//!
//! The paper's architecture keeps detection in the switch precisely
//! because the control loop is slow and lossy; this crate supplies the
//! lossiness. A [`FaultSpec`] declares *what* can fail (control-channel
//! loss/duplication/jitter, link flaps, shard stalls/panics/crashes,
//! checkpoint corruption, swap redelivery) and a [`FaultSchedule`]
//! pairs the spec with a seed to decide *when* each individual fault
//! fires.
//!
//! # Determinism model
//!
//! Every probabilistic decision is a **stateless hash** of
//! `(seed, domain, ordinal)` rather than a draw from a sequential RNG
//! stream. The ordinal is a stable identifier of the decision point —
//! a control-message sequence number, an epoch, a checkpoint-write
//! ordinal — so the answer to "does control message #17 get
//! dropped?" depends only on the seed and the number 17, never on how
//! many other decisions were made before it or on which thread asked.
//! Two runs of the same seeded schedule therefore make bit-identical
//! fault decisions even when thread interleaving differs, which is
//! what lets the cross-layer conformance suite assert byte-identical
//! outcomes across reruns.
//!
//! Deterministic *scheduled* faults (a crash of shard 1 at epoch 3, a
//! corrupted third checkpoint write) are listed explicitly in the spec
//! and do not consult the seed at all.
//!
//! # Spec grammar
//!
//! A spec is a comma-separated list of `key=value` entries; keys may
//! repeat to add more instances of the same fault:
//!
//! ```text
//! ctrl_loss=0.30              drop each control message w.p. 0.30
//! ctrl_dup=0.05               duplicate each control message w.p. 0.05
//! ctrl_delay_ns=200000        add uniform extra delay in [0, 200µs]
//! link_flap=@5ms..9ms         drop data-plane frames in [5ms, 9ms)
//! shard_crash=1@3             shard 1 crashes at epoch 3
//! shard_panic=0@2             shard 0 panics at epoch 2
//! shard_stall=2@4:1500000     shard 2 stalls 1.5ms at epoch 4
//! ckpt_corrupt=2              corrupt the 3rd checkpoint write (0-based)
//! reconfig_storm=0.5          redeliver each committed swap w.p. 0.5
//! ```
//!
//! Durations accept a bare nanosecond count or `us`/`ms`/`s` suffixes.
//! See [`FaultSpec::parse`] for the full grammar.

mod schedule;
mod spec;

pub use schedule::{domains, CkptCorruption, FaultSchedule};
pub use spec::{FaultSpec, LinkFlap, ShardFault, ShardFaultKind, SpecError};

/// SplitMix64 finalizer: the core bijective mixer behind every seeded
/// decision in this crate. Public so layers that need an extra derived
/// stream (e.g. jitter magnitudes) can stay consistent with it.
#[must_use]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
