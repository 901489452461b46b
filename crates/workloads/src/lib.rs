//! # workloads
//!
//! Seeded synthetic traffic generators for every experiment in the
//! reproduction. The paper evaluates on synthetic traffic (uniform
//! load-balanced background, a volumetric spike to one destination,
//! random payload integers for the echo validation); this crate
//! generates those workloads deterministically from a seed, plus the
//! extra workloads the paper's Table 1 use cases imply (SYN floods,
//! packet-type mixes) and the Zipf-popularity traffic its future-work
//! section mentions.
//!
//! Every generator produces a time-sorted `Vec<(time_ns, frame)>`
//! schedule (convertible into a pull-based source via `netsim`'s
//! `TraceGen`) and exposes its ground truth (when the
//! spike starts, which destination is attacked, …) so experiments can
//! grade detections.
//!
//! A schedule's frames are one buffer: each generator builds its
//! frames back to back into one arena, and every entry's frame is a
//! slice of it. Entries are in time order, frames sent at the same time
//! in the order the generator drew them. An entry costs 24 bytes beside
//! its frame (a time and a two-word window), and nothing else is kept
//! per frame: every frame is Ethernet + IPv4, so the arena delimits
//! itself. A clone of the schedule, or of a frame, shares that buffer;
//! the buffer is freed with the last frame that holds it.

pub mod bimodal;
pub mod cardinality;
pub mod echo;
pub mod mix;
pub(crate) mod portscan;
pub mod seasonal;
pub mod shard;
pub mod spike;
pub mod synflood;
mod trace;
pub(crate) mod zipf;

pub use bimodal::{BimodalValues, Mode};
pub use cardinality::CardinalitySpikeWorkload;
pub use echo::EchoWorkload;
pub use mix::{PacketKind, PacketMixWorkload};
pub use portscan::LowSlowScanWorkload;
pub use seasonal::SeasonalDriftWorkload;
pub use shard::{flow_key, shard_of, split};
pub use spike::{SpikeGroundTruth, SpikeWorkload};
pub use synflood::SynFloodWorkload;
pub use zipf::ZipfPrefixWorkload;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deterministic RNG used by every workload.
#[must_use]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A time-sorted frame schedule.
pub type Schedule = Vec<(u64, bytes::Bytes)>;

// An entry is a time and a window into the shared buffer: three words,
// 24 bytes, beside the frame's own bytes in that buffer.
const _: () = assert!(std::mem::size_of::<(u64, bytes::Bytes)>() == 24);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rng(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
