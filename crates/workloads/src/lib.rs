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

pub mod bimodal;
pub mod cardinality;
pub mod echo;
pub mod mix;
pub(crate) mod portscan;
pub mod seasonal;
pub mod shard;
pub mod spike;
pub mod synflood;
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

/// Asserts (debug) and returns the schedule sorted by time.
#[must_use]
pub fn sorted(mut schedule: Schedule) -> Schedule {
    schedule.sort_by_key(|(t, _)| *t);
    schedule
}

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

    #[test]
    fn sorted_sorts() {
        let s = sorted(vec![
            (5, bytes::Bytes::new()),
            (1, bytes::Bytes::new()),
            (3, bytes::Bytes::new()),
        ]);
        let times: Vec<u64> = s.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }
}
