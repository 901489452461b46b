//! The echo-validation workload (paper Sec. 3, Figure 5).
//!
//! Frames "whose payload only contains a randomly generated integer
//! between −255 and 255", paced at a fixed gap. The values are exposed
//! so the host-side oracle can replay them.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use rand::Rng;
use std::net::Ipv4Addr;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct EchoWorkload {
    /// Number of frames (the paper runs up to 10 000).
    pub packets: usize,
    /// Gap between frames in nanoseconds.
    pub gap_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EchoWorkload {
    fn default() -> Self {
        Self {
            packets: 10_000,
            gap_ns: 10_000,
            seed: 1,
        }
    }
}

impl EchoWorkload {
    /// Generates the schedule and the ground-truth values.
    #[must_use]
    pub fn generate(&self) -> (Schedule, Vec<i64>) {
        let mut r = rng(self.seed);
        let mut trace = Trace::default();
        let mut values = Vec::with_capacity(self.packets);
        let src = Ipv4Addr::new(192, 0, 2, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        for i in 0..self.packets {
            let v: i64 = r.random_range(-255..=255);
            values.push(v);
            let payload = (v as u64).to_be_bytes();
            let frame = PacketBuilder::ipv4(src, dst, 0xfd).payload(&payload);
            trace.push(i as u64 * self.gap_ns, &frame);
        }
        (trace.finish(), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EthernetFrame, Ipv4Packet};

    #[test]
    fn values_in_range_and_deterministic() {
        let w = EchoWorkload {
            packets: 500,
            gap_ns: 100,
            seed: 42,
        };
        let (s1, v1) = w.generate();
        let (s2, v2) = w.generate();
        assert_eq!(v1, v2);
        assert_eq!(s1.len(), 500);
        assert!(v1.iter().all(|v| (-255..=255).contains(v)));
        assert!(v1.iter().any(|v| *v < 0), "negatives occur");
        // Frames decode back to the value.
        for ((_, frame), v) in s1.iter().zip(&v1) {
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&ip.payload()[..8]);
            assert_eq!(u64::from_be_bytes(buf) as i64, *v);
        }
        assert_eq!(s2[10].0, 1000, "pacing");
    }

    #[test]
    fn different_seeds_differ() {
        let a = EchoWorkload {
            seed: 1,
            packets: 50,
            gap_ns: 1,
        }
        .generate()
        .1;
        let b = EchoWorkload {
            seed: 2,
            packets: 50,
            gap_ns: 1,
        }
        .generate()
        .1;
        assert_ne!(a, b);
    }
}
