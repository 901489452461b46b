//! Cardinality-spike workload: a spoofed source sweep at constant
//! volume.
//!
//! Background: a fixed pool of `sources` clients sends round-robin
//! UDP at exactly `rate` packets per interval. Anomaly: from
//! `spike_start` the *same* `rate` packets per interval arrive from
//! fresh random spoofed addresses instead. Volume, kinds, sizes and
//! cadence are all byte-for-byte flat — every counter-based engine is
//! blind. The only moving statistic is the number of distinct
//! senders, which roughly doubles: HyperLogLog territory.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use rand::Rng;
use std::net::Ipv4Addr;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct CardinalitySpikeWorkload {
    /// Fixed background client-pool size.
    pub sources: u8,
    /// Packets per interval (constant throughout).
    pub rate: u64,
    /// Detector interval the cadence is phased to (ns).
    pub interval_ns: u64,
    /// When the spoofed sweep starts (ns; rounded down to an interval).
    pub spike_start: u64,
    /// Workload duration (ns).
    pub duration: u64,
    /// RNG seed (spoofed addresses only; counts are exact).
    pub seed: u64,
}

impl Default for CardinalitySpikeWorkload {
    fn default() -> Self {
        Self {
            sources: 64,
            rate: 120,
            interval_ns: 10_000_000,
            spike_start: 400_000_000,
            duration: 900_000_000,
            seed: 1,
        }
    }
}

impl CardinalitySpikeWorkload {
    /// The fixed background pool.
    #[must_use]
    pub fn pool(&self) -> Vec<Ipv4Addr> {
        (1..=self.sources)
            .map(|h| Ipv4Addr::new(172, 16, 1, h))
            .collect()
    }

    /// Generates the schedule.
    #[must_use]
    pub fn generate(&self) -> Schedule {
        let mut r = rng(self.seed);
        let pool = self.pool();
        let server = Ipv4Addr::new(10, 0, 3, 1);
        let spike_from = (self.spike_start / self.interval_ns) * self.interval_ns;
        let gap = self.interval_ns / self.rate.max(1);
        let mut trace = Trace::default();
        let mut t = 0u64;
        while t < self.duration {
            for k in 0..self.rate {
                let src = if t >= spike_from {
                    Ipv4Addr::new(
                        r.random_range(1..224),
                        r.random_range(0..=255),
                        r.random_range(0..=255),
                        r.random_range(1..=254),
                    )
                } else {
                    pool[(k % pool.len() as u64) as usize]
                };
                trace.push(
                    t + k * gap,
                    &PacketBuilder::udp(src, server, 7777, 9000).payload(b"steady-payload--"),
                );
            }
            t += self.interval_ns;
        }
        trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EthernetFrame, Ipv4Packet};
    use std::collections::HashSet;

    fn per_interval(w: &CardinalitySpikeWorkload) -> Vec<(u64, usize)> {
        let s = w.generate();
        let n = (w.duration / w.interval_ns) as usize;
        let mut counts = vec![0u64; n];
        let mut sources: Vec<HashSet<Ipv4Addr>> = vec![HashSet::new(); n];
        for (t, frame) in &s {
            let i = (t / w.interval_ns) as usize;
            counts[i] += 1;
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            sources[i].insert(ip.src());
        }
        counts.into_iter().zip(sources.into_iter().map(|s| s.len())).collect()
    }

    #[test]
    fn volume_flat_cardinality_jumps() {
        let w = CardinalitySpikeWorkload::default();
        let spike_idx = (w.spike_start / w.interval_ns) as usize;
        for (i, (count, distinct)) in per_interval(&w).iter().enumerate() {
            assert_eq!(*count, w.rate, "interval {i} volume must be flat");
            if i < spike_idx {
                assert_eq!(*distinct, usize::from(w.sources), "interval {i}");
            } else {
                assert!(
                    *distinct > usize::from(w.sources) + 40,
                    "interval {i}: spoofed sweep only reached {distinct} sources"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let w = CardinalitySpikeWorkload::default();
        assert_eq!(w.generate(), w.generate());
    }
}
