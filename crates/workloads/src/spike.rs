//! The case-study workload (paper Sec. 4, Figure 6): uniform
//! load-balanced traffic across 36 destinations in six /24 subnets of a
//! /8, then a volumetric spike to one randomly selected destination
//! after a randomized time.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use rand::Rng;
use std::net::Ipv4Addr;

/// What actually happened, for grading detections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeGroundTruth {
    /// When the spike starts (ns).
    pub spike_start: u64,
    /// The attacked destination.
    pub spike_dest: Ipv4Addr,
    /// Index of the attacked subnet within the /8 (0-based).
    pub spike_subnet: u8,
}

/// Generator configuration (defaults mirror the paper's setup).
#[derive(Debug, Clone, Copy)]
pub struct SpikeWorkload {
    /// First octet of the monitored /8.
    pub net: u8,
    /// Number of /24 subnets in use.
    pub subnets: u8,
    /// Destinations per subnet (paper: 36 across 6 subnets).
    pub hosts_per_subnet: u8,
    /// Background rate in packets/second across all destinations.
    pub background_pps: u64,
    /// Spike rate multiplier on top of the background.
    pub spike_multiplier: u64,
    /// Spike start is drawn uniformly from this window (ns).
    pub spike_start_range: (u64, u64),
    /// Total workload duration (ns).
    pub duration: u64,
    /// RNG seed (also selects the victim).
    pub seed: u64,
}

impl Default for SpikeWorkload {
    fn default() -> Self {
        Self {
            net: 10,
            subnets: 6,
            hosts_per_subnet: 6,
            background_pps: 20_000,
            spike_multiplier: 10,
            spike_start_range: (1_000_000_000, 2_000_000_000),
            duration: 4_000_000_000,
            seed: 1,
        }
    }
}

impl SpikeWorkload {
    /// All destination addresses, subnet-major.
    #[must_use]
    pub fn destinations(&self) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        for s in 0..self.subnets {
            for h in 1..=self.hosts_per_subnet {
                out.push(Ipv4Addr::new(self.net, 0, s, h));
            }
        }
        out
    }

    /// Generates the schedule and its ground truth.
    #[must_use]
    pub fn generate(&self) -> (Schedule, SpikeGroundTruth) {
        let mut r = rng(self.seed);
        let dests = self.destinations();
        let victim_idx = r.random_range(0..dests.len());
        let victim = dests[victim_idx];
        let spike_start = r.random_range(self.spike_start_range.0..=self.spike_start_range.1);
        let src = Ipv4Addr::new(198, 51, 100, 7);

        let gap = 1_000_000_000 / self.background_pps.max(1);
        let mut trace = Trace::default();
        let mut t = 0u64;
        while t < self.duration {
            // Background packet to a uniformly chosen destination, with
            // +-25% jitter on the gap so interval counts have variance.
            let d = dests[r.random_range(0..dests.len())];
            let frame = PacketBuilder::udp(src, d, r.random_range(1024..65000), 80).payload(b"bg");
            trace.push(t, &frame);
            let jitter = r.random_range(0..=gap / 2);
            t += gap / 2 + 1 + jitter;
        }
        // The spike: multiplier x background rate, to the victim alone.
        let spike_gap = (gap / self.spike_multiplier.max(1)).max(1);
        let mut t = spike_start;
        while t < self.duration {
            let frame =
                PacketBuilder::udp(src, victim, r.random_range(1024..65000), 80).payload(b"atk");
            trace.push(t, &frame);
            t += spike_gap;
        }
        (
            trace.finish(),
            SpikeGroundTruth {
                spike_start,
                spike_dest: victim,
                spike_subnet: victim.octets()[2],
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EthernetFrame, Ipv4Packet};

    fn small() -> SpikeWorkload {
        SpikeWorkload {
            background_pps: 1_000,
            spike_start_range: (10_000_000, 20_000_000),
            duration: 50_000_000,
            seed: 3,
            ..SpikeWorkload::default()
        }
    }

    #[test]
    fn thirty_six_destinations() {
        let w = SpikeWorkload::default();
        let d = w.destinations();
        assert_eq!(d.len(), 36);
        assert_eq!(d[0], Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(d[35], Ipv4Addr::new(10, 0, 5, 6));
    }

    #[test]
    fn ground_truth_consistent_and_deterministic() {
        let w = small();
        let (s1, g1) = w.generate();
        let (s2, g2) = w.generate();
        assert_eq!(g1, g2);
        assert_eq!(s1.len(), s2.len());
        assert!(w.destinations().contains(&g1.spike_dest));
        assert_eq!(g1.spike_dest.octets()[2], g1.spike_subnet);
        assert!(g1.spike_start >= 10_000_000 && g1.spike_start <= 20_000_000);
    }

    #[test]
    fn rate_roughly_doubles_plus_after_spike() {
        let w = small();
        let (s, g) = w.generate();
        let before: usize = s
            .iter()
            .filter(|(t, _)| *t < g.spike_start)
            .count();
        let after: usize = s.iter().filter(|(t, _)| *t >= g.spike_start).count();
        let before_dur = g.spike_start as f64;
        let after_dur = (w.duration - g.spike_start) as f64;
        let r_before = before as f64 / before_dur;
        let r_after = after as f64 / after_dur;
        assert!(
            r_after > 3.0 * r_before,
            "rates: {r_before} vs {r_after}"
        );
    }

    #[test]
    fn spike_packets_target_the_victim() {
        let w = small();
        let (s, g) = w.generate();
        // Count per-destination traffic after the spike: victim dominates.
        let mut victim = 0usize;
        let mut others = 0usize;
        for (t, frame) in &s {
            if *t < g.spike_start {
                continue;
            }
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            if ip.dst() == g.spike_dest {
                victim += 1;
            } else {
                others += 1;
            }
        }
        assert!(victim > others, "victim {victim} vs others {others}");
    }

    #[test]
    fn schedule_is_sorted() {
        let (s, _) = small().generate();
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
