//! Packet-type mix workload (paper Table 1, "traffic classification").
//!
//! Generates a stream whose composition (TCP data, TCP SYN, UDP, QUIC)
//! follows configurable weights, with an optional composition change
//! mid-stream — the drift that would invalidate an in-switch ML model,
//! which the paper cites as a monitoring use case.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use packet::TcpFlags;
use rand::Rng;
use std::net::Ipv4Addr;

/// The packet kinds the classifier distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Established-flow TCP data segment.
    TcpData,
    /// TCP connection attempt (pure SYN).
    TcpSyn,
    /// Plain UDP datagram.
    Udp,
    /// QUIC (UDP to port 443).
    Quic,
}

impl PacketKind {
    /// All kinds, in a stable order (also the frequency-distribution
    /// cell assignment used by examples and benches).
    pub(crate) const ALL: [PacketKind; 4] = [
        PacketKind::TcpData,
        PacketKind::TcpSyn,
        PacketKind::Udp,
        PacketKind::Quic,
    ];

    /// Stable index of this kind.
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("in ALL")
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct PacketMixWorkload {
    /// Relative weights of the four kinds before the shift.
    pub weights_before: [u32; 4],
    /// Relative weights after the shift.
    pub weights_after: [u32; 4],
    /// When the composition changes (ns); `u64::MAX` = never.
    pub shift_at: u64,
    /// Packets to generate.
    pub packets: usize,
    /// Gap between packets (ns).
    pub gap_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PacketMixWorkload {
    fn default() -> Self {
        Self {
            weights_before: [70, 5, 15, 10],
            weights_after: [30, 5, 15, 50],
            shift_at: u64::MAX,
            packets: 50_000,
            gap_ns: 10_000,
            seed: 1,
        }
    }
}

impl PacketMixWorkload {
    fn pick(weights: &[u32; 4], u: u32) -> PacketKind {
        let total: u32 = weights.iter().sum();
        let mut x = u % total.max(1);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return PacketKind::ALL[i];
            }
            x -= w;
        }
        PacketKind::TcpData
    }

    /// Generates the schedule plus each packet's kind.
    #[must_use]
    pub fn generate(&self) -> (Schedule, Vec<PacketKind>) {
        let mut r = rng(self.seed);
        let src = Ipv4Addr::new(192, 0, 2, 50);
        let dst = Ipv4Addr::new(10, 0, 2, 2);
        let mut trace = Trace::default();
        let mut kinds = Vec::with_capacity(self.packets);
        for i in 0..self.packets {
            let t = i as u64 * self.gap_ns;
            let weights = if t < self.shift_at {
                &self.weights_before
            } else {
                &self.weights_after
            };
            let kind = Self::pick(weights, r.random());
            kinds.push(kind);
            let sport: u16 = r.random_range(10_000..60_000);
            let frame = match kind {
                PacketKind::TcpData => {
                    PacketBuilder::tcp(src, dst, sport, 80, TcpFlags::ack()).payload(b"data")
                }
                PacketKind::TcpSyn => PacketBuilder::tcp_syn(src, dst, sport, 80),
                PacketKind::Udp => PacketBuilder::udp(src, dst, sport, 53),
                PacketKind::Quic => PacketBuilder::udp(src, dst, sport, 443).payload(b"quic"),
            };
            trace.push(t, &frame);
        }
        (trace.finish(), kinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_respects_weights() {
        let w = PacketMixWorkload {
            packets: 20_000,
            ..PacketMixWorkload::default()
        };
        let (_, kinds) = w.generate();
        let frac = |k: PacketKind| {
            kinds.iter().filter(|x| **x == k).count() as f64 / kinds.len() as f64
        };
        assert!((frac(PacketKind::TcpData) - 0.70).abs() < 0.03);
        assert!((frac(PacketKind::TcpSyn) - 0.05).abs() < 0.02);
        assert!((frac(PacketKind::Udp) - 0.15).abs() < 0.02);
        assert!((frac(PacketKind::Quic) - 0.10).abs() < 0.02);
    }

    #[test]
    fn shift_changes_composition() {
        let w = PacketMixWorkload {
            packets: 20_000,
            shift_at: 10_000 * 10_000, // halfway
            ..PacketMixWorkload::default()
        };
        let (s, kinds) = w.generate();
        let half = kinds.len() / 2;
        let quic_before =
            kinds[..half].iter().filter(|k| **k == PacketKind::Quic).count() as f64 / half as f64;
        let quic_after =
            kinds[half..].iter().filter(|k| **k == PacketKind::Quic).count() as f64 / half as f64;
        assert!(quic_before < 0.15 && quic_after > 0.4, "{quic_before} {quic_after}");
        assert_eq!(s.len(), kinds.len());
    }

    #[test]
    fn kind_indices_stable() {
        assert_eq!(PacketKind::TcpData.index(), 0);
        assert_eq!(PacketKind::Quic.index(), 3);
    }
}
