//! SYN-flood workload (paper Table 1, "SYN flood — protect servers").
//!
//! Background: well-behaved TCP sessions (SYN, a burst of data, FIN).
//! Attack: a storm of bare SYNs from spoofed sources to one victim.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use packet::TcpFlags;
use rand::Rng;
use std::net::Ipv4Addr;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SynFloodWorkload {
    /// Servers receiving legitimate traffic.
    pub servers: u8,
    /// Legitimate new connections per second (each ≈ 6 packets).
    pub background_cps: u64,
    /// Flood SYNs per second once the attack starts.
    pub flood_pps: u64,
    /// When the flood starts (ns).
    pub flood_start: u64,
    /// Workload duration (ns).
    pub duration: u64,
    /// RNG seed (selects the victim).
    pub seed: u64,
}

impl Default for SynFloodWorkload {
    fn default() -> Self {
        Self {
            servers: 8,
            background_cps: 2_000,
            flood_pps: 100_000,
            flood_start: 1_000_000_000,
            duration: 2_500_000_000,
            seed: 1,
        }
    }
}

impl SynFloodWorkload {
    /// The server addresses.
    #[must_use]
    pub fn servers(&self) -> Vec<Ipv4Addr> {
        (1..=self.servers)
            .map(|h| Ipv4Addr::new(10, 0, 1, h))
            .collect()
    }

    /// Generates the schedule and the victim address.
    #[must_use]
    pub fn generate(&self) -> (Schedule, Ipv4Addr) {
        let mut r = rng(self.seed);
        let servers = self.servers();
        let victim = servers[r.random_range(0..servers.len())];
        let mut trace = Trace::default();

        // Legitimate connections: SYN, SYN-ACK is server-side (not on
        // this link), then data and FIN from the client.
        let conn_gap = 1_000_000_000 / self.background_cps.max(1);
        let mut t = 0u64;
        while t < self.duration {
            let server = servers[r.random_range(0..servers.len())];
            let client = Ipv4Addr::new(192, 0, 2, r.random_range(1..=254));
            let sport: u16 = r.random_range(10_000..60_000);
            let mut ct = t;
            trace.push(ct, &PacketBuilder::tcp_syn(client, server, sport, 80));
            for _ in 0..4 {
                ct += r.random_range(50_000u64..200_000);
                trace.push(
                    ct,
                    &PacketBuilder::tcp(client, server, sport, 80, TcpFlags::ack())
                        .payload(b"GET /"),
                );
            }
            ct += r.random_range(50_000u64..200_000);
            trace.push(
                ct,
                &PacketBuilder::tcp(
                    client,
                    server,
                    sport,
                    80,
                    TcpFlags(TcpFlags::FIN | TcpFlags::ACK),
                ),
            );
            t += conn_gap + r.random_range(0..=conn_gap / 4);
        }

        // The flood: bare SYNs from spoofed sources.
        let flood_gap = (1_000_000_000 / self.flood_pps.max(1)).max(1);
        let mut t = self.flood_start;
        while t < self.duration {
            let spoofed = Ipv4Addr::new(
                r.random_range(1..224),
                r.random_range(0..=255),
                r.random_range(0..=255),
                r.random_range(1..=254),
            );
            trace.push(
                t,
                &PacketBuilder::tcp_syn(spoofed, victim, r.random_range(1024..65000), 80),
            );
            t += flood_gap;
        }
        (trace.finish(), victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EthernetFrame, Ipv4Packet, TcpSegment};

    fn small() -> SynFloodWorkload {
        SynFloodWorkload {
            background_cps: 500,
            flood_pps: 20_000,
            flood_start: 5_000_000,
            duration: 20_000_000,
            seed: 9,
            ..SynFloodWorkload::default()
        }
    }

    fn syn_fraction(schedule: &Schedule, from: u64, to: u64) -> f64 {
        let mut syn = 0usize;
        let mut total = 0usize;
        for (t, frame) in schedule {
            if *t < from || *t >= to {
                continue;
            }
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            total += 1;
            if tcp.syn() && !tcp.ack() {
                syn += 1;
            }
        }
        syn as f64 / total.max(1) as f64
    }

    #[test]
    fn syn_share_rises_after_flood() {
        let w = small();
        let (s, _victim) = w.generate();
        let before = syn_fraction(&s, 0, w.flood_start);
        let after = syn_fraction(&s, w.flood_start, w.duration);
        assert!(before < 0.35, "background SYN share {before}");
        assert!(after > 0.7, "flood SYN share {after}");
    }

    #[test]
    fn victim_is_a_server_and_deterministic() {
        let w = small();
        let (_, v1) = w.generate();
        let (_, v2) = w.generate();
        assert_eq!(v1, v2);
        assert!(w.servers().contains(&v1));
    }

    #[test]
    fn flood_targets_victim_only() {
        let w = small();
        let (s, victim) = w.generate();
        for (t, frame) in &s {
            if *t < w.flood_start {
                continue;
            }
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            if tcp.syn() && !tcp.ack() && ip.src().octets()[0] != 192 {
                assert_eq!(ip.dst(), victim);
            }
        }
    }
}
