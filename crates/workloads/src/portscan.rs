//! Low-and-slow port-scan workload.
//!
//! Background: well-behaved TCP sessions at a *deterministic*
//! connections-per-interval cadence ([`CONN_PATTERN`]), so the SYN
//! rate has a known bounded wiggle. Attack: one scanner adds a mere
//! `scan_syns` bare SYNs per interval against the victim's ports,
//! counting upward — far inside the per-interval band
//! (`max + scan_syns < mean + k·σ + margin`), so the interval-local
//! SYN-rate check stays quiet *forever*. Only an accumulating
//! change-point statistic (CUSUM) integrates the small persistent
//! excess into an alarm.

use crate::trace::Trace;
use crate::{rng, Schedule};
use packet::builder::PacketBuilder;
use packet::TcpFlags;
use rand::Rng;
use std::net::Ipv4Addr;

/// Connections started per interval, cycling. Mean 19, max 22; the
/// ±3 wiggle keeps the rate band's σ honest (≈2.2) without letting a
/// +`scan_syns` shift reach `mean + 2σ + mean/8 ≈ 26`.
pub(crate) const CONN_PATTERN: [u64; 4] = [16, 20, 18, 22];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct LowSlowScanWorkload {
    /// Servers receiving legitimate traffic.
    pub servers: u8,
    /// Detector interval the cadence is phased to (ns).
    pub interval_ns: u64,
    /// Scanner SYNs added per interval once the scan starts.
    pub scan_syns: u64,
    /// When the scan starts (ns; rounded down to an interval).
    pub scan_start: u64,
    /// Workload duration (ns).
    pub duration: u64,
    /// RNG seed (selects the victim and client addresses).
    pub seed: u64,
}

impl Default for LowSlowScanWorkload {
    fn default() -> Self {
        Self {
            servers: 8,
            interval_ns: 10_000_000,
            scan_syns: 3,
            scan_start: 500_000_000,
            duration: 1_200_000_000,
            seed: 1,
        }
    }
}

impl LowSlowScanWorkload {
    /// The server addresses.
    #[must_use]
    pub fn servers(&self) -> Vec<Ipv4Addr> {
        (1..=self.servers)
            .map(|h| Ipv4Addr::new(10, 0, 1, h))
            .collect()
    }

    /// The scanner's source address.
    #[must_use]
    pub fn scanner(&self) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 66)
    }

    /// Generates the schedule and the scanned victim.
    #[must_use]
    pub fn generate(&self) -> (Schedule, Ipv4Addr) {
        let mut r = rng(self.seed);
        let servers = self.servers();
        let victim = servers[r.random_range(0..servers.len())];
        let mut trace = Trace::default();
        let scan_from = (self.scan_start / self.interval_ns) * self.interval_ns;
        let mut scanned_port = 1u16;
        let mut t = 0u64;
        let mut interval = 0u64;
        while t < self.duration {
            let conns = CONN_PATTERN[(interval % 4) as usize];
            let slot = self.interval_ns / conns;
            for j in 0..conns {
                let base = t + j * slot;
                let server = servers[r.random_range(0..servers.len())];
                let client = Ipv4Addr::new(192, 0, 2, r.random_range(1..=254));
                let sport: u16 = r.random_range(10_000..60_000);
                // SYN, four data segments, FIN — all inside this slot,
                // so every packet of the session lands in `interval`.
                trace.push(base, &PacketBuilder::tcp_syn(client, server, sport, 80));
                for k in 1..=4u64 {
                    trace.push(
                        base + k * slot / 8,
                        &PacketBuilder::tcp(client, server, sport, 80, TcpFlags::ack())
                            .payload(b"GET /"),
                    );
                }
                trace.push(
                    base + 5 * slot / 8,
                    &PacketBuilder::tcp(
                        client,
                        server,
                        sport,
                        80,
                        TcpFlags(TcpFlags::FIN | TcpFlags::ACK),
                    ),
                );
            }
            if t >= scan_from {
                let gap = self.interval_ns / self.scan_syns.max(1);
                for k in 0..self.scan_syns {
                    trace.push(
                        t + k * gap + 500,
                        &PacketBuilder::tcp_syn(self.scanner(), victim, 40_000, scanned_port),
                    );
                    scanned_port = scanned_port.wrapping_add(1).max(1);
                }
            }
            t += self.interval_ns;
            interval += 1;
        }
        (trace.finish(), victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EthernetFrame, Ipv4Packet, TcpSegment};

    fn syns_per_interval(w: &LowSlowScanWorkload, s: &Schedule) -> Vec<u64> {
        let n = (w.duration / w.interval_ns) as usize;
        let mut syns = vec![0u64; n];
        for (t, frame) in s {
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            if tcp.syn() && !tcp.ack() {
                syns[(t / w.interval_ns) as usize] += 1;
            }
        }
        syns
    }

    #[test]
    fn syn_cadence_is_pattern_plus_scan() {
        let w = LowSlowScanWorkload::default();
        let (s, _) = w.generate();
        let syns = syns_per_interval(&w, &s);
        let scan_idx = (w.scan_start / w.interval_ns) as usize;
        for (i, got) in syns.iter().enumerate() {
            let mut want = CONN_PATTERN[i % 4];
            if i >= scan_idx {
                want += w.scan_syns;
            }
            assert_eq!(*got, want, "interval {i}");
        }
    }

    #[test]
    fn shifted_max_stays_inside_rate_band() {
        // mean 19, σ² = 5 → 2σ ≈ 4.47, relative margin 19/8 ≈ 2.4:
        // bound ≈ 25.8. The scan's worst interval is 22 + 3 = 25.
        let w = LowSlowScanWorkload::default();
        let max = CONN_PATTERN.iter().max().unwrap() + w.scan_syns;
        assert!(max < 26, "scan must stay under the interval band");
    }

    #[test]
    fn scan_targets_one_victim_with_marching_ports() {
        let w = LowSlowScanWorkload::default();
        let (s, victim) = w.generate();
        let mut ports = Vec::new();
        for (_, frame) in &s {
            let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            if ip.src() != w.scanner() {
                continue;
            }
            assert_eq!(ip.dst(), victim);
            let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
            ports.push(tcp.dst_port());
        }
        assert!(!ports.is_empty());
        let mut sorted = ports.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ports.len(), "each port scanned once");
    }

    #[test]
    fn deterministic() {
        let w = LowSlowScanWorkload::default();
        assert_eq!(w.generate(), w.generate());
    }
}
