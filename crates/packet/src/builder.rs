//! Whole-frame builders for the common packet shapes the experiments use.

use crate::ethernet::{self, EtherType, EthernetFrame, MacAddr};
use crate::ipv4::{self, IpProtocol, Ipv4Packet};
use crate::tcp::{self, TcpFlags, TcpSegment};
use crate::udp::{self, UdpDatagram};
use bytes::Bytes;
use std::net::Ipv4Addr;

/// Fluent builder assembling an Ethernet + IPv4 (+ TCP/UDP) frame with
/// correct lengths and checksums.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    ttl: u8,
    l4: L4,
    payload: Vec<u8>,
}

#[derive(Debug, Clone)]
enum L4 {
    Raw(u8),
    Tcp { src: u16, dst: u16, flags: TcpFlags },
    Udp { src: u16, dst: u16 },
}

impl PacketBuilder {
    /// Starts a raw-IPv4 builder with protocol number `proto`.
    #[must_use]
    pub fn ipv4(src: Ipv4Addr, dst: Ipv4Addr, proto: u8) -> Self {
        Self {
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: src,
            dst_ip: dst,
            ttl: 64,
            l4: L4::Raw(proto),
            payload: Vec::new(),
        }
    }

    /// Starts a UDP builder.
    #[must_use]
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> Self {
        Self {
            l4: L4::Udp {
                src: sport,
                dst: dport,
            },
            ..Self::ipv4(src, dst, 17)
        }
    }

    /// Starts a TCP builder with explicit flags.
    #[must_use]
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, flags: TcpFlags) -> Self {
        Self {
            l4: L4::Tcp {
                src: sport,
                dst: dport,
                flags,
            },
            ..Self::ipv4(src, dst, 6)
        }
    }

    /// Starts a TCP SYN builder — the SYN-flood workload's unit.
    #[must_use]
    pub fn tcp_syn(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> Self {
        Self::tcp(src, dst, sport, dport, TcpFlags::syn())
    }

    /// Overrides the TTL.
    #[must_use]
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the L4 payload (or L3 payload for raw builders).
    #[must_use]
    pub fn payload(mut self, bytes: &[u8]) -> Self {
        self.payload = bytes.to_vec();
        self
    }

    /// Assembles the frame.
    ///
    /// # Panics
    ///
    /// Panics if the assembled packet would exceed 65535 bytes of IPv4
    /// length (the builder is for test/workload frames, not jumbograms).
    #[must_use]
    pub fn build(&self) -> Vec<u8> {
        let l4_header = match self.l4 {
            L4::Raw(_) => 0,
            L4::Tcp { .. } => tcp::HEADER_LEN,
            L4::Udp { .. } => udp::HEADER_LEN,
        };
        let ip_total = ipv4::HEADER_LEN + l4_header + self.payload.len();
        assert!(ip_total <= 65535, "packet too large");
        let total = ethernet::HEADER_LEN + ip_total;
        let mut buf = vec![0u8; total];

        let mut eth = EthernetFrame::new_checked(&mut buf[..]).expect("sized buffer");
        eth.set_src(self.src_mac);
        eth.set_dst(self.dst_mac);
        eth.set_ethertype(EtherType::Ipv4);

        {
            let ip_buf = &mut buf[ethernet::HEADER_LEN..];
            ip_buf[0] = 0x45;
            ip_buf[2..4].copy_from_slice(&(ip_total as u16).to_be_bytes());
            let mut ip = Ipv4Packet::new_checked(ip_buf).expect("initialised header");
            ip.init(ip_total as u16);
            ip.set_ttl(self.ttl);
            ip.set_src(self.src_ip);
            ip.set_dst(self.dst_ip);
            match self.l4 {
                L4::Raw(p) => ip.set_protocol(IpProtocol::Other(p)),
                L4::Tcp { .. } => ip.set_protocol(IpProtocol::Tcp),
                L4::Udp { .. } => ip.set_protocol(IpProtocol::Udp),
            }
            ip.fill_checksum();
        }

        let l4_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
        match self.l4 {
            L4::Raw(_) => {
                buf[l4_off..].copy_from_slice(&self.payload);
            }
            L4::Tcp { src, dst, flags } => {
                let seg = &mut buf[l4_off..];
                seg[12] = 5 << 4;
                let mut t = TcpSegment::new_checked(&mut *seg).expect("initialised header");
                t.init();
                t.set_ports(src, dst);
                t.set_flags(flags);
                seg[tcp::HEADER_LEN..].copy_from_slice(&self.payload);
                let mut t = TcpSegment::new_checked(&mut *seg).expect("initialised header");
                t.fill_checksum(self.src_ip, self.dst_ip);
            }
            L4::Udp { src, dst } => {
                let seg = &mut buf[l4_off..];
                let len = (udp::HEADER_LEN + self.payload.len()) as u16;
                seg[4..6].copy_from_slice(&len.to_be_bytes());
                let mut u = UdpDatagram::new_checked(&mut *seg).expect("initialised header");
                u.set_ports(src, dst);
                u.payload_mut().copy_from_slice(&self.payload);
                u.fill_checksum(self.src_ip, self.dst_ip);
            }
        }
        buf
    }

    /// Assembles into [`Bytes`] for cheap cloning across simulator nodes.
    #[must_use]
    pub fn build_bytes(&self) -> Bytes {
        Bytes::from(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const D: Ipv4Addr = Ipv4Addr::new(10, 0, 5, 6);

    #[test]
    fn udp_frame_parses_back() {
        let buf = PacketBuilder::udp(S, D, 1234, 53).payload(b"query").build();
        let eth = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip.protocol(), IpProtocol::Udp);
        assert_eq!((ip.src(), ip.dst()), (S, D));
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!((udp.src_port(), udp.dst_port()), (1234, 53));
        assert_eq!(udp.payload(), b"query");
        assert!(udp.verify_checksum(S, D));
    }

    #[test]
    fn tcp_syn_parses_back() {
        let buf = PacketBuilder::tcp_syn(S, D, 44123, 80).build();
        let eth = EthernetFrame::new_checked(&buf[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::Tcp);
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.syn() && !tcp.ack());
        assert!(tcp.verify_checksum(S, D));
    }

    #[test]
    fn raw_ipv4_payload() {
        let buf = PacketBuilder::ipv4(S, D, 0xfd).payload(&[1, 2, 3, 4]).build();
        let eth = EthernetFrame::new_checked(&buf[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::Other(0xfd));
        assert_eq!(ip.payload(), &[1, 2, 3, 4]);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn custom_ttl() {
        let buf = PacketBuilder::udp(S, D, 1, 2).ttl(3).build();
        let eth = EthernetFrame::new_checked(&buf[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.ttl(), 3);
    }

    #[test]
    fn bytes_variant_identical() {
        let b1 = PacketBuilder::udp(S, D, 5, 6).payload(b"x").build();
        let b2 = PacketBuilder::udp(S, D, 5, 6).payload(b"x").build_bytes();
        assert_eq!(&b1[..], &b2[..]);
    }
}
