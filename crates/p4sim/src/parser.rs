//! Fixed-function parser from frame bytes to PHV fields.
//!
//! Models a P4 parser state machine for the header stack the
//! experiments use: Ethernet → IPv4 → TCP/UDP, with the first eight
//! payload bytes extracted as [`fields::PAYLOAD_VALUE`] (the echo
//! application's value of interest). Unparseable layers simply leave
//! their validity bits at zero, as a P4 parser transition to `accept`
//! would.

use crate::phv::{fields, Phv};
use packet::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

fn mac_to_u64(mac: packet::MacAddr) -> u64 {
    let mut v = 0u64;
    for b in mac.0 {
        v = (v << 8) | u64::from(b);
    }
    v
}

fn payload_value(bytes: &[u8]) -> u64 {
    let mut v = 0u64;
    for (i, b) in bytes.iter().take(8).enumerate() {
        v |= u64::from(*b) << (56 - 8 * i);
    }
    v
}

/// Parses `frame` into a fresh PHV, recording `ingress_port` and
/// `timestamp_ns` metadata.
#[must_use]
pub fn parse_frame(frame: &[u8], ingress_port: u64, timestamp_ns: u64) -> Phv {
    let mut phv = Phv::new();
    phv.set(fields::INGRESS_PORT, ingress_port);
    phv.set(fields::PKT_LEN, frame.len() as u64);
    phv.set(fields::TIMESTAMP_NS, timestamp_ns);

    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return phv;
    };
    phv.set(fields::ETH_DST, mac_to_u64(eth.dst()));
    phv.set(fields::ETH_SRC, mac_to_u64(eth.src()));
    phv.set(fields::ETH_TYPE, u64::from(u16::from(eth.ethertype())));

    if eth.ethertype() != EtherType::Ipv4 {
        // Non-IP payloads still expose their leading bytes as the value
        // of interest (the validation experiment sends raw Ethernet
        // frames carrying integers).
        phv.set(fields::PAYLOAD_VALUE, payload_value(eth.payload()));
        return phv;
    }

    let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
        return phv;
    };
    phv.set(fields::IPV4_VALID, 1);
    phv.set(fields::IPV4_SRC, u64::from(u32::from(ip.src())));
    phv.set(fields::IPV4_DST, u64::from(u32::from(ip.dst())));
    phv.set(fields::IPV4_PROTO, u64::from(u8::from(ip.protocol())));
    phv.set(fields::IPV4_TTL, u64::from(ip.ttl()));
    phv.set(fields::IPV4_LEN, ip.total_len() as u64);

    match ip.protocol() {
        IpProtocol::Tcp => {
            if let Ok(tcp) = TcpSegment::new_checked(ip.payload()) {
                phv.set(fields::TCP_VALID, 1);
                phv.set(fields::TCP_SPORT, u64::from(tcp.src_port()));
                phv.set(fields::TCP_DPORT, u64::from(tcp.dst_port()));
                phv.set(fields::TCP_FLAGS, u64::from(tcp.flags().0));
                let pure_syn = tcp.syn() && !tcp.ack();
                phv.set(fields::TCP_IS_SYN, u64::from(pure_syn));
                phv.set(fields::PAYLOAD_VALUE, payload_value(tcp.payload()));
            }
        }
        IpProtocol::Udp => {
            if let Ok(udp) = UdpDatagram::new_checked(ip.payload()) {
                phv.set(fields::UDP_VALID, 1);
                phv.set(fields::UDP_SPORT, u64::from(udp.src_port()));
                phv.set(fields::UDP_DPORT, u64::from(udp.dst_port()));
                phv.set(fields::PAYLOAD_VALUE, payload_value(udp.payload()));
            }
        }
        _ => {
            phv.set(fields::PAYLOAD_VALUE, payload_value(ip.payload()));
        }
    }
    phv
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::builder::PacketBuilder;
    use proptest::prelude::*;
    use packet::TcpFlags;
    use std::net::Ipv4Addr;

    const S: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const D: Ipv4Addr = Ipv4Addr::new(10, 0, 5, 6);

    #[test]
    fn parses_tcp_syn() {
        let buf = PacketBuilder::tcp_syn(S, D, 44123, 80).build();
        let phv = parse_frame(&buf, 3, 1_000);
        assert_eq!(phv.get(fields::INGRESS_PORT), 3);
        assert_eq!(phv.get(fields::TIMESTAMP_NS), 1_000);
        assert_eq!(phv.get(fields::IPV4_VALID), 1);
        assert_eq!(phv.get(fields::IPV4_SRC), u64::from(u32::from(S)));
        assert_eq!(phv.get(fields::IPV4_DST), u64::from(u32::from(D)));
        assert_eq!(phv.get(fields::TCP_VALID), 1);
        assert_eq!(phv.get(fields::TCP_DPORT), 80);
        assert_eq!(phv.get(fields::TCP_IS_SYN), 1);
        assert_eq!(phv.get(fields::UDP_VALID), 0);
    }

    #[test]
    fn syn_ack_is_not_pure_syn() {
        let buf = PacketBuilder::tcp(S, D, 80, 44123, TcpFlags::syn_ack()).build();
        let phv = parse_frame(&buf, 0, 0);
        assert_eq!(phv.get(fields::TCP_IS_SYN), 0);
        assert_ne!(phv.get(fields::TCP_FLAGS) & u64::from(TcpFlags::SYN), 0);
    }

    #[test]
    fn parses_udp_and_payload_value() {
        let buf = PacketBuilder::udp(S, D, 5000, 53)
            .payload(&42u64.to_be_bytes())
            .build();
        let phv = parse_frame(&buf, 1, 0);
        assert_eq!(phv.get(fields::UDP_VALID), 1);
        assert_eq!(phv.get(fields::UDP_DPORT), 53);
        assert_eq!(phv.get(fields::PAYLOAD_VALUE), 42);
    }

    #[test]
    fn short_payload_left_aligned() {
        let buf = PacketBuilder::udp(S, D, 1, 2).payload(&[0xAB]).build();
        let phv = parse_frame(&buf, 0, 0);
        assert_eq!(phv.get(fields::PAYLOAD_VALUE), 0xAB00_0000_0000_0000);
    }

    #[test]
    fn garbage_frame_yields_metadata_only() {
        let phv = parse_frame(&[1, 2, 3], 7, 9);
        assert_eq!(phv.get(fields::INGRESS_PORT), 7);
        assert_eq!(phv.get(fields::PKT_LEN), 3);
        assert_eq!(phv.get(fields::IPV4_VALID), 0);
        assert_eq!(phv.get(fields::TCP_VALID), 0);
    }

    #[test]
    fn raw_ethernet_payload_value() {
        // The validation experiment: raw Ethernet frame carrying an
        // integer in the body.
        let buf = PacketBuilder::ipv4(S, D, 0xfd)
            .payload(&7u64.to_be_bytes())
            .build();
        let phv = parse_frame(&buf, 0, 0);
        assert_eq!(phv.get(fields::PAYLOAD_VALUE), 7);
    }

    #[test]
    fn truncated_l4_leaves_invalid() {
        // IPv4 claiming TCP but with only 5 payload bytes.
        let buf = PacketBuilder::ipv4(S, D, 6).payload(&[1, 2, 3, 4, 5]).build();
        let phv = parse_frame(&buf, 0, 0);
        assert_eq!(phv.get(fields::IPV4_VALID), 1);
        assert_eq!(phv.get(fields::TCP_VALID), 0);
    }

    proptest! {
        /// Builder → parser round trip: every header field the builder set
        /// comes back out of the PHV.
        #[test]
        fn parser_roundtrips_builder(
            src in any::<u32>(),
            dst in any::<u32>(),
            sport in 1u16..65535,
            dport in 1u16..65535,
            udp in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let s = Ipv4Addr::from(src);
            let d = Ipv4Addr::from(dst);
            let frame = if udp {
                PacketBuilder::udp(s, d, sport, dport).payload(&payload).build()
            } else {
                PacketBuilder::tcp_syn(s, d, sport, dport).payload(&payload).build()
            };
            let phv = parse_frame(&frame, 3, 1234);
            prop_assert_eq!(phv.get(fields::IPV4_VALID), 1);
            prop_assert_eq!(phv.get(fields::IPV4_SRC), u64::from(src));
            prop_assert_eq!(phv.get(fields::IPV4_DST), u64::from(dst));
            prop_assert_eq!(phv.get(fields::PKT_LEN), frame.len() as u64);
            if udp {
                prop_assert_eq!(phv.get(fields::UDP_VALID), 1);
                prop_assert_eq!(phv.get(fields::UDP_SPORT), u64::from(sport));
                prop_assert_eq!(phv.get(fields::UDP_DPORT), u64::from(dport));
            } else {
                prop_assert_eq!(phv.get(fields::TCP_VALID), 1);
                prop_assert_eq!(phv.get(fields::TCP_SPORT), u64::from(sport));
                prop_assert_eq!(phv.get(fields::TCP_DPORT), u64::from(dport));
                prop_assert_eq!(phv.get(fields::TCP_IS_SYN), 1);
            }
        }
    }
}
