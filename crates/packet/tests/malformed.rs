//! Malformed-input corpus for the packet parsers.
//!
//! Switch data planes see whatever arrives on the wire, so the
//! zero-copy views must reject — never panic on — truncated frames,
//! lying length fields, and bit-flipped headers. Each property drives
//! the full ethernet → ipv4 → tcp/udp parse chain and, whenever a
//! layer parses, exercises every accessor (the slicing all happens
//! there, guarded by `new_checked`'s validation).

use packet::builder::PacketBuilder;
use packet::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 8, 7);

/// Parses `bytes` through every layer and touches every accessor of
/// each layer that parses. Returns how many layers parsed, so callers
/// can assert on well-formed inputs too.
fn exercise(bytes: &[u8]) -> usize {
    let Ok(eth) = EthernetFrame::new_checked(bytes) else {
        return 0;
    };
    let _ = (eth.src(), eth.dst());
    if eth.ethertype() != EtherType::Ipv4 {
        return 1;
    }
    let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
        return 1;
    };
    let _ = (
        ip.src(),
        ip.dst(),
        ip.ttl(),
        ip.header_checksum(),
        ip.verify_checksum(),
        ip.total_len(),
    );
    let payload = ip.payload();
    match ip.protocol() {
        IpProtocol::Tcp => {
            let Ok(tcp) = TcpSegment::new_checked(payload) else {
                return 2;
            };
            let _ = (
                tcp.src_port(),
                tcp.dst_port(),
                tcp.seq(),
                tcp.flags(),
                tcp.syn(),
                tcp.ack(),
                tcp.payload(),
                tcp.verify_checksum(ip.src(), ip.dst()),
            );
            3
        }
        IpProtocol::Udp => {
            let Ok(udp) = UdpDatagram::new_checked(payload) else {
                return 2;
            };
            let _ = (
                udp.src_port(),
                udp.dst_port(),
                udp.payload(),
                udp.verify_checksum(ip.src(), ip.dst()),
            );
            3
        }
        _ => 2,
    }
}

/// A well-formed frame to mutate: either TCP (arbitrary flags via the
/// SYN builder) or UDP, with a payload.
fn valid_frame(udp: bool, payload: &[u8]) -> Vec<u8> {
    if udp {
        PacketBuilder::udp(SRC, DST, 4321, 53).payload(payload).build()
    } else {
        PacketBuilder::tcp_syn(SRC, DST, 4321, 80).payload(payload).build()
    }
}

proptest! {
    /// Pure noise: arbitrary bytes of arbitrary length never panic
    /// anywhere in the chain.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        exercise(&bytes);
    }

    /// Random truncation of a well-formed frame either still parses or
    /// fails cleanly — and can never parse *more* layers than the
    /// intact original.
    #[test]
    fn truncated_frames_fail_cleanly(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<u16>(),
    ) {
        let frame = valid_frame(udp, &payload);
        let full = exercise(&frame);
        prop_assert_eq!(full, 3, "intact frame parses all layers");
        let cut = usize::from(cut) % (frame.len() + 1);
        let depth = exercise(&frame[..cut]);
        prop_assert!(depth <= full);
    }

    /// A bogus IHL nibble (too small, or pointing past the buffer)
    /// never panics; IHL < 5 must be rejected outright.
    #[test]
    fn bad_ihl_never_panics(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        ihl in 0u8..16,
    ) {
        let mut frame = valid_frame(udp, &payload);
        // Byte 14 is the IPv4 version/IHL byte behind the 14-byte
        // ethernet header.
        frame[14] = 0x40 | ihl;
        exercise(&frame);
        if ihl < 5 {
            let eth = EthernetFrame::new_checked(frame.as_slice()).unwrap();
            prop_assert!(Ipv4Packet::new_checked(eth.payload()).is_err());
        }
    }

    /// A lying IPv4 total-length field (any 16-bit value) never panics,
    /// and values beyond the actual buffer are rejected.
    #[test]
    fn bogus_ipv4_total_length_never_panics(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        total in any::<u16>(),
    ) {
        let mut frame = valid_frame(udp, &payload);
        let [hi, lo] = total.to_be_bytes();
        frame[16] = hi;
        frame[17] = lo;
        exercise(&frame);
        let eth = EthernetFrame::new_checked(frame.as_slice()).unwrap();
        if usize::from(total) > eth.payload().len() {
            prop_assert!(Ipv4Packet::new_checked(eth.payload()).is_err());
        }
    }

    /// A lying UDP length field never panics and is either rejected or
    /// yields an in-bounds payload slice.
    #[test]
    fn bogus_udp_length_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        len in any::<u16>(),
    ) {
        let mut frame = valid_frame(true, &payload);
        // 14 ethernet + 20 ipv4 puts the UDP length field at 38..40.
        let [hi, lo] = len.to_be_bytes();
        frame[38] = hi;
        frame[39] = lo;
        exercise(&frame);
    }

    /// A data offset mutated to any nibble never panics the TCP layer.
    #[test]
    fn bogus_tcp_data_offset_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        offset in 0u8..16,
    ) {
        let mut frame = valid_frame(false, &payload);
        // 14 ethernet + 20 ipv4 + 12 puts the TCP data-offset byte at 46.
        frame[46] = offset << 4;
        exercise(&frame);
    }

    /// Single-bit corruption anywhere in a well-formed frame never
    /// panics (parse may succeed or fail; both are fine).
    #[test]
    fn bit_flips_never_panic(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        pos in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut frame = valid_frame(udp, &payload);
        let pos = usize::from(pos) % frame.len();
        frame[pos] ^= 1 << bit;
        exercise(&frame);
    }
}
