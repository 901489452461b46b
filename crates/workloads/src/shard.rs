//! Deterministic per-shard trace splitting for the sharded replay
//! engine.
//!
//! Real multi-pipe switches steer a flow to one pipe; the replay engine
//! mirrors that by hashing each frame's flow 5-tuple (src IP, dst IP,
//! protocol, src port, dst port) to a shard. Splitting is:
//!
//! - **deterministic** — a pure function of the frame bytes, so every
//!   run (and every shard count) partitions a trace identically;
//! - **flow-affine** — all packets of one flow land on one shard, the
//!   property per-flow state (sequence tracking, conservative sketch
//!   updates) relies on;
//! - **order-preserving** — each shard's schedule keeps the original
//!   time order (a stable filter of the time-sorted input).
//!
//! Non-IPv4 frames hash over the raw frame bytes instead, so they are
//! still spread deterministically rather than piling onto shard 0.

use crate::Schedule;
use packet::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The flow key of a frame: an FNV-1a hash of the IPv4 5-tuple
/// (src, dst, protocol, src port, dst port; ports zero for transports
/// without them), or of the whole frame for non-IPv4 traffic.
#[must_use]
pub fn flow_key(frame: &[u8]) -> u64 {
    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return fnv1a(FNV_OFFSET, frame);
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return fnv1a(FNV_OFFSET, frame);
    }
    let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
        return fnv1a(FNV_OFFSET, frame);
    };
    let (sport, dport) = match ip.protocol() {
        IpProtocol::Tcp => TcpSegment::new_checked(ip.payload())
            .map(|t| (t.src_port(), t.dst_port()))
            .unwrap_or((0, 0)),
        IpProtocol::Udp => UdpDatagram::new_checked(ip.payload())
            .map(|u| (u.src_port(), u.dst_port()))
            .unwrap_or((0, 0)),
        _ => (0, 0),
    };
    let mut h = fnv1a(FNV_OFFSET, &ip.src().octets());
    h = fnv1a(h, &ip.dst().octets());
    h = fnv1a(h, &[u8::from(ip.protocol())]);
    h = fnv1a(h, &sport.to_be_bytes());
    h = fnv1a(h, &dport.to_be_bytes());
    h
}

/// The shard (in `0..shards`) a frame belongs to: the widening-multiply
/// range reduction of its flow key — uniform without division or
/// modulo.
///
/// With one shard the frame is not read: `(key × 1) >> 64` is 0 for
/// every 64-bit key, so the answer is known without the hash. This is
/// that arithmetic identity and not a second policy; every caller
/// ([`assignments`], [`split`], both replay executors) stops hashing
/// on one shard through it.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(frame: &[u8], shards: usize) -> usize {
    assert!(shards >= 1, "need at least one shard");
    if shards == 1 {
        return 0;
    }
    let wide = u128::from(flow_key(frame)) * (shards as u128);
    (wide >> 64) as usize
}

/// Splits a time-sorted schedule into `shards` per-shard schedules by
/// flow hash. The union of the outputs is the input; each output keeps
/// the input's time order.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn split(schedule: &Schedule, shards: usize) -> Vec<Schedule> {
    let mut out: Vec<Schedule> = vec![Vec::new(); shards];
    for (t, frame) in schedule {
        out[shard_of(frame, shards)].push((*t, frame.clone()));
    }
    out
}

/// The home shard of every frame in `frames`, in input order: the
/// hash half of [`split`] without the list building.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn assignments(frames: &[(u64, bytes::Bytes)], shards: usize) -> Vec<usize> {
    assert!(shards >= 1, "need at least one shard");
    frames.iter().map(|(_, f)| shard_of(f, shards)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PacketMixWorkload, SynFloodWorkload};

    fn sample_schedule() -> Schedule {
        let (s, _) = SynFloodWorkload {
            background_cps: 500,
            flood_pps: 10_000,
            flood_start: 4_000_000,
            duration: 12_000_000,
            seed: 3,
            ..SynFloodWorkload::default()
        }
        .generate();
        s
    }

    #[test]
    fn split_partitions_without_loss() {
        let s = sample_schedule();
        for shards in [1usize, 2, 4, 8] {
            let parts = split(&s, shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(
                parts.iter().map(Vec::len).sum::<usize>(),
                s.len(),
                "{shards} shards must partition every packet"
            );
            let mut rebuilt: Schedule = parts.concat();
            rebuilt.sort_by_key(|(t, _)| *t);
            let mut original = s.clone();
            original.sort_by_key(|(t, _)| *t);
            assert_eq!(rebuilt.len(), original.len());
        }
    }

    #[test]
    fn per_shard_time_order_preserved() {
        let s = sample_schedule();
        for part in split(&s, 4) {
            assert!(
                part.windows(2).all(|w| w[0].0 <= w[1].0),
                "shard schedules stay time-sorted"
            );
        }
    }

    #[test]
    fn same_flow_same_shard() {
        let s = sample_schedule();
        // The shard is the widening-multiply reduction of the key; at
        // one shard, where the key is never computed, that is 0.
        for shards in [1usize, 2, 4, 8] {
            for (_, frame) in &s {
                let k = flow_key(frame);
                let expect = ((u128::from(k) * shards as u128) >> 64) as usize;
                assert_eq!(shard_of(frame, shards), expect);
            }
        }
    }

    #[test]
    fn splitting_is_deterministic() {
        let s = sample_schedule();
        let a = split(&s, 8);
        let b = split(&s, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for ((t1, f1), (t2, f2)) in x.iter().zip(y) {
                assert_eq!(t1, t2);
                assert_eq!(f1, f2);
            }
        }
    }

    #[test]
    fn one_shard_is_identity() {
        let s = sample_schedule();
        let parts = split(&s, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], s);
    }

    #[test]
    fn shards_reasonably_balanced_on_mix() {
        // The mix workload spreads source ports; 8-way split should not
        // starve any shard entirely on a 20k-packet trace.
        let (s, _) = PacketMixWorkload {
            packets: 20_000,
            ..PacketMixWorkload::default()
        }
        .generate();
        let parts = split(&s, 8);
        for (i, p) in parts.iter().enumerate() {
            assert!(
                p.len() > s.len() / 64,
                "shard {i} got {} of {} packets",
                p.len(),
                s.len()
            );
        }
    }

    #[test]
    fn assignments_agree_with_split() {
        let s = sample_schedule();
        for shards in [1usize, 2, 3, 4, 8] {
            let assigned = assignments(&s, shards);
            assert_eq!(assigned.len(), s.len());
            for ((_, frame), home) in s.iter().zip(&assigned) {
                assert!(*home < shards);
                assert_eq!(*home, shard_of(frame, shards));
            }
        }
    }

    /// Which shard a frame lands on is pinned by checkpoints already
    /// on disk and by the replay goldens: the constants below were
    /// recorded before the up-front hash pass was deleted and must not
    /// move with any change to how often the hash runs.
    #[test]
    fn flow_hash_is_pinned() {
        use packet::builder::PacketBuilder;
        use std::net::Ipv4Addr;
        let (src, dst) = (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(10, 9, 8, 7));
        let tcp = PacketBuilder::tcp_syn(src, dst, 4321, 80).build();
        let udp = PacketBuilder::udp(src, dst, 4321, 53).build();
        let icmp = PacketBuilder::ipv4(src, dst, 1).payload(&[8, 0, 0, 0]).build();
        let mut arp = tcp.clone();
        arp[12..14].copy_from_slice(&[0x08, 0x06]);
        assert_eq!(
            [flow_key(&tcp), flow_key(&udp), flow_key(&icmp), flow_key(&arp)],
            [
                0xa4d8_4af5_91c4_d118,
                0x1497_1f7f_1dcf_d46e,
                0x80e2_e653_b795_0a52,
                0x904c_58aa_fb8e_aac9,
            ],
            "TCP, UDP, ICMP (ports zero), non-IPv4 (whole frame)"
        );
        let s = sample_schedule();
        let first: Vec<usize> = s[..32].iter().map(|(_, f)| shard_of(f, 4)).collect();
        assert_eq!(
            first,
            [
                3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0,
                3, 0, 2, 2, 2
            ]
        );
    }

    #[test]
    fn non_ip_frames_still_split_deterministically() {
        let junk = bytes::Bytes::copy_from_slice(&[0u8; 10]);
        let k1 = flow_key(&junk);
        let k2 = flow_key(&junk);
        assert_eq!(k1, k2);
        let _ = shard_of(&junk, 4);
    }
}
