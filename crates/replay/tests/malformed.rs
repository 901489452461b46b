//! Malformed-input corpus for the replay ingest path.
//!
//! The packet crate's `tests/malformed.rs` proves the parsers
//! themselves never panic; this suite extends that corpus one layer
//! up, where the replay engine consumes frames: [`ShardState::ingest`]
//! (classification, length moments, sketch update, percentile
//! observe), [`kind_of`], and the flow-hash partitioner
//! ([`workloads::shard::shard_of`]) must digest whatever arrives —
//! noise, truncations, bit flips — without panicking, and truncated
//! junk must land in `KIND_OTHER`, not crash classification.

use packet::builder::PacketBuilder;
use proptest::prelude::*;
use replay::{kind_of, ReplayConfig, ShardState, KIND_OTHER};
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 8, 7);

/// A well-formed frame to mutate, mirroring the packet-crate corpus.
fn valid_frame(udp: bool, payload: &[u8]) -> Vec<u8> {
    if udp {
        PacketBuilder::udp(SRC, DST, 4321, 53).payload(payload).build()
    } else {
        PacketBuilder::tcp_syn(SRC, DST, 4321, 80).payload(payload).build()
    }
}

/// Feeds one frame through everything the engine does per packet.
fn exercise(frame: &[u8], state: &mut ShardState) {
    let _ = kind_of(frame);
    let _ = workloads::shard::flow_key(frame);
    assert_eq!(workloads::shard::shard_of(frame, 1), 0, "one shard: nothing to decide");
    let _ = workloads::shard::shard_of(frame, 4);
    state.ingest(frame);
}

proptest! {
    /// Pure noise of any length ingests cleanly and counts exactly
    /// once.
    #[test]
    fn random_bytes_never_panic_ingest(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..20),
    ) {
        let cfg = ReplayConfig::default();
        let mut state = ShardState::new(&cfg);
        for f in &frames {
            exercise(f, &mut state);
        }
        prop_assert_eq!(state.packets, frames.len() as u64);
        prop_assert_eq!(state.len_stats.n(), frames.len() as u64);
    }

    /// Random truncation of a well-formed frame never panics the
    /// ingest path; cutting into or before the ethernet header must
    /// classify as KIND_OTHER.
    #[test]
    fn truncated_frames_ingest_cleanly(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<u16>(),
    ) {
        let frame = valid_frame(udp, &payload);
        let cut = usize::from(cut) % (frame.len() + 1);
        let truncated = &frame[..cut];
        let cfg = ReplayConfig::default();
        let mut state = ShardState::new(&cfg);
        exercise(truncated, &mut state);
        prop_assert_eq!(state.packets, 1);
        if cut < 14 {
            prop_assert_eq!(kind_of(truncated), KIND_OTHER);
        }
    }

    /// Single-bit corruption anywhere in a well-formed frame never
    /// panics ingest (classification may change; that's fine).
    #[test]
    fn bit_flips_ingest_cleanly(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        pos in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut frame = valid_frame(udp, &payload);
        let pos = usize::from(pos) % frame.len();
        frame[pos] ^= 1 << bit;
        let cfg = ReplayConfig::default();
        let mut state = ShardState::new(&cfg);
        exercise(&frame, &mut state);
        prop_assert_eq!(state.packets, 1);
    }

    /// A lying IPv4 total-length field never panics ingest or
    /// classification.
    #[test]
    fn bogus_ipv4_total_length_ingests_cleanly(
        udp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        total in any::<u16>(),
    ) {
        let mut frame = valid_frame(udp, &payload);
        let [hi, lo] = total.to_be_bytes();
        frame[16] = hi;
        frame[17] = lo;
        let cfg = ReplayConfig::default();
        let mut state = ShardState::new(&cfg);
        exercise(&frame, &mut state);
        prop_assert_eq!(state.packets, 1);
    }

    /// Oversized frames clamp into the length-percentile domain
    /// instead of panicking the tracker (`MAX_LEN` clamp).
    #[test]
    fn oversized_frames_clamp_into_length_domain(
        len in 0usize..5000,
    ) {
        let frame = vec![0xAAu8; len];
        let cfg = ReplayConfig::default();
        let mut state = ShardState::new(&cfg);
        state.ingest(&frame);
        prop_assert_eq!(state.packets, 1);
        // One sample, so xsum is the clamped length itself.
        prop_assert!(state.len_stats.xsum() <= replay::MAX_LEN);
    }
}
