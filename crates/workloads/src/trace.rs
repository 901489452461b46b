//! The one way a generator builds its [`Schedule`].
//!
//! A generator pushes `(time, frame)` pairs in the order it draws them;
//! each frame is assembled straight onto the end of one arena, so a
//! frame costs its bytes and no allocation of its own. [`Trace::finish`]
//! freezes the arena as one shared buffer, without copying it, and
//! hands every entry a slice of it, in time order with ties in
//! generation order: the order a stable sort by time gives. Nothing
//! records where a frame ends: every frame is Ethernet + IPv4, so
//! `finish` reads each one's length off its own header.

use crate::Schedule;
use bytes::Bytes;
use packet::builder::PacketBuilder;

/// A schedule being generated.
#[derive(Default)]
pub(crate) struct Trace {
    /// Every frame pushed so far, back to back.
    arena: Vec<u8>,
    /// The entries in generation order; each frame is an empty
    /// placeholder until `finish` knows the arena's final buffer.
    entries: Schedule,
}

impl Trace {
    /// Appends `frame`, sent at `t`.
    pub(crate) fn push(&mut self, t: u64, frame: &PacketBuilder) {
        frame.build_into(&mut self.arena);
        self.entries.push((t, Bytes::new()));
    }

    /// The schedule: every frame a slice of the one arena, sorted by
    /// time, ties in the order they were pushed.
    ///
    /// # Panics
    ///
    /// Panics if the trace's frames reach 4 GiB.
    pub(crate) fn finish(self) -> Schedule {
        let Trace { arena, mut entries } = self;
        let arena = Bytes::from(arena);
        let mut start = 0;
        for (_, frame) in &mut entries {
            let len = packet::frame_len(&arena[start..]).expect("a built frame delimits itself");
            *frame = arena.slice(start..start + len);
            start += len;
        }
        // Stable, so frames sent at the same time keep their push order;
        // it merges the sorted runs a background-plus-attack generator
        // pushes in O(n), where an unstable sort takes O(n log n).
        entries.sort_by_key(|(t, _)| *t);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn udp(port: u16) -> PacketBuilder<'static> {
        PacketBuilder::udp(Ipv4Addr::LOCALHOST, Ipv4Addr::BROADCAST, port, 9)
    }

    #[test]
    fn sorts_by_time_and_keeps_ties_in_push_order() {
        let mut trace = Trace::default();
        for (t, port) in [(5, 1), (1, 2), (5, 3), (3, 4), (1, 5), (5, 6)] {
            trace.push(t, &udp(port));
        }
        let schedule = trace.finish();
        let got: Vec<(u64, Vec<u8>)> = schedule.iter().map(|(t, f)| (*t, f.to_vec())).collect();
        let want: Vec<(u64, Vec<u8>)> = [(1, 2), (1, 5), (3, 4), (5, 1), (5, 3), (5, 6)]
            .into_iter()
            .map(|(t, port)| (t, udp(port).build()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn frames_share_one_buffer_in_push_order() {
        let mut trace = Trace::default();
        trace.push(2, &udp(1));
        trace.push(1, &udp(2).payload(b"longer"));
        let schedule = trace.finish();
        let (second, first) = (&schedule[0].1, &schedule[1].1);
        assert_eq!(first.as_ptr().wrapping_add(first.len()), second.as_ptr());
    }

    #[test]
    fn every_builder_shape_delimits_itself_back_to_back() {
        let (s, d) = (Ipv4Addr::LOCALHOST, Ipv4Addr::BROADCAST);
        let shapes = [
            PacketBuilder::ipv4(s, d, 0xfd).payload(&[1, 2, 3, 4, 5]),
            PacketBuilder::ipv4(s, d, 0xfd),
            udp(7).payload(b"query"),
            PacketBuilder::tcp_syn(s, d, 44123, 80),
            PacketBuilder::tcp(s, d, 44123, 80, packet::TcpFlags::ack()).payload(b"GET /"),
            udp(8),
        ];
        let mut trace = Trace::default();
        for shape in &shapes {
            trace.push(0, shape);
        }
        let schedule = trace.finish();
        assert_eq!(schedule.len(), shapes.len());
        for ((_, frame), shape) in schedule.iter().zip(&shapes) {
            assert_eq!(frame[..], shape.build()[..]);
        }
    }

    #[test]
    fn an_empty_trace_is_an_empty_schedule() {
        assert!(Trace::default().finish().is_empty());
    }
}
