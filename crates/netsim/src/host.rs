//! Traffic sources and sinks.

use crate::node::{Node, NodeCtx};
use crate::SimTime;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Produces the next frame to transmit, pull-based: the source node
/// asks for one frame at a time and schedules itself for the returned
/// timestamp — the classic DES traffic-source pattern, so a workload of
/// millions of packets never materialises in memory at once.
pub trait TrafficGen: Send {
    /// The next `(absolute_time, frame)`, or `None` when the workload
    /// is exhausted. Times must be non-decreasing.
    fn next_frame(&mut self) -> Option<(SimTime, Bytes)>;
}

/// A [`TrafficGen`] over a pre-built list of frames.
#[derive(Debug)]
pub struct TraceGen {
    frames: std::vec::IntoIter<(SimTime, Bytes)>,
}

impl TraceGen {
    /// Wraps a schedule of `(time, frame)` pairs (must be sorted by
    /// time).
    #[must_use]
    pub fn new(frames: Vec<(SimTime, Bytes)>) -> Self {
        debug_assert!(frames.windows(2).all(|w| w[0].0 <= w[1].0));
        Self {
            frames: frames.into_iter(),
        }
    }
}

impl TrafficGen for TraceGen {
    fn next_frame(&mut self) -> Option<(SimTime, Bytes)> {
        self.frames.next()
    }
}

/// A host that transmits whatever its generator produces, out of port 0.
pub struct TrafficSource {
    gen: Box<dyn TrafficGen>,
    /// The frame waiting for its transmit time.
    pending: Option<(SimTime, Bytes)>,
    /// Frames sent so far.
    pub sent: u64,
    /// Frames received back (e.g. echo replies); counted, not parsed.
    pub received: u64,
}

const TOKEN_NEXT: u64 = 1;

impl TrafficSource {
    /// Wraps a generator.
    #[must_use]
    pub fn new(gen: Box<dyn TrafficGen>) -> Self {
        Self {
            gen,
            pending: None,
            sent: 0,
            received: 0,
        }
    }

    fn arm(&mut self, ctx: &mut NodeCtx) {
        if let Some((at, frame)) = self.gen.next_frame() {
            let delay = at.saturating_sub(ctx.now);
            self.pending = Some((at, frame));
            ctx.set_timer(delay, TOKEN_NEXT);
        }
    }
}

impl Node for TrafficSource {
    fn on_frame(&mut self, _ctx: &mut NodeCtx, _port: usize, _frame: Bytes) {
        self.received += 1;
    }

    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx, token: u64) {
        if token == TOKEN_NEXT {
            if let Some((_, frame)) = self.pending.take() {
                ctx.send_frame(0, frame);
                self.sent += 1;
            }
            self.arm(ctx);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A host that counts received frames (shared counter so tests can
/// observe it without downcasting) and keeps the last few frames.
pub struct SinkHost {
    counter: Arc<AtomicU64>,
    /// Arrival timestamps.
    pub arrivals: Vec<SimTime>,
    /// The most recent frames (bounded to 64).
    pub recent: Vec<Bytes>,
}

impl SinkHost {
    /// A sink updating `counter` on every frame.
    #[must_use]
    pub fn new(counter: Arc<AtomicU64>) -> Self {
        Self {
            counter,
            arrivals: Vec::new(),
            recent: Vec::new(),
        }
    }
}

impl Node for SinkHost {
    fn on_frame(&mut self, ctx: &mut NodeCtx, _port: usize, frame: Bytes) {
        self.counter.fetch_add(1, Ordering::SeqCst);
        self.arrivals.push(ctx.now);
        if self.recent.len() == 64 {
            self.recent.remove(0);
        }
        self.recent.push(frame);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;

    #[test]
    fn trace_source_paces_frames() {
        let frames = vec![
            (100, Bytes::copy_from_slice(b"a")),
            (250, Bytes::copy_from_slice(b"b")),
            (250, Bytes::copy_from_slice(b"c")),
            (900, Bytes::copy_from_slice(b"d")),
        ];
        let mut sim = Simulation::new();
        let src = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
            frames,
        )))));
        let counter = Arc::new(AtomicU64::new(0));
        let dst = sim.add_node(Box::new(SinkHost::new(counter.clone())));
        sim.connect(src, 0, dst, 0, 10);
        sim.run();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        let sink = sim.node_as::<SinkHost>(dst).unwrap();
        assert_eq!(sink.arrivals, vec![110, 260, 260, 910]);
        let source = sim.node_as::<TrafficSource>(src).unwrap();
        assert_eq!(source.sent, 4);
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut sim = Simulation::new();
        let src = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
            vec![],
        )))));
        sim.run();
        assert_eq!(sim.node_as::<TrafficSource>(src).unwrap().sent, 0);
    }
}
