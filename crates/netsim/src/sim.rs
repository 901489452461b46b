//! The event queue and simulation driver.

use crate::control::ControlMsg;
use crate::node::{Emission, Node, NodeCtx, NodeId};
use crate::SimTime;
use bytes::Bytes;
use faultinject::FaultSchedule;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// What the installed fault schedule actually did to this simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Control messages dropped in flight.
    pub control_dropped: u64,
    /// Control messages delivered twice.
    pub control_duplicated: u64,
    /// Control messages that picked up extra (possibly reordering)
    /// jitter beyond the configured channel delay.
    pub control_jittered: u64,
    /// Data-plane frames lost to link-flap windows.
    pub frames_flapped: u64,
}

impl FaultStats {
    /// Total faults injected.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.control_dropped + self.control_duplicated + self.control_jittered + self.frames_flapped
    }
}

/// A queued event.
#[derive(Debug)]
enum EventKind {
    Frame {
        node: NodeId,
        port: usize,
        frame: Bytes,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Control {
        node: NodeId,
        from: NodeId,
        msg: ControlMsg,
    },
}

/// One direction of a link.
#[derive(Debug, Clone, Copy)]
struct LinkDir {
    peer: NodeId,
    peer_port: usize,
    /// Propagation delay.
    delay: SimTime,
    /// Serialisation time per byte (0 = infinite bandwidth).
    ns_per_byte: u64,
}

/// The simulation: nodes, links, control channels and the event queue.
pub struct Simulation {
    nodes: Vec<Box<dyn Node>>,
    /// `(node, port) -> outgoing link`.
    links: HashMap<(NodeId, usize), LinkDir>,
    /// FIFO transmit occupancy per directed link (queueing model).
    busy_until: HashMap<(NodeId, usize), SimTime>,
    /// `(a, b) -> delay` for control messages (directional; `connect_control`
    /// installs both directions).
    control_delays: HashMap<(NodeId, NodeId), SimTime>,
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    payloads: HashMap<u64, EventKind>,
    seq: u64,
    now: SimTime,
    /// Frames delivered, for stats.
    pub frames_delivered: u64,
    /// Events processed, for stats.
    pub events_processed: u64,
    /// Injected faults (empty by default). Decisions are keyed on a
    /// per-send control-message ordinal, which the single-threaded
    /// event loop assigns deterministically.
    faults: FaultSchedule,
    /// Ordinal of the next control-message send.
    ctrl_seq: u64,
    /// What the schedule actually did.
    pub fault_stats: FaultStats,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// An empty simulation at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            links: HashMap::new(),
            busy_until: HashMap::new(),
            control_delays: HashMap::new(),
            queue: BinaryHeap::new(),
            payloads: HashMap::new(),
            seq: 0,
            now: 0,
            frames_delivered: 0,
            events_processed: 0,
            faults: FaultSchedule::none(),
            ctrl_seq: 0,
            fault_stats: FaultStats::default(),
        }
    }

    /// Installs a fault schedule. Subsequent control-message sends and
    /// frame transmissions consult it; an empty schedule (the default)
    /// perturbs nothing.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = schedule;
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Connects `(a, pa)` and `(b, pb)` with a symmetric link of the
    /// given one-way `delay`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is already connected.
    pub fn connect(&mut self, a: NodeId, pa: usize, b: NodeId, pb: usize, delay: SimTime) {
        self.connect_with_bandwidth(a, pa, b, pb, delay, 0);
    }

    /// Like [`Self::connect`] but with finite bandwidth: frames occupy
    /// the transmitter for `len × ns_per_byte` and queue FIFO behind
    /// each other (`ns_per_byte` 0 = infinite bandwidth). 1 Gb/s ≈ 8
    /// ns/byte.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is already connected.
    pub(crate) fn connect_with_bandwidth(
        &mut self,
        a: NodeId,
        pa: usize,
        b: NodeId,
        pb: usize,
        delay: SimTime,
        ns_per_byte: u64,
    ) {
        let prev = self.links.insert(
            (a, pa),
            LinkDir {
                peer: b,
                peer_port: pb,
                delay,
                ns_per_byte,
            },
        );
        assert!(prev.is_none(), "port ({a}, {pa}) already connected");
        let prev = self.links.insert(
            (b, pb),
            LinkDir {
                peer: a,
                peer_port: pa,
                delay,
                ns_per_byte,
            },
        );
        assert!(prev.is_none(), "port ({b}, {pb}) already connected");
    }

    /// Configures the control channel between two nodes (both
    /// directions) with a one-way `delay`.
    pub fn connect_control(&mut self, a: NodeId, b: NodeId, delay: SimTime) {
        self.control_delays.insert((a, b), delay);
        self.control_delays.insert((b, a), delay);
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Downcasts a node to its concrete type for inspection.
    #[must_use]
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes.get(id).and_then(|n| n.as_any().downcast_ref())
    }

    /// Mutable downcast.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(id)
            .and_then(|n| n.as_any_mut().downcast_mut())
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let id = self.seq;
        self.seq += 1;
        self.queue.push(Reverse((at, id)));
        self.payloads.insert(id, kind);
    }

    /// Schedules a control message delivery.
    pub fn inject_control(&mut self, at: SimTime, node: NodeId, from: NodeId, msg: ControlMsg) {
        self.push(at, EventKind::Control { node, from, msg });
    }

    fn resolve(&mut self, source: NodeId, emissions: Vec<Emission>) {
        for e in emissions {
            match e {
                Emission::SendFrame { port, frame } => {
                    if self.faults.link_down_at(self.now) {
                        // Link flap: the frame leaves the NIC and dies
                        // on the wire. Transmit occupancy is not
                        // charged — the sender cannot tell.
                        self.fault_stats.frames_flapped += 1;
                        continue;
                    }
                    if let Some(&link) = self.links.get(&(source, port)) {
                        // FIFO serialisation: the frame starts
                        // transmitting when the link is free.
                        let tx_time = link.ns_per_byte * frame.len() as u64;
                        let start = if link.ns_per_byte == 0 {
                            self.now
                        } else {
                            let busy = self
                                .busy_until
                                .entry((source, port))
                                .or_insert(self.now);
                            let start = (*busy).max(self.now);
                            *busy = start + tx_time;
                            start
                        };
                        self.push(
                            start + tx_time + link.delay,
                            EventKind::Frame {
                                node: link.peer,
                                port: link.peer_port,
                                frame,
                            },
                        );
                    }
                    // Unconnected ports silently drop, like a real NIC
                    // with no cable.
                }
                Emission::SetTimer { delay, token } => {
                    self.push(self.now + delay, EventKind::Timer { node: source, token });
                }
                Emission::SendControl {
                    dst,
                    msg,
                    extra_delay,
                } => {
                    let ord = self.ctrl_seq;
                    self.ctrl_seq += 1;
                    if self.faults.drop_control(ord) {
                        self.fault_stats.control_dropped += 1;
                        continue;
                    }
                    let delay = self
                        .control_delays
                        .get(&(source, dst))
                        .copied()
                        .unwrap_or(0);
                    // Saturating: a jitter bound near `u64::MAX` is a
                    // valid spec and delivers at the end of time.
                    let due = self.now.saturating_add(delay).saturating_add(extra_delay);
                    let jitter = self.faults.control_extra_delay_ns(ord);
                    if jitter > 0 {
                        self.fault_stats.control_jittered += 1;
                    }
                    if self.faults.duplicate_control(ord) {
                        // The duplicate takes its own jitter draw, so
                        // the two copies can arrive in either order.
                        self.fault_stats.control_duplicated += 1;
                        let dup_jitter = self.faults.control_extra_delay_ns(u64::MAX - ord);
                        self.push(
                            due.saturating_add(dup_jitter),
                            EventKind::Control {
                                node: dst,
                                from: source,
                                msg: msg.clone(),
                            },
                        );
                    }
                    self.push(
                        due.saturating_add(jitter),
                        EventKind::Control {
                            node: dst,
                            from: source,
                            msg,
                        },
                    );
                }
            }
        }
    }

    /// Calls every node's `on_start` (idempotence is the node's
    /// responsibility); then runs until the queue empties or `until` is
    /// passed. Returns the number of events processed in this call.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        if self.events_processed == 0 && self.now == 0 {
            for id in 0..self.nodes.len() {
                let mut ctx = NodeCtx::new(self.now, id);
                self.nodes[id].on_start(&mut ctx);
                let emissions = std::mem::take(&mut ctx.emissions);
                self.resolve(id, emissions);
            }
        }
        let mut n = 0;
        while let Some(&Reverse((at, id))) = self.queue.peek() {
            if at > until {
                break;
            }
            self.queue.pop();
            let kind = self.payloads.remove(&id).expect("payload exists");
            self.now = at;
            self.events_processed += 1;
            n += 1;
            let node = match &kind {
                EventKind::Frame { node, .. }
                | EventKind::Timer { node, .. }
                | EventKind::Control { node, .. } => *node,
            };
            let mut ctx = NodeCtx::new(self.now, node);
            match kind {
                EventKind::Frame { port, frame, .. } => {
                    self.frames_delivered += 1;
                    self.nodes[node].on_frame(&mut ctx, port, frame);
                }
                EventKind::Timer { token, .. } => {
                    self.nodes[node].on_timer(&mut ctx, token);
                }
                EventKind::Control { from, msg, .. } => {
                    self.nodes[node].on_control(&mut ctx, from, msg);
                }
            }
            let emissions = std::mem::take(&mut ctx.emissions);
            self.resolve(node, emissions);
        }
        n
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }
}

// Test-only event injection.
#[cfg(test)]
impl Simulation {
    /// Schedules a frame arrival directly.
    pub(crate) fn inject_frame(&mut self, at: SimTime, node: NodeId, port: usize, frame: Bytes) {
        self.push(at, EventKind::Frame { node, port, frame });
    }

    /// Schedules a timer for a node.
    pub(crate) fn inject_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.push(at, EventKind::Timer { node, token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A node that bounces every frame back out the same port after
    /// recording it, and counts timer fires.
    struct Bouncer {
        frames: Arc<AtomicU64>,
        timers: Arc<AtomicU64>,
        arrival_times: Arc<parking_lot::Mutex<Vec<SimTime>>>,
    }

    impl Node for Bouncer {
        fn on_frame(&mut self, ctx: &mut NodeCtx, port: usize, frame: Bytes) {
            self.frames.fetch_add(1, Ordering::SeqCst);
            self.arrival_times.lock().push(ctx.now);
            if self.frames.load(Ordering::SeqCst) < 4 {
                ctx.send_frame(port, frame);
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx, _token: u64) {
            self.timers.fetch_add(1, Ordering::SeqCst);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn bouncer() -> (Box<Bouncer>, Arc<AtomicU64>, Arc<parking_lot::Mutex<Vec<SimTime>>>) {
        let frames = Arc::new(AtomicU64::new(0));
        let timers = Arc::new(AtomicU64::new(0));
        let times = Arc::new(parking_lot::Mutex::new(Vec::new()));
        (
            Box::new(Bouncer {
                frames: frames.clone(),
                timers: timers.clone(),
                arrival_times: times.clone(),
            }),
            frames,
            times,
        )
    }

    #[test]
    fn frames_ping_pong_with_link_delay() {
        let mut sim = Simulation::new();
        let (a, fa, ta) = bouncer();
        let (b, _fb, tb) = bouncer();
        let a = sim.add_node(a);
        let b_id = sim.add_node(b);
        sim.connect(a, 0, b_id, 0, 100);
        sim.inject_frame(0, a, 0, Bytes::copy_from_slice(b"ping"));
        sim.run();
        // a bounces its first three arrivals and stops at four; b sees
        // three arrivals and bounces them all.
        assert_eq!(ta.lock().as_slice(), &[0, 200, 400, 600]);
        assert_eq!(tb.lock().as_slice(), &[100, 300, 500]);
        assert_eq!(fa.load(Ordering::SeqCst), 4);
        assert_eq!(sim.now(), 600);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Arc<parking_lot::Mutex<Vec<u64>>>,
        }
        impl Node for TimerNode {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx, token: u64) {
                self.fired.lock().push(token);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let fired = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let n = sim.add_node(Box::new(TimerNode { fired: fired.clone() }));
        sim.inject_timer(300, n, 3);
        sim.inject_timer(100, n, 1);
        sim.inject_timer(200, n, 2);
        sim.run();
        assert_eq!(fired.lock().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn same_time_events_fifo_by_insertion() {
        struct T {
            fired: Arc<parking_lot::Mutex<Vec<u64>>>,
        }
        impl Node for T {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx, token: u64) {
                self.fired.lock().push(token);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let fired = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let n = sim.add_node(Box::new(T { fired: fired.clone() }));
        for t in 0..5 {
            sim.inject_timer(50, n, t);
        }
        sim.run();
        assert_eq!(fired.lock().as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let (a, fa, _) = bouncer();
        let mut sim = Simulation::new();
        let a = sim.add_node(a);
        let (b, _, _) = bouncer();
        let b = sim.add_node(b);
        sim.connect(a, 0, b, 0, 1000);
        sim.inject_frame(0, a, 0, Bytes::copy_from_slice(b"x"));
        sim.run_until(500);
        assert_eq!(fa.load(Ordering::SeqCst), 1, "only the first arrival");
        sim.run();
        assert!(fa.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn control_channel_delay_applies() {
        struct Sender {
            dst: NodeId,
        }
        impl Node for Sender {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.send_control(self.dst, ControlMsg::Tick);
                ctx.send_control_delayed(self.dst, ControlMsg::Tick, 5_000);
                // Past the end of time: saturates, does not wrap to 989.
                ctx.send_control_delayed(self.dst, ControlMsg::Tick, u64::MAX - 10);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        struct Receiver {
            at: Arc<parking_lot::Mutex<Vec<SimTime>>>,
        }
        impl Node for Receiver {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_control(&mut self, ctx: &mut NodeCtx, _from: NodeId, _msg: ControlMsg) {
                self.at.lock().push(ctx.now);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let at = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let r = sim.add_node(Box::new(Receiver { at: at.clone() }));
        let s = sim.add_node(Box::new(Sender { dst: r }));
        sim.connect_control(s, r, 1_000);
        sim.run();
        assert_eq!(at.lock().as_slice(), &[1_000, 6_000, u64::MAX]);
    }

    #[test]
    fn bandwidth_serialises_and_queues() {
        let counter = Arc::new(AtomicU64::new(0));
        struct Burst;
        impl Node for Burst {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                // Three 100-byte frames back to back.
                for _ in 0..3 {
                    ctx.send_frame(0, Bytes::from(vec![0u8; 100]));
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Simulation::new();
        let src = sim.add_node(Box::new(Burst));
        let dst = sim.add_node(Box::new(crate::host::SinkHost::new(counter.clone())));
        // 10 ns/byte -> 1000 ns serialisation per frame; 50 ns propagation.
        sim.connect_with_bandwidth(src, 0, dst, 0, 50, 10);
        sim.run();
        let sink = sim.node_as::<crate::host::SinkHost>(dst).unwrap();
        // Frame k finishes transmitting at (k+1)*1000, arrives +50.
        assert_eq!(sink.arrivals, vec![1050, 2050, 3050]);
    }

    #[test]
    fn unconnected_port_drops_silently() {
        let (a, fa, _) = bouncer();
        let mut sim = Simulation::new();
        let a = sim.add_node(a);
        sim.inject_frame(0, a, 7, Bytes::copy_from_slice(b"x"));
        sim.run();
        // Bounced out of port 7 which goes nowhere: no infinite loop,
        // one delivery total.
        assert_eq!(fa.load(Ordering::SeqCst), 1);
    }
}

// Event-ordering edge cases for the discrete-event core: simultaneous
// events (same timestamp, several kinds, several nodes) and zero-delay
// links, where correctness depends entirely on the queue's
// (time, insertion-sequence) tie-break.
#[cfg(test)]
mod event_order {
    use bytes::Bytes;
    use crate::{ControlMsg, Node, NodeCtx, NodeId, SimTime, Simulation};
    use std::sync::Arc;

    /// Records every callback as (time, tag) in a shared log.
    struct Recorder {
        tag: &'static str,
        log: Arc<parking_lot::Mutex<Vec<(SimTime, String)>>>,
        /// Frames to bounce back out of the arrival port before going
        /// quiet (guards zero-delay tests against infinite cascades).
        bounces: u32,
    }

    impl Node for Recorder {
        fn on_frame(&mut self, ctx: &mut NodeCtx, port: usize, frame: Bytes) {
            self.log
                .lock()
                .push((ctx.now, format!("{}:frame:{port}", self.tag)));
            if self.bounces > 0 {
                self.bounces -= 1;
                ctx.send_frame(port, frame);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx, token: u64) {
            self.log
                .lock()
                .push((ctx.now, format!("{}:timer:{token}", self.tag)));
        }
        fn on_control(&mut self, ctx: &mut NodeCtx, from: NodeId, _msg: ControlMsg) {
            self.log
                .lock()
                .push((ctx.now, format!("{}:ctrl:{from}", self.tag)));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    type Log = Arc<parking_lot::Mutex<Vec<(SimTime, String)>>>;

    fn recorder(tag: &'static str, log: &Log, bounces: u32) -> Box<Recorder> {
        Box::new(Recorder {
            tag,
            log: log.clone(),
            bounces,
        })
    }

    #[test]
    fn simultaneous_mixed_kinds_fire_in_insertion_order() {
        let log: Log = Arc::default();
        let mut sim = Simulation::new();
        let a = sim.add_node(recorder("a", &log, 0));
        let b = sim.add_node(recorder("b", &log, 0));
        sim.connect_control(a, b, 0);

        // All at t = 50, interleaved across nodes and kinds.
        sim.inject_timer(50, b, 9);
        sim.inject_frame(50, a, 3, Bytes::copy_from_slice(b"x"));
        sim.inject_control(50, a, b, ControlMsg::Tick);
        sim.inject_frame(50, b, 1, Bytes::copy_from_slice(b"y"));
        sim.inject_timer(50, a, 7);
        sim.run();

        let got: Vec<String> = log.lock().iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(
            got,
            vec!["b:timer:9", "a:frame:3", "a:ctrl:1", "b:frame:1", "a:timer:7"],
            "same-timestamp events must replay in injection order"
        );
        assert!(log.lock().iter().all(|(t, _)| *t == 50));
    }

    #[test]
    fn zero_delay_link_cascades_without_time_advance() {
        let log: Log = Arc::default();
        let mut sim = Simulation::new();
        let a = sim.add_node(recorder("a", &log, 2));
        let b = sim.add_node(recorder("b", &log, 2));
        sim.connect(a, 0, b, 0, 0); // zero propagation delay

        sim.inject_frame(100, a, 0, Bytes::copy_from_slice(b"p"));
        let n = sim.run();

        // a(bounce) -> b(bounce) -> a(bounce) -> b(bounce) -> a(quiet):
        // five deliveries, all at t = 100, alternating endpoints.
        let got: Vec<String> = log.lock().iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(
            got,
            vec!["a:frame:0", "b:frame:0", "a:frame:0", "b:frame:0", "a:frame:0"]
        );
        assert!(
            log.lock().iter().all(|(t, _)| *t == 100),
            "zero-delay hops must not advance the clock"
        );
        assert_eq!(sim.now(), 100);
        assert_eq!(n, 5, "cascade terminates once both bouncers go quiet");
    }

    #[test]
    fn zero_delay_cascade_interleaves_with_pending_same_time_events() {
        // A zero-delay bounce generated *while processing* t = 100 must run
        // after events that were already queued for t = 100 (later
        // insertion sequence), not jump the queue.
        let log: Log = Arc::default();
        let mut sim = Simulation::new();
        let a = sim.add_node(recorder("a", &log, 1));
        let b = sim.add_node(recorder("b", &log, 0));
        sim.connect(a, 0, b, 0, 0);

        sim.inject_frame(100, a, 0, Bytes::copy_from_slice(b"p")); // bounces to b
        sim.inject_timer(100, a, 42); // queued before the bounce exists
        sim.run();

        let got: Vec<String> = log.lock().iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(
            got,
            vec!["a:frame:0", "a:timer:42", "b:frame:0"],
            "a bounce scheduled during t=100 runs after pre-queued t=100 events"
        );
    }

    #[test]
    fn zero_delay_and_delayed_events_order_by_time_first() {
        let log: Log = Arc::default();
        let mut sim = Simulation::new();
        let a = sim.add_node(recorder("a", &log, 0));
        let b = sim.add_node(recorder("b", &log, 0));
        sim.connect(a, 0, b, 0, 0);

        sim.inject_timer(200, a, 1); // later time, injected first
        sim.inject_frame(100, b, 0, Bytes::copy_from_slice(b"z"));
        sim.run();

        let got: Vec<(SimTime, String)> = log.lock().clone();
        assert_eq!(got[0], (100, "b:frame:0".to_string()));
        assert_eq!(got[1], (200, "a:timer:1".to_string()));
    }

    #[test]
    fn zero_delay_control_channel_delivers_same_timestamp() {
        struct Starter {
            dst: NodeId,
        }
        impl Node for Starter {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.send_control(self.dst, ControlMsg::Tick);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let log: Log = Arc::default();
        let mut sim = Simulation::new();
        let r = sim.add_node(recorder("r", &log, 0));
        let s = sim.add_node(Box::new(Starter { dst: r }));
        sim.connect_control(s, r, 0);
        sim.run();
        assert_eq!(log.lock().as_slice(), &[(0, "r:ctrl:1".to_string())]);
    }

    #[test]
    fn run_until_boundary_is_inclusive_and_resumable() {
        // Horizon semantics around simultaneous events: everything at
        // exactly `until` runs; nothing later does, and a later run()
        // picks up the remainder without reordering.
        let log: Log = Arc::default();
        let mut sim = Simulation::new();
        let a = sim.add_node(recorder("a", &log, 0));
        sim.inject_timer(100, a, 1);
        sim.inject_timer(100, a, 2);
        sim.inject_timer(101, a, 3);
        sim.run_until(100);
        let mid: Vec<String> = log.lock().iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(mid, vec!["a:timer:1", "a:timer:2"]);
        sim.run();
        let all: Vec<String> = log.lock().iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(all, vec!["a:timer:1", "a:timer:2", "a:timer:3"]);
    }
}
