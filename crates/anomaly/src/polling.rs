//! A sketch-only (Figure 1b) controller: periodically pulls the
//! switch's registers and runs the anomaly check centrally.
//!
//! This is the architecture the paper argues *against*: "the controller
//! would need to pull sketches from switches every few milliseconds,
//! which produces high overhead throughout normal operation … a delay
//! is inevitable between when a traffic change is theoretically
//! detectable and when the system is actually able to detect the
//! change: this delay is inversely proportional to the generated
//! overhead." `repro architecture` pits this controller
//! against the push-based one and measures exactly that trade-off.
//!
//! The polled state is the same rate window the in-switch detector
//! uses; detection logic is identical (margined mean + k·σ) — only the
//! *placement* differs, so the comparison isolates the architecture.

use netsim::control::ControlMsg;
use netsim::node::{Node, NodeCtx, NodeId};
use netsim::SimTime;
use p4sim::{RuntimeRequest, RuntimeResponse};
use stat4_core::running::RunningStats;
use stat4_p4::CaseStudyHandles;
use std::collections::HashMap;

const TOKEN_POLL: u64 = 1;

/// What a pending request's response contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    Window,
    RateState,
}

/// The pull-based controller.
pub struct PollingController {
    handles: CaseStudyHandles,
    switch: NodeId,
    /// Poll period (ns).
    pub period: SimTime,
    /// σ multiplier for the central check.
    pub k: u32,
    /// Minimum window fill before alarms.
    pub min_fill: u64,
    next_tag: u64,
    pending: HashMap<u64, PendingKind>,
    /// Last window snapshot (awaiting its rate-state sibling).
    last_window: Option<Vec<u64>>,
    /// Last rate-state snapshot.
    last_state: Option<Vec<u64>>,
    /// Time of the first spike detection, if any.
    pub detected_at: Option<SimTime>,
    /// The flagged interval value.
    pub detected_value: Option<u64>,
    /// Pull requests sent (overhead accounting).
    pub requests_sent: u64,
    /// Register cells transferred (overhead accounting).
    pub cells_read: u64,
}

impl PollingController {
    /// Creates a poller for `switch` at the given period.
    #[must_use]
    pub fn new(handles: CaseStudyHandles, switch: NodeId, period: SimTime) -> Self {
        Self {
            handles,
            switch,
            period,
            k: 2,
            min_fill: 10,
            next_tag: 1,
            pending: HashMap::new(),
            last_window: None,
            last_state: None,
            detected_at: None,
            detected_value: None,
            requests_sent: 0,
            cells_read: 0,
        }
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        // Two pulls per round: the window ring and the bookkeeping
        // register (the ring index is needed to recover write order).
        for (kind, register, len) in [
            (
                PendingKind::Window,
                self.handles.win_reg,
                self.handles.params.window_size,
            ),
            (PendingKind::RateState, self.handles.rate_state_reg, 6),
        ] {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.requests_sent += 1;
            self.pending.insert(tag, kind);
            ctx.send_control(
                self.switch,
                ControlMsg::Request {
                    tag,
                    req: RuntimeRequest::ReadRegisterRange {
                        register,
                        start: 0,
                        len,
                    },
                },
            );
        }
        ctx.set_timer(self.period, TOKEN_POLL);
    }

    /// Central detection: replay the switch's own sequential check over
    /// the snapshot in write order (oldest first) — judge each interval
    /// against the statistics of the intervals before it, then absorb
    /// it. This is exactly what the data plane did at each interval
    /// close; the pull architecture just learns about it later.
    fn check_snapshot(&mut self, ctx: &NodeCtx, window: &[u64], state: &[u64]) {
        let n = state.get(3).copied().unwrap_or(0) as usize;
        let widx = state.get(2).copied().unwrap_or(0) as usize;
        let cap = window.len();
        if cap == 0 {
            return;
        }
        let ordered: Vec<i64> = if n < cap {
            window[..n.min(cap)].iter().map(|&v| v as i64).collect()
        } else {
            (0..cap)
                .map(|i| window[(widx + i) % cap] as i64)
                .collect()
        };
        let mut stats = RunningStats::new();
        for &x in &ordered {
            if stats.n() >= self.min_fill {
                let margin = stats.relative_margin(3, 4);
                if stats.is_upper_outlier_with_margin(x, self.k, margin) {
                    self.detected_at.get_or_insert(ctx.now);
                    self.detected_value.get_or_insert(x as u64);
                    return;
                }
            }
            stats.push(x);
        }
    }
}

impl Node for PollingController {
    fn on_frame(&mut self, _ctx: &mut NodeCtx, _port: usize, _frame: bytes::Bytes) {}

    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.poll(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx, token: u64) {
        if token == TOKEN_POLL {
            self.poll(ctx);
        }
    }

    fn on_control(&mut self, ctx: &mut NodeCtx, _from: NodeId, msg: ControlMsg) {
        if let ControlMsg::Response {
            tag,
            resp: RuntimeResponse::Values(cells),
        } = msg
        {
            self.cells_read += cells.len() as u64;
            match self.pending.remove(&tag) {
                Some(PendingKind::Window) => self.last_window = Some(cells),
                Some(PendingKind::RateState) => self.last_state = Some(cells),
                None => {}
            }
            if self.detected_at.is_none() {
                if let (Some(w), Some(s)) = (self.last_window.clone(), self.last_state.clone()) {
                    self.check_snapshot(ctx, &w, &s);
                }
            }
        }
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
    use netsim::host::{SinkHost, TraceGen, TrafficSource};
    use netsim::{P4SwitchNode, Simulation, MICROS, MILLIS};
    use stat4_p4::{CaseStudyApp, CaseStudyParams, Stat4Config};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use workloads::SpikeWorkload;

    #[test]
    fn poller_detects_but_later_than_interval_close() {
        let params = CaseStudyParams {
            interval_log2: 20, // ~1 ms
            window_size: 32,
            min_intervals: 8,
            config: Stat4Config {
                counter_num: 2,
                counter_size: 64,
                width_bits: 64,
            },
            ..CaseStudyParams::default()
        };
        let interval_ns = 1u64 << params.interval_log2;
        let workload = SpikeWorkload {
            background_pps: 20_000,
            spike_multiplier: 10,
            spike_start_range: (20 * interval_ns, 21 * interval_ns),
            duration: 80 * interval_ns,
            seed: 4,
            ..SpikeWorkload::default()
        };
        let (schedule, truth) = workload.generate();
        let app = CaseStudyApp::build(params).expect("builds");
        let handles = app.handles;

        let mut sim = Simulation::new();
        let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
            schedule,
        )))));
        let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
        let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline)));
        let poller = sim.add_node(Box::new(PollingController::new(
            handles,
            switch,
            10 * MILLIS,
        )));
        sim.connect(source, 0, switch, 0, 20 * MICROS);
        sim.connect(switch, 1, sink, 0, 20 * MICROS);
        sim.connect_control(switch, poller, 2 * MILLIS);
        // The poller re-arms its timer forever; bound the run at the
        // workload's end.
        sim.run_until(80 * interval_ns);

        let p = sim.node_as::<PollingController>(poller).expect("poller");
        let at = p.detected_at.expect("poller finds the spike eventually");
        assert!(at > truth.spike_start, "cannot detect before onset");
        // The pull architecture pays at least one poll period + RTT +
        // bulk-read latency beyond the interval close.
        assert!(p.requests_sent > 3, "kept polling: {}", p.requests_sent);
        assert!(
            p.cells_read >= p.requests_sent * 32 / 2,
            "window transferred on each poll"
        );
    }
}
