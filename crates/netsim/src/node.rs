//! The node abstraction: anything attached to the simulation.

use crate::control::ControlMsg;
use crate::SimTime;
use bytes::Bytes;

/// Identifies a node within a simulation.
pub type NodeId = usize;

/// What a node asks the simulator to do, collected during a callback
/// and resolved (links, delays) by the driver afterwards.
#[derive(Debug, Clone)]
pub(crate) enum Emission {
    /// Transmit a frame out of a local port; arrives at the link peer
    /// after the link delay.
    SendFrame {
        /// Local egress port.
        port: usize,
        /// The frame bytes.
        frame: Bytes,
    },
    /// Request a timer callback after `delay`.
    SetTimer {
        /// Delay from now.
        delay: SimTime,
        /// Opaque token handed back in `on_timer`.
        token: u64,
    },
    /// Send a control-plane message to another node, arriving after the
    /// control-channel delay configured between the two nodes (plus
    /// `extra_delay`, used by switches to model slow register reads).
    SendControl {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: ControlMsg,
        /// Additional latency on top of the channel delay.
        extra_delay: SimTime,
    },
}

/// Context handed to node callbacks.
#[derive(Debug)]
pub struct NodeCtx {
    /// Current simulation time.
    pub now: SimTime,
    /// The node's own id.
    pub self_id: NodeId,
    pub(crate) emissions: Vec<Emission>,
}

impl NodeCtx {
    pub(crate) fn new(now: SimTime, self_id: NodeId) -> Self {
        Self {
            now,
            self_id,
            emissions: Vec::new(),
        }
    }

    /// Transmit `frame` out of `port`.
    pub(crate) fn send_frame(&mut self, port: usize, frame: Bytes) {
        self.emissions.push(Emission::SendFrame { port, frame });
    }

    /// Request an `on_timer(token)` callback after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.emissions.push(Emission::SetTimer { delay, token });
    }

    /// Send a control message to `dst` over the control channel.
    pub fn send_control(&mut self, dst: NodeId, msg: ControlMsg) {
        self.emissions.push(Emission::SendControl {
            dst,
            msg,
            extra_delay: 0,
        });
    }

    /// Send a control message with additional latency (e.g. modelling
    /// a slow bulk register read at the sender).
    pub(crate) fn send_control_delayed(&mut self, dst: NodeId, msg: ControlMsg, extra_delay: SimTime) {
        self.emissions.push(Emission::SendControl {
            dst,
            msg,
            extra_delay,
        });
    }
}

/// A simulation participant.
pub trait Node: std::any::Any {
    /// A frame arrived on `port`.
    fn on_frame(&mut self, ctx: &mut NodeCtx, port: usize, frame: Bytes);

    /// A timer set earlier fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx, _token: u64) {}

    /// A control-plane message arrived.
    fn on_control(&mut self, _ctx: &mut NodeCtx, _from: NodeId, _msg: ControlMsg) {}

    /// Called once when the simulation starts, before any event.
    fn on_start(&mut self, _ctx: &mut NodeCtx) {}

    /// Downcast support so experiments can inspect node state after a
    /// run ([`crate::Simulation::node_as`]).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_emissions() {
        let mut ctx = NodeCtx::new(5, 2);
        ctx.send_frame(1, Bytes::from_static(b"x"));
        ctx.set_timer(100, 7);
        ctx.send_control(3, ControlMsg::Tick);
        assert_eq!(ctx.emissions.len(), 3);
        assert_eq!(ctx.now, 5);
        assert_eq!(ctx.self_id, 2);
        match &ctx.emissions[1] {
            Emission::SetTimer { delay, token } => {
                assert_eq!((*delay, *token), (100, 7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
