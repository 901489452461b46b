//! A switch node wrapping a [`p4sim::Pipeline`].

use crate::control::ControlMsg;
use crate::node::{Node, NodeCtx, NodeId};
use crate::{SimTime, MICROS};
use bytes::Bytes;
use p4sim::{Pipeline, RuntimeRequest};

/// Fixed cost of handling one runtime request: with
/// [`PER_CELL_READ`], the latency model of the switch's slow paths.
/// (Pipeline traversal latency is folded into link delays at topology
/// construction.)
const RUNTIME_BASE: SimTime = 50 * MICROS;
/// Additional cost *per register cell* of bulk reads — the paper:
/// "reading thousands of registers takes several milliseconds", i.e.
/// on the order of microseconds per cell.
const PER_CELL_READ: SimTime = 2 * MICROS;

/// A P4 switch attached to the simulation: forwards frames through its
/// pipeline, pushes digests to its controller, and answers runtime
/// requests with modelled latency.
pub struct P4SwitchNode {
    /// The data-plane program and state.
    pub pipeline: Pipeline,
    /// Controller to receive digests and responses.
    pub controller: Option<NodeId>,
    /// Frames whose processing returned an error (dropped); counted for
    /// observability.
    pub process_errors: u64,
    /// Digests emitted so far.
    pub digests_sent: u64,
}

impl P4SwitchNode {
    /// Wraps a pipeline with no controller.
    #[must_use]
    pub fn new(pipeline: Pipeline) -> Self {
        Self {
            pipeline,
            controller: None,
            process_errors: 0,
            digests_sent: 0,
        }
    }

    /// Sets the controller node.
    #[must_use]
    pub fn with_controller(mut self, controller: NodeId) -> Self {
        self.controller = Some(controller);
        self
    }
}

fn read_cost(req: &RuntimeRequest) -> SimTime {
    match req {
        RuntimeRequest::ReadRegisterRange { len, .. } => PER_CELL_READ * *len,
        RuntimeRequest::ReadRegister { .. } => PER_CELL_READ,
        RuntimeRequest::Batch(reqs) => reqs.iter().map(read_cost).sum(),
        _ => 0,
    }
}

impl Node for P4SwitchNode {
    fn on_frame(&mut self, ctx: &mut NodeCtx, port: usize, frame: Bytes) {
        match self
            .pipeline
            .process_frame(&frame, port as u64, ctx.now)
        {
            Ok((_phv, outcome)) => {
                if let Some(controller) = self.controller {
                    for digest in outcome.digests {
                        self.digests_sent += 1;
                        ctx.send_control(
                            controller,
                            ControlMsg::Digest {
                                digest,
                                emitted_at: ctx.now,
                            },
                        );
                    }
                }
                if let Some(egress) = outcome.egress {
                    if !outcome.dropped {
                        ctx.send_frame(egress as usize, frame);
                    }
                }
            }
            Err(_) => {
                self.process_errors += 1;
            }
        }
    }

    fn on_control(&mut self, ctx: &mut NodeCtx, from: NodeId, msg: ControlMsg) {
        if let ControlMsg::Request { tag, req } = msg {
            let extra = RUNTIME_BASE + read_cost(&req);
            let resp = self.pipeline.runtime(&req);
            ctx.send_control_delayed(from, ControlMsg::Response { tag, resp }, extra);
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
    use crate::control::RecordingController;
    use crate::host::SinkHost;
    use crate::sim::Simulation;
    use crate::MILLIS;
    use p4sim::action::{ActionDef, Operand, Primitive};
    use p4sim::control::Control;
    use p4sim::phv::fields;
    use p4sim::program::ProgramBuilder;
    use p4sim::{RuntimeResponse, TargetModel};
    use packet::builder::PacketBuilder;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Pipeline forwarding everything to port 1 and digesting the packet
    /// length.
    fn fwd_pipeline() -> Pipeline {
        let mut b = ProgramBuilder::new();
        b.add_register("r", 64, 4);
        let act = b.add_action(ActionDef::new(
            "fwd",
            vec![
                Primitive::Digest {
                    id: 9,
                    values: vec![Operand::Field(fields::PKT_LEN)],
                },
                Primitive::Forward {
                    port: Operand::Const(1),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(act));
        b.build(TargetModel::bmv2()).unwrap()
    }

    #[test]
    fn forwards_and_digests() {
        let mut sim = Simulation::new();
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_node(Box::new(SinkHost::new(received.clone())));
        let ctl = sim.add_node(Box::new(RecordingController::new()));
        let sw = sim.add_node(Box::new(
            P4SwitchNode::new(fwd_pipeline()).with_controller(ctl),
        ));
        sim.connect(sw, 1, sink, 0, 10 * MICROS);
        sim.connect_control(sw, ctl, MILLIS);

        let frame = PacketBuilder::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(10, 0, 0, 1),
            1,
            2,
        )
        .build_bytes();
        let frame_len = frame.len() as u64;
        sim.inject_frame(0, sw, 0, frame);
        sim.run();

        assert_eq!(received.load(Ordering::SeqCst), 1, "sink got the frame");
        let rec = sim.node_as::<RecordingController>(ctl).unwrap();
        assert_eq!(rec.digests.len(), 1);
        assert_eq!(rec.digests[0].0, MILLIS, "control-channel delay applied");
        assert_eq!(rec.digests[0].2.values, vec![frame_len]);
        assert_eq!(sim.frames_delivered, 2, "injected + forwarded");
    }

    #[test]
    fn runtime_requests_round_trip_with_latency() {
        struct Asker {
            sw: NodeId,
            done_at: Arc<AtomicU64>,
        }
        impl Node for Asker {
            fn on_frame(&mut self, _: &mut NodeCtx, _: usize, _: Bytes) {}
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.send_control(
                    self.sw,
                    ControlMsg::Request {
                        tag: 1,
                        req: RuntimeRequest::ReadRegisterRange {
                            register: 0,
                            start: 0,
                            len: 4,
                        },
                    },
                );
            }
            fn on_control(&mut self, ctx: &mut NodeCtx, _from: NodeId, msg: ControlMsg) {
                if let ControlMsg::Response { tag: 1, resp } = msg {
                    assert_eq!(resp, RuntimeResponse::Values(vec![0, 0, 0, 0]));
                    self.done_at.store(ctx.now, Ordering::SeqCst);
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let done_at = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        // Add switch first (id 0), asker second.
        let sw = sim.add_node(Box::new(P4SwitchNode::new(fwd_pipeline())));
        let asker = sim.add_node(Box::new(Asker {
            sw,
            done_at: done_at.clone(),
        }));
        let chan = MILLIS;
        sim.connect_control(sw, asker, chan);
        sim.run();
        let expect = chan // request travels
            + RUNTIME_BASE
            + 4 * PER_CELL_READ
            + chan; // response travels
        assert_eq!(done_at.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn garbage_frames_counted_not_fatal() {
        // A pipeline whose action always reads OOB: process errors. The
        // index comes from a field, as `build` refuses a constant past
        // the register.
        let mut b = ProgramBuilder::new();
        let r = b.add_register("r", 64, 1);
        let bad = b.add_action(ActionDef::new(
            "bad",
            vec![
                Primitive::Set {
                    dst: fields::M0,
                    src: Operand::Const(10),
                },
                Primitive::RegRead {
                    dst: fields::M0,
                    register: r,
                    index: Operand::Field(fields::M0),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(bad));
        let pipeline = b.build(TargetModel::bmv2()).unwrap();
        let mut sim = Simulation::new();
        let sw = sim.add_node(Box::new(P4SwitchNode::new(pipeline)));
        sim.inject_frame(0, sw, 0, Bytes::copy_from_slice(b"junk"));
        sim.run();
        assert_eq!(sim.frames_delivered, 1);
        let node = sim.node_as::<P4SwitchNode>(sw).unwrap();
        assert_eq!(node.process_errors, 1);
    }
}
