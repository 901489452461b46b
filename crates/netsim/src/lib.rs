//! # netsim
//!
//! A deterministic discrete-event network simulator: the substrate that
//! replaces the paper's mininet/bmv2 test bench.
//!
//! Nodes (hosts, P4 switches, controllers) exchange Ethernet frames
//! over point-to-point links with configurable delay, and exchange
//! control-plane messages (digests up, [`p4sim::RuntimeRequest`]s down)
//! over a separate latency-modelled channel. Everything is driven by a
//! single event queue with a total order `(time, sequence)`, so every
//! run is exactly reproducible — the experiments in `bench/` rely on
//! that determinism.
//!
//! Why a DES and not real network namespaces: the paper's quantitative
//! claims (detection within the first interval; 2–3 s to pinpoint a
//! spike's destination, dominated by controller round-trips; register
//! reads costing milliseconds per thousand cells) are all functions of
//! *event ordering and configured latencies*, which a DES reproduces
//! faithfully and deterministically while staying dependency-free.
//!
//! ## Structure
//!
//! - [`sim`] — the event queue, clock and [`sim::Simulation`] driver.
//! - [`node`] — the [`node::Node`] trait and the emissions nodes
//!   produce (frames, timers, control messages).
//! - [`switch`] — [`switch::P4SwitchNode`], wrapping a
//!   [`p4sim::Pipeline`] with forwarding, digest fan-out and a
//!   latency-modelled runtime API.
//! - [`host`] — traffic sources (pluggable generators) and sinks.
//! - [`control`] — control-plane message types and the
//!   [`control::RecordingController`].

pub mod control;
pub mod host;
pub mod node;
pub mod sim;
pub mod switch;

pub use control::{ControlMsg, RecordingController};
pub use host::{SinkHost, TrafficGen, TrafficSource};
pub use node::{Node, NodeCtx, NodeId};
pub use sim::{FaultStats, Simulation};
pub use switch::P4SwitchNode;

/// Nanoseconds — the simulator's time unit.
pub type SimTime = u64;

/// One millisecond in simulator units.
pub const MILLIS: SimTime = 1_000_000;

/// One microsecond in simulator units.
pub const MICROS: SimTime = 1_000;

/// One second in simulator units.
pub const SECONDS: SimTime = 1_000_000_000;
