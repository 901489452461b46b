//! Seeded fault schedules are deterministic end to end: the same seed
//! and spec produce bit-identical digest sequences, register state and
//! fault counters across reruns, while a different seed perturbs the
//! run differently. This is the property that makes chaos runs
//! debuggable — a failure under `--faults X --seed N` replays exactly.

use bytes::Bytes;
use faultinject::FaultSchedule;
use netsim::{FaultStats, P4SwitchNode, RecordingController, Simulation, TrafficSource, MICROS, MILLIS};
use netsim::host::TraceGen;
use p4sim::action::{ActionDef, Operand, Primitive};
use p4sim::control::Control;
use p4sim::phv::fields;
use p4sim::program::ProgramBuilder;
use p4sim::{Pipeline, TargetModel};
use packet::builder::PacketBuilder;
use std::net::Ipv4Addr;

/// A counting pipeline: per-/28 packet counters plus a digest per
/// packet carrying `(dst, new_count)` — enough signal that any dropped,
/// duplicated or reordered control message changes the observable
/// digest sequence.
fn counting_pipeline() -> Pipeline {
    let mut b = ProgramBuilder::new();
    let reg = b.add_register("cnt", 64, 16);
    let a = b.add_action(ActionDef::new(
        "count_and_digest",
        vec![
            Primitive::And {
                dst: fields::M0,
                a: Operand::Field(fields::IPV4_DST),
                b: Operand::Const(0xf),
            },
            Primitive::RegRead {
                dst: fields::scratch(1),
                register: reg,
                index: Operand::Field(fields::M0),
            },
            Primitive::Add {
                dst: fields::scratch(1),
                a: Operand::Field(fields::scratch(1)),
                b: Operand::Const(1),
            },
            Primitive::RegWrite {
                register: reg,
                index: Operand::Field(fields::M0),
                src: Operand::Field(fields::scratch(1)),
            },
            Primitive::Digest {
                id: 7,
                values: vec![Operand::Field(fields::IPV4_DST), Operand::Field(fields::scratch(1))],
            },
            Primitive::Forward {
                port: Operand::Const(1),
            },
        ],
    ));
    b.set_control(Control::ApplyAction(a));
    b.build(TargetModel::bmv2()).unwrap()
}

/// 300 UDP frames, 20 µs apart, dst round-robin over 16 hosts.
fn workload() -> Vec<(u64, Bytes)> {
    (0..300u64)
        .map(|i| {
            let frame = PacketBuilder::udp(
                Ipv4Addr::new(192, 168, 0, 1),
                Ipv4Addr::new(10, 0, 0, (i % 16) as u8),
                4000,
                5000 + (i % 7) as u16,
            )
            .build_bytes();
            (i * 20 * MICROS, frame)
        })
        .collect()
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(arrival_time, digest values)` at the controller.
    digests: Vec<(u64, Vec<u64>)>,
    /// Final register state at the switch.
    registers: Vec<u64>,
    stats: FaultStats,
    frames_delivered: u64,
}

fn run(spec: &str, seed: u64) -> Outcome {
    let mut sim = Simulation::new();
    sim.set_fault_schedule(FaultSchedule::parse(spec, seed).unwrap());
    let ctl = sim.add_node(Box::new(RecordingController::new()));
    let sw = sim.add_node(Box::new(
        P4SwitchNode::new(counting_pipeline()).with_controller(ctl),
    ));
    let src = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
        workload(),
    )))));
    let sink_ctr = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = sim.add_node(Box::new(netsim::SinkHost::new(sink_ctr)));
    sim.connect(src, 0, sw, 0, 5 * MICROS);
    sim.connect(sw, 1, sink, 0, 5 * MICROS);
    sim.connect_control(sw, ctl, MILLIS);
    sim.run();

    let rec = sim.node_as::<RecordingController>(ctl).unwrap();
    let switch = sim.node_as::<P4SwitchNode>(sw).unwrap();
    Outcome {
        digests: rec
            .digests
            .iter()
            .map(|(at, _, d)| (*at, d.values.clone()))
            .collect(),
        registers: switch.pipeline.registers()[0].cells.clone(),
        stats: sim.fault_stats,
        frames_delivered: sim.frames_delivered,
    }
}

const SPEC: &str = "ctrl_loss=0.25,ctrl_dup=0.10,ctrl_delay_ns=500us,link_flap=@2ms..3ms";

#[test]
fn same_seed_same_schedule_is_bit_identical() {
    let a = run(SPEC, 1234);
    let b = run(SPEC, 1234);
    assert_eq!(a, b);
    // The schedule actually did something to this run.
    assert!(a.stats.control_dropped > 0, "{:?}", a.stats);
    assert!(a.stats.control_duplicated > 0, "{:?}", a.stats);
    assert!(a.stats.control_jittered > 0, "{:?}", a.stats);
    assert!(a.stats.frames_flapped > 0, "{:?}", a.stats);
}

#[test]
fn different_seed_perturbs_differently() {
    let a = run(SPEC, 1234);
    let b = run(SPEC, 99);
    // Loss/dup/jitter decisions differ per seed, so the delivered
    // digest sequence differs (flap windows are time-based and shared).
    assert_ne!(a.digests, b.digests);
}

#[test]
fn empty_schedule_is_faultless_and_matches_no_schedule() {
    let faulted = run(SPEC, 1234);
    let clean = run("", 1234);
    assert_eq!(clean.stats, FaultStats::default());
    // All 300 frames counted: register totals sum to 300.
    assert_eq!(clean.registers.iter().sum::<u64>(), 300);
    // Every packet's digest arrives exactly once.
    assert_eq!(clean.digests.len(), 300);
    // And the faulted run visibly degraded relative to it.
    assert!(faulted.digests.len() != clean.digests.len());
    assert!(faulted.registers.iter().sum::<u64>() < 300, "flap lost frames");
}

#[test]
fn reordering_actually_occurs_under_jitter() {
    // With 500 µs of per-message jitter on a 1 ms channel, some digest
    // pair must arrive out of emission order: emission order is packet
    // order, and each digest carries its per-cell count which only
    // grows — an arrival sequence where a higher count for the same
    // dst precedes a lower one proves reordering.
    let out = run("ctrl_delay_ns=900us", 7);
    let mut seen_reorder = false;
    for (i, (_, a)) in out.digests.iter().enumerate() {
        for (_, b) in &out.digests[i + 1..] {
            if a[0] == b[0] && a[1] > b[1] {
                seen_reorder = true;
            }
        }
    }
    assert!(seen_reorder, "jitter produced no reordering");
}

#[test]
fn jitter_bound_at_u64_max_draws_over_every_u64() {
    // `ctrl_delay_ns` takes any u64; at the top the jitter is the whole
    // hash, drawn over every u64, and a delivery time past the end
    // saturates instead of overflowing.
    let spec = format!("ctrl_dup=1,ctrl_delay_ns={}", u64::MAX);
    let out = run(&spec, 7);
    assert_eq!(out, run(&spec, 7), "still deterministic");
    assert_eq!(out.registers.iter().sum::<u64>(), 300, "the data plane is untouched");
    assert_eq!(out.digests.len(), 600, "every digest and its duplicate arrive");
    assert_eq!(out.stats.control_duplicated, 300);
    assert!(out.digests.iter().all(|(at, _)| *at >= MILLIS));
    assert!(out.digests.iter().any(|(at, _)| *at > u64::MAX / 2), "jitter spans the range");
}
