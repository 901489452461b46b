//! The paper's case study, end to end: a volumetric spike hits one of
//! 36 destinations behind a P4 switch; the switch detects the spike
//! in-dataplane within one interval and the controller drills down to
//! the victim by editing binding tables.
//!
//! ```text
//! cargo run --example ddos_drilldown --release
//! ```

use anomaly::drilldown::{DrilldownController, DrilldownPhase, DrilldownTopology};
use netsim::host::{SinkHost, TraceGen, TrafficSource};
use netsim::{P4SwitchNode, Simulation, MICROS, MILLIS, SECONDS};
use stat4_p4::{CaseStudyApp, CaseStudyParams, Stat4Config};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use workloads::SpikeWorkload;

fn main() {
    // ~8.4 ms intervals, 100-interval window: the paper's defaults.
    let params = CaseStudyParams {
        interval_log2: 23,
        window_size: 100,
        min_intervals: 16,
        config: Stat4Config {
            counter_num: 2,
            counter_size: 256,
            width_bits: 64,
        },
        ..CaseStudyParams::default()
    };
    let interval_ns = 1u64 << params.interval_log2;
    let workload = SpikeWorkload {
        background_pps: 20_000,
        spike_multiplier: 10,
        spike_start_range: (25 * interval_ns, 26 * interval_ns),
        duration: 25 * interval_ns + 4 * SECONDS,
        seed: 7,
        ..SpikeWorkload::default()
    };
    let (schedule, truth) = workload.generate();
    println!(
        "workload: {} packets; spike of 10x onto {} at t = {:.3}s",
        schedule.len(),
        truth.spike_dest,
        truth.spike_start as f64 / 1e9
    );

    let app = CaseStudyApp::build(params).expect("app builds");
    let handles = app.handles;
    let mut sim = Simulation::new();
    let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
        schedule,
    )))));
    let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
    let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline.clone())));
    let controller = sim.add_node(Box::new(DrilldownController::new(
        handles,
        app.pipeline,
        switch,
        DrilldownTopology {
            net: 10,
            subnets: 6,
            hosts_per_subnet: 6,
        },
    )));
    sim.node_as_mut::<P4SwitchNode>(switch)
        .expect("switch")
        .controller = Some(controller);
    sim.connect(source, 0, switch, 0, 20 * MICROS);
    sim.connect(switch, 1, sink, 0, 20 * MICROS);
    // Control-plane one-way latency: 400 ms, modelling bmv2 digest
    // handling + P4Runtime updates.
    sim.connect_control(switch, controller, 400 * MILLIS);
    sim.run();

    let ctl = sim
        .node_as::<DrilldownController>(controller)
        .expect("controller");
    println!("\ncontroller timeline:");
    for alert in &ctl.alerts {
        println!("  t = {:>8.3}s  {alert:?}", alert.at() as f64 / 1e9);
    }
    match ctl.phase {
        DrilldownPhase::Done { dest } => {
            let ok = dest == truth.spike_dest;
            println!(
                "\npinpointed {dest} — {}",
                if ok { "CORRECT" } else { "WRONG" }
            );
            if let Some(lat) = ctl.report.pinpoint_latency() {
                println!(
                    "pinpoint latency (spike alert -> destination): {:.2}s (paper: 2-3s)",
                    lat as f64 / 1e9
                );
            }
            assert!(ok);
        }
        other => {
            println!("\ndrill-down incomplete: {other:?}");
            std::process::exit(1);
        }
    }
}
