//! Integration test: the paper's Sec. 4 case study end to end across
//! seeds — spike detected at the close of its first interval, drill-down
//! pinpoints the right destination, and the pinpoint latency is
//! dominated by control-plane round trips.

use anomaly::drilldown::{DrilldownController, DrilldownPhase, DrilldownTopology};
use netsim::host::{SinkHost, TraceGen, TrafficSource};
use netsim::{P4SwitchNode, Simulation, MICROS, MILLIS};
use stat4_suite::stat4_p4::{CaseStudyApp, CaseStudyParams, Stat4Config};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use workloads::{SpikeGroundTruth, SpikeWorkload};

struct Outcome {
    truth: SpikeGroundTruth,
    phase: DrilldownPhase,
    report: anomaly::drilldown::DrilldownReport,
    interval_ns: u64,
    ctrl_delay: u64,
}

fn run_case(seed: u64, ctrl_delay: u64) -> Outcome {
    let params = CaseStudyParams {
        interval_log2: 21, // ~2.1 ms, keeps the test fast
        window_size: 32,
        min_intervals: 8,
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
        spike_start_range: (20 * interval_ns, 21 * interval_ns),
        duration: 21 * interval_ns + 6 * ctrl_delay + 40 * interval_ns,
        seed,
        ..SpikeWorkload::default()
    };
    let (schedule, truth) = workload.generate();
    let app = CaseStudyApp::build(params).expect("builds");
    let handles = app.handles();
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
    sim.connect_control(switch, controller, ctrl_delay);
    sim.run();

    let ctl = sim
        .node_as::<DrilldownController>(controller)
        .expect("controller");
    Outcome {
        truth,
        phase: ctl.phase,
        report: ctl.report,
        interval_ns,
        ctrl_delay,
    }
}

#[test]
fn pinpoints_correct_destination_across_seeds() {
    for seed in [1u64, 2, 3, 4, 5] {
        let o = run_case(seed, 2 * MILLIS);
        assert!(
            matches!(o.phase, DrilldownPhase::Done { .. }),
            "seed {seed}: phase {:?}",
            o.phase
        );
        assert_eq!(
            o.report.dest,
            Some(o.truth.spike_dest),
            "seed {seed}: wrong destination"
        );
    }
}

#[test]
fn detection_within_first_interval_after_onset() {
    for seed in [1u64, 2, 3] {
        let o = run_case(seed, 2 * MILLIS);
        let alert_arrival = o.report.spike_alert_at.expect("detected");
        let emitted = alert_arrival - o.ctrl_delay;
        assert!(emitted >= o.truth.spike_start, "seed {seed}");
        // Emitted at the close of the spike's first interval: within
        // one interval of onset plus one inter-packet gap.
        assert!(
            emitted <= o.truth.spike_start + o.interval_ns + o.interval_ns / 4,
            "seed {seed}: emitted {} ns after onset",
            emitted - o.truth.spike_start
        );
    }
}

#[test]
fn pinpoint_latency_scales_with_control_delay() {
    let fast = run_case(1, 2 * MILLIS);
    let slow = run_case(1, 20 * MILLIS);
    let lf = fast.report.pinpoint_latency().expect("completed");
    let ls = slow.report.pinpoint_latency().expect("completed");
    // Two extra drill phases, each needing at least one switch->controller
    // digest and one controller->switch rebind: latency must grow by at
    // least 2 round trips' worth of the extra delay. Digests are only
    // emitted at interval closes, so each drill phase can absorb up to
    // one interval of the added delay into waiting it would have done
    // anyway — subtract that quantization slack from the bound.
    let quantization = 2 * fast.interval_ns;
    assert!(
        ls + quantization >= lf + 4 * (20 - 2) * MILLIS,
        "fast {lf} ns, slow {ls} ns"
    );
    assert_eq!(fast.report.dest, slow.report.dest);
}

#[test]
fn ordering_of_drilldown_milestones() {
    let o = run_case(2, 2 * MILLIS);
    let spike = o.report.spike_alert_at.expect("spike");
    let subnet = o.report.subnet_identified_at.expect("subnet");
    let host = o.report.pinpointed_at.expect("host");
    assert!(spike < subnet, "spike {spike} < subnet {subnet}");
    assert!(subnet < host, "subnet {subnet} < host {host}");
}
