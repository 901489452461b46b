//! Integration test: the paper's Sec. 3 validation experiment at
//! reduced scale (the full 10 000-packet run lives in
//! `repro validation`). Host → switch → digest → controller, with the
//! host-side oracle checking every digest bit for bit.

use netsim::host::{TraceGen, TrafficSource};
use netsim::{P4SwitchNode, RecordingController, Simulation, MICROS};
use stat4_suite::stat4_core::freq::FrequencyDist;
use stat4_suite::stat4_p4::{EchoApp, Stat4Config, DIGEST_ECHO};
use workloads::EchoWorkload;

fn run_echo(packets: usize, seed: u64) -> (Vec<i64>, Vec<Vec<u64>>, u64) {
    let (schedule, values) = EchoWorkload {
        packets,
        gap_ns: 5_000,
        seed,
    }
    .generate();
    let app = EchoApp::build(&Stat4Config::default()).expect("builds");
    let mut sim = Simulation::new();
    let host = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
        schedule,
    )))));
    let controller = sim.add_node(Box::new(RecordingController::new()));
    let switch = sim.add_node(Box::new(
        P4SwitchNode::new(app.pipeline).with_controller(controller),
    ));
    sim.connect(host, 0, switch, 0, 10 * MICROS);
    sim.connect_control(switch, controller, 200 * MICROS);
    sim.run();
    let digests = sim
        .node_as::<RecordingController>(controller)
        .expect("controller")
        .digests
        .iter()
        .map(|(_, _, d)| {
            assert_eq!(d.id, DIGEST_ECHO);
            d.values.clone()
        })
        .collect();
    let echoes = sim.node_as::<TrafficSource>(host).expect("host").received;
    (values, digests, echoes)
}

#[test]
fn switch_statistics_equal_host_statistics() {
    let (values, digests, echoes) = run_echo(2_000, 77);
    assert_eq!(digests.len(), values.len(), "one digest per packet");
    assert_eq!(echoes, values.len() as u64, "every frame echoed back");

    let mut oracle = FrequencyDist::new(-255, 255).expect("domain");
    for (digest, v) in digests.iter().zip(&values) {
        oracle.observe(*v).expect("in range");
        let expect = vec![
            oracle.n_distinct(),
            oracle.xsum(),
            u64::try_from(oracle.xsumsq()).expect("fits"),
            u64::try_from(oracle.variance_nx()).expect("fits"),
            oracle.sd_nx(),
        ];
        assert_eq!(digest, &expect, "after value {v}");
    }
}

#[test]
fn different_seeds_still_exact() {
    for seed in [1, 2, 3] {
        let (values, digests, _) = run_echo(400, seed);
        let mut oracle = FrequencyDist::new(-255, 255).expect("domain");
        for (digest, v) in digests.iter().zip(&values) {
            oracle.observe(*v).expect("in range");
            assert_eq!(digest[0], oracle.n_distinct());
            assert_eq!(digest[1], oracle.xsum());
            assert_eq!(u128::from(digest[3]), oracle.variance_nx());
        }
    }
}

#[test]
fn determinism_same_seed_same_run() {
    let a = run_echo(300, 9);
    let b = run_echo(300, 9);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}
