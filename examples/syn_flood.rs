//! SYN-flood detection (paper Table 1): legitimate TCP traffic, then a
//! storm of spoofed SYNs at one server, replayed through the detection
//! ensemble. The SYN-flood detector flags the flood via the SYN share
//! of the packet-kind frequency distribution and the SYN rate window —
//! both integer-only Stat4 checks — at the close of the first interval
//! that contains it.
//!
//! ```text
//! cargo run --example syn_flood --release
//! ```

use replay::{run_replay, ReplayConfig};
use workloads::SynFloodWorkload;

fn main() {
    let workload = SynFloodWorkload {
        servers: 8,
        background_cps: 2_000,
        flood_pps: 100_000,
        flood_start: 1_000_000_000,
        duration: 2_000_000_000,
        seed: 42,
    };
    let (schedule, victim) = workload.generate();
    println!(
        "workload: {} packets; flood of {} SYN/s at {victim} from t = {:.1}s",
        schedule.len(),
        workload.flood_pps,
        workload.flood_start as f64 / 1e9
    );

    let outcome = run_replay(&schedule, &ReplayConfig::default());
    for engine in &outcome.ensemble.engines {
        if let Some(at) = engine.first_fired_at {
            println!(
                "engine {:>12}: first fired at t = {:.3}s ({} fires)",
                engine.name,
                at as f64 / 1e9,
                engine.fires
            );
        }
    }
    match outcome.detected_at {
        Some(at) => {
            println!("ALERT at t = {:.3}s: {:?}", at as f64 / 1e9, outcome.alerts[0]);
            assert!(at >= workload.flood_start, "no false positives");
            let lag_ms = (at - workload.flood_start) as f64 / 1e6;
            println!(
                "flood detected {lag_ms:.1} ms after onset ({} alerts in total)",
                outcome.alerts.len()
            );
        }
        None => {
            println!("flood NOT detected");
            std::process::exit(1);
        }
    }
}
