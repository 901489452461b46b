//! Remote-failure detection via stalled flows (paper Table 1: "satisfy
//! uptime SLAs, stalled flows over time"): steady flow activity
//! collapses when a remote link fails; the lower-tail outlier check
//! (`N·x < Xsum − k·σ(NX)`) fires on the first quiet interval.
//!
//! ```text
//! cargo run --example failure_detection --release
//! ```

use anomaly::stalled::{StalledFlowConfig, StalledFlowDetector};
use rand::Rng;

fn main() {
    let interval_ns = 100_000_000u64; // 100 ms
    let failure_at = 5_000_000_000u64; // 5 s
    let mut detector = StalledFlowDetector::new(StalledFlowConfig {
        interval_ns,
        window: 50,
        k: 2,
        min_intervals: 10,
    });

    // Healthy phase: ~200 flow-progress events per 100 ms interval
    // with Poisson-ish jitter.
    let mut rng = workloads::rng(99);
    let mut t = 0u64;
    println!("healthy phase: ~2000 activity events/s until t = 5.0s");
    let mut false_alarms = Vec::new();
    while t < failure_at {
        false_alarms.extend(detector.observe_activity(t));
        t += rng.random_range(300_000u64..700_000);
    }
    assert!(
        false_alarms.is_empty(),
        "healthy traffic must not alarm: {false_alarms:?}"
    );

    // The failure: activity stops. A timer tick a few intervals later
    // (as the switch's idle timer would) closes the silent intervals.
    println!("link fails at t = {:.1}s; flows stall", failure_at as f64 / 1e9);
    let alert = detector.tick(failure_at + 3 * interval_ns);
    match alert {
        Some(a) => {
            println!(
                "ALERT at t = {:.2}s: {a:?}",
                a.at() as f64 / 1e9
            );
            let lag_ms = (a.at() - failure_at) as f64 / 1e6;
            println!(
                "failure surfaced {lag_ms:.0} ms after onset (bounded by interval length + tick)"
            );
        }
        None => {
            println!("failure NOT detected");
            std::process::exit(1);
        }
    }
}
