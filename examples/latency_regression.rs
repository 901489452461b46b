//! Percentile change-rate monitoring (paper Sec. 2: "we can track
//! values and change rates of percentiles, which may be indicative of
//! anomalies"): a service's response-time distribution degrades — the
//! *volume* of traffic is unchanged, so rate checks stay silent, but
//! the median marker goes on a long walk and its movement rate spikes.
//!
//! ```text
//! cargo run --example latency_regression --release
//! ```

use anomaly::shift::{PercentileShiftDetector, ShiftConfig};
use rand::Rng;
use stat4_core::percentile::Quantile;

fn main() {
    let mut rng = workloads::rng(31);
    let mut detector = PercentileShiftDetector::new(ShiftConfig {
        quantile: Quantile::median(),
        domain: (0, 1023),
        interval_ns: 10_000_000, // 10 ms
        window: 32,
        k: 2,
        min_intervals: 10,
    });

    // Healthy service: response times ~ uniform(80..120) µs-equivalents,
    // ~10k observations/second.
    let mut t = 0u64;
    println!("healthy phase: median response ≈ 100 for 0.5 s");
    let mut false_alarms = Vec::new();
    for _ in 0..5_000 {
        false_alarms.extend(detector.observe(t, rng.random_range(80..120)));
        t += 100_000;
    }
    assert!(
        false_alarms.is_empty() && detector.detected_at.is_none(),
        "no false alarms in the healthy phase: {false_alarms:?}"
    );
    println!(
        "  median estimate: {:?}, no alerts",
        detector.estimate()
    );

    // Regression: a dependency slows down; the distribution shifts to
    // ~uniform(260..340). Same observation rate.
    let regression_at = t;
    println!(
        "\nregression at t = {:.2}s: median jumps to ≈ 300 (volume unchanged)",
        regression_at as f64 / 1e9
    );
    for _ in 0..10_000 {
        detector.observe(t, rng.random_range(260..340));
        t += 100_000;
    }

    match detector.detected_at {
        Some(at) => {
            println!(
                "ALERT at t = {:.3}s — {:.1} ms after the regression began",
                at as f64 / 1e9,
                (at - regression_at) as f64 / 1e6
            );
            println!(
                "median marker now at {:?} (walked from ~100 to ~300, one cell per packet)",
                detector.estimate()
            );
            assert!(at >= regression_at, "no false positive");
        }
        None => {
            println!("regression NOT detected");
            std::process::exit(1);
        }
    }
    println!(
        "\nthe rate-based checks never fire here (volume is constant) — the percentile \
         change-rate signal is what catches shape-only anomalies."
    );
}
