//! The ablations: one table per design choice the paper makes or
//! defers to future work — the alarm margin, CUSUM beside the band,
//! order-of-magnitude scaling, sketched counters, and the cost of lazy
//! σ, the one-step percentile, shift-add squaring and the shift-based
//! root.

use crate::{isqrt_pipeline, rule, run_unary, squaring_pipelines};
use rand::Rng;
use stat4_core::cusum::CusumDetector;
use stat4_core::percentile::{PercentileSet, Quantile};
use stat4_core::running::RunningStats;
use stat4_core::scale::Scale;
use stat4_core::sketch::CountMinSketch;
use stat4_core::window::WindowedDist;
use std::hint::black_box;
use std::time::Instant;
use workloads::ZipfPrefixWorkload;

/// Mean per-interval count of the margin and CUSUM experiments.
const BASE: i64 = 200;
/// Intervals the spike checks' window holds.
const WINDOW: usize = 100;

/// One interval's count: Poisson-ish, base ± ~√base of jitter.
fn noise(rng: &mut impl Rng) -> i64 {
    BASE + rng.random_range(-30i64..=30) + rng.random_range(-14i64..=14)
}

/// A [`WINDOW`]-interval window after `intervals` closed intervals of
/// `next()` each.
fn warmed(intervals: usize, mut next: impl FnMut() -> i64) -> WindowedDist {
    let mut w = WindowedDist::new(WINDOW).expect("window");
    for _ in 0..intervals {
        w.accumulate(next());
        w.close_interval();
    }
    w
}

/// Smallest spike multiplier, in 5% steps from 1.05 up to `limit`, that
/// `detects`; infinity if none does.
fn min_detectable(limit: f64, detects: impl Fn(f64) -> bool) -> f64 {
    let mut mult = 1.05f64;
    loop {
        if detects(mult) {
            return mult;
        }
        mult += 0.05;
        if mult > limit {
            return f64::INFINITY;
        }
    }
}

/// Ablation: the alarm margin (DESIGN.md "Known deviations").
///
/// The paper's check is a bare `mean + 2σ`; our deployment adds a
/// relative margin `max(Xsum >> shift, 4)`. This sweep quantifies the
/// trade on per-interval counts: the false-alarm probability on clean
/// (Poisson-ish) traffic vs the smallest detectable spike multiplier,
/// as the margin widens from "off" to 50% of the mean.
pub fn margin() {
    println!("Ablation: relative alarm margin max(Xsum >> shift, floor) on the spike check");
    println!("(base rate {BASE}/interval, window {WINDOW}, k = 2; 10 000 clean intervals)");
    rule(78);
    println!(
        "{:<26} {:>18} {:>24}",
        "margin", "false alarms", "min detectable spike"
    );
    rule(78);
    // (label, shift, floor); margin off = shift 63, floor 0.
    let configs: [(&str, u32, u64); 5] = [
        ("off (paper's bare 2σ)", 63, 0),
        ("1/32 of mean (shift 5)", 5, 4),
        ("1/8 of mean (shift 3)", 3, 4),
        ("1/4 of mean (shift 2)", 2, 4),
        ("1/2 of mean (shift 1)", 1, 4),
    ];
    for (label, shift, floor) in configs {
        // False alarms on clean traffic, per 10 000 intervals.
        let fp_rate = |seed| alarms(seed, WINDOW, 10_000, (shift, floor), |x| x).0.len() as u64;
        let fp: u64 = (1..=3).map(fp_rate).sum::<u64>() / 3;
        let mut rng = workloads::rng(1);
        let w = warmed(WINDOW, || noise(&mut rng));
        let md = min_detectable(20.0, |mult| {
            w.is_spike_margined((BASE as f64 * mult) as i64, 2, 10, shift, floor)
        });
        println!("{label:<26} {fp:>13} /10k {md:>22.2}x");
    }
    rule(78);
    println!(
        "takeaway: the bare band false-alarms continuously on stochastic counts; 1/8 of the \
         mean (one shift + one max, P4-legal) silences it while still catching sub-2x spikes — \
         the deployment default."
    );
}

/// The band's margin as deployed in the case study: `max(Xsum >> 3, 4)`.
const DEPLOYED: (u32, u64) = (3, 4);
/// Intervals of noise before the CUSUM experiments start.
const CUSUM_WARMUP: usize = 200;

/// Feeds `warmup` intervals of noise from `seed`'s stream, then
/// `intervals` more of `f(noise)`, to the mean + 2σ band margined by
/// `margin` and to a CUSUM calibrated from the warmed window's
/// moments. Returns the intervals after the warm-up at which the band
/// and the CUSUM each alarmed.
fn alarms(
    seed: u64,
    warmup: usize,
    intervals: usize,
    margin: (u32, u64),
    f: impl Fn(i64) -> i64,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = workloads::rng(seed);
    let mut window = warmed(warmup, || noise(&mut rng));
    let mut cusum = CusumDetector::from_stats(window.stats(), 1, 8);
    let (mut band_at, mut cusum_at) = (Vec::new(), Vec::new());
    for i in 0..intervals {
        let x = f(noise(&mut rng));
        if window.is_spike_margined(x, 2, 10, margin.0, margin.1) {
            band_at.push(i);
        }
        if cusum.observe(x) {
            cusum_at.push(i);
        }
        window.accumulate(x);
        window.close_interval();
    }
    (band_at, cusum_at)
}

fn fmt_latency(x: Option<usize>) -> String {
    x.map_or("miss".into(), |v| format!("{v}"))
}

/// Ablation: the paper's mean + k·σ band vs an integer CUSUM — the
/// "larger exploration of in-switch statistical primitives" the paper's
/// future-work section calls for, quantified.
///
/// Three regimes over per-interval counts (window 100, margined band as
/// deployed in the case study, CUSUM calibrated from the same tracked
/// moments):
///
/// 1. clean noise — false alarms per 10 000 intervals;
/// 2. a 10× volumetric spike — detection latency in intervals;
/// 3. a sustained +20% shift (a low-and-slow attack) — detection
///    latency in intervals, where the band is structurally blind but
///    CUSUM accumulates.
pub fn cusum() {
    println!("Ablation: margined mean+2σ band vs integer CUSUM (per-interval counts, base {BASE})");
    rule(76);

    let (fb, fc) = alarms(11, CUSUM_WARMUP, 10_000, DEPLOYED, |x| x);
    println!(
        "clean noise, 10 000 intervals: band false alarms = {}, CUSUM false alarms = {}",
        fb.len(),
        fc.len()
    );
    // Each one's first alarm within 2 000 intervals of onset, if any.
    let detection_latency = |f: fn(i64) -> i64, seed| {
        let (band, cusum) = alarms(seed, CUSUM_WARMUP, 2_000, DEPLOYED, f);
        (band.first().copied(), cusum.first().copied())
    };

    println!(
        "\n{:<28} {:>16} {:>16}",
        "scenario", "band latency", "CUSUM latency"
    );
    rule(62);
    let mut band_sum = 0usize;
    let mut cusum_sum = 0usize;
    for seed in 1..=5u64 {
        let (b, c) = detection_latency(|x| x * 10, seed);
        band_sum += b.unwrap_or(9999);
        cusum_sum += c.unwrap_or(9999);
        println!(
            "{:<28} {:>16} {:>16}",
            format!("10x spike (seed {seed})"),
            fmt_latency(b),
            fmt_latency(c)
        );
    }
    rule(62);
    let mut misses_band = 0;
    let mut cusum_max = 0;
    for seed in 1..=5u64 {
        let (b, c) = detection_latency(|x| x + BASE / 5, seed);
        if b.is_none() {
            misses_band += 1;
        }
        cusum_max = cusum_max.max(c.unwrap_or(9999));
        println!(
            "{:<28} {:>16} {:>16}",
            format!("+20% sustained (seed {seed})"),
            fmt_latency(b),
            fmt_latency(c)
        );
    }
    rule(62);
    println!(
        "takeaway: on abrupt spikes both fire within ~1 interval (band {band_sum}, cusum {cusum_sum} \
         summed over 5 runs);"
    );
    println!(
        "on a low-and-slow +20% shift the band misses in {misses_band}/5 runs while CUSUM \
         accumulates the drift within {cusum_max} intervals — complementary primitives, both \
         P4-expressible."
    );
}

/// Ablation: order-of-magnitude value scaling (paper Sec. 2).
///
/// The paper: "we can further reduce memory consumption by storing the
/// order of magnitude of the values … if we keep 100ms-long counters
/// and a switch forwards 10Gb of traffic in most of the 100ms
/// intervals, we can track values in Gb units". This sweep tracks byte
/// volumes of ~1.25 GB/interval (10 Gb) through [`Scale`]s of
/// increasing coarseness and reports the register bits needed per
/// counter vs the smallest byte-volume spike the scaled mean + 2σ check
/// still detects.
pub fn scaling() {
    const BYTES_PER_INTERVAL: i64 = 1_250_000_000; // 10 Gb in 100 ms
    println!("Ablation: order-of-magnitude scaling of tracked byte volumes");
    println!(
        "(~{:.2} GB per interval ±5%, window {WINDOW}, margined 2σ check on scaled units)",
        BYTES_PER_INTERVAL as f64 / 1e9
    );
    rule(86);
    println!(
        "{:<12} {:>16} {:>14} {:>18} {:>20}",
        "shift", "scaled typical", "counter bits", "min detectable", "quantisation err"
    );
    rule(86);

    for shift in [0u32, 10, 20, 24, 27, 30] {
        let scale = Scale::new(0, shift, i64::MAX >> 2).expect("valid");
        let mut rng = workloads::rng(42);
        let mut max_scaled = 0i64;
        let w = warmed(WINDOW, || {
            let jitter = BYTES_PER_INTERVAL / 20;
            let s = scale.apply(BYTES_PER_INTERVAL + rng.random_range(-jitter..=jitter));
            max_scaled = max_scaled.max(s);
            s
        });
        let detected = min_detectable(50.0, |mult| {
            let spike = scale.apply((BYTES_PER_INTERVAL as f64 * mult) as i64);
            w.is_spike_margined(spike, 2, 10, DEPLOYED.0, DEPLOYED.1)
        });
        // Bits needed to store the largest scaled value seen.
        let bits = 64 - (max_scaled.max(1) as u64).leading_zeros();
        println!(
            "{:<12} {:>16} {:>14} {:>17.2}x {:>17} B",
            shift,
            scale.apply(BYTES_PER_INTERVAL),
            bits,
            detected,
            scale.quantisation_error()
        );
    }
    rule(86);
    println!(
        "takeaway: shifting 27 bits stores ~10 Gb intervals in 4-bit counters and still \
         detects a ~2x spike; past that the quantisation floor swallows the 2σ band — \
         the paper's \"values much bigger than 100 are unnecessary\" claim, quantified."
    );
}

/// Ablation: sketched vs exact per-value counters (paper future work).
///
/// Stat4 "allocates switch resources for every possible value in the
/// tracked distributions, even if some values are never observed"; the
/// paper proposes hash tables for sparse domains. This sweep tracks a
/// Zipf-popular prefix distribution (the paper's own future-work
/// example of a hard distribution) three ways — exact array, count-min,
/// conservative count-min — and reports memory vs estimate error vs
/// heavy-hitter accuracy.
pub fn sketch() {
    // 4096 possible prefixes, Zipf-popular, 200k packets.
    let workload = ZipfPrefixWorkload {
        prefixes: 4096,
        exponent: 1.1,
        packets: 200_000,
        gap_ns: 1,
        seed: 12,
    };
    let (_, counts) = workload.generate();
    let total: u64 = counts.iter().sum();
    let exact_bytes = counts.len() * 8;

    // Ground-truth heavy hitters: > 1/64 of traffic.
    let heavy_truth: Vec<usize> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c * 64 > total)
        .map(|(k, _)| k)
        .collect();

    println!(
        "Ablation: exact counters vs count-min on Zipf(s=1.1) over {} prefixes, {} packets",
        counts.len(),
        total
    );
    println!(
        "exact array: {} B, exact heavy hitters (>1/64): {:?}",
        exact_bytes, heavy_truth
    );
    rule(90);
    println!(
        "{:<26} {:>10} {:>14} {:>14} {:>10} {:>10}",
        "sketch", "bytes", "mean abs err", "p99 abs err", "HH found", "HH false"
    );
    rule(90);

    for (rows, width_log2) in [(2u32, 6u32), (4, 8), (4, 10), (4, 12)] {
        for (conservative, kind) in [(false, "plain"), (true, "conservative")] {
            let mut s = CountMinSketch::new(rows as usize, width_log2);
            for (k, &c) in counts.iter().enumerate() {
                // Feed per-key totals in unit increments interleaved is
                // equivalent for CM error; bulk-update for speed.
                if conservative {
                    s.update_conservative(k as u64, c);
                } else {
                    s.update(k as u64, c);
                }
            }
            let mut errs: Vec<u64> = counts
                .iter()
                .enumerate()
                .map(|(k, &c)| s.estimate(k as u64) - c)
                .collect();
            errs.sort_unstable();
            let mean = errs.iter().sum::<u64>() as f64 / errs.len() as f64;
            let p99 = errs[errs.len() * 99 / 100];
            let found = heavy_truth
                .iter()
                .filter(|&&k| s.is_heavy(k as u64, 6))
                .count();
            let false_heavy = (0..counts.len())
                .filter(|&k| !heavy_truth.contains(&k) && s.is_heavy(k as u64, 6))
                .count();
            println!(
                "{:<26} {:>10} {:>14.1} {:>14} {:>7}/{:<2} {:>10}",
                format!("{rows}x2^{width_log2} {kind}"),
                s.memory_bytes(),
                mean,
                p99,
                found,
                heavy_truth.len(),
                false_heavy
            );
        }
    }
    rule(90);
    println!(
        "takeaway: a 4x2^8 sketch finds every heavy hitter in 1/4 the memory of the exact \
         array; conservative update cuts the estimate error further at the cost of a \
         read-modify-write per row — the trade the paper's future-work section anticipates."
    );
}

/// Wall-clock samples per timed row of [`cost`].
const SAMPLES: usize = 31;
/// Calls of the measured closure per sample, so one sample is long
/// against the clock's resolution.
const CALLS: u32 = 16;

/// Median wall time of one call of `f`, in ns.
fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..CALLS {
                black_box(f());
            }
            started.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

fn heading(title: &str, count: &str, time: &str) {
    println!("\n== {title}");
    rule(86);
    println!("{:<36} {:>30} {:>18}", "variant", count, time);
    rule(86);
}

fn row(name: &str, count: &str, ns: f64) {
    println!("{name:<36} {count:>30} {ns:>18.1}");
}

/// Pushes `values`, reading σ after every `read_every`-th push. Every
/// read follows a push, so every read is an evaluation (MSB scan +
/// shift) even through the memoising accessor. Returns the sum of the
/// reads and their number.
fn sigma_run(values: &[i64], read_every: usize) -> (u64, u64) {
    let mut s = RunningStats::new();
    let (mut acc, mut evals) = (0u64, 0u64);
    for (i, &v) in values.iter().enumerate() {
        s.push(black_box(v));
        if (i + 1) % read_every == 0 {
            acc = acc.wrapping_add(s.sd_cached());
            evals += 1;
        }
    }
    (acc, evals)
}

fn sigma_table() {
    let values: Vec<i64> = (0..1024i64).map(|i| (i * 37) % 1000).collect();
    heading(
        "sigma_ablation: when is the standard deviation evaluated?",
        "σ evals / 1024 pushes",
        "ns / 1024 pushes",
    );
    for (name, read_every) in [
        ("eager_sd_every_push", 1),
        ("cached_sd_read_every_16th_push", 16),
        ("lazy_sd_on_read", values.len()),
    ] {
        let (_, evals) = sigma_run(&values, read_every);
        row(
            name,
            &evals.to_string(),
            median_ns(|| sigma_run(&values, read_every)),
        );
    }
}

/// Observes `values` under `quantiles`, rebalancing to a fixed point
/// after each packet when `full`. Returns total marker moves and the
/// most moves any one packet caused.
fn percentile_run(values: &[i64], quantiles: &[Quantile], full: bool) -> (u64, u64) {
    let mut s = PercentileSet::new(0, 999, quantiles).expect("domain");
    let moves = |s: &PercentileSet| (0..quantiles.len()).map(|i| s.moves(i)).sum::<u64>();
    let (mut total, mut worst) = (0u64, 0u64);
    for &v in values {
        s.observe(black_box(v)).expect("in domain");
        if full {
            s.rebalance_full();
        }
        let now = moves(&s);
        worst = worst.max(now - total);
        total = now;
    }
    (total, worst)
}

fn percentile_table() {
    let values: Vec<i64> = (0..4096i64).map(|i| (i * 131) % 1000).collect();
    let median = [Quantile::median()];
    let three = [
        Quantile::percentile(10).expect("valid"),
        Quantile::median(),
        Quantile::percentile(90).expect("valid"),
    ];
    heading(
        "percentile: how far may the marker move per packet?",
        "moves / packet: mean, max",
        "ns / packet",
    );
    for (name, quantiles, full) in [
        ("median_one_step_per_packet", &median[..], false),
        ("median_full_rebalance_per_packet", &median[..], true),
        ("three_markers_shared_counts", &three[..], false),
    ] {
        let (total, worst) = percentile_run(&values, quantiles, full);
        let n = values.len() as f64;
        row(
            name,
            &format!("{:.3}, {worst}", total as f64 / n),
            median_ns(|| percentile_run(&values, quantiles, full)) / n,
        );
    }
}

/// A row for host arithmetic, which has no step count: `f` summed over
/// `inputs`, per value.
fn native_row(name: &str, inputs: &[u64], f: impl Fn(u64) -> u128) {
    let sum = || {
        inputs
            .iter()
            .fold(0u128, |acc, &x| acc.wrapping_add(f(black_box(x))))
    };
    row(name, "-", median_ns(sum) / inputs.len() as f64);
}

/// A row for an IR program: its interpreter steps per packet over the
/// first 64 `inputs`, and its time per packet.
fn ir_row(name: &str, pipe: &mut p4sim::Pipeline, inputs: &[u64]) {
    let packets = &inputs[..64];
    let (_, steps) = run_unary(pipe, packets);
    row(
        &format!("ir/{name}"),
        &format!("{:.1}", steps as f64 / packets.len() as f64),
        median_ns(|| run_unary(pipe, packets)) / packets.len() as f64,
    );
}

fn squaring_table() {
    let inputs: Vec<u64> = (1..1025u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 60_000)
        .collect();
    heading(
        "squaring: x² without a runtime multiplier",
        "interpreter steps / packet",
        "ns / value",
    );
    native_row("exact_mul", &inputs, |x| u128::from(x) * u128::from(x));
    native_row(
        "approx_shift_one_term",
        &inputs,
        stat4_core::square::approx_square,
    );
    native_row(
        "approx_shift_refined",
        &inputs,
        stat4_core::square::approx_square_refined,
    );
    for (name, mut pipe) in squaring_pipelines() {
        ir_row(name, &mut pipe, &inputs);
    }
}

fn isqrt_table() {
    let inputs: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9) % 1_000_000)
        .collect();
    heading(
        "isqrt: the shift-based square root",
        "interpreter steps / packet",
        "ns / value",
    );
    native_row("approx_shift_based", &inputs, |x| {
        stat4_core::isqrt::approx_isqrt(x).into()
    });
    native_row("exact_digit_by_digit", &inputs, |x| {
        stat4_core::isqrt::exact_isqrt(x).into()
    });
    native_row("f64_sqrt_floor", &inputs, |x| (x as f64).sqrt() as u128);
    // The IR realisation, whose cost includes the MSB if-cascade the
    // paper amortises with lazy evaluation.
    ir_row("approx_shift_based", &mut isqrt_pipeline(), &inputs);
}

/// Ablation: what the paper's four cost-driven design choices buy.
///
/// One table per choice: lazy σ (Sec. 3, "updates the statistical
/// measures only when a new value is added"), one marker step per
/// packet (Sec. 2, Fig. 3), shift-add squaring for targets without a
/// runtime multiplier (Sec. 2) and the shift-based square root
/// (Fig. 2). Times are the median of 31 wall-clock samples
/// and differ between machines; the count beside each (σ evaluations,
/// marker moves, interpreter steps) does not, and is what the findings
/// in `EXPERIMENTS.md` rest on.
pub fn cost() {
    println!("Ablation: the cost of the paper's design choices");
    println!("(times: median of {SAMPLES} samples, this machine; counts: exact)");
    sigma_table();
    percentile_table();
    squaring_table();
    isqrt_table();
    rule(86);
    println!(
        "takeaway: reading σ only when asked does one evaluation where the eager rule does \
         1024; the one-step rule never moves a marker twice for one packet, whatever the \
         input; squaring without a multiplier costs two orders of magnitude more \
         interpreter steps than `Mul` — the prices the paper's design pays or avoids."
    );
}
