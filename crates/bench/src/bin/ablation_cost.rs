//! Ablation: what the paper's four cost-driven design choices buy.
//!
//! ```text
//! cargo run -p bench --bin ablation_cost --release
//! ```
//!
//! One table per choice: lazy σ (Sec. 3, "updates the statistical
//! measures only when a new value is added"), one marker step per
//! packet (Sec. 2, Fig. 3), shift-add squaring for targets without a
//! runtime multiplier (Sec. 2) and the shift-based square root
//! (Fig. 2). Times are the median of [`SAMPLES`] wall-clock samples
//! and differ between machines; the count beside each (σ evaluations,
//! marker moves, interpreter steps) does not, and is what the findings
//! in `EXPERIMENTS.md` rest on.

use bench::{run_unary, squaring_pipelines};
use stat4_core::percentile::{PercentileSet, Quantile};
use stat4_core::running::RunningStats;
use std::hint::black_box;
use std::time::Instant;

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
    println!("{:-<86}", "");
    println!("{:<36} {:>30} {:>18}", "variant", count, time);
    println!("{:-<86}", "");
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
        row(name, &evals.to_string(), median_ns(|| sigma_run(&values, read_every)));
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
    let sum = || inputs.iter().fold(0u128, |acc, &x| acc.wrapping_add(f(black_box(x))));
    row(name, "-", median_ns(sum) / inputs.len() as f64);
}

fn squaring_table() {
    let inputs: Vec<u64> = (1..1025u64).map(|i| i.wrapping_mul(2_654_435_761) % 60_000).collect();
    heading(
        "squaring: x² without a runtime multiplier",
        "interpreter steps / packet",
        "ns / value",
    );
    native_row("exact_mul", &inputs, |x| u128::from(x) * u128::from(x));
    native_row("approx_shift_one_term", &inputs, stat4_core::square::approx_square);
    native_row("approx_shift_refined", &inputs, stat4_core::square::approx_square_refined);
    let packets = &inputs[..64];
    for (name, mut pipe) in squaring_pipelines() {
        let (_, steps) = run_unary(&mut pipe, packets);
        row(
            &format!("ir/{name}"),
            &format!("{:.1}", steps as f64 / packets.len() as f64),
            median_ns(|| run_unary(&mut pipe, packets)) / packets.len() as f64,
        );
    }
}

fn isqrt_table() {
    let inputs: Vec<u64> = (0..1024u64).map(|i| i.wrapping_mul(0x9e37_79b9) % 1_000_000).collect();
    heading(
        "isqrt: the shift-based square root",
        "interpreter steps / packet",
        "ns / value",
    );
    native_row("approx_shift_based", &inputs, |x| stat4_core::isqrt::approx_isqrt(x).into());
    native_row("exact_digit_by_digit", &inputs, |x| stat4_core::isqrt::exact_isqrt(x).into());
    native_row("f64_sqrt_floor", &inputs, |x| (x as f64).sqrt() as u128);
    // The IR realisation, whose cost includes the MSB if-cascade the
    // paper amortises with lazy evaluation.
    let mut b = p4sim::ProgramBuilder::new();
    let frag = stat4_p4::fragments::isqrt_fragment(
        &mut b,
        p4sim::phv::fields::PAYLOAD_VALUE,
        stat4_p4::scratch::SD,
    );
    b.set_control(frag);
    let mut pipe = b.build(p4sim::TargetModel::bmv2()).expect("valid program");
    let packets = &inputs[..64];
    let (_, steps) = run_unary(&mut pipe, packets);
    row(
        "ir/approx_shift_based",
        &format!("{:.1}", steps as f64 / packets.len() as f64),
        median_ns(|| run_unary(&mut pipe, packets)) / packets.len() as f64,
    );
}

fn main() {
    println!("Ablation: the cost of the paper's design choices");
    println!("(times: median of {SAMPLES} samples, this machine; counts: exact)");
    sigma_table();
    percentile_table();
    squaring_table();
    isqrt_table();
    println!("{:-<86}", "");
    println!(
        "takeaway: reading σ only when asked does one evaluation where the eager rule does \
         1024; the one-step rule never moves a marker twice for one packet, whatever the \
         input; squaring without a multiplier costs two orders of magnitude more \
         interpreter steps than `Mul` — the prices the paper's design pays or avoids."
    );
}
