//! The paper's artefacts and the ablations, each a function that prints
//! one table; the `repro` binary runs one by name.
//!
//! [`paper`] regenerates the paper's tables and figures (see
//! `DESIGN.md`'s experiment index) as paper-vs-measured comparisons,
//! [`ablation`] prints the table behind each design choice, and
//! `EXPERIMENTS.md` holds every output, checked byte for byte by
//! `tests/experiments_golden.rs`. The helpers below are shared with the
//! asserted accuracy tests.

pub mod ablation;
pub mod paper;

use p4sim::phv::fields::PAYLOAD_VALUE;
use p4sim::{ActionDef, Control, Operand, Phv, Pipeline, Primitive, ProgramBuilder, TargetModel};
use stat4_p4::scratch::SD;

/// Exact running median over a bounded integer domain, backed by a
/// Fenwick (binary indexed) tree: `insert` and `median` are both
/// `O(log N)`, making the Table 3 experiment linear instead of
/// quadratic in the sample count.
#[derive(Debug)]
pub struct RunningMedianOracle {
    /// `tree[i]` holds partial counts; 1-indexed Fenwick layout.
    tree: Vec<u64>,
    n: u64,
    domain: usize,
}

impl RunningMedianOracle {
    /// An oracle over values `1..=domain`.
    #[must_use]
    pub fn new(domain: usize) -> Self {
        Self {
            tree: vec![0; domain + 1],
            n: 0,
            domain,
        }
    }

    /// Records one occurrence of `v` (`1 <= v <= domain`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of domain.
    pub fn insert(&mut self, v: i64) {
        let mut i = usize::try_from(v).expect("positive value");
        assert!((1..=self.domain).contains(&i), "value {v} out of domain");
        self.n += 1;
        while i <= self.domain {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Exact nearest-rank median (`ceil(n/2)`-th smallest), `None` when
    /// empty.
    #[must_use]
    pub fn median(&self) -> Option<i64> {
        if self.n == 0 {
            return None;
        }
        let target = self.n.div_ceil(2);
        // Fenwick binary-lifting quantile search.
        let mut pos = 0usize;
        let mut remaining = target;
        let mut step = self.domain.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.domain && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        Some((pos + 1) as i64)
    }
}

/// Percentile (nearest-rank) of a sample of `f64`s.
///
/// # Panics
///
/// Panics on an empty sample or NaN values.
#[must_use]
pub fn percentile_f64(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Maximum of a sample.
///
/// # Panics
///
/// Panics on an empty sample or NaN values.
#[must_use]
pub fn max_f64(samples: &[f64]) -> f64 {
    samples
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Formats a percentage with sub-percent precision.
#[must_use]
pub fn pct(v: f64) -> String {
    if v < 0.01 && v > 0.0 {
        "<0.01%".to_string()
    } else {
        format!("{v:.2}%")
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// One row of Table 3: the median-tracking error experiment.
///
/// Feeds `samples` uniform draws from `[1, n]` into a one-step-per-
/// packet median tracker, recording for every packet the error
/// `|estimate − exact median of everything seen so far| / n` — the
/// relative-to-domain metric whose magnitudes match the paper's.
/// Returns `(errors_before_half, errors_after_half)`.
///
/// # Panics
///
/// Panics if `n < 1`.
pub fn median_error_run(
    n: i64,
    samples: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    use rand::Rng;
    let mut rng = workloads::rng(seed);
    let mut tracker =
        stat4_core::percentile::PercentileTracker::median(1, n).expect("valid domain");
    let mut oracle = RunningMedianOracle::new(usize::try_from(n).expect("positive domain"));
    let mut before = Vec::new();
    let mut after = Vec::new();
    let half = (n as usize / 2).min(samples);
    for i in 0..samples {
        let v: i64 = rng.random_range(1..=n);
        tracker.observe(v).expect("in domain");
        oracle.insert(v);
        let est = tracker.estimate().expect("seeded") as f64;
        let truth = oracle.median().expect("non-empty") as f64;
        let err = (est - truth).abs() / n as f64 * 100.0;
        if i < half {
            before.push(err);
        } else {
            after.push(err);
        }
    }
    (before, after)
}

/// The squaring ablation's two IR programs, each `SD = PAYLOAD_VALUE²`
/// in one action: the runtime `Mul` primitive (bmv2 only) and the
/// 16-bit unrolled shift-add multiplier (legal on the multiply-less
/// target).
///
/// # Panics
///
/// Panics if either program fails validation on its target.
#[must_use]
pub fn squaring_pipelines() -> [(&'static str, Pipeline); 2] {
    let build = |name: &str, prims, target| {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(name, prims));
        b.set_control(Control::ApplyAction(a));
        b.build(target).expect("valid program")
    };
    let mul = vec![Primitive::Mul {
        dst: SD,
        a: Operand::Field(PAYLOAD_VALUE),
        b: Operand::Field(PAYLOAD_VALUE),
    }];
    let unrolled =
        stat4_p4::fragments::mul_unrolled_primitives(PAYLOAD_VALUE, PAYLOAD_VALUE, SD, 16);
    [
        ("runtime_mul", build("mul", mul, TargetModel::bmv2())),
        ("unrolled_16bit", build("mul_unrolled", unrolled, TargetModel::tofino_like())),
    ]
}

/// Figure 2's shift-based square root as an IR program on bmv2:
/// `SD = approx_isqrt(PAYLOAD_VALUE)`.
///
/// # Panics
///
/// Panics if the program fails validation.
#[must_use]
pub fn isqrt_pipeline() -> Pipeline {
    let mut b = ProgramBuilder::new();
    let frag = stat4_p4::fragments::isqrt_fragment(&mut b, PAYLOAD_VALUE, SD);
    b.set_control(frag);
    b.build(TargetModel::bmv2()).expect("valid program")
}

/// Runs one packet per input through `pipe` with the input in
/// `PAYLOAD_VALUE`; returns the wrapping sum of the `SD` outputs and
/// the interpreter steps consumed.
///
/// # Panics
///
/// Panics if the program faults on an input.
pub fn run_unary(pipe: &mut Pipeline, inputs: &[u64]) -> (u64, u64) {
    let (mut acc, mut steps) = (0u64, 0u64);
    for &x in inputs {
        let mut phv = Phv::new();
        phv.set(PAYLOAD_VALUE, x);
        steps += pipe.process_phv(&mut phv).expect("program runs").steps;
        acc = acc.wrapping_add(phv.get(SD));
    }
    (acc, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_median_matches_sort_based() {
        use rand::Rng;
        let mut rng = workloads::rng(5);
        let mut o = RunningMedianOracle::new(50);
        let mut seen = Vec::new();
        assert_eq!(o.median(), None);
        for _ in 0..500 {
            let v: i64 = rng.random_range(1..=50);
            o.insert(v);
            seen.push(v);
            assert_eq!(o.median(), stat4_core::oracle::median(&seen));
        }
    }

    #[test]
    fn percentile_helper() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile_f64(&s, 50.0), 5.0);
        assert_eq!(percentile_f64(&s, 90.0), 9.0);
        assert_eq!(percentile_f64(&s, 100.0), 10.0);
        assert_eq!(max_f64(&s), 10.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.001), "<0.01%");
        assert_eq!(pct(3.456), "3.46%");
        assert_eq!(pct(0.0), "0.00%");
    }

    #[test]
    fn median_error_run_shape() {
        let (before, after) = median_error_run(100, 400, 3);
        assert_eq!(before.len(), 50);
        assert_eq!(after.len(), 350);
        // The paper's qualitative claim: error collapses after the
        // distribution stops being sparse.
        let b90 = percentile_f64(&before, 90.0);
        let a90 = percentile_f64(&after, 90.0);
        assert!(a90 <= b90, "late error {a90} <= early error {b90}");
        assert!(a90 < 5.0, "late 90th percentile error small: {a90}");
    }
}
