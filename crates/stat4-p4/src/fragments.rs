//! Reusable program fragments: the paper's algorithms as action/control
//! IR.
//!
//! Each `*_primitives` function returns straight-line instruction
//! sequences (P4 actions cannot branch); each `*_fragment` function adds
//! the needed actions to a [`ProgramBuilder`] and returns the
//! [`Control`] subtree wiring them together with branches. Fragments
//! communicate through the [`crate::scratch`] fields.
//!
//! The unit tests cross-validate every fragment against the portable
//! implementations in `stat4_core` — the IR square root must agree with
//! [`stat4_core::isqrt::approx_isqrt`] on every input, the unrolled
//! multiplier must be exact, the frequency update must track
//! [`stat4_core::freq::FrequencyDist`] bit for bit.

use crate::scratch;
use p4sim::action::{ActionDef, Operand, Primitive};
use p4sim::control::{CmpOp, Cond, Control};
use p4sim::phv::FieldId;
use p4sim::program::ProgramBuilder;

/// Straight-line body of the paper's Figure 2 square-root algorithm
/// (valid for `src != 0`; the zero case needs the branch in
/// [`isqrt_fragment`]). Clobbers `SQRT_E`, `SQRT_M`, `SQRT_T`, `TMP`.
#[must_use]
pub(crate) fn isqrt_primitives(src: FieldId, dst: FieldId) -> Vec<Primitive> {
    use scratch::{SQRT_E, SQRT_M, SQRT_T, TMP};
    vec![
        // e = msb(src)
        Primitive::Msb {
            dst: SQRT_E,
            src: Operand::Field(src),
        },
        // mask = (1 << e) - 1 ; m = src & mask
        Primitive::Shl {
            dst: TMP,
            src: Operand::Const(1),
            amount: Operand::Field(SQRT_E),
        },
        Primitive::Sub {
            dst: TMP,
            a: Operand::Field(TMP),
            b: Operand::Const(1),
        },
        Primitive::And {
            dst: SQRT_M,
            a: Operand::Field(src),
            b: Operand::Field(TMP),
        },
        // ebit = e & 1, shifted to the mantissa's top bit: ebit << (e-1).
        // (For e = 0 the distance wraps past 63 and the shift yields 0,
        // which is exactly what the algorithm needs.)
        Primitive::And {
            dst: SQRT_T,
            a: Operand::Field(SQRT_E),
            b: Operand::Const(1),
        },
        Primitive::Sub {
            dst: TMP,
            a: Operand::Field(SQRT_E),
            b: Operand::Const(1),
        },
        Primitive::Shl {
            dst: SQRT_T,
            src: Operand::Field(SQRT_T),
            amount: Operand::Field(TMP),
        },
        // m1 = (m >> 1) | (ebit << (e-1))
        Primitive::Shr {
            dst: SQRT_M,
            src: Operand::Field(SQRT_M),
            amount: Operand::Const(1),
        },
        Primitive::Or {
            dst: SQRT_M,
            a: Operand::Field(SQRT_M),
            b: Operand::Field(SQRT_T),
        },
        // e1 = e >> 1 ; head = 1 << e1
        Primitive::Shr {
            dst: SQRT_T,
            src: Operand::Field(SQRT_E),
            amount: Operand::Const(1),
        },
        Primitive::Shl {
            dst,
            src: Operand::Const(1),
            amount: Operand::Field(SQRT_T),
        },
        // top = m1 >> (e - e1) ; result = head | top
        Primitive::Sub {
            dst: TMP,
            a: Operand::Field(SQRT_E),
            b: Operand::Field(SQRT_T),
        },
        Primitive::Shr {
            dst: SQRT_M,
            src: Operand::Field(SQRT_M),
            amount: Operand::Field(TMP),
        },
        Primitive::Or {
            dst,
            a: Operand::Field(dst),
            b: Operand::Field(SQRT_M),
        },
    ]
}

/// Adds the square-root actions to `b` and returns the control subtree
/// computing `dst = approx_isqrt(src)`.
pub fn isqrt_fragment(b: &mut ProgramBuilder, src: FieldId, dst: FieldId) -> Control {
    let zero = b.add_action(ActionDef::new(
        "isqrt_zero",
        vec![Primitive::Set {
            dst,
            src: Operand::Const(0),
        }],
    ));
    let main = b.add_action(ActionDef::new("isqrt_main", isqrt_primitives(src, dst)));
    Control::If {
        cond: Cond::new(Operand::Field(src), CmpOp::Eq, Operand::Const(0)),
        then_branch: Box::new(Control::ApplyAction(zero)),
        else_branch: Some(Box::new(Control::ApplyAction(main))),
    }
}

/// Hardware variant of the square root: no dynamic shifts. One `Msb`
/// plus a branch tree on the exponent, each leaf a handful of
/// constant-distance shifts — the in-IR analogue of the paper's
/// "longest prefix match on an ad-hoc TCAM table" suggestion (the
/// branch selects what the TCAM row would encode).
pub fn isqrt_fragment_const_shifts(b: &mut ProgramBuilder, src: FieldId, dst: FieldId) -> Control {
    use scratch::{SQRT_E, SQRT_M};
    let zero = b.add_action(ActionDef::new(
        "isqrt_zero",
        vec![Primitive::Set {
            dst,
            src: Operand::Const(0),
        }],
    ));
    let msb = b.add_action(ActionDef::new(
        "isqrt_msb",
        vec![Primitive::Msb {
            dst: SQRT_E,
            src: Operand::Field(src),
        }],
    ));
    // e == 0 (src == 1) -> 1.
    let mut chain = Control::ApplyAction(b.add_action(ActionDef::new(
        "isqrt_e0",
        vec![Primitive::Set {
            dst,
            src: Operand::Const(1),
        }],
    )));
    // Build the chain from e = 1 upward so the final tree tests high
    // exponents first (irrelevant semantically, cheap to build).
    for e in 1u64..64 {
        // With e known, every shift distance is a constant:
        let mask = if e >= 64 { u64::MAX } else { (1u64 << e) - 1 };
        let tconst = (e & 1) << (e - 1); // ebit << (e-1)
        let e1 = e >> 1;
        let head = 1u64 << e1;
        let top_shift = e - e1;
        let leaf = b.add_action(ActionDef::new(
            format!("isqrt_e{e}"),
            vec![
                Primitive::And {
                    dst: SQRT_M,
                    a: Operand::Field(src),
                    b: Operand::Const(mask),
                },
                Primitive::Shr {
                    dst: SQRT_M,
                    src: Operand::Field(SQRT_M),
                    amount: Operand::Const(1),
                },
                Primitive::Or {
                    dst: SQRT_M,
                    a: Operand::Field(SQRT_M),
                    b: Operand::Const(tconst),
                },
                Primitive::Shr {
                    dst: SQRT_M,
                    src: Operand::Field(SQRT_M),
                    amount: Operand::Const(top_shift),
                },
                Primitive::Or {
                    dst,
                    a: Operand::Field(SQRT_M),
                    b: Operand::Const(head),
                },
            ],
        ));
        chain = Control::If {
            cond: Cond::new(Operand::Field(SQRT_E), CmpOp::Eq, Operand::Const(e)),
            then_branch: Box::new(Control::ApplyAction(leaf)),
            else_branch: Some(Box::new(chain)),
        };
    }
    Control::If {
        cond: Cond::new(Operand::Field(src), CmpOp::Eq, Operand::Const(0)),
        then_branch: Box::new(Control::ApplyAction(zero)),
        else_branch: Some(Box::new(Control::Seq(vec![Control::ApplyAction(msb), chain]))),
    }
}

/// Target-adaptive square root: dynamic shifts where the target allows
/// them, otherwise the constant-shift branch tree.
pub(crate) fn isqrt_fragment_for(
    b: &mut ProgramBuilder,
    target: &p4sim::TargetModel,
    src: FieldId,
    dst: FieldId,
) -> Control {
    if target.allow_dynamic_shift {
        isqrt_fragment(b, src, dst)
    } else {
        isqrt_fragment_const_shifts(b, src, dst)
    }
}

/// Straight-line shift-approximated squaring (valid for `src != 0`;
/// see [`approx_square_fragment`]). Clobbers `SQRT_E`, `SQRT_M`, `TMP`.
#[must_use]
pub(crate) fn approx_square_primitives(src: FieldId, dst: FieldId) -> Vec<Primitive> {
    use scratch::{SQRT_E, SQRT_M, TMP};
    vec![
        Primitive::Msb {
            dst: SQRT_E,
            src: Operand::Field(src),
        },
        // m = src & ((1 << e) - 1)
        Primitive::Shl {
            dst: TMP,
            src: Operand::Const(1),
            amount: Operand::Field(SQRT_E),
        },
        Primitive::Sub {
            dst: TMP,
            a: Operand::Field(TMP),
            b: Operand::Const(1),
        },
        Primitive::And {
            dst: SQRT_M,
            a: Operand::Field(src),
            b: Operand::Field(TMP),
        },
        // dst = 1 << (2e)
        Primitive::Shl {
            dst: TMP,
            src: Operand::Field(SQRT_E),
            amount: Operand::Const(1),
        },
        Primitive::Shl {
            dst,
            src: Operand::Const(1),
            amount: Operand::Field(TMP),
        },
        // dst += m << (e + 1)
        Primitive::Add {
            dst: TMP,
            a: Operand::Field(SQRT_E),
            b: Operand::Const(1),
        },
        Primitive::Shl {
            dst: SQRT_M,
            src: Operand::Field(SQRT_M),
            amount: Operand::Field(TMP),
        },
        Primitive::Add {
            dst,
            a: Operand::Field(dst),
            b: Operand::Field(SQRT_M),
        },
    ]
}

/// Adds the approximate-squaring actions and returns the control
/// subtree computing `dst ≈ src²` without any multiplication.
pub(crate) fn approx_square_fragment(b: &mut ProgramBuilder, src: FieldId, dst: FieldId) -> Control {
    let zero = b.add_action(ActionDef::new(
        "sq_zero",
        vec![Primitive::Set {
            dst,
            src: Operand::Const(0),
        }],
    ));
    let main = b.add_action(ActionDef::new("sq_main", approx_square_primitives(src, dst)));
    Control::If {
        cond: Cond::new(Operand::Field(src), CmpOp::Eq, Operand::Const(0)),
        then_branch: Box::new(Control::ApplyAction(zero)),
        else_branch: Some(Box::new(Control::ApplyAction(main))),
    }
}

/// Exact multiplication `dst = a × b` for `b < 2^bits`, fully unrolled
/// into constant-distance shifts and masked adds — legal on targets
/// without a runtime multiplier. `1 + 6·bits` primitives. Clobbers `TMP`
/// and `MUL_A`.
///
/// Per bit `i`: `t = (b >> i) & 1; mask = 0 − t; dst += (a << i) & mask`.
#[must_use]
pub fn mul_unrolled_primitives(a: FieldId, b: FieldId, dst: FieldId, bits: u32) -> Vec<Primitive> {
    use scratch::{MUL_A, TMP};
    let mut out = vec![Primitive::Set {
        dst,
        src: Operand::Const(0),
    }];
    for i in 0..bits {
        out.push(Primitive::Shr {
            dst: TMP,
            src: Operand::Field(b),
            amount: Operand::Const(u64::from(i)),
        });
        out.push(Primitive::And {
            dst: TMP,
            a: Operand::Field(TMP),
            b: Operand::Const(1),
        });
        // mask = 0 - t: all-ones when the bit is set.
        out.push(Primitive::Sub {
            dst: TMP,
            a: Operand::Const(0),
            b: Operand::Field(TMP),
        });
        out.push(Primitive::Shl {
            dst: MUL_A,
            src: Operand::Field(a),
            amount: Operand::Const(u64::from(i)),
        });
        out.push(Primitive::And {
            dst: MUL_A,
            a: Operand::Field(MUL_A),
            b: Operand::Field(TMP),
        });
        out.push(Primitive::Add {
            dst,
            a: Operand::Field(dst),
            b: Operand::Field(MUL_A),
        });
    }
    out
}

/// Exact `NX`-variance from the scratch moments:
/// `VAR = N·Xsumsq − Xsum²` (runtime multiplication — bmv2 targets).
/// Reads `N`, `XSUM`, `XSUMSQ`; clobbers `TMP`, `MUL_B`.
#[must_use]
pub(crate) fn variance_nx_primitives() -> Vec<Primitive> {
    use scratch::{MUL_B, N, TMP, VAR, XSUM, XSUMSQ};
    vec![
        Primitive::Mul {
            dst: TMP,
            a: Operand::Field(N),
            b: Operand::Field(XSUMSQ),
        },
        Primitive::Mul {
            dst: MUL_B,
            a: Operand::Field(XSUM),
            b: Operand::Field(XSUM),
        },
        Primitive::Sub {
            dst: VAR,
            a: Operand::Field(TMP),
            b: Operand::Field(MUL_B),
        },
    ]
}

/// One frequency-distribution observation (paper Sec. 2): given
/// `VALUE_IDX`, with action data `[0] = base cell` and `[1] = slot`,
/// bumps the value's counter and maintains `N`, `Xsum`, `Xsumsq`
/// **without rescanning** (`Xsumsq += 2·f + 1`).
///
/// Leaves the *updated* `N`, `XSUM`, `XSUMSQ` and the *old* count
/// `F_OLD` in scratch for downstream checks.
#[must_use]
pub(crate) fn freq_update_primitives(
    counters_reg: usize,
    n_reg: usize,
    xsum_reg: usize,
    xsumsq_reg: usize,
) -> Vec<Primitive> {
    use scratch::{ADDR, F_OLD, IS_NEW, N, TMP, VALUE_IDX, XSUM, XSUMSQ};
    vec![
        // addr = base + idx
        Primitive::Add {
            dst: ADDR,
            a: Operand::Field(VALUE_IDX),
            b: Operand::Data(0),
        },
        Primitive::RegRead {
            dst: F_OLD,
            register: counters_reg,
            index: Operand::Field(ADDR),
        },
        // is_new = 1 - min(f, 1)
        Primitive::Min {
            dst: TMP,
            a: Operand::Field(F_OLD),
            b: Operand::Const(1),
        },
        Primitive::Sub {
            dst: IS_NEW,
            a: Operand::Const(1),
            b: Operand::Field(TMP),
        },
        // N += is_new
        Primitive::RegRead {
            dst: N,
            register: n_reg,
            index: Operand::Data(1),
        },
        Primitive::Add {
            dst: N,
            a: Operand::Field(N),
            b: Operand::Field(IS_NEW),
        },
        Primitive::RegWrite {
            register: n_reg,
            index: Operand::Data(1),
            src: Operand::Field(N),
        },
        // Xsum += 1
        Primitive::RegRead {
            dst: XSUM,
            register: xsum_reg,
            index: Operand::Data(1),
        },
        Primitive::Add {
            dst: XSUM,
            a: Operand::Field(XSUM),
            b: Operand::Const(1),
        },
        Primitive::RegWrite {
            register: xsum_reg,
            index: Operand::Data(1),
            src: Operand::Field(XSUM),
        },
        // Xsumsq += 2f + 1
        Primitive::RegRead {
            dst: XSUMSQ,
            register: xsumsq_reg,
            index: Operand::Data(1),
        },
        Primitive::Shl {
            dst: TMP,
            src: Operand::Field(F_OLD),
            amount: Operand::Const(1),
        },
        Primitive::Add {
            dst: TMP,
            a: Operand::Field(TMP),
            b: Operand::Const(1),
        },
        Primitive::Add {
            dst: XSUMSQ,
            a: Operand::Field(XSUMSQ),
            b: Operand::Field(TMP),
        },
        Primitive::RegWrite {
            register: xsumsq_reg,
            index: Operand::Data(1),
            src: Operand::Field(XSUMSQ),
        },
        // f += 1
        Primitive::Add {
            dst: TMP,
            a: Operand::Field(F_OLD),
            b: Operand::Const(1),
        },
        Primitive::RegWrite {
            register: counters_reg,
            index: Operand::Field(ADDR),
            src: Operand::Field(TMP),
        },
    ]
}

/// Fixed-point EWMA update in the pipeline (`α = 2^−shift`): one read,
/// one constant shift, one subtract, one add, one write — see
/// [`stat4_core::ewma::Ewma`] for the numeric design (the accumulator
/// keeps `shift` fractional bits so small deviations still converge).
/// Valid for non-negative samples (rates/counts); a zero accumulator is
/// treated as "unseeded" by [`ewma_fragment`]'s branch.
#[must_use]
pub(crate) fn ewma_update_primitives(
    acc_reg: usize,
    slot: u64,
    x: FieldId,
    out: FieldId,
    shift: u32,
) -> Vec<Primitive> {
    use scratch::{MUL_B, TMP};
    vec![
        Primitive::RegRead {
            dst: MUL_B,
            register: acc_reg,
            index: Operand::Const(slot),
        },
        Primitive::Shr {
            dst: TMP,
            src: Operand::Field(MUL_B),
            amount: Operand::Const(u64::from(shift)),
        },
        Primitive::Sub {
            dst: MUL_B,
            a: Operand::Field(MUL_B),
            b: Operand::Field(TMP),
        },
        Primitive::Add {
            dst: MUL_B,
            a: Operand::Field(MUL_B),
            b: Operand::Field(x),
        },
        Primitive::RegWrite {
            register: acc_reg,
            index: Operand::Const(slot),
            src: Operand::Field(MUL_B),
        },
        Primitive::Shr {
            dst: out,
            src: Operand::Field(MUL_B),
            amount: Operand::Const(u64::from(shift)),
        },
    ]
}

/// Adds the EWMA actions and returns the control subtree: seeds the
/// accumulator at the first non-zero sample (RFC 6298 style), then
/// performs the shift-based update per packet. `out` receives the
/// current average.
pub(crate) fn ewma_fragment(
    b: &mut ProgramBuilder,
    acc_reg: usize,
    slot: u64,
    x: FieldId,
    out: FieldId,
    shift: u32,
) -> Control {
    use scratch::MUL_B;
    let seed = b.add_action(ActionDef::new(
        "ewma_seed",
        vec![
            Primitive::Shl {
                dst: MUL_B,
                src: Operand::Field(x),
                amount: Operand::Const(u64::from(shift)),
            },
            Primitive::RegWrite {
                register: acc_reg,
                index: Operand::Const(slot),
                src: Operand::Field(MUL_B),
            },
            Primitive::Set {
                dst: out,
                src: Operand::Field(x),
            },
        ],
    ));
    let probe = b.add_action(ActionDef::new(
        "ewma_probe",
        vec![Primitive::RegRead {
            dst: MUL_B,
            register: acc_reg,
            index: Operand::Const(slot),
        }],
    ));
    let update = b.add_action(ActionDef::new(
        "ewma_update",
        ewma_update_primitives(acc_reg, slot, x, out, shift),
    ));
    Control::Seq(vec![
        Control::ApplyAction(probe),
        Control::If {
            cond: Cond::new(Operand::Field(MUL_B), CmpOp::Eq, Operand::Const(0)),
            then_branch: Box::new(Control::ApplyAction(seed)),
            else_branch: Some(Box::new(Control::ApplyAction(update))),
        },
    ])
}

/// Control fragment: computes `VAR` (exact) and `SD` from the scratch
/// moments — the lazy σ evaluation point.
pub(crate) fn variance_sd_fragment(b: &mut ProgramBuilder) -> Control {
    use scratch::{SD, VAR};
    let var_action = b.add_action(ActionDef::new("variance_nx", variance_nx_primitives()));
    let sqrt = isqrt_fragment(b, VAR, SD);
    Control::Seq(vec![Control::ApplyAction(var_action), sqrt])
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::phv::{fields, Phv};
    use p4sim::{Pipeline, TargetModel};
    use stat4_core::freq::FrequencyDist;
    use stat4_core::isqrt::approx_isqrt;
    use stat4_core::square::approx_square;

    /// Builds a pipeline that runs `fragment(IN -> OUT)` once per packet,
    /// with IN preloaded from the PHV by the test.
    fn fragment_pipeline(build: impl FnOnce(&mut ProgramBuilder) -> Control) -> Pipeline {
        let mut b = ProgramBuilder::new();
        let c = build(&mut b);
        b.set_control(c);
        b.build(TargetModel::bmv2()).unwrap()
    }

    const IN: FieldId = fields::PAYLOAD_VALUE;
    const OUT: FieldId = scratch::SD;

    fn run_unary(p: &mut Pipeline, x: u64) -> u64 {
        let mut phv = Phv::new();
        phv.set(IN, x);
        p.process_phv(&mut phv).unwrap();
        phv.get(OUT)
    }

    #[test]
    fn ir_isqrt_matches_core_exhaustively() {
        let mut p = fragment_pipeline(|b| isqrt_fragment(b, IN, OUT));
        for x in 0..5_000u64 {
            assert_eq!(run_unary(&mut p, x), approx_isqrt(x), "x = {x}");
        }
    }

    #[test]
    fn ir_isqrt_matches_core_on_large_values() {
        let mut p = fragment_pipeline(|b| isqrt_fragment(b, IN, OUT));
        for x in [
            106,
            u64::from(u32::MAX),
            1 << 40,
            (1 << 40) + 12345,
            u64::MAX,
            u64::MAX - 1,
            1 << 62,
        ] {
            assert_eq!(run_unary(&mut p, x), approx_isqrt(x), "x = {x}");
        }
    }

    #[test]
    fn const_shift_isqrt_matches_core() {
        let mut p = fragment_pipeline(|b| {
            isqrt_fragment_const_shifts(b, IN, OUT)
        });
        for x in 0..5_000u64 {
            assert_eq!(run_unary(&mut p, x), approx_isqrt(x), "x = {x}");
        }
        for x in [u64::MAX, 1 << 63, (1 << 50) + 999, u64::from(u32::MAX)] {
            assert_eq!(run_unary(&mut p, x), approx_isqrt(x), "x = {x}");
        }
    }

    #[test]
    fn const_shift_isqrt_is_hardware_legal() {
        let mut b = ProgramBuilder::new();
        let c = isqrt_fragment_const_shifts(&mut b, IN, OUT);
        b.set_control(c);
        assert!(b.build(TargetModel::tofino_like()).is_ok());
    }

    #[test]
    fn ir_square_matches_core() {
        let mut p = fragment_pipeline(|b| approx_square_fragment(b, IN, OUT));
        for x in 0..3_000u64 {
            let expect = u64::try_from(approx_square(x)).unwrap();
            assert_eq!(run_unary(&mut p, x), expect, "x = {x}");
        }
    }

    #[test]
    fn unrolled_mul_is_exact() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "mul",
            mul_unrolled_primitives(fields::PAYLOAD_VALUE, fields::PKT_LEN, OUT, 16),
        ));
        b.set_control(Control::ApplyAction(a));
        let mut p = b.build(TargetModel::tofino_like()).unwrap();
        for (x, y) in [(0u64, 0u64), (1, 1), (7, 9), (1234, 4321), (65535, 65535), (1 << 30, 3)] {
            let mut phv = Phv::new();
            phv.set(fields::PAYLOAD_VALUE, x);
            phv.set(fields::PKT_LEN, y);
            p.process_phv(&mut phv).unwrap();
            assert_eq!(phv.get(OUT), x.wrapping_mul(y), "{x} * {y}");
        }
    }

    #[test]
    fn unrolled_mul_is_hardware_legal() {
        // The whole point: it must validate on the multiply-less target.
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "mul",
            mul_unrolled_primitives(fields::PAYLOAD_VALUE, fields::PKT_LEN, OUT, 8),
        ));
        b.set_control(Control::ApplyAction(a));
        assert!(b.build(TargetModel::tofino_like()).is_ok());
    }

    #[test]
    fn runtime_mul_variance_rejected_on_hardware() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new("var", variance_nx_primitives()));
        b.set_control(Control::ApplyAction(a));
        assert!(b.build(TargetModel::tofino_like()).is_err());
    }

    /// Drives the frequency-update fragment with a stream of values and
    /// checks every register against `stat4_core::FrequencyDist`.
    #[test]
    fn freq_update_tracks_core_dist() {
        let mut b = ProgramBuilder::new();
        let counters = b.add_register("counters", 64, 64);
        let n_reg = b.add_register("n", 64, 2);
        let xsum_reg = b.add_register("xsum", 64, 2);
        let xsumsq_reg = b.add_register("xsumsq", 64, 2);
        // An extractor action: VALUE_IDX = payload (already an index).
        let mut prims = vec![Primitive::Set {
            dst: scratch::VALUE_IDX,
            src: Operand::Field(fields::PAYLOAD_VALUE),
        }];
        prims.extend(freq_update_primitives(counters, n_reg, xsum_reg, xsumsq_reg));
        let upd = b.add_action(ActionDef::new("freq_update", prims));
        let t = b.add_table(p4sim::TableDef {
            name: "bind".into(),
            keys: vec![],
            max_entries: 1,
            allowed_actions: vec![upd],
            default_action: Some((upd, vec![0, 0])), // base 0, slot 0
        });
        b.set_control(Control::ApplyTable(t));
        let mut p = b.build(TargetModel::bmv2()).unwrap();

        let mut oracle = FrequencyDist::new(0, 63).unwrap();
        let values = [3i64, 7, 3, 0, 63, 7, 7, 12, 3, 3, 0, 1, 2, 3, 63];
        for &v in &values {
            let mut phv = Phv::new();
            phv.set(fields::PAYLOAD_VALUE, v as u64);
            p.process_phv(&mut phv).unwrap();
            oracle.observe(v).unwrap();

            assert_eq!(p.registers()[n_reg].cells[0], oracle.n_distinct());
            assert_eq!(p.registers()[xsum_reg].cells[0], oracle.xsum());
            assert_eq!(
                u128::from(p.registers()[xsumsq_reg].cells[0]),
                oracle.xsumsq()
            );
            assert_eq!(
                p.registers()[counters].cells[v as usize],
                oracle.frequency(v)
            );
        }
    }

    /// The pipeline EWMA matches the portable fixed-point EWMA on every
    /// sample.
    #[test]
    fn ewma_fragment_matches_core() {
        use stat4_core::ewma::Ewma;
        let shift = 4u32;
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("ewma_acc", 64, 1);
        let frag = ewma_fragment(&mut b, reg, 0, IN, OUT, shift);
        b.set_control(frag);
        let mut p = b.build(TargetModel::bmv2()).unwrap();

        let mut oracle = Ewma::new(shift);
        let values: Vec<u64> = (0..500u64).map(|i| 50 + (i * 13) % 200).collect();
        for &v in &values {
            let mut phv = Phv::new();
            phv.set(IN, v);
            p.process_phv(&mut phv).unwrap();
            oracle.update(v as i64);
            assert_eq!(
                phv.get(OUT),
                oracle.value() as u64,
                "diverged at sample {v}"
            );
            assert_eq!(
                p.registers()[reg].cells[0],
                oracle.raw() as u64,
                "accumulators diverged"
            );
        }
    }

    /// The end-to-end lazy-σ pipeline: freq update, then VAR/SD in
    /// scratch must equal the oracle's values.
    #[test]
    fn variance_sd_fragment_matches_oracle() {
        let mut b = ProgramBuilder::new();
        let counters = b.add_register("counters", 64, 32);
        let n_reg = b.add_register("n", 64, 1);
        let xsum_reg = b.add_register("xsum", 64, 1);
        let xsumsq_reg = b.add_register("xsumsq", 64, 1);
        let mut prims = vec![Primitive::Set {
            dst: scratch::VALUE_IDX,
            src: Operand::Field(fields::PAYLOAD_VALUE),
        }];
        prims.extend(freq_update_primitives(counters, n_reg, xsum_reg, xsumsq_reg));
        let upd = b.add_action(ActionDef::new("freq_update", prims));
        let t = b.add_table(p4sim::TableDef {
            name: "bind".into(),
            keys: vec![],
            max_entries: 1,
            allowed_actions: vec![upd],
            default_action: Some((upd, vec![0, 0])),
        });
        let var_sd = variance_sd_fragment(&mut b);
        b.set_control(Control::Seq(vec![Control::ApplyTable(t), var_sd]));
        let mut p = b.build(TargetModel::bmv2()).unwrap();

        let mut oracle = FrequencyDist::new(0, 31).unwrap();
        let mut phv_last = Phv::new();
        for v in [5i64, 5, 9, 1, 5, 30, 9, 9, 2, 2, 2, 2] {
            let mut phv = Phv::new();
            phv.set(fields::PAYLOAD_VALUE, v as u64);
            p.process_phv(&mut phv).unwrap();
            oracle.observe(v).unwrap();
            phv_last = phv;
        }
        assert_eq!(u128::from(phv_last.get(scratch::VAR)), oracle.variance_nx());
        assert_eq!(phv_last.get(scratch::SD), oracle.sd_nx());
    }
}
