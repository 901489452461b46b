//! Lint harness over every built-in stat4-p4 program.
//!
//! [`builtin_suite`] builds each shipped pipeline — the echo app on
//! both targets, the case study, both median variants, the sketch app,
//! and the standalone algorithm fragments — and runs the p4sim
//! compile-time verifier ([`p4sim::verify`]) on each, against the
//! target the program was built for. The `stat4-lint` binary and the
//! CI gate are thin wrappers over this function, and the unit tests
//! here pin the invariant the repo promises: every built-in program is
//! free of errors *and* warnings on its own target.

use crate::echo::VarianceMode;
use crate::{fragments, scratch};
use crate::{
    CaseStudyApp, CaseStudyParams, EchoApp, MedianApp, MedianAppParams, SketchApp,
    SketchAppParams, Stat4Config,
};
use p4sim::control::Control;
use p4sim::phv::fields;
use p4sim::program::ProgramBuilder;
use p4sim::{
    check_equivalence, check_merge_soundness, verify, ActionDef, EquivReport, FieldId, InputDomain,
    MergeReport, Operand, Pipeline, Primitive, RegMerge, SymbolicOptions, TargetModel, VerifyReport,
};

/// One linted built-in program: a display name plus the verifier's
/// findings for it on its own target.
pub struct LintEntry {
    /// Program name as shown by `stat4-lint`.
    pub name: &'static str,
    /// Verifier output (target name, diagnostics, stage allocation,
    /// range-analysis summary).
    pub report: VerifyReport,
}

fn entry(name: &'static str, pipeline: &Pipeline) -> LintEntry {
    LintEntry {
        name,
        report: verify(pipeline),
    }
}

/// Every built-in program as a named pipeline, on the target it ships
/// for. Single source of truth for [`builtin_suite`] and for the
/// symbolic-vs-concrete differential property test.
#[must_use]
pub fn builtin_pipelines() -> Vec<(&'static str, Pipeline)> {
    let mut out: Vec<(&'static str, Pipeline)> = Vec::new();

    let echo = EchoApp::build(&Stat4Config::default()).expect("echo/bmv2 builds");
    out.push(("echo (bmv2, exact-mul)", echo.pipeline));

    let echo_hw = EchoApp::build_with(
        &Stat4Config::default(),
        TargetModel::tofino_like(),
        VarianceMode::UnrolledShiftAdd { bits: 16 },
    )
    .expect("echo/tofino builds");
    out.push(("echo (tofino-like, shift-add)", echo_hw.pipeline));

    let case = CaseStudyApp::build(CaseStudyParams::default()).expect("case study builds");
    out.push(("casestudy (bmv2)", case.pipeline));

    let median = MedianApp::build(MedianAppParams::default()).expect("median builds");
    out.push(("median (bmv2)", median.pipeline));

    let median_recirc = MedianApp::build(MedianAppParams {
        converge_with_recirculation: true,
        ..MedianAppParams::default()
    })
    .expect("median/recirculation builds");
    out.push(("median (bmv2, recirculating)", median_recirc.pipeline));

    let sketch = SketchApp::build(SketchAppParams::default()).expect("sketch builds");
    out.push(("sketch (tofino-like)", sketch.pipeline));

    // Standalone fragment pipelines — the paper's algorithms in
    // isolation, each on the weakest target it is legal for.
    let isqrt = fragment_pipeline(TargetModel::bmv2(), |b| {
        fragments::isqrt_fragment(b, IN, OUT)
    });
    out.push(("fragment: isqrt (bmv2)", isqrt));

    let isqrt_hw = fragment_pipeline(TargetModel::tofino_like(), |b| {
        fragments::isqrt_fragment_const_shifts(b, IN, OUT)
    });
    out.push(("fragment: isqrt const-shift (tofino-like)", isqrt_hw));

    let square = fragment_pipeline(TargetModel::bmv2(), |b| {
        fragments::approx_square_fragment(b, IN, OUT)
    });
    out.push(("fragment: approx-square (bmv2)", square));

    let var_sd = fragment_pipeline(TargetModel::bmv2(), |b| {
        fragments::variance_sd_fragment(b, "variance_nx")
    });
    out.push(("fragment: variance+sd (bmv2)", var_sd));

    let ewma = fragment_pipeline(TargetModel::bmv2(), |b| {
        let reg = b.add_register("ewma_acc", 64, 1);
        // The EWMA update `acc - (acc >> k) + x` does not commute with a
        // sum merge; the accumulator is per-shard last-writer state.
        b.set_register_merge(reg, p4sim::RegMerge::None);
        fragments::ewma_fragment(b, reg, 0, IN, OUT, 3)
    });
    out.push(("fragment: ewma (bmv2)", ewma));

    let mul = fragment_pipeline(TargetModel::tofino_like(), |b| {
        let a = b.add_action(ActionDef::new(
            "mul16",
            fragments::mul_unrolled_primitives(IN, fields::PKT_LEN, OUT, 16),
        ));
        Control::ApplyAction(a)
    });
    out.push(("fragment: unrolled-mul (tofino-like)", mul));

    out
}

/// Input/output fields used by the standalone fragment pipelines.
const IN: FieldId = fields::PAYLOAD_VALUE;
const OUT: FieldId = scratch::SD;

fn fragment_pipeline(
    target: TargetModel,
    build: impl FnOnce(&mut ProgramBuilder) -> Control,
) -> Pipeline {
    let mut b = ProgramBuilder::new();
    let c = build(&mut b);
    b.set_control(c);
    b.build(target).expect("built-in fragment pipeline must build")
}

/// Builds every built-in program and verifies it against the target it
/// ships for. Panics only if a built-in fails to *build* — lint
/// findings are returned in the entries, not panicked on.
#[must_use]
pub fn builtin_suite() -> Vec<LintEntry> {
    builtin_pipelines()
        .iter()
        .map(|(name, p)| entry(name, p))
        .collect()
}

/// One cross-target differential check: the same algorithm built two
/// ways, with the symbolic verifier's verdict on whether they agree.
pub struct EquivEntry {
    /// Pair name as shown by `stat4-lint --equiv`.
    pub name: &'static str,
    /// True when the pair is *supposed* to diverge — the entry then
    /// passes only if the verifier finds the `S4L013` divergence (a
    /// self-test that the checker has teeth).
    pub expect_divergence: bool,
    /// The symbolic differential report.
    pub report: EquivReport,
}

impl EquivEntry {
    /// Lint outcome: expected-equivalent pairs must be clean under the
    /// severity policy; expected-divergent pairs must actually diverge.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        if self.expect_divergence {
            !self.report.equivalent()
        } else {
            self.report.passes(deny_warnings)
        }
    }
}

/// One merge-soundness check: a built-in program and the verdict on
/// whether every register update commutes with its declared merge.
pub struct MergeEntry {
    /// Program name as shown by `stat4-lint --merge-sound`.
    pub name: &'static str,
    /// The `S4L015` merge-soundness report.
    pub report: MergeReport,
}

/// Differential equivalence suite: every algorithm the repo ships in
/// both a software (bmv2) and a hardware (Tofino-like) formulation,
/// checked symbolically for observational agreement — plus one pair
/// that is *known* to diverge (an 8-bit unrolled multiplier against the
/// exact one on unbounded operands), asserting the checker finds it.
#[must_use]
pub fn equiv_suite() -> Vec<EquivEntry> {
    let opts = SymbolicOptions::default();
    let mut out = Vec::new();

    // Echo app: exact multiply + dynamic-shift isqrt vs 16-bit unrolled
    // shift-add multiply + constant-shift isqrt. The pair only promises
    // agreement while the multiplier operands fit 16 bits, so the
    // domain bounds payloads and initial register state to one byte
    // (N, Xsum, Xsumsq then stay far below 2^16).
    let sw = EchoApp::build(&Stat4Config::default()).expect("echo/bmv2 builds");
    let hw = EchoApp::build_with(
        &Stat4Config::default(),
        TargetModel::tofino_like(),
        VarianceMode::UnrolledShiftAdd { bits: 16 },
    )
    .expect("echo/tofino builds");
    let domain = InputDomain::infer(&[&sw.pipeline, &hw.pipeline])
        .with_all_fields_max(0xFF)
        .with_register_limit(0xFF);
    let echo_opts = SymbolicOptions {
        domain: Some(domain),
        ..SymbolicOptions::default()
    };
    out.push(EquivEntry {
        name: "echo: exact-mul (bmv2) vs shift-add-16 (tofino-like)",
        expect_divergence: false,
        report: check_equivalence(&sw.pipeline, &hw.pipeline, &echo_opts),
    });

    // Equivalence is *observational* (egress, digests, registers), so
    // each fragment pipeline digests its result field — otherwise two
    // fragments that only differ in scratch state compare as equal.
    let emit = |b: &mut ProgramBuilder, inner: Control| {
        let a = b.add_action(ActionDef::new(
            "emit_result",
            vec![Primitive::Digest {
                id: 0x51,
                values: vec![Operand::Field(OUT)],
            }],
        ));
        Control::Seq(vec![inner, Control::ApplyAction(a)])
    };

    // Square root: dynamic-shift formulation vs the constant-shift
    // branch tree, over the full 64-bit input space.
    let sq_sw = fragment_pipeline(TargetModel::bmv2(), |b| {
        let c = fragments::isqrt_fragment(b, IN, OUT);
        emit(b, c)
    });
    let sq_hw = fragment_pipeline(TargetModel::tofino_like(), |b| {
        let c = fragments::isqrt_fragment_const_shifts(b, IN, OUT);
        emit(b, c)
    });
    out.push(EquivEntry {
        name: "isqrt: dynamic-shift (bmv2) vs const-shift tree (tofino-like)",
        expect_divergence: false,
        report: check_equivalence(&sq_sw, &sq_hw, &opts),
    });

    // EWMA: the identical fragment built for both targets (constant
    // shift distance, so it is legal on both) — a same-IR sanity pair.
    let mk_ewma = |target: TargetModel| {
        fragment_pipeline(target, |b| {
            let reg = b.add_register("ewma_acc", 64, 1);
            b.set_register_merge(reg, RegMerge::None);
            fragments::ewma_fragment(b, reg, 0, IN, OUT, 3)
        })
    };
    out.push(EquivEntry {
        name: "ewma: same fragment (bmv2) vs (tofino-like)",
        expect_divergence: false,
        report: check_equivalence(
            &mk_ewma(TargetModel::bmv2()),
            &mk_ewma(TargetModel::tofino_like()),
            &opts,
        ),
    });

    // Asserted divergence: an 8-bit unrolled multiplier truncates the
    // second operand, so against the exact multiply on an unbounded
    // domain the checker must produce an S4L013 counterexample.
    let exact = fragment_pipeline(TargetModel::bmv2(), |b| {
        let a = b.add_action(ActionDef::new(
            "mul_exact",
            vec![Primitive::Mul {
                dst: OUT,
                a: Operand::Field(IN),
                b: Operand::Field(fields::PKT_LEN),
            }],
        ));
        emit(b, Control::ApplyAction(a))
    });
    let trunc = fragment_pipeline(TargetModel::tofino_like(), |b| {
        let a = b.add_action(ActionDef::new(
            "mul8",
            fragments::mul_unrolled_primitives(IN, fields::PKT_LEN, OUT, 8),
        ));
        emit(b, Control::ApplyAction(a))
    });
    out.push(EquivEntry {
        name: "unrolled-mul-8 vs exact-mul (asserted S4L013 divergence)",
        expect_divergence: true,
        report: check_equivalence(&exact, &trunc, &opts),
    });

    out
}

/// Merge-soundness suite: runs the `S4L015` check over every built-in
/// app, verifying each register's per-packet update commutes with its
/// declared shard-merge policy (or that the register is declared
/// `RegMerge::None` and exempt).
#[must_use]
pub fn merge_suite() -> Vec<MergeEntry> {
    // Reduced budgets: the corpus only needs to exercise each update
    // function, not sweep the input space.
    let opts = SymbolicOptions {
        path_budget: 512,
        samples: 24,
        merge_origins: 4,
        merge_witnesses: 12,
        ..SymbolicOptions::default()
    };
    let mut out = Vec::new();
    let mut push = |name: &'static str, p: &Pipeline| {
        out.push(MergeEntry {
            name,
            report: check_merge_soundness(p, &opts),
        });
    };

    let echo = EchoApp::build(&Stat4Config::default()).expect("echo/bmv2 builds");
    push("echo (bmv2, exact-mul)", &echo.pipeline);

    let echo_hw = EchoApp::build_with(
        &Stat4Config::default(),
        TargetModel::tofino_like(),
        VarianceMode::UnrolledShiftAdd { bits: 16 },
    )
    .expect("echo/tofino builds");
    push("echo (tofino-like, shift-add)", &echo_hw.pipeline);

    // Bind one /24 into the drill-down table so the summed statistics
    // registers are actually written on some path (the table ships
    // empty; an unexercised register would pass vacuously).
    let mut case = CaseStudyApp::build(CaseStudyParams::default()).expect("case study builds");
    let bind = crate::binding::bind_prefix_h(&case.handles, std::net::Ipv4Addr::new(10, 0, 0, 0), 24, 0, 0);
    assert!(case.pipeline.runtime(&bind).is_ok(), "drill binding installs");
    push("casestudy (bmv2)", &case.pipeline);

    let median = MedianApp::build(MedianAppParams::default()).expect("median builds");
    push("median (bmv2)", &median.pipeline);

    let sketch = SketchApp::build(SketchAppParams::default()).expect("sketch builds");
    push("sketch (tofino-like)", &sketch.pipeline);

    let ewma = fragment_pipeline(TargetModel::bmv2(), |b| {
        let reg = b.add_register("ewma_acc", 64, 1);
        b.set_register_merge(reg, RegMerge::None);
        fragments::ewma_fragment(b, reg, 0, IN, OUT, 3)
    });
    push("fragment: ewma (bmv2)", &ewma);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_is_clean_under_deny_warnings() {
        for e in builtin_suite() {
            assert!(
                e.report.passes(true),
                "{} on {} has lint findings:\n{}",
                e.name,
                e.report.target,
                e.report
            );
        }
    }

    #[test]
    fn suite_covers_both_targets() {
        let suite = builtin_suite();
        assert!(suite.iter().any(|e| e.report.target == "bmv2"));
        assert!(suite.iter().any(|e| e.report.target == "tofino-like"));
    }

    /// Every expected-equivalent pair verifies clean under denied
    /// warnings, and the asserted-divergent pair actually diverges with
    /// a concrete counterexample attached.
    #[test]
    fn equiv_suite_passes_with_asserted_divergence() {
        let suite = equiv_suite();
        assert!(suite.iter().any(|e| e.expect_divergence));
        for e in &suite {
            let diags: Vec<String> =
                e.report.diagnostics.iter().map(ToString::to_string).collect();
            assert!(
                e.passes(true),
                "{}: unexpected verdict (equivalent={})\n{}",
                e.name,
                e.report.equivalent(),
                diags.join("\n")
            );
            if e.expect_divergence {
                assert!(
                    e.report.counterexample.is_some(),
                    "{}: divergence without a concrete counterexample",
                    e.name
                );
            }
        }
    }

    /// Every built-in app's register updates commute with the declared
    /// merge policies; last-writer registers are declared exempt.
    #[test]
    fn merge_suite_is_clean() {
        let suite = merge_suite();
        for e in &suite {
            let diags: Vec<String> =
                e.report.diagnostics.iter().map(ToString::to_string).collect();
            assert!(
                e.report.passes(true),
                "{}: merge-soundness findings\n{}",
                e.name,
                diags.join("\n")
            );
        }
        // The exemptions declared in the apps actually register.
        let case = suite.iter().find(|e| e.name.starts_with("casestudy")).unwrap();
        assert!(case.report.exempt.iter().any(|r| r == "rate_state"));
        assert!(case.report.checked > 0, "casestudy checks summed registers");
        assert!(
            case.report.origin_pairs > 0,
            "casestudy's summed registers are actually exercised"
        );
    }

    /// The shift-add variance forces the echo app through more
    /// dependent actions and the per-stage caps bite, so the hardware
    /// allocation must be strictly deeper than the software one.
    #[test]
    fn echo_hardware_allocation_is_deeper_than_software() {
        let suite = builtin_suite();
        let depth = |prefix: &str| {
            suite
                .iter()
                .find(|e| e.name.starts_with(prefix))
                .expect("suite entry")
                .report
                .allocation
                .depth
        };
        let sw = depth("echo (bmv2");
        let hw = depth("echo (tofino");
        assert!(
            hw > sw,
            "expected tofino echo deeper than bmv2 echo, got {hw} vs {sw}"
        );
        assert_eq!(sw, 4, "echo on bmv2 should allocate to 4 stages");
        assert_eq!(hw, 5, "echo on tofino-like should allocate to 5 stages");
        for e in builtin_suite() {
            assert!(
                e.report.allocation.fits,
                "{} overflows its target's stages",
                e.name
            );
        }
    }
}
