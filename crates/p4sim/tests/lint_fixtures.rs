//! Golden diagnostics for known-bad programs, and the allocator's
//! behaviour-equivalence property.
//!
//! Each fixture is a program that *builds* fine on bmv2 and must be
//! rejected by the verifier with a specific stable lint code when
//! checked against hardware-like limits — the seeded corpus CI pins
//! `stat4-lint` against.

use p4sim::analysis::{allocate, json, TableDepGraph};
use p4sim::phv::fields;
use p4sim::{
    check_equivalence, check_merge_soundness, verify, verify_against, vet_rebind, ActionDef, Cond,
    Control, Entry, LintCode, MatchKind, MatchValue, Operand, Phv, Primitive, ProgramBuilder,
    RegMerge, RuntimeRequest, Severity, SymbolicOptions, TableDef, TargetModel,
};
use p4sim::control::CmpOp;

fn has(report: &p4sim::VerifyReport, code: LintCode, severity: Severity) -> bool {
    has_diag(&report.diagnostics, code, severity)
}

fn has_diag(diags: &[p4sim::Diagnostic], code: LintCode, severity: Severity) -> bool {
    diags
        .iter()
        .any(|d| d.code == code && d.severity == severity)
}

/// Division is unrepresentable in the IR; the division-free discipline's
/// remaining hazard is runtime multiplication, which bmv2 executes and
/// hardware cannot.
#[test]
fn runtime_mul_is_s4l001_on_hardware() {
    let mut b = ProgramBuilder::new();
    let a = b.add_action(ActionDef::new(
        "square",
        vec![Primitive::Mul {
            dst: fields::M0,
            a: Operand::Field(fields::PAYLOAD_VALUE),
            b: Operand::Field(fields::PAYLOAD_VALUE),
        }],
    ));
    b.set_control(Control::ApplyAction(a));
    let p = b.build(TargetModel::bmv2()).expect("legal on bmv2");

    let report = verify_against(&p, &TargetModel::tofino_like());
    assert!(has(&report, LintCode::RuntimeMul, Severity::Error), "{report}");
    assert!(!report.passes(false));
    assert!(json::write(&report).contains("\"code\":\"S4L001\""));

    // The same program is clean against its own (software) target.
    assert!(verify(&p).passes(false));
}

#[test]
fn dynamic_shift_is_s4l002_on_hardware() {
    let mut b = ProgramBuilder::new();
    let a = b.add_action(ActionDef::new(
        "var_shift",
        vec![Primitive::Shl {
            dst: fields::M0,
            src: Operand::Const(1),
            amount: Operand::Field(fields::PAYLOAD_VALUE),
        }],
    ));
    b.set_control(Control::ApplyAction(a));
    let p = b.build(TargetModel::bmv2()).expect("legal on bmv2");
    let report = verify_against(&p, &TargetModel::tofino_like());
    assert!(has(&report, LintCode::DynamicShift, Severity::Error), "{report}");
}

/// A 13-deep chain of match-dependent tables cannot fit the 12-stage
/// hardware preset.
#[test]
fn deep_table_chain_is_s4l003_on_hardware() {
    let mut b = ProgramBuilder::new();
    let mut tabs = Vec::new();
    for i in 0..13u16 {
        let w = b.add_action(ActionDef::new(
            format!("w{i}"),
            vec![Primitive::Set {
                dst: fields::scratch((i + 1) % 20),
                src: Operand::Const(1),
            }],
        ));
        tabs.push(b.add_table(TableDef {
            name: format!("t{i}"),
            keys: vec![(fields::scratch(i % 20), MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![w],
            default_action: None,
        }));
    }
    b.set_control(Control::Seq(
        tabs.into_iter().map(Control::ApplyTable).collect(),
    ));
    let p = b.build(TargetModel::bmv2()).unwrap();

    let hw = verify_against(&p, &TargetModel::tofino_like());
    assert!(has(&hw, LintCode::StageOverflow, Severity::Error), "{hw}");
    assert_eq!(hw.allocation.depth, 13);
    assert!(!hw.allocation.fits);

    let sw = verify(&p);
    assert_eq!(sw.allocation.depth, 13, "same chain, unlimited stages");
    assert!(sw.allocation.fits);
}

/// Two separate read-modify-write points on one register: legal (if
/// slow) on bmv2, impossible on a PISA stateful ALU.
#[test]
fn register_double_access_is_s4l004_on_hardware() {
    let mut b = ProgramBuilder::new();
    let r = b.add_register("ewma", 64, 16);
    let rmw = |name: &str| {
        ActionDef::new(
            name,
            vec![
                Primitive::RegRead {
                    dst: fields::M0,
                    register: 0,
                    index: Operand::Const(3),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Const(1),
                },
                Primitive::RegWrite {
                    register: 0,
                    index: Operand::Const(3),
                    src: Operand::Field(fields::M0),
                },
            ],
        )
    };
    assert_eq!(r, 0);
    let a1 = b.add_action(rmw("touch_once"));
    let a2 = b.add_action(rmw("touch_again"));
    b.set_control(Control::Seq(vec![
        Control::ApplyAction(a1),
        Control::ApplyAction(a2),
    ]));
    let p = b.build(TargetModel::bmv2()).unwrap();

    let hw = verify_against(&p, &TargetModel::tofino_like());
    assert!(has(&hw, LintCode::RegisterMultiAccess, Severity::Error), "{hw}");

    // On software the same pattern is a note, never fatal.
    let sw = verify(&p);
    assert!(sw.passes(true), "{sw}");
    assert!(sw
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::RegisterMultiAccess && d.severity == Severity::Info));
}

/// A value provably wider than the destination register: certain
/// truncation, an error on every target.
#[test]
fn provable_truncation_is_s4l005_everywhere() {
    let mut b = ProgramBuilder::new();
    let r = b.add_register("counter16", 16, 4);
    let a = b.add_action(ActionDef::new(
        "overflow",
        vec![
            Primitive::Shl {
                dst: fields::M0,
                src: Operand::Const(1),
                amount: Operand::Const(40),
            },
            Primitive::RegWrite {
                register: r,
                index: Operand::Const(0),
                src: Operand::Field(fields::M0),
            },
        ],
    ));
    b.set_control(Control::ApplyAction(a));
    let p = b.build(TargetModel::bmv2()).unwrap();

    let report = verify(&p);
    assert!(has(&report, LintCode::WidthTruncation, Severity::Error), "{report}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::WidthTruncation)
        .unwrap();
    assert!(
        d.chain.iter().any(|c| c.starts_with("Shl")),
        "diagnostic names the producing primitive: {:?}",
        d.chain
    );
}

/// Exceeding the step budget of a target the program is vetted against
/// is a warning: the worst-case bound is violated there. `--deny
/// warnings` promotes it.
#[test]
fn step_budget_is_s4l007_warning() {
    let mut b = ProgramBuilder::new();
    let mut prims = Vec::new();
    // A 12-step dependent chain, echoing the paper's "12 sequential
    // steps" override path.
    prims.push(Primitive::Set {
        dst: fields::M0,
        src: Operand::Const(0),
    });
    for _ in 0..11 {
        prims.push(Primitive::Add {
            dst: fields::M0,
            a: Operand::Field(fields::M0),
            b: Operand::Const(1),
        });
    }
    let a = b.add_action(ActionDef::new("override_oldest", prims));
    b.set_control(Control::ApplyAction(a));
    let p = b.build(TargetModel::bmv2()).unwrap();

    let tight = TargetModel {
        step_budget: 10,
        ..TargetModel::tofino_like()
    };
    let report = verify_against(&p, &tight);
    assert_eq!(report.worst_chain_steps, 12);
    assert!(has(&report, LintCode::StepBudget, Severity::Warning), "{report}");
    assert!(report.passes(false), "a warning is not an error");
    assert!(!report.passes(true), "--deny warnings rejects it");
}

/// The step budget bounds the steps the interpreter charges, not the
/// dependency chain. Twenty independent `Set`s form a chain one step
/// long but cost twenty steps: vetted against a budget of ten, `S4L007`
/// must say so, while the chain stays the resource figure; built for
/// that target, the program is refused.
#[test]
fn independent_steps_past_the_budget_are_s4l007() {
    let program = || {
        let mut b = ProgramBuilder::new();
        let sets = (0..20u16)
            .map(|i| Primitive::Set {
                dst: fields::scratch(i),
                src: Operand::Const(1),
            })
            .collect();
        let a = b.add_action(ActionDef::new("fill", sets));
        b.set_control(Control::ApplyAction(a));
        b
    };
    let target = TargetModel {
        step_budget: 10,
        ..TargetModel::bmv2()
    };
    let p = program().build(TargetModel::bmv2()).unwrap();

    let report = verify_against(&p, &target);
    assert_eq!(report.worst_chain_steps, 1, "the chain is unchanged");
    assert!(has(&report, LintCode::StepBudget, Severity::Warning), "{report}");
    assert!(!report.passes(true));

    let err = program().build(target).expect_err("20 steps exceed a budget of 10");
    assert_eq!(err, p4sim::P4Error::StepBudget { worst: 20, budget: 10 });
}

/// An index that provably misses the register is an error; the hash
/// fragment's width-bounded index is proven fine.
#[test]
fn index_out_of_range_is_s4l008() {
    let mut b = ProgramBuilder::new();
    let r = b.add_register("cells", 64, 4);
    let a = b.add_action(ActionDef::new(
        "oob",
        vec![
            Primitive::Set {
                dst: fields::M0,
                src: Operand::Const(9),
            },
            Primitive::RegWrite {
                register: r,
                index: Operand::Field(fields::M0),
                src: Operand::Const(1),
            },
        ],
    ));
    b.set_control(Control::ApplyAction(a));
    let p = b.build(TargetModel::bmv2()).unwrap();
    let report = verify(&p);
    assert!(has(&report, LintCode::RegisterIndexRange, Severity::Error), "{report}");
}

/// A register declared at the full 64-bit cell width leaves no guard
/// bits for the SEU-recovery saturation path on a target that reserves
/// headroom — the recovery cannot detect out-of-width flips.
#[test]
fn missing_seu_headroom_is_s4l012_warning() {
    let mut b = ProgramBuilder::new();
    let wide = b.add_register("xsum_full", 64, 8);
    let narrow = b.add_register("xsum_guarded", 32, 8);
    let a = b.add_action(ActionDef::new(
        "acc",
        vec![
            Primitive::RegWrite {
                register: wide,
                index: Operand::Const(0),
                src: Operand::Field(fields::PKT_LEN),
            },
            Primitive::RegWrite {
                register: narrow,
                index: Operand::Const(1),
                src: Operand::Field(fields::PKT_LEN),
            },
        ],
    ));
    b.set_control(Control::ApplyAction(a));
    let p = b.build(TargetModel::bmv2()).expect("builds on bmv2");

    let hardened = TargetModel {
        seu_headroom_bits: 2,
        ..TargetModel::tofino_like()
    };
    let report = verify_against(&p, &hardened);
    assert!(has(&report, LintCode::SeuHeadroom, Severity::Warning), "{report}");
    assert!(json::write(&report).contains("\"code\":\"S4L012\""));
    let flagged: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::SeuHeadroom)
        .collect();
    assert_eq!(flagged.len(), 1, "only the full-width register is flagged");
    assert!(flagged[0].context.contains("xsum_full"));
    assert!(report.passes(false), "a warning is not an error");
    assert!(!report.passes(true), "--deny warnings rejects it");

    // Standard presets reserve no headroom: never flagged.
    let stock = verify_against(&p, &TargetModel::tofino_like());
    assert!(!stock.diagnostics.iter().any(|d| d.code == LintCode::SeuHeadroom));
}

// ---------------------------------------------------------------------
// Symbolic differential fixtures: S4L013 target divergence, S4L014
// path budget, S4L015 merge unsoundness, S4L016 unsafe rebind. Each
// pins the stable lint code, the severity, and — for divergences —
// that the shipped counterexample reproduces concretely.
// ---------------------------------------------------------------------

/// Builds `dst = 3 * PAYLOAD_VALUE` with the given primitives and
/// emits the result in a digest so the two builds are observationally
/// comparable (scratch PHV state is not part of [`p4sim::analysis::symbolic`]'s
/// observation).
fn triple_pipeline(prims: Vec<Primitive>, target: TargetModel) -> p4sim::Pipeline {
    let mut b = ProgramBuilder::new();
    let mut all = prims;
    all.push(Primitive::Digest {
        id: 0x30,
        values: vec![Operand::Field(fields::M0)],
    });
    let a = b.add_action(ActionDef::new("triple", all));
    b.set_control(Control::ApplyAction(a));
    b.build(target).unwrap()
}

/// The software build multiplies at runtime; a correct hardware
/// rewrite (`3x = (x << 1) + x`, exact mod 2^64) verifies equivalent,
/// while a sloppy one (`x << 2`) is rejected with `S4L013` and a
/// counterexample packet that reproduces the divergence concretely.
#[test]
fn cross_target_rewrite_divergence_is_s4l013() {
    let sw = triple_pipeline(
        vec![Primitive::Mul {
            dst: fields::M0,
            a: Operand::Field(fields::PAYLOAD_VALUE),
            b: Operand::Const(3),
        }],
        TargetModel::bmv2(),
    );
    // The software build is clean on bmv2 — the hazard only appears
    // when the program is rewritten for the mul-free hardware target.
    assert!(verify(&sw).passes(true));

    let good_hw = triple_pipeline(
        vec![
            Primitive::Shl {
                dst: fields::M0,
                src: Operand::Field(fields::PAYLOAD_VALUE),
                amount: Operand::Const(1),
            },
            Primitive::Add {
                dst: fields::M0,
                a: Operand::Field(fields::M0),
                b: Operand::Field(fields::PAYLOAD_VALUE),
            },
        ],
        TargetModel::tofino_like(),
    );
    assert!(verify(&good_hw).passes(true));

    let opts = SymbolicOptions::default();
    let ok = check_equivalence(&sw, &good_hw, &opts);
    assert!(ok.equivalent(), "{:?}", ok.diagnostics);
    assert!(ok.passes(true));

    let bad_hw = triple_pipeline(
        vec![Primitive::Shl {
            dst: fields::M0,
            src: Operand::Field(fields::PAYLOAD_VALUE),
            amount: Operand::Const(2),
        }],
        TargetModel::tofino_like(),
    );
    let report = check_equivalence(&sw, &bad_hw, &opts);
    assert!(!report.equivalent());
    assert!(!report.passes(false));
    assert!(has_diag(&report.diagnostics, LintCode::TargetDivergence, Severity::Error));
    assert!(json::write(&report).contains("\"code\":\"S4L013\""));

    // The counterexample is a real packet: the concrete replay that
    // found it names the observable difference.
    let ce = report.counterexample.expect("divergence carries a witness");
    assert!(!ce.detail.is_empty(), "counterexample names its divergence");
}

/// A branch tree wider than the path budget is reported as `S4L014`,
/// never silently truncated: the verdict degrades to a warning, not to
/// a false "equivalent".
#[test]
fn path_budget_exhaustion_is_s4l014_warning() {
    let wide = |target: TargetModel| {
        let mut b = ProgramBuilder::new();
        let mut arms = Vec::new();
        // 2^8 paths over 8 independent header bits.
        for i in 0..8u16 {
            let set = b.add_action(ActionDef::new(
                format!("mark{i}"),
                vec![Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Const(1 << i),
                }],
            ));
            arms.push(Control::If {
                cond: Cond::new(
                    Operand::Field(fields::scratch(i)),
                    CmpOp::Eq,
                    Operand::Const(0),
                ),
                then_branch: Box::new(Control::ApplyAction(set)),
                else_branch: None,
            });
        }
        arms.push(Control::ApplyAction(b.add_action(ActionDef::new(
            "emit",
            vec![Primitive::Digest {
                id: 0x31,
                values: vec![Operand::Field(fields::M0)],
            }],
        ))));
        b.set_control(Control::Seq(arms));
        b.build(target).unwrap()
    };
    let a = wide(TargetModel::bmv2());
    let b = wide(TargetModel::tofino_like());

    let opts = SymbolicOptions {
        path_budget: 16,
        ..SymbolicOptions::default()
    };
    let report = check_equivalence(&a, &b, &opts);
    assert!(report.truncated, "budget of 16 cannot cover 256 paths");
    assert!(has_diag(&report.diagnostics, LintCode::PathBudget, Severity::Warning));
    assert!(json::write(&report).contains("\"code\":\"S4L014\""));
    assert!(report.passes(false), "budget exhaustion alone is a warning");
    assert!(!report.passes(true), "--deny warnings rejects the partial proof");
}

/// A register declared `Sum`-mergeable whose update is last-writer-wins
/// (a plain overwrite of a header value) does not commute with the
/// merge: two shards summed give a different switch state than one
/// switch seeing both packets. `S4L015`, with both origin packets in
/// the counterexample.
#[test]
fn non_additive_update_under_sum_merge_is_s4l015() {
    let build = |merge: RegMerge| {
        let mut b = ProgramBuilder::new();
        let last = b.add_register("last_seen", 64, 4);
        b.set_register_merge(last, merge);
        let a = b.add_action(ActionDef::new(
            "remember",
            vec![Primitive::RegWrite {
                register: last,
                index: Operand::Const(0),
                src: Operand::Field(fields::PAYLOAD_VALUE),
            }],
        ));
        b.set_control(Control::ApplyAction(a));
        b.build(TargetModel::bmv2()).unwrap()
    };

    let opts = SymbolicOptions::default();
    let unsound = check_merge_soundness(&build(RegMerge::Sum), &opts);
    assert!(!unsound.passes(false));
    assert!(has_diag(&unsound.diagnostics, LintCode::MergeUnsound, Severity::Error));
    assert!(json::write(&unsound).contains("\"code\":\"S4L015\""));
    assert!(
        !unsound.counterexamples.is_empty(),
        "violation ships the two origin packets"
    );

    // Declaring the register non-mergeable exempts it — the same
    // program is then clean (and the exemption is visible).
    let exempted = check_merge_soundness(&build(RegMerge::None), &opts);
    assert!(exempted.passes(true), "{:?}", exempted.diagnostics);
    assert!(exempted.exempt.iter().any(|n| n == "last_seen"));

    // A genuine additive counter under Sum is sound.
    let mut b = ProgramBuilder::new();
    let hits = b.add_register("hits", 64, 4);
    let a = b.add_action(ActionDef::new(
        "count",
        vec![
            Primitive::RegRead {
                dst: fields::M0,
                register: hits,
                index: Operand::Const(0),
            },
            Primitive::Add {
                dst: fields::M0,
                a: Operand::Field(fields::M0),
                b: Operand::Const(1),
            },
            Primitive::RegWrite {
                register: hits,
                index: Operand::Const(0),
                src: Operand::Field(fields::M0),
            },
        ],
    ));
    b.set_control(Control::ApplyAction(a));
    let counter = b.build(TargetModel::bmv2()).unwrap();
    let sound = check_merge_soundness(&counter, &opts);
    assert!(sound.passes(true), "{:?}", sound.diagnostics);
    assert!(sound.checked > 0);
}

/// A rebind pipeline: routing decides on a /8, drilldown binds
/// per-prefix counter slots keyed on the same address. Used by the
/// `S4L016` fixtures below.
fn rebind_pipeline() -> (p4sim::Pipeline, usize, usize) {
    let mut b = ProgramBuilder::new();
    let cells = b.add_register("cells", 64, 4);
    let route = b.add_action(ActionDef::new(
        "route",
        vec![Primitive::Set {
            dst: fields::M0,
            src: Operand::Const(1),
        }],
    ));
    let route_table = b.add_table(TableDef {
        name: "route".into(),
        keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
        max_entries: 4,
        allowed_actions: vec![route],
        default_action: None,
    });
    let track = b.add_action(ActionDef::new(
        "track",
        vec![
            Primitive::RegRead {
                dst: fields::M0,
                register: cells,
                index: Operand::Data(0),
            },
            Primitive::Add {
                dst: fields::M0,
                a: Operand::Field(fields::M0),
                b: Operand::Const(1),
            },
            Primitive::RegWrite {
                register: cells,
                index: Operand::Data(0),
                src: Operand::Field(fields::M0),
            },
        ],
    ));
    let drill_table = b.add_table(TableDef {
        name: "drill".into(),
        keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
        max_entries: 4,
        allowed_actions: vec![track],
        default_action: None,
    });
    b.set_control(Control::Seq(vec![
        Control::ApplyTable(route_table),
        Control::ApplyTable(drill_table),
    ]));
    let mut p = b.build(TargetModel::bmv2()).unwrap();
    // The route table ships with a /8 covering the monitored network,
    // like the case-study app's rate table.
    let resp = p.runtime(&RuntimeRequest::InsertEntry {
        table: route_table,
        entry: Entry {
            key: vec![MatchValue::Lpm {
                value: 0x0a00_0000,
                prefix_len: 8,
            }],
            priority: 8,
            action: route,
            action_data: vec![],
        },
    });
    assert!(resp.is_ok(), "{resp:?}");
    (p, drill_table, track)
}

fn drill_insert(table: usize, action: usize, prefix: u64, len: u8, slot: u64) -> RuntimeRequest {
    RuntimeRequest::InsertEntry {
        table,
        entry: Entry {
            key: vec![MatchValue::Lpm {
                value: prefix,
                prefix_len: len,
            }],
            priority: i32::from(len),
            action,
            action_data: vec![slot],
        },
    }
}

/// A rebind whose bound slot provably misses the register is rejected
/// with an `S4L016` error, a concrete witness packet, and no vetted
/// pipeline; a well-formed rebind passes and yields one.
#[test]
fn out_of_range_rebind_is_s4l016() {
    let (p, drill, track) = rebind_pipeline();
    let opts = SymbolicOptions::default();

    let good = vet_rebind(
        &p,
        &drill_insert(drill, track, 0x0a00_0100, 24, 2),
        &opts,
    );
    assert!(good.passes(), "{:?}", good.diagnostics);
    assert!(good.vetted.is_some(), "accepted rebind ships the advanced model");

    let bad = vet_rebind(
        &p,
        &drill_insert(drill, track, 0x0a00_0100, 24, 999),
        &opts,
    );
    assert!(!bad.passes());
    assert!(has_diag(&bad.diagnostics, LintCode::UnsafeRebind, Severity::Error));
    assert!(json::write(&bad).contains("\"code\":\"S4L016\""));
    assert!(bad.vetted.is_none(), "rejected rebind must not advance the model");
}

/// Regression: the poisoned drill entry nests *inside* the route
/// table's /8. The witness solver must prefer the more specific /24
/// value for the shared key field — taking the first (/8) assignment
/// would make the replay packet miss the poisoned entry and downgrade
/// the fault to an unconfirmed warning.
#[test]
fn nested_lpm_rebind_fault_still_confirms_as_s4l016_error() {
    let (p, drill, track) = rebind_pipeline();
    let opts = SymbolicOptions::default();
    let report = vet_rebind(
        &p,
        &drill_insert(drill, track, 0x0a00_0100, 24, 999),
        &opts,
    );
    assert!(
        has_diag(&report.diagnostics, LintCode::UnsafeRebind, Severity::Error),
        "fault inside a nested LPM must still replay concretely: {:?}",
        report.diagnostics
    );
    assert!(!report.passes());
}

// ---------------------------------------------------------------------
// Allocation equivalence: executing units stage by stage — in any order
// within a stage — is indistinguishable from sequential execution,
// because every dependency edge (including anti- and register edges)
// forces a stage boundary.
// ---------------------------------------------------------------------

/// One randomly generated control unit.
#[derive(Debug, Clone, Copy)]
struct UnitSpec {
    kind: u8,
    dst: u16,
    src: u16,
    addend: u64,
    reg: usize,
    cell: u64,
}

const NREGS: usize = 3;
const CELLS: usize = 4;

fn build_pipeline(specs: &[UnitSpec], order: &[usize]) -> p4sim::Pipeline {
    let mut b = ProgramBuilder::new();
    for r in 0..NREGS {
        b.add_register(format!("r{r}"), 64, CELLS);
    }
    for (i, s) in specs.iter().enumerate() {
        let dst = fields::scratch(s.dst % 20);
        let src = fields::scratch(s.src % 20);
        let prims = match s.kind % 3 {
            0 => vec![Primitive::Set {
                dst,
                src: Operand::Const(s.addend),
            }],
            1 => vec![Primitive::Add {
                dst,
                a: Operand::Field(src),
                b: Operand::Const(s.addend),
            }],
            _ => vec![
                Primitive::RegRead {
                    dst,
                    register: s.reg % NREGS,
                    index: Operand::Const(s.cell % CELLS as u64),
                },
                Primitive::Add {
                    dst,
                    a: Operand::Field(dst),
                    b: Operand::Const(s.addend),
                },
                Primitive::RegWrite {
                    register: s.reg % NREGS,
                    index: Operand::Const(s.cell % CELLS as u64),
                    src: Operand::Field(dst),
                },
            ],
        };
        b.add_action(ActionDef::new(format!("u{i}"), prims));
    }
    b.set_control(Control::Seq(
        order.iter().map(|&i| Control::ApplyAction(i)).collect(),
    ));
    b.build(TargetModel::bmv2()).unwrap()
}

fn run_and_snapshot(p: &mut p4sim::Pipeline, packets: u32) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut last_scratch = Vec::new();
    for k in 0..packets {
        let mut phv = Phv::new();
        phv.set(fields::PAYLOAD_VALUE, u64::from(k) * 17 + 1);
        p.process_phv(&mut phv).unwrap();
        last_scratch = (0..24).map(|i| phv.get(fields::scratch(i))).collect();
    }
    let regs = p
        .registers()
        .iter()
        .map(|r| r.cells.clone())
        .collect::<Vec<_>>();
    (last_scratch, regs)
}

mod stage_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn within_stage_reordering_preserves_behavior(
            raw in proptest::collection::vec(
                ((0u8..3, 0u16..20, 0u16..20), (0u64..1000, 0usize..super::NREGS, 0u64..super::CELLS as u64)),
                1..8,
            )
        ) {
            let specs: Vec<UnitSpec> = raw
                .iter()
                .map(|&((kind, dst, src), (addend, reg, cell))| UnitSpec {
                    kind, dst, src, addend, reg, cell,
                })
                .collect();
            let n = specs.len();
            let sequential_order: Vec<usize> = (0..n).collect();
            let mut seq = build_pipeline(&specs, &sequential_order);

            // Allocate stages, then execute stage by stage with each
            // stage's units REVERSED — the adversarial within-stage
            // order.
            let tdg = TableDepGraph::build(&seq);
            let mut diags = Vec::new();
            let alloc = allocate(&seq, &tdg, &TargetModel::bmv2(), &mut diags);
            let mut staged_order: Vec<usize> = (0..n).collect();
            staged_order.sort_by_key(|&i| (alloc.node_stage[i], std::cmp::Reverse(i)));
            let mut staged = build_pipeline(&specs, &staged_order);

            // Every dependency edge crosses a stage boundary.
            for e in &tdg.edges {
                prop_assert!(
                    alloc.node_stage[e.from] < alloc.node_stage[e.to],
                    "edge {} -> {} within stage {}",
                    e.from, e.to, alloc.node_stage[e.from]
                );
            }

            let (scratch_a, regs_a) = run_and_snapshot(&mut seq, 3);
            let (scratch_b, regs_b) = run_and_snapshot(&mut staged, 3);
            prop_assert_eq!(scratch_a, scratch_b);
            prop_assert_eq!(regs_a, regs_b);
        }
    }
}
