//! Differential property: guided symbolic execution agrees with the
//! concrete interpreter on random packets, over **every** built-in
//! program.
//!
//! This is the soundness anchor for the whole symbolic suite
//! (`S4L013`–`S4L016`): the equivalence, merge-soundness and rebind
//! checks all reason about program behaviour through the symbolic
//! executor, so the executor itself must be bit-faithful to the
//! interpreter — same outcome, same final PHV, same register state,
//! same digests, same recirculation count, same applied-table trace.
//! Two hand-built programs join the built-ins: one for the control
//! shapes none of them has, one for every operand shape the interpreter
//! lowers a primitive or a branch to.

use p4sim::control::CmpOp;
use p4sim::phv::{fields, FieldId};
use p4sim::{
    check_agreement, ActionDef, Cond, Control, Entry, MatchKind, MatchValue, Operand, Pipeline,
    Primitive, ProgramBuilder, RuntimeRequest, RuntimeResponse, TableDef, TargetModel, Witness,
};
use proptest::prelude::*;
use stat4_p4::lint::builtin_pipelines;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random packet plus random initial register state. Field values
/// mix boundary cases (0, 1), small values, addresses inside the
/// case study's monitored 10.0.0.0/8 (so LPM-guarded paths are
/// exercised, not just table misses), and full-range 64-bit values.
fn random_witness(p: &Pipeline, seed: u64) -> Witness {
    let mut s = seed;
    let mut fvals = Vec::new();
    for i in 0..u16::try_from(fields::FIELD_COUNT).unwrap() {
        let r = splitmix(&mut s);
        let v = match r % 5 {
            0 => 0,
            1 => 1,
            2 => (r >> 8) & 0xFF,
            3 => 0x0a00_0000 | ((r >> 8) & 0xFFFF),
            _ => splitmix(&mut s),
        };
        fvals.push((FieldId(i), v));
    }
    let registers = p
        .registers()
        .iter()
        .map(|reg| {
            let mask = if reg.width_bits >= 64 {
                u64::MAX
            } else {
                (1u64 << reg.width_bits) - 1
            };
            let cells = (0..reg.cells.len()).map(|_| splitmix(&mut s) & mask).collect();
            (reg.name.clone(), cells)
        })
        .collect();
    Witness {
        fields: fvals,
        registers,
    }
}

/// The control shapes no built-in program has: an `If` with an else
/// nested in a then-branch, an `Exit` inside a branch followed by a
/// table, a `Recirculate` in an else-branch and an empty `Seq`. A
/// packet that recirculates applies both tables on every pass, so its
/// applied-table trace outgrows the outcome's inline slots.
fn control_shapes() -> Pipeline {
    let mut b = ProgramBuilder::new();
    let acc = b.add_register("acc", 32, 4);
    let fwd = b.add_action(ActionDef::new("fwd", vec![Primitive::Forward { port: Operand::Const(2) }]));
    let count = b.add_action(ActionDef::new(
        "count",
        vec![
            Primitive::RegRead { dst: fields::scratch(1), register: acc, index: Operand::Data(0) },
            Primitive::Add {
                dst: fields::scratch(1),
                a: Operand::Field(fields::scratch(1)),
                b: Operand::Field(fields::PKT_LEN),
            },
            Primitive::RegWrite {
                register: acc,
                index: Operand::Data(0),
                src: Operand::Field(fields::scratch(1)),
            },
        ],
    ));
    let report = b.add_action(ActionDef::new(
        "report",
        vec![Primitive::Digest {
            id: 9,
            values: vec![Operand::Field(fields::IPV4_DST), Operand::Field(fields::M0)],
        }],
    ));
    let mark = b.add_action(ActionDef::new(
        "mark",
        vec![Primitive::Set { dst: fields::scratch(2), src: Operand::Const(7) }],
    ));
    let bump = b.add_action(ActionDef::new(
        "bump",
        vec![Primitive::Add { dst: fields::M0, a: Operand::Field(fields::M0), b: Operand::Const(1) }],
    ));
    let by_dst = b.add_table(TableDef {
        name: "by_dst".into(),
        keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
        max_entries: 4,
        allowed_actions: vec![count, fwd],
        default_action: Some((fwd, vec![])),
    });
    let by_valid = b.add_table(TableDef {
        name: "by_valid".into(),
        keys: vec![(fields::IPV4_VALID, MatchKind::Exact)],
        max_entries: 1,
        allowed_actions: vec![mark],
        default_action: None,
    });
    let cond = |f, op, v| Cond::new(Operand::Field(f), op, Operand::Const(v));
    b.set_control(Control::Seq(vec![
        Control::If {
            cond: cond(fields::TCP_VALID, CmpOp::Ne, 0),
            then_branch: Box::new(Control::Seq(vec![
                Control::If {
                    cond: cond(fields::PKT_LEN, CmpOp::Lt, 256),
                    then_branch: Box::new(Control::ApplyTable(by_dst)),
                    else_branch: Some(Box::new(Control::ApplyAction(report))),
                },
                Control::If {
                    cond: cond(fields::UDP_DPORT, CmpOp::Eq, 0),
                    then_branch: Box::new(Control::Exit),
                    else_branch: None,
                },
                Control::ApplyTable(by_valid),
            ])),
            else_branch: None,
        },
        Control::If {
            cond: cond(fields::M0, CmpOp::Ge, 3),
            then_branch: Box::new(Control::Seq(vec![])),
            else_branch: Some(Box::new(Control::Seq(vec![
                Control::ApplyAction(bump),
                Control::Recirculate,
            ]))),
        },
    ]));
    let mut p = b.build(TargetModel::bmv2()).expect("the control-shapes program builds");
    let lpm = |prefix_len, slot| Entry {
        key: vec![MatchValue::Lpm { value: 0x0a00_0000, prefix_len }],
        priority: 0,
        action: count,
        action_data: vec![slot],
    };
    let exact = Entry { key: vec![MatchValue::Exact(1)], priority: 0, action: mark, action_data: vec![] };
    for (table, entry) in [(by_dst, lpm(8, 1)), (by_dst, lpm(24, 3)), (by_valid, exact)] {
        assert_eq!(p.runtime(&RuntimeRequest::InsertEntry { table, entry }), RuntimeResponse::Ok);
    }
    p
}

/// A primitive of every operand shape the interpreter lowers, each
/// writing a field of its own so that a wrong value shows in the final
/// PHV: each ALU op on field/field, field/constant and constant/field
/// operands, `Not`, `Msb`, `Hash`, `Set` from a constant, a field and
/// action data, `Digest`, an out-of-layout field, and register reads and
/// writes with constant, field and action-data indices, in range and out
/// of range. The constant/field and constant-only forms run first, and a
/// digest carries their values out before their fields are reused. The
/// action-data forms run from a hit entry and from a default action:
/// each ALU op with data on the left and on the right, `Not`, `Msb` and
/// `Hash` of data, and writes of data at a constant, a field and a data
/// index. Their ALU results share one field, so each leaves in a digest
/// that mixes it with a constant and a datum before the next overwrites
/// it. The branches guarding the rest have a constant on the left or on
/// both sides; the accesses that can fault come last.
fn operand_shapes() -> Pipeline {
    use Operand::{Const as C, Data as D, Field as F};
    type Bin = fn(FieldId, Operand, Operand) -> Primitive;
    let (a, b, valid) = (fields::IPV4_DST, fields::PKT_LEN, fields::IPV4_VALID);
    let beyond = FieldId(u16::try_from(fields::FIELD_COUNT).unwrap() + 7);
    // The scratch slots, then header slots no primitive here reads.
    let mut dsts = (0..24).map(fields::scratch).chain([3, 4, 5, 7, 9, 10, 11, 13, 14, 15, 16, 17].map(FieldId));
    let mut dst = || dsts.next().expect("a field per destination");
    let mut pb = ProgramBuilder::new();
    let cells = pb.add_register("cells", 32, 8);
    let amount = dst();
    let ops: [(Bin, FieldId, u64); 10] = [
        (|dst, a, b| Primitive::Add { dst, a, b }, b, 0x1234),
        (|dst, a, b| Primitive::Sub { dst, a, b }, b, 77),
        (|dst, a, b| Primitive::And { dst, a, b }, b, 0xF0F0),
        (|dst, a, b| Primitive::Or { dst, a, b }, b, 0x0F00),
        (|dst, a, b| Primitive::Xor { dst, a, b }, b, 0xFFFF),
        (|dst, src, amount| Primitive::Shl { dst, src, amount }, amount, 3),
        (|dst, src, amount| Primitive::Shr { dst, src, amount }, amount, 5),
        (|dst, a, b| Primitive::Mul { dst, a, b }, b, 0x9E37_79B9),
        (|dst, a, b| Primitive::Min { dst, a, b }, b, 0x0a00_8000),
        (|dst, a, b| Primitive::Max { dst, a, b }, b, 0x0a00_8000),
    ];
    // Past `amount`, the slots the constant forms write before `alu` reuses them.
    let early: Vec<FieldId> = (1..15).map(fields::scratch).collect();
    let mut consts = vec![Primitive::And { dst: amount, a: F(b), b: C(63) }];
    consts.extend(ops.iter().zip(&early).map(|((op, rhs, c), &d)| op(d, C(*c), F(*rhs))));
    consts.extend([
        Primitive::Sub { dst: early[10], a: C(5), b: C(9) },
        Primitive::Not { dst: early[11], src: C(0x0F) },
        Primitive::Msb { dst: early[12], src: C(0x1234) },
        Primitive::Hash { dst: early[13], src: C(77), salt: 0x9E37_79B9_7F4A_7C15, width_log2: 12 },
        Primitive::Digest { id: 6, values: early.iter().map(|&f| F(f)).collect() },
    ]);
    let consts = pb.add_action(ActionDef::new("consts", consts));
    let mut alu = Vec::new();
    for (op, rhs, c) in ops {
        alu.push(op(dst(), F(a), F(rhs)));
        alu.push(op(dst(), F(a), C(c)));
    }
    alu.extend([
        Primitive::Not { dst: dst(), src: F(a) },
        Primitive::Msb { dst: dst(), src: F(a) },
        Primitive::Hash { dst: dst(), src: F(a), salt: 0x9E37_79B9_7F4A_7C15, width_log2: 12 },
        Primitive::Set { dst: dst(), src: C(0x00C0_FFEE) },
        Primitive::Set { dst: dst(), src: F(b) },
        Primitive::Set { dst: dst(), src: F(beyond) },
        Primitive::Set { dst: beyond, src: F(a) },
        Primitive::Digest { id: 5, values: vec![F(beyond), F(a), C(3)] },
    ]);
    let alu = pb.add_action(ActionDef::new("alu", alu));
    let (t, idx) = (dst(), dst());
    let mut data_alu = Vec::new();
    for (op, rhs, _) in ops {
        data_alu.extend([op(t, D(0), F(rhs)), op(t, F(a), D(1))]);
    }
    data_alu.extend([
        Primitive::Sub { dst: t, a: D(1), b: D(0) },
        Primitive::Sub { dst: t, a: C(5), b: D(0) },
        Primitive::Shl { dst: t, src: D(0), amount: C(3) },
        Primitive::Not { dst: t, src: D(0) },
        Primitive::Msb { dst: t, src: D(0) },
        Primitive::Hash { dst: t, src: D(0), salt: 0x9E37_79B9_7F4A_7C15, width_log2: 12 },
    ]);
    let carried = |(p, i)| [p, Primitive::Digest { id: 7, values: vec![C(i), F(t), D(1)] }];
    let mut from_data = vec![
        Primitive::Set { dst: dst(), src: D(0) },
        Primitive::Forward { port: D(1) },
        Primitive::RegWrite { register: cells, index: D(1), src: F(a) },
        Primitive::RegRead { dst: dst(), register: cells, index: D(1) },
        Primitive::RegWrite { register: cells, index: C(5), src: D(0) },
        Primitive::And { dst: idx, a: F(a), b: C(7) },
        Primitive::RegWrite { register: cells, index: F(idx), src: D(1) },
        Primitive::RegWrite { register: cells, index: D(2), src: D(0) },
        Primitive::RegWrite { register: cells, index: D(1), src: C(0x5A5A) },
    ];
    from_data.extend(data_alu.into_iter().zip(0..).flat_map(carried));
    let from_data = pb.add_action(ActionDef::new("from_data", from_data));
    let regs_const = pb.add_action(ActionDef::new(
        "regs_const",
        vec![
            Primitive::RegRead { dst: dst(), register: cells, index: C(2) },
            Primitive::RegWrite { register: cells, index: C(3), src: F(a) },
            Primitive::RegWrite { register: cells, index: C(4), src: C(0x1_2345_6789) },
        ],
    ));
    let regs_field = pb.add_action(ActionDef::new(
        "regs_field",
        vec![
            Primitive::RegWrite { register: cells, index: F(valid), src: C(9) },
            Primitive::RegRead { dst: dst(), register: cells, index: F(b) },
            Primitive::RegWrite { register: cells, index: F(a), src: F(b) },
        ],
    ));
    // `build` refuses a constant index past the register, so these take
    // theirs from a field set to one.
    let past = dst();
    let read_past = pb.add_action(ActionDef::new(
        "read_past",
        vec![
            Primitive::Set { dst: past, src: C(8) },
            Primitive::RegRead { dst: dst(), register: cells, index: F(past) },
        ],
    ));
    let write_past = pb.add_action(ActionDef::new(
        "write_past",
        vec![
            Primitive::Set { dst: past, src: C(9) },
            Primitive::RegWrite { register: cells, index: F(past), src: C(1) },
        ],
    ));
    let bind = pb.add_table(TableDef {
        name: "bind".into(),
        keys: vec![(valid, MatchKind::Exact)],
        max_entries: 1,
        allowed_actions: vec![from_data],
        default_action: Some((from_data, vec![0xCD, 4, 1])),
    });
    let guarded = |a, op, b, action| Control::If {
        cond: Cond::new(a, op, b),
        then_branch: Box::new(Control::ApplyAction(action)),
        else_branch: None,
    };
    pb.set_control(Control::Seq(vec![
        Control::ApplyAction(consts),
        Control::ApplyAction(alu),
        Control::ApplyTable(bind),
        guarded(C(1), CmpOp::Lt, C(2), regs_const),
        guarded(C(1), CmpOp::Eq, F(fields::TCP_VALID), regs_field),
        guarded(F(valid), CmpOp::Eq, C(1), read_past),
        guarded(C(2), CmpOp::Gt, F(b), write_past),
    ]));
    let mut p = pb.build(TargetModel::bmv2()).expect("the operand-shapes program builds");
    let key = vec![MatchValue::Exact(1)];
    let entry = Entry { key, priority: 0, action: from_data, action_data: vec![0xAB, 3, 6] };
    let insert = RuntimeRequest::InsertEntry { table: bind, entry };
    assert_eq!(p.runtime(&insert), RuntimeResponse::Ok);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn symbolic_agrees_with_concrete_on_every_builtin(seed in any::<u64>()) {
        let hand_built = [("control shapes", control_shapes()), ("operand shapes", operand_shapes())];
        let programs = builtin_pipelines().into_iter().chain(hand_built);
        for (name, p) in programs {
            for k in 0..4u64 {
                let w = random_witness(&p, seed ^ k.wrapping_mul(0x0123_4567_89AB_CDEF));
                if let Err(e) = check_agreement(&p, &w) {
                    prop_assert!(false, "{name} (packet {k}): {e}");
                }
            }
        }
    }
}

/// The all-zero packet on fresh state — the single most common real
/// input — agrees exactly, as a plain (non-property) regression.
#[test]
fn symbolic_agrees_on_zero_packet() {
    for (name, p) in builtin_pipelines() {
        let w = Witness {
            fields: Vec::new(),
            registers: Vec::new(),
        };
        check_agreement(&p, &w).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
