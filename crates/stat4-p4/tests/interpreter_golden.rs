//! Behavioural identity of the concrete interpreter, pinned outside the
//! benchmark harness.
//!
//! The symbolic-differential property next door holds the symbolic
//! executor to the interpreter; nothing there holds the interpreter to
//! *itself across commits*. This test does: a fixed-seed spike trace
//! runs through every built-in program, and two error cases run through
//! hand-built ones, and everything observable — steps, the
//! ordered digests, the applied-table trace, `export_state()`, and for
//! the error cases the exact `P4Error` plus, for a packet fault, the
//! register cells at the moment it was returned (a step budget is
//! refused at build, before any packet) — is rendered as text and
//! compared with `tests/golden/interpreter.golden`.
//!
//! The golden file was recorded at the commit *before* the interpreter
//! stopped copying the program per packet (PR 14), so it is the old
//! interpreter's behaviour the new one is held to. A change that means
//! to alter behaviour re-records it with
//! `GOLDEN_RECORD=1 cargo test -p stat4-p4 --test interpreter_golden`
//! and reviews the diff.

use p4sim::control::CmpOp;
use p4sim::phv::fields;
use p4sim::program::ProgramBuilder;
use p4sim::{
    parse_frame, ActionDef, Cond, Control, Entry, MatchKind, MatchValue, Operand, P4Error, Phv,
    Pipeline, Primitive, RuntimeRequest, TableDef, TargetModel,
};
use stat4_p4::binding::bind_prefix_h;
use stat4_p4::lint::builtin_pipelines;
use stat4_p4::{CaseStudyApp, CaseStudyParams};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use workloads::{Schedule, SpikeWorkload};

const MS: u64 = 1_000_000;

/// The benchmark's `p4_casestudy` shape at a fifth of its rate: ≈23 000
/// frames, the spike landing after the rate window has warmed up so the
/// alert path (digests, drill-down counters) is on the trace.
fn spike_trace() -> Schedule {
    SpikeWorkload {
        background_pps: 20_000,
        duration: 200 * MS,
        spike_start_range: (100 * MS, 110 * MS),
        seed: 7,
        ..SpikeWorkload::default()
    }
    .generate()
    .0
}

/// The `i`-th frame's PHV. Echo and median read a payload integer the
/// spike frames do not carry; every program gets the same one.
fn phv_of(i: usize, t: u64, frame: &[u8]) -> Phv {
    let mut phv = parse_frame(frame, 1, t);
    phv.set(fields::PAYLOAD_VALUE, i as u64 % 511);
    phv
}

fn render_state(out: &mut String, p: &Pipeline) {
    let state = p.export_state();
    writeln!(out, "packets_processed {}", state.packets_processed).unwrap();
    for (name, cells) in &state.registers {
        write!(out, "register {name} len {}:", cells.len()).unwrap();
        for (i, v) in cells.iter().enumerate().filter(|(_, v)| **v != 0) {
            write!(out, " {i}={v}").unwrap();
        }
        out.push('\n');
    }
}

/// Echo and median emit a digest per packet; the ordered list of every
/// program is folded into one FNV-1a word, and the first hundred are
/// also written out so a mismatch can be read.
const LITERAL_DIGESTS: u64 = 100;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the whole trace through `p` and renders what came out.
fn render_trace_run(out: &mut String, name: &str, mut p: Pipeline, trace: &Schedule) {
    writeln!(out, "program {name}").unwrap();
    let (mut steps, mut recirculations, mut forwarded, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut digest_count, mut digest_hash) = (0u64, FNV_OFFSET);
    let mut digests = String::new();
    for (i, (t, frame)) in trace.iter().enumerate() {
        let mut phv = phv_of(i, *t, frame);
        let o = p
            .process_phv(&mut phv)
            .unwrap_or_else(|e| panic!("{name}: frame {i}: {e}"));
        steps += o.steps;
        recirculations += u64::from(o.recirculations);
        forwarded += u64::from(o.egress.is_some());
        dropped += u64::from(o.dropped);
        for (_, hit) in &o.tables_applied[..] {
            if *hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        for d in &o.digests {
            digest_count += 1;
            for word in [i as u64, u64::from(d.id), d.values.len() as u64]
                .iter()
                .chain(&d.values)
            {
                digest_hash = fnv1a(digest_hash, *word);
            }
            if digest_count <= LITERAL_DIGESTS {
                writeln!(digests, "digest frame {i} id {} values {:?}", d.id, d.values).unwrap();
            }
        }
    }
    writeln!(out, "steps {steps}").unwrap();
    writeln!(out, "recirculations {recirculations}").unwrap();
    writeln!(out, "forwarded {forwarded} dropped {dropped}").unwrap();
    writeln!(out, "table_hits {hits} table_misses {misses}").unwrap();
    writeln!(out, "digests {digest_count} fnv1a {digest_hash:016x}").unwrap();
    out.push_str(&digests);
    render_state(out, &p);
    out.push('\n');
}

/// The case study as the controller leaves it mid drill-down: the six
/// /24s of the monitored /8 bound to groups 0..6, so every frame takes
/// the table-hit path with three action-data slots (the built-in suite's
/// copy has an empty drill table and only ever misses there).
fn drill_bound_case_study() -> Pipeline {
    let mut app = CaseStudyApp::build(CaseStudyParams::default()).expect("case study builds");
    let handles = app.handles;
    for subnet in 0..6u8 {
        let req = bind_prefix_h(&handles, Ipv4Addr::new(10, 0, subnet, 0), 24, 0, u64::from(subnet));
        let resp = app.pipeline.runtime(&req);
        assert!(resp.is_ok(), "{resp:?}");
    }
    app.pipeline
}

/// A program whose one path would run out of step budget halfway down
/// an action: `build` refuses it, so no packet starts and none is cut
/// off part way.
fn render_step_budget_case(out: &mut String) {
    let mut b = ProgramBuilder::new();
    let r = b.add_register("r", 64, 4);
    let write = |i: u64, v: u64| Primitive::RegWrite {
        register: r,
        index: Operand::Const(i),
        src: Operand::Const(v),
    };
    let fill = b.add_action(ActionDef::new(
        "fill",
        vec![
            write(0, 11),
            write(1, 22),
            write(2, 33),
            write(3, 44),
            Primitive::Digest {
                id: 9,
                values: vec![Operand::Const(1)],
            },
        ],
    ));
    b.set_control(Control::If {
        cond: Cond::new(Operand::Field(fields::PKT_LEN), CmpOp::Gt, Operand::Const(0)),
        then_branch: Box::new(Control::ApplyAction(fill)),
        else_branch: None,
    });
    let target = TargetModel {
        step_budget: 3,
        ..TargetModel::bmv2()
    };
    let err = b.build(target).expect_err("budget of 3 cannot cover 6 steps");
    assert_eq!(err, P4Error::StepBudget { worst: 6, budget: 3 });
    writeln!(out, "case step_budget_mid_action").unwrap();
    writeln!(out, "error {err:?}").unwrap();
    out.push('\n');
}

/// A table-hit action that writes a cell named by its action data and
/// then reads another register out of bounds: the error, and the write
/// that landed before it.
fn render_register_oob_case(out: &mut String) {
    let mut b = ProgramBuilder::new();
    let a = b.add_register("a", 64, 2);
    let oob = b.add_register("b", 64, 2);
    let act = b.add_action(ActionDef::new(
        "write_then_overrun",
        vec![
            Primitive::RegWrite {
                register: a,
                index: Operand::Data(0),
                src: Operand::Data(1),
            },
            Primitive::RegRead {
                dst: fields::M0,
                register: oob,
                index: Operand::Field(fields::PKT_LEN),
            },
            Primitive::RegWrite {
                register: a,
                index: Operand::Const(0),
                src: Operand::Const(9),
            },
        ],
    ));
    let t = b.add_table(TableDef {
        name: "t".into(),
        keys: vec![(fields::IPV4_DST, MatchKind::Exact)],
        max_entries: 2,
        allowed_actions: vec![act],
        default_action: None,
    });
    b.set_control(Control::ApplyTable(t));
    let mut p = b.build(TargetModel::bmv2()).expect("oob program builds");
    let resp = p.runtime(&RuntimeRequest::InsertEntry {
        table: t,
        entry: Entry {
            key: vec![MatchValue::Exact(0x0a00_0001)],
            priority: 0,
            action: act,
            action_data: vec![1, 7],
        },
    });
    assert!(resp.is_ok(), "{resp:?}");
    let mut phv = Phv::new();
    phv.set(fields::IPV4_DST, 0x0a00_0001);
    phv.set(fields::PKT_LEN, 5);
    let err = p.process_phv(&mut phv).expect_err("b[5] is out of bounds");
    assert!(matches!(
        err,
        P4Error::RegisterOutOfBounds {
            register: 1,
            index: 5,
            size: 2
        }
    ));
    writeln!(out, "case register_out_of_bounds").unwrap();
    writeln!(out, "error {err:?}").unwrap();
    render_state(out, &p);
    out.push('\n');
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/interpreter.golden")
}

#[test]
fn interpreter_behaviour_matches_golden() {
    let trace = spike_trace();
    let mut got = String::new();
    for (name, p) in builtin_pipelines() {
        render_trace_run(&mut got, name, p, &trace);
    }
    render_trace_run(&mut got, "casestudy (bmv2, drill-down bound)", drill_bound_case_study(), &trace);
    render_step_budget_case(&mut got);
    render_register_oob_case(&mut got);

    let path = golden_path();
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden file has a directory"))
            .and_then(|()| std::fs::write(&path, &got))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "interpreter behaviour differs from {} at line {}:\n  got:  {}\n  want: {}",
            path.display(),
            line + 1,
            got.lines().nth(line).unwrap_or("<end>"),
            want.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
