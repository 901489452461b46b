//! The pipeline interpreter: executes a validated program packet by
//! packet against register state.

use crate::action::{hash, msb, ActionDef, Alu, Operand, Primitive};
use crate::control::{CmpOp, Cond, Control};
use crate::error::{P4Error, P4Result};
use crate::parser::parse_frame;
use crate::phv::{fields, FieldId, Phv, DROP_PORT};
use crate::table::Table;
use crate::target::TargetModel;
use stat4_core::delta::DirtyJournal;
use std::sync::Arc;
use telemetry::json::{field, field_with, obj, At, FromJson, Json, ToJson};

/// How one register's per-shard state folds into a whole-switch view
/// during sharded replay (`crate::replay::merge_registers`), and the
/// algebra the merge-soundness check (`S4L015`) verifies the register's
/// update function against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RegMerge {
    /// Cellwise wrapping addition masked to the register width — the
    /// arithmetic a fixed-width hardware register performs. Correct for
    /// counters and sum/sum-of-squares accumulators.
    #[default]
    Sum,
    /// Cellwise saturating addition clamped at the width mask.
    SatSum,
    /// Cellwise maximum (high-water marks).
    Max,
    /// Not mergeable cellwise: state encodes order (ring heads, marker
    /// positions, seeded-once flags). The merge keeps the destination
    /// shard's cells, and the register is exempt from the soundness
    /// check — a higher-level rebuild must reconcile it.
    None,
}

impl RegMerge {
    /// Folds one source cell into a destination cell under this policy
    /// (`mask` is the register's width mask). `None` keeps `dst`.
    #[must_use]
    pub(crate) fn combine(self, dst: u64, src: u64, mask: u64) -> u64 {
        match self {
            RegMerge::Sum => dst.wrapping_add(src) & mask,
            RegMerge::SatSum => dst.saturating_add(src).min(mask),
            RegMerge::Max => dst.max(src),
            RegMerge::None => dst,
        }
    }
}

/// A stateful register array.
#[derive(Debug, Clone)]
pub struct Register {
    /// Name for reports.
    pub name: String,
    /// Cell width in bits (writes are masked).
    pub width_bits: u32,
    /// Cell storage.
    pub cells: Vec<u64>,
    /// Declared cross-shard merge policy (see [`RegMerge`]).
    pub merge: RegMerge,
    /// Cells written since the last [`Pipeline::take_register_delta`]
    /// — the changed-register-span journal behind sparse cross-shard
    /// merges. Bookkeeping, not identity: excluded from eq.
    pub(crate) journal: DirtyJournal,
}

/// Equality is over the declared shape and cell contents only — the
/// dirty journal is bookkeeping, not identity.
impl PartialEq for Register {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.width_bits == other.width_bits
            && self.cells == other.cells
            && self.merge == other.merge
    }
}

impl Eq for Register {}

impl Register {
    pub(crate) fn mask(&self) -> u64 {
        if self.width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        }
    }

    /// The one journaled write path: records the cell's pre-write value
    /// on first touch, then writes `v` masked to the register width.
    /// Every interpreter/controller mutation funnels through here so
    /// register deltas stay complete.
    pub(crate) fn write_cell(&mut self, i: usize, v: u64) {
        self.journal.mark(i, self.cells[i]);
        self.cells[i] = v & self.mask();
    }

    /// `index` as a cell of this register (register `id`), or the
    /// out-of-bounds fault.
    pub(crate) fn cell(&self, id: usize, index: u64) -> P4Result<usize> {
        let size = self.cells.len() as u64;
        let fault = P4Error::RegisterOutOfBounds { register: id, index, size };
        (index < size).then_some(index as usize).ok_or(fault)
    }
}

/// A digest pushed to the controller during packet processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRecord {
    /// Application-defined digest kind.
    pub id: u16,
    /// Evaluated payload values.
    pub values: Vec<u64>,
}

/// What happened to one packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketOutcome {
    /// Egress port, if forwarded.
    pub egress: Option<u64>,
    /// True if dropped.
    pub dropped: bool,
    /// Extra pipeline passes the packet consumed.
    pub recirculations: u32,
    /// Set while a pass is executing when the next pass was requested.
    recirculate_requested: bool,
    /// Digests emitted (push alerts to the controller).
    pub digests: Vec<DigestRecord>,
    /// Interpreter steps consumed (primitives + table lookups).
    pub steps: u64,
    /// `(table_id, hit)` for every table applied, in order.
    pub tables_applied: TableTrace,
}

/// The `(table_id, hit)` pairs one packet applied, in order. The first
/// four live inline and only a longer trace spills to the heap, so a
/// packet that applies few tables allocates nothing for it. Reads and
/// compares as the slice `[(usize, bool)]`.
#[derive(Clone, Default, Eq)]
pub struct TableTrace {
    inline: [(usize, bool); 4],
    len: usize,
    /// The whole trace once it outgrew `inline`, else empty.
    spill: Vec<(usize, bool)>,
}

impl TableTrace {
    fn push(&mut self, pair: (usize, bool)) {
        if self.len < self.inline.len() {
            self.inline[self.len] = pair;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(pair);
        }
    }
}

impl std::ops::Deref for TableTrace {
    type Target = [(usize, bool)];

    fn deref(&self) -> &Self::Target {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl PartialEq for TableTrace {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for TableTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A snapshot of a pipeline's mutable state — every register cell plus
/// the packet counter — for crash-recovery checkpoints and hot-swap
/// shadow transfer. The static definition (tables, actions, control
/// tree) is deliberately not captured: a restore target is a fresh
/// build of the same program, and [`Pipeline::restore_state`] verifies
/// the register file lines up before touching anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineState {
    /// `(register name, cells)` in declaration order.
    pub registers: Vec<(String, Vec<u64>)>,
    /// Packets processed when the state was captured.
    pub packets_processed: u64,
}

/// A named register's cells as a `{"name", "cells"}` object, which a
/// pair has no field names for: how a checkpoint and a witness list
/// register contents.
pub(crate) fn register_json((name, cells): &(String, Vec<u64>)) -> Json {
    obj(vec![("name", name.to_json()), ("cells", cells.to_json())])
}

/// A register is written as a `{"name", "cells"}` object, which a pair
/// has no field names for, so both halves are spelled out.
impl ToJson for PipelineState {
    fn to_json(&self) -> Json {
        obj(vec![
            ("registers", Json::Arr(self.registers.iter().map(register_json).collect())),
            ("packets_processed", self.packets_processed.to_json()),
        ])
    }
}

impl FromJson for PipelineState {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        let registers = field_with(v, "registers", at, |list, at| {
            let list = list.as_arr().ok_or_else(|| at.err("not an array"))?;
            let register = |(i, r)| {
                let at = At::Idx(&at, i);
                Ok((field(r, "name", at)?, field(r, "cells", at)?))
            };
            list.iter().enumerate().map(register).collect::<Result<_, String>>()
        })?;
        Ok(Self { registers, packets_processed: field(v, "packets_processed", at)? })
    }
}

/// A complete program instance: static definition plus mutable state.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) target: TargetModel,
    pub(crate) registers: Vec<Register>,
    pub(crate) actions: Vec<ActionDef>,
    pub(crate) tables: Vec<Table>,
    control: Control,
    /// The program lowered once, by `from_parts`, to the flat steps a
    /// packet runs: the control, then a body per action, which starts at
    /// `bodies[aid]`. A step of a rare shape reads its operands from
    /// `args`, which clones share, as nothing writes it after
    /// `from_parts`. All four fields are private so they stay in step.
    tape: Vec<Step>,
    bodies: Vec<usize>,
    args: Arc<[Operand]>,
    pub(crate) packets_processed: u64,
    /// `packets_processed` at the last [`Self::take_register_delta`].
    pub(crate) taken_packets: u64,
}

impl Pipeline {
    pub(crate) fn from_parts(
        target: TargetModel,
        registers: Vec<Register>,
        actions: Vec<ActionDef>,
        tables: Vec<Table>,
        control: Control,
    ) -> Self {
        let (tape, bodies, args) = Lowering::program(&target, &actions, &control);
        Self {
            target,
            registers,
            actions,
            tables,
            control,
            tape,
            bodies,
            args: args.into(),
            packets_processed: 0,
            taken_packets: 0,
        }
    }

    /// The target this program was validated against.
    #[must_use]
    pub fn target(&self) -> &TargetModel {
        &self.target
    }

    /// Number of packets processed so far.
    #[must_use]
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Read-only register access (tests, resource accounting; the
    /// controller path goes through [`crate::runtime`]).
    #[must_use]
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Captures the pipeline's mutable state (register cells + packet
    /// counter) for a checkpoint; see [`PipelineState`].
    #[must_use]
    pub fn export_state(&self) -> PipelineState {
        PipelineState {
            registers: self
                .registers
                .iter()
                .map(|r| (r.name.clone(), r.cells.clone()))
                .collect(),
            packets_processed: self.packets_processed,
        }
    }

    /// Restores state previously captured by [`Pipeline::export_state`]
    /// from a pipeline running the same program. All-or-nothing: the
    /// register file (names, order, cell counts) is validated in full
    /// before any cell is written, so a mismatched snapshot leaves the
    /// pipeline untouched. Restored cells are masked to the declared
    /// register width.
    ///
    /// # Errors
    ///
    /// [`P4Error::Invalid`] naming the first mismatched register.
    pub fn restore_state(&mut self, state: &PipelineState) -> P4Result<()> {
        if state.registers.len() != self.registers.len() {
            return Err(P4Error::Invalid {
                what: format!(
                    "state snapshot has {} register(s), program declares {}",
                    state.registers.len(),
                    self.registers.len()
                ),
            });
        }
        for (reg, (name, cells)) in self.registers.iter().zip(&state.registers) {
            if reg.name != *name {
                return Err(P4Error::Invalid {
                    what: format!("state register `{name}` where program declares `{}`", reg.name),
                });
            }
            if reg.cells.len() != cells.len() {
                return Err(P4Error::Invalid {
                    what: format!(
                        "register `{name}`: snapshot has {} cell(s), program declares {}",
                        cells.len(),
                        reg.cells.len()
                    ),
                });
            }
        }
        for (reg, (_, cells)) in self.registers.iter_mut().zip(&state.registers) {
            let mask = reg.mask();
            for (dst, src) in reg.cells.iter_mut().zip(cells) {
                *dst = src & mask;
            }
            // A restore replaces the whole file: re-base the journal so
            // the next delta is relative to the restored state (a
            // consumer must full-merge once before trusting deltas).
            reg.journal.clear();
        }
        self.packets_processed = state.packets_processed;
        self.taken_packets = state.packets_processed;
        Ok(())
    }

    /// Drains the per-register dirty journals into a
    /// [`crate::replay::PipelineDelta`] — the changed-register spans
    /// since the last take — and re-bases them.
    ///
    /// The delta holds every write a packet or the controller made since
    /// the last take: both write registers only through
    /// `Register::write_cell`, which journals. [`Self::restore_state`]
    /// re-bases the journals, so a consumer full-merges once after a
    /// restore.
    pub fn take_register_delta(&mut self) -> crate::replay::PipelineDelta {
        let packets_base = self.taken_packets;
        self.taken_packets = self.packets_processed;
        let mut regs = Vec::new();
        for (i, r) in self.registers.iter_mut().enumerate() {
            if !r.journal.is_empty() {
                let mut cells = Vec::new();
                r.journal.drain_cells_into(&r.cells, &mut cells);
                regs.push(crate::replay::RegisterDelta { register: i, cells });
            }
        }
        crate::replay::PipelineDelta {
            regs,
            packets_base,
            packets_cur: self.packets_processed,
        }
    }

    /// Read-only table access.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Actions (for reports).
    #[must_use]
    pub fn actions(&self) -> &[ActionDef] {
        &self.actions
    }

    /// Control tree (for analysis).
    #[must_use]
    pub fn control(&self) -> &Control {
        &self.control
    }

    /// Parses `frame` and runs it through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors ([`P4Error::RegisterOutOfBounds`],
    /// [`P4Error::ActionDataOutOfBounds`], …).
    pub fn process_frame(
        &mut self,
        frame: &[u8],
        ingress_port: u64,
        timestamp_ns: u64,
    ) -> P4Result<(Phv, PacketOutcome)> {
        let mut phv = parse_frame(frame, ingress_port, timestamp_ns);
        let outcome = self.process_phv(&mut phv)?;
        Ok((phv, outcome))
    }

    /// Runs an already-parsed PHV through the pipeline.
    ///
    /// # Errors
    ///
    /// The faults a packet can cause: a register index read from a field
    /// or action data out of bounds ([`P4Error::RegisterOutOfBounds`]), a
    /// missing action-data slot ([`P4Error::ActionDataOutOfBounds`]) or
    /// an unknown id. Never a step budget: `ProgramBuilder::build`
    /// refuses a program whose worst path could overrun it.
    #[inline]
    pub fn process_phv(&mut self, phv: &mut Phv) -> P4Result<PacketOutcome> {
        let mut outcome = PacketOutcome::default();
        let mut exec = Exec {
            tables: &self.tables,
            tape: &self.tape,
            bodies: &self.bodies,
            args: &self.args,
            registers: &mut self.registers,
        };
        loop {
            exec.run(phv, &mut outcome)?;
            // Bounded like hardware: past `max_recirculations` the packet
            // proceeds without the extra pass rather than looping forever.
            let again = std::mem::take(&mut outcome.recirculate_requested);
            if !again || outcome.recirculations >= self.target.max_recirculations {
                break;
            }
            outcome.recirculations += 1;
        }
        if phv.dropped() {
            outcome.dropped = true;
            outcome.egress = None;
        } else {
            let e = phv.get(fields::EGRESS_PORT);
            outcome.egress = (e != 0 || !outcome.tables_applied.is_empty()).then_some(e);
        }
        self.packets_processed += 1;
        Ok(outcome)
    }
}

/// One step of the lowered program: the control, ended by an `Exit`, then
/// a body per action, ended by a `Ret`. A direct action is inlined into
/// the control; a table runs the body of the action it invokes.
///
/// The tape is the interpreter's meaning of each primitive, held to the
/// analyses' `exec_primitive` by the differential property. A primitive
/// is one step with its operand kinds resolved: `FF` reads two fields,
/// `FC` a field and a constant, `CF` a constant and a field, and `C`, `F`
/// and `D` read a constant, a field and an action-data slot; the rarer
/// shapes read theirs from `args`. A branch charges one step and falls
/// through when its comparison holds, else jumps to its last field.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Charges one step, looks the table up and runs the body of the
    /// action its hit entry (or default action) names, with that data.
    Table(usize),
    Jump(usize),
    Exit,
    Recirculate,
    /// Charges an action's whole cost, once, before its primitives run.
    Charge(u64),
    /// Ends an action body: back to the step after its `Table`.
    Ret,
    EqFF(FieldId, FieldId, usize), EqFC(FieldId, u64, usize),
    NeFF(FieldId, FieldId, usize), NeFC(FieldId, u64, usize),
    LtFF(FieldId, FieldId, usize), LtFC(FieldId, u64, usize),
    LeFF(FieldId, FieldId, usize), LeFC(FieldId, u64, usize),
    GtFF(FieldId, FieldId, usize), GtFC(FieldId, u64, usize),
    GeFF(FieldId, FieldId, usize), GeFC(FieldId, u64, usize),
    AddFF(FieldId, FieldId, FieldId), AddFC(FieldId, FieldId, u64),
    SubFF(FieldId, FieldId, FieldId), SubFC(FieldId, FieldId, u64),
    AndFF(FieldId, FieldId, FieldId), AndFC(FieldId, FieldId, u64),
    OrFF(FieldId, FieldId, FieldId), OrFC(FieldId, FieldId, u64),
    XorFF(FieldId, FieldId, FieldId), XorFC(FieldId, FieldId, u64),
    ShlFF(FieldId, FieldId, FieldId), ShlFC(FieldId, FieldId, u64),
    ShrFF(FieldId, FieldId, FieldId), ShrFC(FieldId, FieldId, u64),
    MulFF(FieldId, FieldId, FieldId), MulFC(FieldId, FieldId, u64),
    MinFF(FieldId, FieldId, FieldId), MinFC(FieldId, FieldId, u64),
    MaxFF(FieldId, FieldId, FieldId), MaxFC(FieldId, FieldId, u64),
    SubCF(FieldId, u64, FieldId), ShlCF(FieldId, u64, FieldId), ShrCF(FieldId, u64, FieldId),
    SetC(FieldId, u64),
    SetF(FieldId, FieldId),
    SetD { dst: FieldId, slot: usize },
    Msb(FieldId, FieldId),
    Hash { dst: FieldId, f: FieldId, salt: u64, w: u32 },
    /// An access to register `r` at a constant index `i`, in range by
    /// `build`, at the index in field `f`, or at the one in data slot `slot`.
    RegReadC { dst: FieldId, r: usize, i: usize },
    RegWriteCF { r: usize, i: usize, src: FieldId },
    RegWriteCC { r: usize, i: usize, c: u64 },
    RegReadF { dst: FieldId, r: usize, f: FieldId },
    RegWriteFF { r: usize, f: FieldId, src: FieldId },
    RegWriteFC { r: usize, f: FieldId, c: u64 },
    RegReadD { dst: FieldId, r: usize, slot: usize },
    RegWriteDF { r: usize, slot: usize, src: FieldId },
    /// A write the other register steps do not shape, of the value
    /// `args[at + 1]` at the index `args[at]`.
    RegWriteD { r: usize, at: usize },
    /// Emits digest `id` carrying the values of `args[at..at + len]`.
    Digest { id: u16, at: usize, len: usize },
    /// `dst = a op b` with an operand from action data, `a` and `b`
    /// being `args[at]` and `args[at + 1]`.
    AluD { op: Alu, dst: FieldId, at: usize },
    MsbD { dst: FieldId, slot: usize },
    HashD { dst: FieldId, slot: usize, salt: u64, w: u32 },
}

// Every shape is a step of its own, and none makes the common tape wider.
const _: () = assert!(std::mem::size_of::<Step>() == 32);

/// Lowers a validated program to its tape.
struct Lowering<'a> {
    target: &'a TargetModel,
    actions: &'a [ActionDef],
    tape: Vec<Step>,
    args: Vec<Operand>,
}

impl<'a> Lowering<'a> {
    /// The tape, where each action's body starts on it, and the operands
    /// its steps read from `args`.
    fn program(target: &'a TargetModel, actions: &'a [ActionDef], control: &Control)
        -> (Vec<Step>, Vec<usize>, Vec<Operand>) {
        let mut lowering = Lowering { target, actions, tape: Vec::new(), args: Vec::new() };
        lowering.control(control);
        lowering.tape.push(Step::Exit);
        let bodies = (0..actions.len())
            .map(|aid| {
                let start = lowering.tape.len();
                lowering.action(aid);
                lowering.tape.push(Step::Ret);
                start
            })
            .collect();
        (lowering.tape, bodies, lowering.args)
    }

    /// Appends `c`, in the order a packet meets its nodes.
    fn control(&mut self, c: &Control) {
        match c {
            Control::Nop => {}
            Control::Seq(children) => children.iter().for_each(|child| self.control(child)),
            Control::ApplyTable(tid) => self.tape.push(Step::Table(*tid)),
            Control::ApplyAction(aid) => self.action(*aid),
            Control::If { cond, then_branch, else_branch } => {
                let branch = self.tape.len();
                self.tape.push(Step::Exit); // a placeholder, patched once `else_pc` is known
                self.control(then_branch);
                let mut else_pc = self.tape.len();
                if let Some(e) = else_branch {
                    self.tape.push(Step::Exit); // the then-branch's jump past the else-branch
                    else_pc += 1;
                    self.control(e);
                    self.tape[else_pc - 1] = Step::Jump(self.tape.len());
                }
                self.tape[branch] = branch_step(cond, else_pc);
            }
            Control::Exit => self.tape.push(Step::Exit),
            Control::Recirculate => self.tape.push(Step::Recirculate),
        }
    }

    /// Appends action `aid`: a `Charge` of its whole cost, then a step
    /// per primitive.
    fn action(&mut self, aid: usize) {
        let primitives = &self.actions[aid].primitives;
        let cost = primitives.iter().map(|p| p.cost(self.target)).sum();
        if cost > 0 {
            self.tape.push(Step::Charge(cost));
        }
        for p in primitives {
            let step = self.primitive(p);
            self.tape.push(step);
        }
    }

    /// `p` as one step. `Not` is `Xor` with all ones, an operation on
    /// constants only is folded, and a constant register index is in
    /// range: `ProgramBuilder::build` refuses one that is not.
    fn primitive(&mut self, p: &Primitive) -> Step {
        use Operand::{Const as C, Data as D, Field as F};
        use Primitive as P;
        match *p {
            P::Set { dst, src: C(c) } => Step::SetC(dst, c),
            P::Set { dst, src: F(f) } => Step::SetF(dst, f),
            P::Set { dst, src: D(slot) } => Step::SetD { dst, slot },
            P::Forward { port } => self.primitive(&P::Set { dst: fields::EGRESS_PORT, src: port }),
            P::Drop => Step::SetC(fields::EGRESS_PORT, DROP_PORT),
            P::Add { dst, a, b } => self.alu(Alu::Add, dst, a, b),
            P::Sub { dst, a, b } => self.alu(Alu::Sub, dst, a, b),
            P::And { dst, a, b } => self.alu(Alu::And, dst, a, b),
            P::Or { dst, a, b } => self.alu(Alu::Or, dst, a, b),
            P::Xor { dst, a, b } => self.alu(Alu::Xor, dst, a, b),
            P::Shl { dst, src, amount } => self.alu(Alu::Shl, dst, src, amount),
            P::Shr { dst, src, amount } => self.alu(Alu::Shr, dst, src, amount),
            P::Mul { dst, a, b } => self.alu(Alu::Mul, dst, a, b),
            P::Min { dst, a, b } => self.alu(Alu::Min, dst, a, b),
            P::Max { dst, a, b } => self.alu(Alu::Max, dst, a, b),
            P::Not { dst, src } => self.alu(Alu::Xor, dst, src, C(u64::MAX)),
            P::Msb { dst, src: F(f) } => Step::Msb(dst, f),
            P::Hash { dst, src: F(f), salt, width_log2: w } => Step::Hash { dst, f, salt, w },
            P::Msb { dst, src: C(c) } => Step::SetC(dst, msb(c)),
            P::Hash { dst, src: C(c), salt, width_log2: w } => Step::SetC(dst, hash(c, salt, w)),
            P::Msb { dst, src: D(slot) } => Step::MsbD { dst, slot },
            P::Hash { dst, src: D(slot), salt, width_log2: w } => Step::HashD { dst, slot, salt, w },
            P::RegRead { dst, register: r, index } => match index {
                C(i) => Step::RegReadC { dst, r, i: i as usize },
                F(f) => Step::RegReadF { dst, r, f },
                D(slot) => Step::RegReadD { dst, r, slot },
            },
            P::RegWrite { register: r, index, src } => match (index, src) {
                (C(i), F(src)) => Step::RegWriteCF { r, i: i as usize, src },
                (C(i), C(c)) => Step::RegWriteCC { r, i: i as usize, c },
                (F(f), F(src)) => Step::RegWriteFF { r, f, src },
                (F(f), C(c)) => Step::RegWriteFC { r, f, c },
                (D(slot), F(src)) => Step::RegWriteDF { r, slot, src },
                (index, src) => Step::RegWriteD { r, at: self.pool(&[index, src]) },
            },
            P::Digest { id, ref values } => Step::Digest { id, at: self.pool(values), len: values.len() },
        }
    }

    /// `dst = a op b` as a step. A constant left operand of a commutative
    /// op moves to the right, an op on two constants is folded, and one
    /// that reads action data is an `AluD`.
    fn alu(&mut self, op: Alu, dst: FieldId, a: Operand, b: Operand) -> Step {
        type Ff = fn(FieldId, FieldId, FieldId) -> Step;
        type Fc = fn(FieldId, FieldId, u64) -> Step;
        type Cf = fn(FieldId, u64, FieldId) -> Step;
        let (ff, fc, cf): (Ff, Fc, Option<Cf>) = match op {
            Alu::Add => (Step::AddFF, Step::AddFC, None),
            Alu::Sub => (Step::SubFF, Step::SubFC, Some(Step::SubCF)),
            Alu::And => (Step::AndFF, Step::AndFC, None),
            Alu::Or => (Step::OrFF, Step::OrFC, None),
            Alu::Xor => (Step::XorFF, Step::XorFC, None),
            Alu::Shl => (Step::ShlFF, Step::ShlFC, Some(Step::ShlCF)),
            Alu::Shr => (Step::ShrFF, Step::ShrFC, Some(Step::ShrCF)),
            Alu::Mul => (Step::MulFF, Step::MulFC, None),
            Alu::Min => (Step::MinFF, Step::MinFC, None),
            Alu::Max => (Step::MaxFF, Step::MaxFC, None),
        };
        match (a, b, cf) {
            (Operand::Field(a), Operand::Field(b), _) => ff(dst, a, b),
            (Operand::Field(f), Operand::Const(c), _)
            | (Operand::Const(c), Operand::Field(f), None) => fc(dst, f, c),
            (Operand::Const(c), Operand::Field(f), Some(cf)) => cf(dst, c, f),
            (Operand::Const(a), Operand::Const(b), _) => Step::SetC(dst, op.apply(a, b)),
            _ => Step::AluD { op, dst, at: self.pool(&[a, b]) },
        }
    }

    /// Appends `operands` to `args`, and where they start there.
    fn pool(&mut self, operands: &[Operand]) -> usize {
        self.args.extend_from_slice(operands);
        self.args.len() - operands.len()
    }
}

/// The branch on `cond` that jumps to `else_pc` when it fails. A
/// constant on the left is mirrored to the right; a constant condition
/// compares a field with itself, with `==` to hold and `!=` to fail.
fn branch_step(cond: &Cond, else_pc: usize) -> Step {
    type Ff = fn(FieldId, FieldId, usize) -> Step;
    type Fc = fn(FieldId, u64, usize) -> Step;
    let shapes = |op| -> (Ff, Fc) {
        match op {
            CmpOp::Eq => (Step::EqFF, Step::EqFC),
            CmpOp::Ne => (Step::NeFF, Step::NeFC),
            CmpOp::Lt => (Step::LtFF, Step::LtFC),
            CmpOp::Le => (Step::LeFF, Step::LeFC),
            CmpOp::Gt => (Step::GtFF, Step::GtFC),
            CmpOp::Ge => (Step::GeFF, Step::GeFC),
        }
    };
    match (cond.a, cond.b) {
        (Operand::Field(a), Operand::Field(b)) => shapes(cond.op).0(a, b, else_pc),
        (Operand::Field(f), Operand::Const(c)) => shapes(cond.op).1(f, c, else_pc),
        (Operand::Const(c), Operand::Field(f)) => shapes(cond.op.mirror()).1(f, c, else_pc),
        (Operand::Const(a), Operand::Const(b)) => {
            let op = if cond.op.eval(a, b) { CmpOp::Eq } else { CmpOp::Ne };
            shapes(op).0(fields::INGRESS_PORT, fields::INGRESS_PORT, else_pc)
        }
        _ => unreachable!("`ProgramBuilder::build` refuses a condition that reads action data"),
    }
}

/// One packet's view of a [`Pipeline`]. The program is immutable after
/// `build`, so a packet borrows it — tape, operands, matched entries and
/// their action data are all used in place, never copied — and only the
/// register file is `&mut`.
struct Exec<'a> {
    tables: &'a [Table],
    tape: &'a [Step],
    bodies: &'a [usize],
    args: &'a [Operand],
    registers: &'a mut Vec<Register>,
}

impl<'a> Exec<'a> {
    /// Runs one pass of the tape.
    #[inline]
    fn run(&mut self, phv: &mut Phv, outcome: &mut PacketOutcome) -> P4Result<()> {
        let tables = self.tables;
        let mut steps = outcome.steps;
        let mut pc = 0;
        // Where `Ret` goes back to, and the running body's action and data.
        let (mut ret, mut act, mut data): (usize, usize, &'a [u64]) = (0, 0, &[]);
        macro_rules! branch {
            ($op:ident, $a:expr, $b:expr, $else_pc:expr) => {{
                steps += 1;
                if !CmpOp::$op.eval($a, $b) {
                    pc = $else_pc;
                }
            }};
        }
        loop {
            let step = self.tape[pc];
            pc += 1;
            match step {
                Step::Table(tid) => {
                    steps += 1;
                    let table = tables.get(tid).ok_or(P4Error::UnknownId { kind: "table", id: tid })?;
                    let hit = table.lookup(phv);
                    outcome.tables_applied.push((tid, hit.is_some()));
                    let invocation = match hit {
                        Some(e) => Some((e.action, e.action_data.as_slice())),
                        None => table.def.default_action.as_ref().map(|(a, d)| (*a, d.as_slice())),
                    };
                    if let Some((a, d)) = invocation {
                        (ret, act, data) = (pc, a, d);
                        pc = *self.bodies.get(a).ok_or(P4Error::UnknownId { kind: "action", id: a })?;
                    }
                }
                Step::Jump(to) => pc = to,
                Step::Exit => break,
                Step::Recirculate => {
                    steps += 1;
                    outcome.recirculate_requested = true;
                }
                Step::Charge(cost) => steps += cost,
                Step::Ret => pc = ret,
                Step::EqFF(a, b, to) => branch!(Eq, phv.get(a), phv.get(b), to),
                Step::NeFF(a, b, to) => branch!(Ne, phv.get(a), phv.get(b), to),
                Step::LtFF(a, b, to) => branch!(Lt, phv.get(a), phv.get(b), to),
                Step::LeFF(a, b, to) => branch!(Le, phv.get(a), phv.get(b), to),
                Step::GtFF(a, b, to) => branch!(Gt, phv.get(a), phv.get(b), to),
                Step::GeFF(a, b, to) => branch!(Ge, phv.get(a), phv.get(b), to),
                Step::EqFC(f, c, to) => branch!(Eq, phv.get(f), c, to),
                Step::NeFC(f, c, to) => branch!(Ne, phv.get(f), c, to),
                Step::LtFC(f, c, to) => branch!(Lt, phv.get(f), c, to),
                Step::LeFC(f, c, to) => branch!(Le, phv.get(f), c, to),
                Step::GtFC(f, c, to) => branch!(Gt, phv.get(f), c, to),
                Step::GeFC(f, c, to) => branch!(Ge, phv.get(f), c, to),
                Step::AddFF(d, a, b) => phv.set(d, Alu::Add.apply(phv.get(a), phv.get(b))),
                Step::SubFF(d, a, b) => phv.set(d, Alu::Sub.apply(phv.get(a), phv.get(b))),
                Step::AndFF(d, a, b) => phv.set(d, Alu::And.apply(phv.get(a), phv.get(b))),
                Step::OrFF(d, a, b) => phv.set(d, Alu::Or.apply(phv.get(a), phv.get(b))),
                Step::XorFF(d, a, b) => phv.set(d, Alu::Xor.apply(phv.get(a), phv.get(b))),
                Step::ShlFF(d, a, b) => phv.set(d, Alu::Shl.apply(phv.get(a), phv.get(b))),
                Step::ShrFF(d, a, b) => phv.set(d, Alu::Shr.apply(phv.get(a), phv.get(b))),
                Step::MulFF(d, a, b) => phv.set(d, Alu::Mul.apply(phv.get(a), phv.get(b))),
                Step::MinFF(d, a, b) => phv.set(d, Alu::Min.apply(phv.get(a), phv.get(b))),
                Step::MaxFF(d, a, b) => phv.set(d, Alu::Max.apply(phv.get(a), phv.get(b))),
                Step::AddFC(d, f, c) => phv.set(d, Alu::Add.apply(phv.get(f), c)),
                Step::SubFC(d, f, c) => phv.set(d, Alu::Sub.apply(phv.get(f), c)),
                Step::AndFC(d, f, c) => phv.set(d, Alu::And.apply(phv.get(f), c)),
                Step::OrFC(d, f, c) => phv.set(d, Alu::Or.apply(phv.get(f), c)),
                Step::XorFC(d, f, c) => phv.set(d, Alu::Xor.apply(phv.get(f), c)),
                Step::ShlFC(d, f, c) => phv.set(d, Alu::Shl.apply(phv.get(f), c)),
                Step::ShrFC(d, f, c) => phv.set(d, Alu::Shr.apply(phv.get(f), c)),
                Step::MulFC(d, f, c) => phv.set(d, Alu::Mul.apply(phv.get(f), c)),
                Step::MinFC(d, f, c) => phv.set(d, Alu::Min.apply(phv.get(f), c)),
                Step::MaxFC(d, f, c) => phv.set(d, Alu::Max.apply(phv.get(f), c)),
                Step::SubCF(d, c, f) => phv.set(d, Alu::Sub.apply(c, phv.get(f))),
                Step::ShlCF(d, c, f) => phv.set(d, Alu::Shl.apply(c, phv.get(f))),
                Step::ShrCF(d, c, f) => phv.set(d, Alu::Shr.apply(c, phv.get(f))),
                Step::SetC(d, c) => phv.set(d, c),
                Step::SetF(d, f) => phv.set(d, phv.get(f)),
                Step::SetD { dst, slot } => phv.set(dst, datum(data, slot, act)?),
                Step::Msb(d, f) => phv.set(d, msb(phv.get(f))),
                Step::Hash { dst, f, salt, w } => phv.set(dst, hash(phv.get(f), salt, w)),
                Step::RegReadC { dst, r, i } => phv.set(dst, self.registers[r].cells[i]),
                Step::RegWriteCF { r, i, src } => self.registers[r].write_cell(i, phv.get(src)),
                Step::RegWriteCC { r, i, c } => self.registers[r].write_cell(i, c),
                Step::RegReadF { dst, r, f } => phv.set(dst, self.read(r, phv.get(f))?),
                Step::RegWriteFF { r, f, src } => self.write(r, phv.get(f), phv.get(src))?,
                Step::RegWriteFC { r, f, c } => self.write(r, phv.get(f), c)?,
                Step::RegReadD { dst, r, slot } => phv.set(dst, self.read(r, datum(data, slot, act)?)?),
                Step::RegWriteDF { r, slot, src } => self.write(r, datum(data, slot, act)?, phv.get(src))?,
                Step::RegWriteD { r, at } => {
                    // The index is checked before the value is read.
                    let index = operand(self.args[at], phv, data, act)?;
                    let reg = &mut self.registers[r];
                    let i = reg.cell(r, index)?;
                    reg.write_cell(i, operand(self.args[at + 1], phv, data, act)?);
                }
                Step::Digest { id, at, len } => {
                    digest(id, &self.args[at..at + len], phv, data, act, &mut outcome.digests)?;
                }
                Step::AluD { op, dst, at } => {
                    let a = operand(self.args[at], phv, data, act)?;
                    let b = operand(self.args[at + 1], phv, data, act)?;
                    phv.set(dst, op.apply(a, b));
                }
                Step::MsbD { dst, slot } => phv.set(dst, msb(datum(data, slot, act)?)),
                Step::HashD { dst, slot, salt, w } => phv.set(dst, hash(datum(data, slot, act)?, salt, w)),
            }
        }
        outcome.steps = steps;
        Ok(())
    }

    /// Cell `index` of register `r`, or the out-of-bounds fault.
    fn read(&self, r: usize, index: u64) -> P4Result<u64> {
        let reg = &self.registers[r];
        Ok(reg.cells[reg.cell(r, index)?])
    }

    /// Writes cell `index` of register `r`, or fails out of bounds.
    fn write(&mut self, r: usize, index: u64, v: u64) -> P4Result<()> {
        let reg = &mut self.registers[r];
        reg.write_cell(reg.cell(r, index)?, v);
        Ok(())
    }
}

/// Slot `slot` of action `aid`'s data, or the fault for a missing one.
fn datum(data: &[u64], slot: usize, aid: usize) -> P4Result<u64> {
    data.get(slot).copied().ok_or(P4Error::ActionDataOutOfBounds { action: aid, slot })
}

/// Emits digest `id` carrying the values of `operands`. Out of line, as
/// its allocation and loop would take registers from every arm of the
/// loop.
#[inline(never)]
fn digest(id: u16, operands: &[Operand], phv: &Phv, data: &[u64], aid: usize, to: &mut Vec<DigestRecord>)
    -> P4Result<()> {
    let mut values = Vec::with_capacity(operands.len());
    for &o in operands {
        values.push(operand(o, phv, data, aid)?);
    }
    to.push(DigestRecord { id, values });
    Ok(())
}

/// The value of `o` in a body of action `aid` run with `data`.
fn operand(o: Operand, phv: &Phv, data: &[u64], aid: usize) -> P4Result<u64> {
    match o {
        Operand::Const(c) => Ok(c),
        Operand::Field(f) => Ok(phv.get(f)),
        Operand::Data(slot) => datum(data, slot, aid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Primitive;
    use crate::control::CmpOp;
    use crate::program::ProgramBuilder;
    use crate::runtime::RuntimeRequest;
    use crate::table::{Entry, MatchKind, MatchValue, TableDef};

    const M1_TEST: FieldId = fields::scratch(1);
    const M2_TEST: FieldId = fields::scratch(2);

    /// A counting pipeline: one register, one table binding dst-IP /8 to
    /// a per-prefix counter cell, default action forwards.
    fn counting_pipeline() -> Pipeline {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("counters", 64, 16);
        let fwd = b.add_action(ActionDef::new(
            "forward",
            vec![Primitive::Forward {
                port: Operand::Const(1),
            }],
        ));
        let count = b.add_action(ActionDef::new(
            "count",
            vec![
                // counters[data0] += pkt_len
                Primitive::RegRead {
                    dst: fields::M0,
                    register: reg,
                    index: Operand::Data(0),
                },
                Primitive::Add {
                    dst: fields::M0,
                    a: Operand::Field(fields::M0),
                    b: Operand::Field(fields::PKT_LEN),
                },
                Primitive::RegWrite {
                    register: reg,
                    index: Operand::Data(0),
                    src: Operand::Field(fields::M0),
                },
                Primitive::Forward {
                    port: Operand::Const(1),
                },
            ],
        ));
        let t = b.add_table(TableDef {
            name: "bind".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
            max_entries: 8,
            allowed_actions: vec![fwd, count],
            default_action: Some((fwd, vec![])),
        });
        b.set_control(Control::ApplyTable(t));
        let mut pipe = b.build(TargetModel::bmv2()).unwrap();
        pipe.tables[t]
            .insert(
                t,
                Entry {
                    key: vec![MatchValue::Lpm {
                        value: 0x0a00_0000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: count,
                    action_data: vec![3],
                },
            )
            .unwrap();
        pipe
    }

    fn phv_to(dst: u64, len: u64) -> Phv {
        let mut phv = Phv::new();
        phv.set(fields::IPV4_DST, dst);
        phv.set(fields::PKT_LEN, len);
        phv
    }

    #[test]
    fn counts_matching_traffic() {
        let mut p = counting_pipeline();
        let mut phv = phv_to(0x0a01_0203, 100);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1));
        assert!(!out.dropped);
        assert_eq!(out.tables_applied[..], [(0, true)]);
        assert_eq!(p.registers()[0].cells[3], 100);

        let mut phv = phv_to(0x0a0f_ffff, 60);
        p.process_phv(&mut phv).unwrap();
        assert_eq!(p.registers()[0].cells[3], 160);
    }

    #[test]
    fn state_export_restore_round_trips() {
        let mut live = counting_pipeline();
        for i in 0..5u64 {
            let mut phv = phv_to(0x0a01_0203, 100 + i);
            live.process_phv(&mut phv).unwrap();
        }
        let state = live.export_state();

        // A fresh build of the same program picks the state up exactly.
        let mut fresh = counting_pipeline();
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.registers(), live.registers());
        assert_eq!(fresh.packets_processed(), live.packets_processed());

        // A mismatched register file is rejected without mutation.
        let mut b = ProgramBuilder::new();
        b.add_register("other_reg", 64, 4);
        let noop = b.add_action(ActionDef::new("noop", vec![]));
        b.set_control(Control::ApplyAction(noop));
        let mut wrong = b.build(TargetModel::bmv2()).unwrap();
        let before = wrong.registers().to_vec();
        assert!(wrong.restore_state(&state).is_err());
        assert_eq!(wrong.registers(), &before[..], "rejected restore is a no-op");
    }

    /// A restored register's journal covers its whole file: writing its
    /// first and last cell ships what a fresh pipeline's does after a
    /// full merge of the same state.
    #[test]
    fn restored_journal_covers_the_whole_register() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.add_register("wide", 64, 71);
            let noop = b.add_action(ActionDef::new("noop", vec![]));
            b.set_control(Control::ApplyAction(noop));
            b.build(TargetModel::bmv2()).unwrap()
        };
        let write = |p: &mut Pipeline, index: u64, value: u64| {
            let req = RuntimeRequest::WriteRegister { register: 0, index, value };
            assert_eq!(p.runtime(&req), crate::runtime::RuntimeResponse::Ok);
        };
        let mut live = build();
        for i in 0..71 {
            write(&mut live, i, i * 3 + 1);
        }
        let mut restored = build();
        restored.restore_state(&live.export_state()).unwrap();
        let mut merged = build();
        crate::replay::merge_registers(&mut merged, &restored).unwrap();
        merged.take_register_delta();
        for p in [&mut restored, &mut merged] {
            write(p, 0, 9);
            write(p, 70, 11);
        }
        let d = restored.take_register_delta();
        assert_eq!(d.regs[0].cells, vec![(0, 1, 9), (70, 211, 11)]);
        assert_eq!(d, merged.take_register_delta());
    }

    #[test]
    fn miss_runs_default_action() {
        let mut p = counting_pipeline();
        let mut phv = phv_to(0x0b00_0001, 100);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.egress, Some(1));
        assert_eq!(out.tables_applied[..], [(0, false)]);
        assert_eq!(p.registers()[0].cells[3], 0, "no counting on miss");
    }

    #[test]
    fn drop_primitive() {
        let mut b = ProgramBuilder::new();
        let drop = b.add_action(ActionDef::new("drop", vec![Primitive::Drop]));
        b.set_control(Control::ApplyAction(drop));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        let out = p.process_phv(&mut phv).unwrap();
        assert!(out.dropped);
        assert_eq!(out.egress, None);
    }

    #[test]
    fn if_branches_on_field() {
        let mut b = ProgramBuilder::new();
        let syn = b.add_action(ActionDef::new(
            "mark_syn",
            vec![Primitive::Set {
                dst: M1_TEST,
                src: Operand::Const(77),
            }],
        ));
        b.set_control(Control::If {
            cond: Cond::new(
                Operand::Field(fields::TCP_IS_SYN),
                CmpOp::Eq,
                Operand::Const(1),
            ),
            then_branch: Box::new(Control::ApplyAction(syn)),
            else_branch: None,
        });
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::TCP_IS_SYN, 1);
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 77);

        let mut phv2 = Phv::new();
        p.process_phv(&mut phv2).unwrap();
        assert_eq!(phv2.get(M1_TEST), 0);
    }

    #[test]
    fn exit_stops_processing() {
        let mut b = ProgramBuilder::new();
        let set = b.add_action(ActionDef::new(
            "set",
            vec![Primitive::Set {
                dst: M1_TEST,
                src: Operand::Const(1),
            }],
        ));
        b.set_control(Control::Seq(vec![
            Control::Exit,
            Control::ApplyAction(set),
        ]));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 0, "statement after Exit skipped");
    }

    #[test]
    fn register_width_masks_writes() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("narrow", 8, 4);
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::RegWrite {
                register: reg,
                index: Operand::Const(0),
                src: Operand::Const(0x1ff),
            }],
        ));
        b.set_control(Control::ApplyAction(w));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(p.registers()[0].cells[0], 0xff, "masked to 8 bits");
    }

    #[test]
    fn register_oob_is_error() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 64, 2);
        let w = b.add_action(ActionDef::new(
            "w",
            vec![Primitive::RegWrite {
                register: reg,
                index: Operand::Const(5),
                src: Operand::Const(1),
            }],
        ));
        b.set_control(Control::ApplyAction(w));
        assert!(matches!(
            b.build(TargetModel::bmv2()),
            Err(P4Error::RegisterOutOfBounds {
                index: 5,
                size: 2,
                ..
            })
        ));
    }

    /// A write of action data faults where `exec_primitive` does: a bad
    /// index before the value's slot is read, a missing slot after the
    /// writes before it landed, each naming the running action.
    #[test]
    fn data_write_faults_in_operand_order() {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 64, 4);
        let write = |index, src| Primitive::RegWrite { register: reg, index, src };
        let noop = b.add_action(ActionDef::new("noop", vec![]));
        let w = b.add_action(ActionDef::new(
            "w",
            vec![
                write(Operand::Const(0), Operand::Data(0)),
                write(Operand::Field(fields::PKT_LEN), Operand::Data(1)),
            ],
        ));
        let t = b.add_table(TableDef {
            name: "t".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![noop, w],
            default_action: Some((noop, vec![])),
        });
        b.set_control(Control::ApplyTable(t));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        // One slot short, which only a table written past the runtime's
        // arity check can hold.
        let entry = Entry { key: vec![MatchValue::Exact(1)], priority: 0, action: w, action_data: vec![7] };
        p.tables[t].insert(t, entry).unwrap();
        assert_eq!(
            p.process_phv(&mut phv_to(1, 9)),
            Err(P4Error::RegisterOutOfBounds { register: reg, index: 9, size: 4 })
        );
        assert_eq!(
            p.process_phv(&mut phv_to(1, 2)),
            Err(P4Error::ActionDataOutOfBounds { action: w, slot: 1 })
        );
        assert_eq!(p.registers()[0].cells, [7, 0, 0, 0]);
    }

    #[test]
    fn digest_reaches_outcome() {
        let mut b = ProgramBuilder::new();
        let d = b.add_action(ActionDef::new(
            "alert",
            vec![Primitive::Digest {
                id: 42,
                values: vec![Operand::Const(7), Operand::Field(fields::PKT_LEN)],
            }],
        ));
        b.set_control(Control::ApplyAction(d));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 99);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].id, 42);
        assert_eq!(out.digests[0].values, vec![7, 99]);
    }

    #[test]
    fn msb_primitive_and_cost() {
        let mut b = ProgramBuilder::new();
        let m = b.add_action(ActionDef::new(
            "msb",
            vec![Primitive::Msb {
                dst: M1_TEST,
                src: Operand::Field(fields::PKT_LEN),
            }],
        ));
        b.set_control(Control::ApplyAction(m));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 106);
        let out = p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 6);
        assert_eq!(out.steps, u64::from(TargetModel::bmv2().msb_cost));

        let mut phv0 = Phv::new();
        p.process_phv(&mut phv0).unwrap();
        assert_eq!(phv0.get(M1_TEST), 0, "msb(0) = 0");
    }

    #[test]
    fn shift_saturation_past_width() {
        let mut b = ProgramBuilder::new();
        let a = b.add_action(ActionDef::new(
            "s",
            vec![
                Primitive::Shl {
                    dst: M1_TEST,
                    src: Operand::Const(1),
                    amount: Operand::Const(70),
                },
                Primitive::Shr {
                    dst: M2_TEST,
                    src: Operand::Const(u64::MAX),
                    amount: Operand::Const(64),
                },
            ],
        ));
        b.set_control(Control::ApplyAction(a));
        let mut p = b.build(TargetModel::bmv2()).unwrap();
        let mut phv = Phv::new();
        p.process_phv(&mut phv).unwrap();
        assert_eq!(phv.get(M1_TEST), 0);
        assert_eq!(phv.get(M2_TEST), 0);
    }

    /// A packet's charge never passes the budget its program was built
    /// for: below the worst path's 14 steps `build` refuses the program,
    /// naming both figures, and at 14 the packet on that path runs whole,
    /// charged exactly 14, with all four writes landed.
    #[test]
    fn budget_edge_of_the_once_per_action_charge() {
        let msb_cost = u64::from(TargetModel::bmv2().msb_cost);
        let build = |step_budget| {
            let mut b = ProgramBuilder::new();
            let r = b.add_register("r", 64, 4);
            let write = |i, src| Primitive::RegWrite { register: r, index: Operand::Const(i), src };
            let act = b.add_action(ActionDef::new(
                "act",
                vec![
                    write(0, Operand::Const(10)),
                    Primitive::Msb { dst: M1_TEST, src: Operand::Field(fields::PKT_LEN) },
                    write(1, Operand::Field(M1_TEST)),
                    Primitive::Set { dst: M2_TEST, src: Operand::Data(0) },
                    write(2, Operand::Field(M2_TEST)),
                ],
            ));
            let tail = b.add_action(ActionDef::new("tail", vec![write(3, Operand::Const(1))]));
            let t = b.add_table(TableDef {
                name: "t".into(),
                keys: vec![(fields::PKT_LEN, MatchKind::Exact)],
                max_entries: 1,
                allowed_actions: vec![act],
                default_action: Some((act, vec![7])),
            });
            let nonzero = Cond::new(Operand::Field(fields::PKT_LEN), CmpOp::Ne, Operand::Const(0));
            b.set_control(Control::Seq(vec![
                Control::If {
                    cond: nonzero,
                    then_branch: Box::new(Control::ApplyTable(t)),
                    else_branch: None,
                },
                Control::ApplyAction(tail),
            ]));
            b.build(TargetModel { step_budget, ..TargetModel::bmv2() })
        };
        // Branch 1 and table 1, then `act`'s primitives and `tail`'s.
        let worst = 7 + msb_cost;
        assert_eq!(worst, 14);
        for budget in 0..worst {
            assert_eq!(build(budget).unwrap_err(), P4Error::StepBudget { worst, budget });
        }
        let mut p = build(worst).unwrap();
        let out = p.process_phv(&mut phv_to(0, 100)).unwrap();
        assert_eq!(out.steps, worst);
        assert_eq!(p.registers()[0].cells, [10, 6, 7, 1], "msb(100) = 6");
    }
}
