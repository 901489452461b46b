//! The action instruction set — deliberately restricted to what P4
//! targets provide.
//!
//! There is **no division, no modulo, no square root** anywhere in
//! [`Primitive`]: the type system of the simulator makes the paper's
//! central constraint unrepresentable. Multiplication and
//! variable-distance shifts exist but are *validated against the
//! target* ([`crate::target::TargetModel`]): the bmv2 preset accepts
//! them, the Tofino-like preset rejects runtime multiplication and
//! non-constant shift distances, forcing programs onto the paper's
//! shift-based approximations.
//!
//! [`Primitive::Msb`] (most-significant-bit position) deserves a note:
//! the paper implements it "using a sequence of ifs, which is a costly
//! operation", or alternatively a TCAM longest-prefix match. It is kept
//! as one primitive so the interpreter is fast, but it costs
//! `TargetModel::msb_cost` sequential steps ([`Primitive::cost`]).
//!
//! What each primitive *means* is written once, in `exec_primitive`,
//! over a value domain: the interpreter runs it on `u64`, the symbolic
//! executor on expressions and the range analysis on intervals, so the
//! three cannot disagree about an operation, only about a domain.

use crate::error::P4Result;
use crate::phv::{fields, FieldId, DROP_PORT};
use crate::target::TargetModel;

/// A value source for a primitive: a literal, a PHV field, or a slot of
/// the matched table entry's action data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Compile-time constant.
    Const(u64),
    /// Read a PHV field.
    Field(FieldId),
    /// Read slot `n` of the matched entry's action data (how binding
    /// tables parameterise behaviour at runtime).
    Data(usize),
}

/// One data-plane instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Primitive {
    /// `dst = src`.
    Set {
        /// Destination field.
        dst: FieldId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a + b` (wrapping, like P4 `bit<W>` arithmetic).
    Add {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = a - b` (wrapping).
    Sub {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = a & b`.
    And {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = a | b`.
    Or {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = a ^ b`.
    Xor {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = !src` (bitwise not).
    Not {
        /// Destination field.
        dst: FieldId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = src << amount`. Non-constant `amount` is target-gated.
    Shl {
        /// Destination field.
        dst: FieldId,
        /// Source operand.
        src: Operand,
        /// Shift distance.
        amount: Operand,
    },
    /// `dst = src >> amount`. Non-constant `amount` is target-gated.
    Shr {
        /// Destination field.
        dst: FieldId,
        /// Source operand.
        src: Operand,
        /// Shift distance.
        amount: Operand,
    },
    /// `dst = a * b` (wrapping). Target-gated: not all hardware can
    /// multiply values unknown at compile time (paper Sec. 2).
    Mul {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = min(a, b)`.
    Min {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = max(a, b)`.
    Max {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = position of the most significant set bit of src` (0 when
    /// `src == 0`). Models the paper's if-cascade / TCAM-LPM MSB scan;
    /// costs `msb_cost` sequential steps.
    Msb {
        /// Destination field.
        dst: FieldId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = multiply-shift hash of src into [0, 2^width_log2)` —
    /// models the CRC extern every P4 target provides (the salt plays
    /// the role of the polynomial). Allowed on all targets; the
    /// multiply inside is the extern's, not the ALU's.
    Hash {
        /// Destination field.
        dst: FieldId,
        /// Key operand.
        src: Operand,
        /// Hash-family member (the modelled CRC polynomial).
        salt: u64,
        /// Output width in bits.
        width_log2: u32,
    },
    /// `dst = register[index]`.
    RegRead {
        /// Destination field.
        dst: FieldId,
        /// Register id.
        register: usize,
        /// Cell index.
        index: Operand,
    },
    /// `register[index] = src` (masked to the register width).
    RegWrite {
        /// Register id.
        register: usize,
        /// Cell index.
        index: Operand,
        /// Value to store.
        src: Operand,
    },
    /// Emit a digest (controller notification) carrying the evaluated
    /// operands — P4's `digest()` extern, the paper's push-alert channel.
    Digest {
        /// Application-defined digest kind.
        id: u16,
        /// Values carried to the controller.
        values: Vec<Operand>,
    },
    /// Set the egress port.
    Forward {
        /// Port to send the packet out of.
        port: Operand,
    },
    /// Mark the packet dropped.
    Drop,
}

impl Primitive {
    /// The field this primitive writes, if any.
    #[must_use]
    pub(crate) fn dst_field(&self) -> Option<FieldId> {
        match self {
            Primitive::Set { dst, .. }
            | Primitive::Add { dst, .. }
            | Primitive::Sub { dst, .. }
            | Primitive::And { dst, .. }
            | Primitive::Or { dst, .. }
            | Primitive::Xor { dst, .. }
            | Primitive::Not { dst, .. }
            | Primitive::Shl { dst, .. }
            | Primitive::Shr { dst, .. }
            | Primitive::Mul { dst, .. }
            | Primitive::Min { dst, .. }
            | Primitive::Max { dst, .. }
            | Primitive::Msb { dst, .. }
            | Primitive::Hash { dst, .. }
            | Primitive::RegRead { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Every operand this primitive reads, in evaluation order.
    fn operands(&self) -> Vec<&Operand> {
        match self {
            Primitive::Set { src, .. }
            | Primitive::Not { src, .. }
            | Primitive::Msb { src, .. }
            | Primitive::Hash { src, .. } => vec![src],
            Primitive::Add { a, b, .. }
            | Primitive::Sub { a, b, .. }
            | Primitive::And { a, b, .. }
            | Primitive::Or { a, b, .. }
            | Primitive::Xor { a, b, .. }
            | Primitive::Mul { a, b, .. }
            | Primitive::Min { a, b, .. }
            | Primitive::Max { a, b, .. } => vec![a, b],
            Primitive::Shl { src, amount, .. } | Primitive::Shr { src, amount, .. } => {
                vec![src, amount]
            }
            Primitive::RegRead { index, .. } => vec![index],
            Primitive::RegWrite { index, src, .. } => vec![index, src],
            Primitive::Digest { values, .. } => values.iter().collect(),
            Primitive::Forward { port } => vec![port],
            Primitive::Drop => Vec::new(),
        }
    }

    /// The fields this primitive reads.
    #[must_use]
    pub(crate) fn src_fields(&self) -> Vec<FieldId> {
        let field = |o: &Operand| match o {
            Operand::Field(f) => Some(*f),
            _ => None,
        };
        self.operands().into_iter().filter_map(field).collect()
    }

    /// The register this primitive accesses, with `true` for writes.
    #[must_use]
    pub(crate) fn register_access(&self) -> Option<(usize, bool)> {
        match self {
            Primitive::RegRead { register, .. } => Some((*register, false)),
            Primitive::RegWrite { register, .. } => Some((*register, true)),
            _ => None,
        }
    }

    /// Highest action-data slot referenced, if any.
    #[must_use]
    pub(crate) fn max_data_slot(&self) -> Option<usize> {
        let slot = |o: &Operand| match o {
            Operand::Data(n) => Some(*n),
            _ => None,
        };
        self.operands().into_iter().filter_map(slot).max()
    }

    /// Sequential steps this primitive costs on `target`: `Msb` is the
    /// paper's if-cascade and costs `msb_cost`, everything else one.
    /// The interpreter charges it, the symbolic executor charges it,
    /// and the resource analysis builds its chains from it.
    #[must_use]
    #[inline]
    pub fn cost(&self, target: &TargetModel) -> u64 {
        if matches!(self, Primitive::Msb { .. }) {
            u64::from(target.msb_cost)
        } else {
            1
        }
    }
}

/// The ten binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alu {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Mul,
    Min,
    Max,
}

impl Alu {
    /// `a op b` on 64-bit words: wrapping like P4 `bit<64>` arithmetic,
    /// and a shift by 64 or more yields 0. Always inlined, so that an
    /// interpreter arm with a constant `self` is the bare operation.
    #[inline(always)]
    pub(crate) fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Alu::Add => a.wrapping_add(b),
            Alu::Sub => a.wrapping_sub(b),
            Alu::And => a & b,
            Alu::Or => a | b,
            Alu::Xor => a ^ b,
            Alu::Shl | Alu::Shr if b >= 64 => 0,
            Alu::Shl => a << b,
            Alu::Shr => a >> b,
            Alu::Mul => a.wrapping_mul(b),
            Alu::Min => a.min(b),
            Alu::Max => a.max(b),
        }
    }
}

/// Position of the most significant set bit of `v` (`msb(0) = 0`).
#[inline]
pub(crate) fn msb(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        63 - u64::from(v.leading_zeros())
    }
}

/// The multiply-shift hash of `key` into `[0, 2^w)`, `w` being
/// `width_log2` clamped to `[1, 63]`.
#[inline]
pub(crate) fn hash(key: u64, salt: u64, width_log2: u32) -> u64 {
    let w = width_log2.clamp(1, 63);
    let mask = (1u64 << w) - 1;
    (key.wrapping_mul(salt | 1) >> (64 - w - 1)) & mask
}

/// A value domain the primitives execute over. [`exec_primitive`] says
/// what each primitive means in these terms, once; the interpreter
/// instantiates it at `u64`, the symbolic executor at its expression
/// DAG and the range analysis at intervals. Each method that produces
/// a value writes it to `dst`.
pub(crate) trait Domain {
    /// One value of the domain.
    type V;
    /// The value of an operand (reading a missing action-data slot is
    /// an error).
    fn operand(&mut self, o: &Operand) -> P4Result<Self::V>;
    /// `dst = a op b`.
    fn alu(&mut self, op: Alu, dst: FieldId, a: Self::V, b: Self::V);
    /// `dst = !v`.
    fn not(&mut self, dst: FieldId, v: Self::V);
    /// `dst = msb(v)`.
    fn msb(&mut self, dst: FieldId, v: Self::V);
    /// `dst = hash(key)`.
    fn hash(&mut self, dst: FieldId, key: Self::V, salt: u64, width_log2: u32);
    /// `dst = v`.
    fn set(&mut self, dst: FieldId, v: Self::V);
    /// Bounds-checks an index into `register` and hands it back.
    fn reg_index(&mut self, register: usize, index: Self::V) -> P4Result<Self::V>;
    /// `dst = register[index]`, the index already checked.
    fn reg_read(&mut self, dst: FieldId, register: usize, index: Self::V);
    /// `register[index] = v` masked to the register width, the index
    /// already checked.
    fn reg_write(&mut self, register: usize, index: Self::V, v: Self::V);
    /// Emits a digest carrying `values`.
    fn digest(&mut self, id: u16, values: Vec<Self::V>);
}

/// Executes one primitive over `d`: the one place a primitive's meaning
/// is written. Operands are evaluated left to right. A register access
/// evaluates and bounds-checks its index first, so a `RegWrite` to a
/// bad index fails before its value is read.
#[inline]
pub(crate) fn exec_primitive<D: Domain>(d: &mut D, p: &Primitive) -> P4Result<()> {
    // Inlined so that each arm's `op` is a constant.
    #[inline(always)]
    fn alu<D: Domain>(d: &mut D, op: Alu, dst: FieldId, a: &Operand, b: &Operand) -> P4Result<()> {
        let a = d.operand(a)?;
        let b = d.operand(b)?;
        d.alu(op, dst, a, b);
        Ok(())
    }
    match p {
        Primitive::Set { dst, src } => {
            let v = d.operand(src)?;
            d.set(*dst, v);
        }
        Primitive::Add { dst, a, b } => alu(d, Alu::Add, *dst, a, b)?,
        Primitive::Sub { dst, a, b } => alu(d, Alu::Sub, *dst, a, b)?,
        Primitive::And { dst, a, b } => alu(d, Alu::And, *dst, a, b)?,
        Primitive::Or { dst, a, b } => alu(d, Alu::Or, *dst, a, b)?,
        Primitive::Xor { dst, a, b } => alu(d, Alu::Xor, *dst, a, b)?,
        Primitive::Shl { dst, src, amount } => alu(d, Alu::Shl, *dst, src, amount)?,
        Primitive::Shr { dst, src, amount } => alu(d, Alu::Shr, *dst, src, amount)?,
        Primitive::Mul { dst, a, b } => alu(d, Alu::Mul, *dst, a, b)?,
        Primitive::Min { dst, a, b } => alu(d, Alu::Min, *dst, a, b)?,
        Primitive::Max { dst, a, b } => alu(d, Alu::Max, *dst, a, b)?,
        Primitive::Not { dst, src } => {
            let v = d.operand(src)?;
            d.not(*dst, v);
        }
        Primitive::Msb { dst, src } => {
            let v = d.operand(src)?;
            d.msb(*dst, v);
        }
        Primitive::Hash {
            dst,
            src,
            salt,
            width_log2,
        } => {
            let key = d.operand(src)?;
            d.hash(*dst, key, *salt, *width_log2);
        }
        Primitive::RegRead {
            dst,
            register,
            index,
        } => {
            let i = d.operand(index)?;
            let i = d.reg_index(*register, i)?;
            d.reg_read(*dst, *register, i);
        }
        Primitive::RegWrite {
            register,
            index,
            src,
        } => {
            let i = d.operand(index)?;
            let i = d.reg_index(*register, i)?;
            let v = d.operand(src)?;
            d.reg_write(*register, i, v);
        }
        Primitive::Digest { id, values } => {
            let mut vals = Vec::with_capacity(values.len());
            for o in values {
                vals.push(d.operand(o)?);
            }
            d.digest(*id, vals);
        }
        Primitive::Forward { port } => {
            let v = d.operand(port)?;
            d.set(fields::EGRESS_PORT, v);
        }
        Primitive::Drop => {
            let v = d.operand(&Operand::Const(DROP_PORT))?;
            d.set(fields::EGRESS_PORT, v);
        }
    }
    Ok(())
}

/// A named sequence of primitives, invokable from tables or directly
/// from the control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDef {
    /// Human-readable name for reports.
    pub name: String,
    /// The instruction sequence.
    pub primitives: Vec<Primitive>,
}

impl ActionDef {
    /// Creates an action.
    #[must_use]
    pub fn new(name: impl Into<String>, primitives: Vec<Primitive>) -> Self {
        Self {
            name: name.into(),
            primitives,
        }
    }

    /// Number of action-data slots entries invoking this action must
    /// provide.
    #[must_use]
    pub(crate) fn data_slots_required(&self) -> usize {
        self.primitives
            .iter()
            .filter_map(Primitive::max_data_slot)
            .map(|m| m + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::fields;

    #[test]
    fn dst_and_src_fields() {
        let p = Primitive::Add {
            dst: fields::M0,
            a: Operand::Field(fields::PKT_LEN),
            b: Operand::Const(1),
        };
        assert_eq!(p.dst_field(), Some(fields::M0));
        assert_eq!(p.src_fields(), vec![fields::PKT_LEN]);
    }

    #[test]
    fn digest_reads_all_fields() {
        let p = Primitive::Digest {
            id: 1,
            values: vec![
                Operand::Field(fields::IPV4_DST),
                Operand::Const(7),
                Operand::Field(fields::PKT_LEN),
            ],
        };
        assert_eq!(p.dst_field(), None);
        assert_eq!(p.src_fields(), vec![fields::IPV4_DST, fields::PKT_LEN]);
    }

    #[test]
    fn register_access_classified() {
        let r = Primitive::RegRead {
            dst: fields::M0,
            register: 4,
            index: Operand::Const(0),
        };
        let w = Primitive::RegWrite {
            register: 5,
            index: Operand::Const(0),
            src: Operand::Const(1),
        };
        assert_eq!(r.register_access(), Some((4, false)));
        assert_eq!(w.register_access(), Some((5, true)));
        assert_eq!(Primitive::Drop.register_access(), None);
    }

    #[test]
    fn data_slot_requirements() {
        let a = ActionDef::new(
            "bind",
            vec![
                Primitive::RegWrite {
                    register: 0,
                    index: Operand::Data(2),
                    src: Operand::Data(0),
                },
                Primitive::Forward {
                    port: Operand::Data(1),
                },
            ],
        );
        assert_eq!(a.data_slots_required(), 3);
        let b = ActionDef::new("noop", vec![Primitive::Drop]);
        assert_eq!(b.data_slots_required(), 0);
    }
}
