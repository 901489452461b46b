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
//! as one primitive so the interpreter is fast, but the resource
//! analyser charges it `TargetModel::msb_cost` sequential steps.

use crate::phv::FieldId;

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
    /// charged `msb_cost` sequential steps by the analyser.
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
    pub fn dst_field(&self) -> Option<FieldId> {
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

    /// The fields this primitive reads.
    #[must_use]
    pub fn src_fields(&self) -> Vec<FieldId> {
        let mut out = Vec::new();
        let mut push = |o: &Operand| {
            if let Operand::Field(f) = o {
                out.push(*f);
            }
        };
        match self {
            Primitive::Set { src, .. } | Primitive::Not { src, .. } => push(src),
            Primitive::Add { a, b, .. }
            | Primitive::Sub { a, b, .. }
            | Primitive::And { a, b, .. }
            | Primitive::Or { a, b, .. }
            | Primitive::Xor { a, b, .. }
            | Primitive::Mul { a, b, .. }
            | Primitive::Min { a, b, .. }
            | Primitive::Max { a, b, .. } => {
                push(a);
                push(b);
            }
            Primitive::Shl { src, amount, .. } | Primitive::Shr { src, amount, .. } => {
                push(src);
                push(amount);
            }
            Primitive::Msb { src, .. } | Primitive::Hash { src, .. } => push(src),
            Primitive::RegRead { index, .. } => push(index),
            Primitive::RegWrite { index, src, .. } => {
                push(index);
                push(src);
            }
            Primitive::Digest { values, .. } => {
                for v in values {
                    push(v);
                }
            }
            Primitive::Forward { port } => push(port),
            Primitive::Drop => {}
        }
        out
    }

    /// The register this primitive accesses, with `true` for writes.
    #[must_use]
    pub fn register_access(&self) -> Option<(usize, bool)> {
        match self {
            Primitive::RegRead { register, .. } => Some((*register, false)),
            Primitive::RegWrite { register, .. } => Some((*register, true)),
            _ => None,
        }
    }

    /// Highest action-data slot referenced, if any.
    #[must_use]
    pub fn max_data_slot(&self) -> Option<usize> {
        let mut max: Option<usize> = None;
        let mut see = |o: &Operand| {
            if let Operand::Data(n) = o {
                max = Some(max.map_or(*n, |m| m.max(*n)));
            }
        };
        match self {
            Primitive::Set { src, .. }
            | Primitive::Not { src, .. }
            | Primitive::Msb { src, .. }
            | Primitive::Hash { src, .. } => {
                see(src);
            }
            Primitive::Add { a, b, .. }
            | Primitive::Sub { a, b, .. }
            | Primitive::And { a, b, .. }
            | Primitive::Or { a, b, .. }
            | Primitive::Xor { a, b, .. }
            | Primitive::Mul { a, b, .. }
            | Primitive::Min { a, b, .. }
            | Primitive::Max { a, b, .. } => {
                see(a);
                see(b);
            }
            Primitive::Shl { src, amount, .. } | Primitive::Shr { src, amount, .. } => {
                see(src);
                see(amount);
            }
            Primitive::RegRead { index, .. } => see(index),
            Primitive::RegWrite { index, src, .. } => {
                see(index);
                see(src);
            }
            Primitive::Digest { values, .. } => {
                for v in values {
                    see(v);
                }
            }
            Primitive::Forward { port } => see(port),
            Primitive::Drop => {}
        }
        max
    }
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
    pub fn data_slots_required(&self) -> usize {
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
