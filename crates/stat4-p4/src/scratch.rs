//! Scratch-field allocation shared by the emitted fragments.
//!
//! P4 user metadata, flattened: every fragment reads/writes these PHV
//! slots by agreed name so fragments compose without clobbering each
//! other. The allocation mirrors how a P4 program would declare one
//! metadata struct for the whole Stat4 library.

use p4sim::phv::fields;
use p4sim::FieldId;

/// Extracted value of interest (already offset into the cell domain).
pub(crate) const VALUE_IDX: FieldId = fields::scratch(0);
/// Absolute cell address within the big counter register.
pub(crate) const ADDR: FieldId = fields::scratch(1);
/// Old counter value `f` read from the cell.
pub(crate) const F_OLD: FieldId = fields::scratch(2);
/// General temporary.
pub(crate) const TMP: FieldId = fields::scratch(3);
/// `1` when the cell was previously zero (first observation).
pub(crate) const IS_NEW: FieldId = fields::scratch(4);
/// Updated `N`.
pub const N: FieldId = fields::scratch(5);
/// Updated `Xsum`.
pub(crate) const XSUM: FieldId = fields::scratch(6);
/// Updated `Xsumsq`.
pub(crate) const XSUMSQ: FieldId = fields::scratch(7);
/// Variance of `NX`.
pub(crate) const VAR: FieldId = fields::scratch(8);
/// MSB position during the square-root fragment.
pub(crate) const SQRT_E: FieldId = fields::scratch(9);
/// Mantissa temporaries during the square-root fragment.
pub(crate) const SQRT_M: FieldId = fields::scratch(10);
/// More square-root temporaries.
pub(crate) const SQRT_T: FieldId = fields::scratch(11);
/// Standard deviation result.
pub const SD: FieldId = fields::scratch(12);
/// Left operand / scratch for the multiply-free product fragment.
pub(crate) const MUL_A: FieldId = fields::scratch(13);
/// Right operand / scratch for the multiply-free product fragment.
pub(crate) const MUL_B: FieldId = fields::scratch(14);
/// Spare scratch (interval logic in the case study).
pub(crate) const AUX: FieldId = fields::scratch(15);
/// 1 when the drill-down binding table matched this packet.
pub(crate) const DRILL_HIT: FieldId = fields::scratch(16);
/// Current interval id (`timestamp >> interval_log2`).
pub(crate) const IVL: FieldId = fields::scratch(17);
/// Packet count of the interval being closed.
pub(crate) const CNT: FieldId = fields::scratch(18);
/// Evicted window value during an interval close.
pub(crate) const OLD: FieldId = fields::scratch(19);
/// Window write index during an interval close.
pub(crate) const WIDX: FieldId = fields::scratch(20);
/// Alert-suppression temporary (last-alert interval id).
pub(crate) const SUPPRESS: FieldId = fields::scratch(21);
/// 1 when the rate binding table matched this packet.
pub(crate) const RATE_HIT: FieldId = fields::scratch(22);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_slots_distinct() {
        let all = [
            VALUE_IDX, ADDR, F_OLD, TMP, IS_NEW, N, XSUM, XSUMSQ, VAR, SQRT_E, SQRT_M, SQRT_T,
            SD, MUL_A, MUL_B, AUX, DRILL_HIT, IVL, CNT, OLD, WIDX, SUPPRESS, RATE_HIT,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
