//! Property tests for the pipeline substrate: table lookup semantics
//! against a naive reference, and interpreter determinism on random
//! straight-line programs.

use p4sim::action::{ActionDef, Operand, Primitive};
use p4sim::control::Control;
use p4sim::phv::{fields, Phv};
use p4sim::table::{Entry, MatchKind, MatchValue, Table, TableDef};
use p4sim::{ProgramBuilder, TargetModel};
use proptest::prelude::*;

/// Naive reference for LPM: scan all entries, keep the longest matching
/// prefix.
fn lpm_reference(entries: &[(u32, u8)], key: u32) -> Option<usize> {
    let mut best: Option<(usize, u8)> = None;
    for (i, &(value, plen)) in entries.iter().enumerate() {
        let matches = if plen == 0 {
            true
        } else {
            let shift = 32 - u32::from(plen);
            (key >> shift) == (value >> shift)
        };
        if matches && best.is_none_or(|(_, bp)| plen > bp) {
            best = Some((i, plen));
        }
    }
    best.map(|(i, _)| i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The table's LPM winner always equals the reference scan.
    #[test]
    fn lpm_lookup_matches_reference(
        entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..20),
        keys in proptest::collection::vec(any::<u32>(), 1..50),
    ) {
        let mut t = Table::new(TableDef {
            name: "lpm".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
            max_entries: 64,
            allowed_actions: (0..entries.len()).collect(),
            default_action: None,
        });
        for (i, &(value, plen)) in entries.iter().enumerate() {
            t.insert(
                0,
                Entry {
                    key: vec![MatchValue::Lpm {
                        value: u64::from(value),
                        prefix_len: plen,
                    }],
                    priority: 0,
                    action: i,
                    action_data: vec![],
                },
            )
            .expect("insert");
        }
        for &key in &keys {
            let mut phv = Phv::new();
            phv.set(fields::IPV4_DST, u64::from(key));
            let got = t.lookup(&phv).map(|e| e.action);
            let expect_idx = lpm_reference(&entries, key);
            // Several entries can share the longest prefix length; the
            // reference returns the first, the table may return any of
            // the same length. Compare by prefix length instead of index.
            match (got, expect_idx) {
                (None, None) => {}
                (Some(g), Some(e)) => {
                    prop_assert_eq!(entries[g].1, entries[e].1, "same specificity");
                }
                other => prop_assert!(false, "mismatch: {:?}", other),
            }
        }
    }

    /// Random straight-line arithmetic programs execute without error
    /// and are deterministic (same PHV in, same PHV out).
    #[test]
    fn interpreter_deterministic(
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..40),
        seed_val in any::<u64>(),
    ) {
        let mut prims = Vec::new();
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let dst = fields::scratch((i % 8) as u16);
            let src_a = if i % 2 == 0 {
                Operand::Const(a)
            } else {
                Operand::Field(fields::scratch(((i + 3) % 8) as u16))
            };
            let src_b = Operand::Const(b % 64);
            prims.push(match kind {
                0 => Primitive::Add { dst, a: src_a, b: src_b },
                1 => Primitive::Sub { dst, a: src_a, b: src_b },
                2 => Primitive::And { dst, a: src_a, b: src_b },
                3 => Primitive::Or { dst, a: src_a, b: src_b },
                4 => Primitive::Xor { dst, a: src_a, b: src_b },
                5 => Primitive::Shl { dst, src: src_a, amount: src_b },
                6 => Primitive::Shr { dst, src: src_a, amount: src_b },
                _ => Primitive::Msb { dst, src: src_a },
            });
        }
        let mut builder = ProgramBuilder::new();
        let act = builder.add_action(ActionDef::new("random", prims));
        builder.set_control(Control::ApplyAction(act));
        let mut p1 = builder.build(TargetModel::bmv2()).expect("valid program");
        let mut p2 = p1.clone();

        let mut phv1 = Phv::new();
        phv1.set(fields::PAYLOAD_VALUE, seed_val);
        let mut phv2 = phv1.clone();
        let o1 = p1.process_phv(&mut phv1).expect("runs");
        let o2 = p2.process_phv(&mut phv2).expect("runs");
        prop_assert_eq!(phv1, phv2);
        prop_assert_eq!(o1.steps, o2.steps);
    }
}
