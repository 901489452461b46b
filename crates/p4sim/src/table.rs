//! Match-action tables: exact / LPM / ternary / range keys, entries
//! populated exclusively by the control plane.

use crate::error::{P4Error, P4Result};
use crate::phv::{FieldId, Phv};

/// How a key component matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact-value match.
    Exact,
    /// Longest-prefix match over `width`-bit values.
    Lpm {
        /// Bit width of the field (e.g. 32 for IPv4 addresses).
        width: u8,
    },
    /// Value/mask match, priority-ordered.
    Ternary,
    /// Inclusive range match, priority-ordered.
    Range,
}

/// One key component of a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchValue {
    /// Matches exactly this value.
    Exact(u64),
    /// Matches when the top `prefix_len` bits (of the kind's width)
    /// equal those of `value`.
    Lpm {
        /// Prefix value.
        value: u64,
        /// Number of significant leading bits.
        prefix_len: u8,
    },
    /// Matches when `field & mask == value & mask`.
    Ternary {
        /// Pattern.
        value: u64,
        /// Care mask.
        mask: u64,
    },
    /// Matches when `lo <= field <= hi`.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Wildcard (matches anything) — shorthand for fully-masked ternary.
    Any,
}

impl MatchValue {
    fn matches(&self, kind: &MatchKind, field: u64) -> bool {
        match (self, kind) {
            (MatchValue::Exact(v), _) => field == *v,
            (MatchValue::Lpm { value, prefix_len }, MatchKind::Lpm { width }) => {
                let width = u32::from(*width);
                let plen = u32::from(*prefix_len).min(width);
                if plen == 0 {
                    return true;
                }
                let shift = width - plen;
                (field >> shift) == (*value >> shift)
            }
            (MatchValue::Lpm { value, prefix_len }, _) => {
                // LPM value against a non-LPM kind: treat as 64-bit field.
                let plen = u32::from(*prefix_len).min(64);
                if plen == 0 {
                    return true;
                }
                let shift = 64 - plen;
                (field >> shift) == (*value >> shift)
            }
            (MatchValue::Ternary { value, mask }, _) => field & mask == value & mask,
            (MatchValue::Range { lo, hi }, _) => (*lo..=*hi).contains(&field),
            (MatchValue::Any, _) => true,
        }
    }

    /// Specificity used to rank LPM entries (prefix length; exact = max).
    fn lpm_specificity(&self) -> u32 {
        match self {
            MatchValue::Exact(_) => u32::MAX,
            MatchValue::Lpm { prefix_len, .. } => u32::from(*prefix_len),
            MatchValue::Ternary { mask, .. } => mask.count_ones(),
            MatchValue::Range { .. } => 0,
            MatchValue::Any => 0,
        }
    }
}

/// A table entry: key components, priority (higher wins among ternary /
/// range candidates), the action to run and its runtime parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// One component per table key.
    pub key: Vec<MatchValue>,
    /// Tie-break priority (higher wins).
    pub priority: i32,
    /// Action id to invoke on hit.
    pub action: usize,
    /// Runtime parameters passed to the action's `Data(n)` operands.
    pub action_data: Vec<u64>,
}

/// Static definition of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Human-readable name for reports.
    pub name: String,
    /// Key fields and their match kinds.
    pub keys: Vec<(FieldId, MatchKind)>,
    /// Capacity in entries (drives the resource model).
    pub max_entries: usize,
    /// Actions entries of this table may invoke (P4's `actions = {...}`
    /// list); used by validation and the dependency analyser.
    pub allowed_actions: Vec<usize>,
    /// Action run on miss (with its action data), if any.
    pub default_action: Option<(usize, Vec<u64>)>,
}

/// A table definition plus its current entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The static definition.
    pub def: TableDef,
    entries: Vec<Entry>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(def: TableDef) -> Self {
        Self {
            def,
            entries: Vec::new(),
        }
    }

    /// Current entries (insertion order).
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Inserts an entry.
    ///
    /// # Errors
    ///
    /// [`P4Error::KeyShapeMismatch`], [`P4Error::Invalid`] for an LPM
    /// prefix longer than its key, or [`P4Error::TableFull`]. The
    /// caller (the pipeline runtime) additionally validates action ids
    /// and action-data arity.
    pub fn insert(&mut self, table_id: usize, entry: Entry) -> P4Result<()> {
        if entry.key.len() != self.def.keys.len() {
            return Err(P4Error::KeyShapeMismatch {
                table: table_id,
                expected: self.def.keys.len(),
                provided: entry.key.len(),
            });
        }
        for (mv, (_, kind)) in entry.key.iter().zip(&self.def.keys) {
            if let (MatchValue::Lpm { prefix_len, .. }, MatchKind::Lpm { width }) = (mv, kind) {
                if prefix_len > width {
                    let name = &self.def.name;
                    let what = format!("table {table_id} ({name}): /{prefix_len} prefix on a {width}-bit LPM key");
                    return Err(P4Error::Invalid { what });
                }
            }
        }
        if self.entries.len() >= self.def.max_entries {
            return Err(P4Error::TableFull { table: table_id });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Removes the first entry whose key equals `key`.
    ///
    /// # Errors
    ///
    /// [`P4Error::EntryNotFound`] if no entry has that key.
    pub fn remove(&mut self, table_id: usize, key: &[MatchValue]) -> P4Result<Entry> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.key == key)
            .ok_or(P4Error::EntryNotFound { table: table_id })?;
        Ok(self.entries.remove(pos))
    }

    /// Replaces the action/data of the first entry whose key equals
    /// `key`.
    ///
    /// # Errors
    ///
    /// [`P4Error::EntryNotFound`] if no entry has that key.
    pub fn modify(
        &mut self,
        table_id: usize,
        key: &[MatchValue],
        action: usize,
        action_data: Vec<u64>,
    ) -> P4Result<()> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.key == key)
            .ok_or(P4Error::EntryNotFound { table: table_id })?;
        e.action = action;
        e.action_data = action_data;
        Ok(())
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Looks up the best-matching entry for the PHV: all key components
    /// must match; among candidates the highest (total LPM specificity,
    /// priority, earliest insertion) wins.
    #[must_use]
    pub fn lookup(&self, phv: &Phv) -> Option<&Entry> {
        let mut best: Option<(&Entry, u64, i32)> = None;
        for e in &self.entries {
            let mut specificity = 0u64;
            let mut all = true;
            for ((field, kind), mv) in self.def.keys.iter().zip(&e.key) {
                let v = phv.get(*field);
                if !mv.matches(kind, v) {
                    all = false;
                    break;
                }
                specificity += u64::from(mv.lpm_specificity());
            }
            if !all {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, s, p)) => specificity > *s || (specificity == *s && e.priority > *p),
            };
            if better {
                best = Some((e, specificity, e.priority));
            }
        }
        best.map(|(e, _, _)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::fields;

    fn lpm_table() -> Table {
        Table::new(TableDef {
            name: "routes".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Lpm { width: 32 })],
            max_entries: 16,
            allowed_actions: vec![1, 2],
            default_action: None,
        })
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u64 {
        u64::from(u32::from_be_bytes([a, b, c, d]))
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = lpm_table();
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Lpm {
                    value: ip(10, 0, 0, 0),
                    prefix_len: 8,
                }],
                priority: 0,
                action: 1,
                action_data: vec![],
            },
        )
        .unwrap();
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Lpm {
                    value: ip(10, 0, 5, 0),
                    prefix_len: 24,
                }],
                priority: 0,
                action: 2,
                action_data: vec![],
            },
        )
        .unwrap();

        let mut phv = Phv::new();
        phv.set(fields::IPV4_DST, ip(10, 0, 5, 77));
        assert_eq!(t.lookup(&phv).unwrap().action, 2, "/24 beats /8");

        phv.set(fields::IPV4_DST, ip(10, 9, 9, 9));
        assert_eq!(t.lookup(&phv).unwrap().action, 1, "only /8 matches");

        phv.set(fields::IPV4_DST, ip(11, 0, 0, 1));
        assert!(t.lookup(&phv).is_none());
    }

    #[test]
    fn exact_match() {
        let mut t = Table::new(TableDef {
            name: "ports".into(),
            keys: vec![(fields::TCP_DPORT, MatchKind::Exact)],
            max_entries: 4,
            allowed_actions: vec![9],
            default_action: None,
        });
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Exact(80)],
                priority: 0,
                action: 9,
                action_data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new();
        phv.set(fields::TCP_DPORT, 80);
        assert_eq!(t.lookup(&phv).unwrap().action, 9);
        phv.set(fields::TCP_DPORT, 443);
        assert!(t.lookup(&phv).is_none());
    }

    #[test]
    fn ternary_priority_breaks_ties() {
        let mut t = Table::new(TableDef {
            name: "cls".into(),
            keys: vec![(fields::TCP_FLAGS, MatchKind::Ternary)],
            max_entries: 8,
            allowed_actions: vec![1, 2],
            default_action: None,
        });
        // Entry A: SYN bit set (mask 0x02), priority 1.
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Ternary {
                    value: 0x02,
                    mask: 0x02,
                }],
                priority: 1,
                action: 1,
                action_data: vec![],
            },
        )
        .unwrap();
        // Entry B: anything, priority 10 but less specific mask.
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Ternary {
                    value: 0,
                    mask: 0,
                }],
                priority: 10,
                action: 2,
                action_data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new();
        phv.set(fields::TCP_FLAGS, 0x02);
        // Specificity (mask bits) outranks priority in our model: the
        // SYN rule is more specific.
        assert_eq!(t.lookup(&phv).unwrap().action, 1);
        phv.set(fields::TCP_FLAGS, 0x10);
        assert_eq!(t.lookup(&phv).unwrap().action, 2);
    }

    #[test]
    fn range_match() {
        let mut t = Table::new(TableDef {
            name: "len".into(),
            keys: vec![(fields::PKT_LEN, MatchKind::Range)],
            max_entries: 4,
            allowed_actions: vec![3],
            default_action: None,
        });
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Range { lo: 64, hi: 128 }],
                priority: 0,
                action: 3,
                action_data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new();
        phv.set(fields::PKT_LEN, 100);
        assert!(t.lookup(&phv).is_some());
        phv.set(fields::PKT_LEN, 129);
        assert!(t.lookup(&phv).is_none());
        phv.set(fields::PKT_LEN, 64);
        assert!(t.lookup(&phv).is_some());
    }

    #[test]
    fn capacity_and_shape_enforced() {
        let mut t = Table::new(TableDef {
            name: "tiny".into(),
            keys: vec![(fields::PKT_LEN, MatchKind::Exact)],
            max_entries: 1,
            allowed_actions: vec![0],
            default_action: None,
        });
        assert!(matches!(
            t.insert(
                5,
                Entry {
                    key: vec![],
                    priority: 0,
                    action: 0,
                    action_data: vec![],
                }
            ),
            Err(P4Error::KeyShapeMismatch { table: 5, .. })
        ));
        t.insert(
            5,
            Entry {
                key: vec![MatchValue::Exact(1)],
                priority: 0,
                action: 0,
                action_data: vec![],
            },
        )
        .unwrap();
        assert!(matches!(
            t.insert(
                5,
                Entry {
                    key: vec![MatchValue::Exact(2)],
                    priority: 0,
                    action: 0,
                    action_data: vec![],
                }
            ),
            Err(P4Error::TableFull { table: 5 })
        ));
    }

    /// A /40 on a 32-bit key would match as a /32 yet rank as a /40,
    /// above every real /32 whatever its priority: it is refused.
    #[test]
    fn lpm_prefix_longer_than_key_refused() {
        let mut t = lpm_table();
        let entry = |prefix_len| Entry {
            key: vec![MatchValue::Lpm { value: ip(10, 0, 0, 0), prefix_len }],
            priority: 0,
            action: 1,
            action_data: vec![],
        };
        match t.insert(7, entry(40)) {
            Err(P4Error::Invalid { what }) => assert!(what.contains("table 7 (routes)"), "{what}"),
            other => panic!("a /40 on a 32-bit key: {other:?}"),
        }
        assert!(t.entries().is_empty());
        t.insert(7, entry(32)).unwrap();
    }

    #[test]
    fn modify_and_remove() {
        let mut t = lpm_table();
        let key = vec![MatchValue::Lpm {
            value: ip(10, 0, 0, 0),
            prefix_len: 8,
        }];
        t.insert(
            0,
            Entry {
                key: key.clone(),
                priority: 0,
                action: 1,
                action_data: vec![7],
            },
        )
        .unwrap();
        t.modify(0, &key, 2, vec![8, 9]).unwrap();
        assert_eq!(t.entries()[0].action, 2);
        assert_eq!(t.entries()[0].action_data, vec![8, 9]);
        let removed = t.remove(0, &key).unwrap();
        assert_eq!(removed.action, 2);
        assert!(matches!(
            t.remove(0, &key),
            Err(P4Error::EntryNotFound { table: 0 })
        ));
    }

    #[test]
    fn multi_key_all_components_must_match() {
        let mut t = Table::new(TableDef {
            name: "two".into(),
            keys: vec![
                (fields::IPV4_PROTO, MatchKind::Exact),
                (fields::TCP_DPORT, MatchKind::Range),
            ],
            max_entries: 4,
            allowed_actions: vec![1],
            default_action: None,
        });
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Exact(6), MatchValue::Range { lo: 0, hi: 1023 }],
                priority: 0,
                action: 1,
                action_data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new();
        phv.set(fields::IPV4_PROTO, 6);
        phv.set(fields::TCP_DPORT, 80);
        assert!(t.lookup(&phv).is_some());
        phv.set(fields::IPV4_PROTO, 17);
        assert!(t.lookup(&phv).is_none());
        phv.set(fields::IPV4_PROTO, 6);
        phv.set(fields::TCP_DPORT, 2000);
        assert!(t.lookup(&phv).is_none());
    }

    #[test]
    fn wildcard_any() {
        let mut t = Table::new(TableDef {
            name: "w".into(),
            keys: vec![(fields::IPV4_SRC, MatchKind::Ternary)],
            max_entries: 2,
            allowed_actions: vec![4],
            default_action: None,
        });
        t.insert(
            0,
            Entry {
                key: vec![MatchValue::Any],
                priority: 0,
                action: 4,
                action_data: vec![],
            },
        )
        .unwrap();
        let phv = Phv::new();
        assert_eq!(t.lookup(&phv).unwrap().action, 4);
    }
}
