//! The control-plane runtime API.
//!
//! Controllers do not touch pipeline internals; they send
//! [`RuntimeRequest`]s — insert/modify/delete table entries (the paper's
//! binding-table updates), read registers (pulling tracked
//! distributions), write/reset registers. In the network simulator these
//! requests travel over a latency-modelled channel, which is how the
//! case study's "2–3 seconds to pinpoint, dominated by control/data
//! plane interaction" arises.

use crate::error::P4Error;
use crate::pipeline::Pipeline;
use crate::table::{Entry, MatchValue};

/// A control-plane operation on a running pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeRequest {
    /// Insert a table entry.
    InsertEntry {
        /// Target table.
        table: usize,
        /// The entry.
        entry: Entry,
    },
    /// Modify the action/data of the entry with the given key.
    ModifyEntry {
        /// Target table.
        table: usize,
        /// Key of the entry to change.
        key: Vec<MatchValue>,
        /// New action id.
        action: usize,
        /// New action data.
        action_data: Vec<u64>,
    },
    /// Delete the entry with the given key.
    DeleteEntry {
        /// Target table.
        table: usize,
        /// Key of the entry to delete.
        key: Vec<MatchValue>,
    },
    /// Remove all entries of a table.
    ClearTable {
        /// Target table.
        table: usize,
    },
    /// Read one register cell.
    ReadRegister {
        /// Register id.
        register: usize,
        /// Cell index.
        index: u64,
    },
    /// Read `len` cells starting at `start` (how the controller pulls a
    /// whole tracked distribution; the paper notes reading thousands of
    /// registers takes milliseconds — the simulator charges latency per
    /// cell).
    ReadRegisterRange {
        /// Register id.
        register: usize,
        /// First cell.
        start: u64,
        /// Number of cells.
        len: u64,
    },
    /// Write one register cell.
    WriteRegister {
        /// Register id.
        register: usize,
        /// Cell index.
        index: u64,
        /// Value (masked to the register width).
        value: u64,
    },
    /// Zero every cell of a register.
    ResetRegister {
        /// Register id.
        register: usize,
    },
    /// Apply a sequence of requests as one control-plane operation.
    ///
    /// A multi-step reconfiguration (clear a binding table, install new
    /// bindings, bump the generation register) must never be observed
    /// half-applied: on a lossy or reordering control channel, sending
    /// the steps as separate messages lets some land and others vanish.
    /// A batch travels in a single message, so it arrives — and applies
    /// back-to-back, with no packets or other requests interleaved — or
    /// it doesn't arrive at all. Sub-requests run in order; the first
    /// failure stops the batch and is returned (already-applied
    /// sub-requests are not rolled back). The response is that of the
    /// last sub-request, so a batch may end in a read.
    Batch(Vec<RuntimeRequest>),
}

/// Reply to a [`RuntimeRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeResponse {
    /// Operation succeeded with no payload.
    Ok,
    /// A single register value.
    Value(u64),
    /// A range of register values.
    Values(Vec<u64>),
    /// Operation failed.
    Error(String),
}

impl RuntimeResponse {
    /// True for non-error responses.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        !matches!(self, RuntimeResponse::Error(_))
    }
}

impl Pipeline {
    /// Executes a control-plane request against this pipeline.
    pub fn runtime(&mut self, req: &RuntimeRequest) -> RuntimeResponse {
        match self.runtime_inner(req) {
            Ok(r) => r,
            Err(e) => RuntimeResponse::Error(e.to_string()),
        }
    }

    fn runtime_inner(&mut self, req: &RuntimeRequest) -> Result<RuntimeResponse, P4Error> {
        match req {
            RuntimeRequest::InsertEntry { table, entry } => {
                self.validate_entry(*table, entry.action, &entry.action_data)?;
                let t = self.tables.get_mut(*table).ok_or(P4Error::UnknownId {
                    kind: "table",
                    id: *table,
                })?;
                t.insert(*table, entry.clone())?;
                Ok(RuntimeResponse::Ok)
            }
            RuntimeRequest::ModifyEntry {
                table,
                key,
                action,
                action_data,
            } => {
                self.validate_entry(*table, *action, action_data)?;
                let t = self.tables.get_mut(*table).ok_or(P4Error::UnknownId {
                    kind: "table",
                    id: *table,
                })?;
                t.modify(*table, key, *action, action_data.clone())?;
                Ok(RuntimeResponse::Ok)
            }
            RuntimeRequest::DeleteEntry { table, key } => {
                let t = self.tables.get_mut(*table).ok_or(P4Error::UnknownId {
                    kind: "table",
                    id: *table,
                })?;
                t.remove(*table, key)?;
                Ok(RuntimeResponse::Ok)
            }
            RuntimeRequest::ClearTable { table } => {
                let t = self.tables.get_mut(*table).ok_or(P4Error::UnknownId {
                    kind: "table",
                    id: *table,
                })?;
                t.clear();
                Ok(RuntimeResponse::Ok)
            }
            RuntimeRequest::ReadRegister { register, index } => {
                let r = self.registers.get(*register).ok_or(P4Error::UnknownId {
                    kind: "register",
                    id: *register,
                })?;
                Ok(RuntimeResponse::Value(r.cells[r.cell(*register, *index)?]))
            }
            RuntimeRequest::ReadRegisterRange {
                register,
                start,
                len,
            } => {
                let r = self.registers.get(*register).ok_or(P4Error::UnknownId {
                    kind: "register",
                    id: *register,
                })?;
                let end = start.saturating_add(*len);
                if end > r.cells.len() as u64 {
                    return Err(P4Error::RegisterOutOfBounds {
                        register: *register,
                        index: end,
                        size: r.cells.len() as u64,
                    });
                }
                Ok(RuntimeResponse::Values(
                    r.cells[*start as usize..end as usize].to_vec(),
                ))
            }
            RuntimeRequest::WriteRegister {
                register,
                index,
                value,
            } => {
                let r = self.registers.get_mut(*register).ok_or(P4Error::UnknownId {
                    kind: "register",
                    id: *register,
                })?;
                r.write_cell(r.cell(*register, *index)?, *value);
                Ok(RuntimeResponse::Ok)
            }
            RuntimeRequest::ResetRegister { register } => {
                let r = self.registers.get_mut(*register).ok_or(P4Error::UnknownId {
                    kind: "register",
                    id: *register,
                })?;
                // Journal the cells actually holding state so a reset
                // ships as (base → 0) entries rather than tainting the
                // whole delta path.
                for i in 0..r.cells.len() {
                    if r.cells[i] != 0 {
                        r.write_cell(i, 0);
                    }
                }
                Ok(RuntimeResponse::Ok)
            }
            RuntimeRequest::Batch(reqs) => {
                let mut last = RuntimeResponse::Ok;
                for r in reqs {
                    last = self.runtime_inner(r)?;
                }
                Ok(last)
            }
        }
    }

    fn validate_entry(&self, table: usize, action: usize, data: &[u64]) -> Result<(), P4Error> {
        let t = self.tables.get(table).ok_or(P4Error::UnknownId {
            kind: "table",
            id: table,
        })?;
        if !t.def.allowed_actions.contains(&action) {
            return Err(P4Error::Invalid {
                what: format!("action {action} not allowed in table {table}"),
            });
        }
        let a = self.actions.get(action).ok_or(P4Error::UnknownId {
            kind: "action",
            id: action,
        })?;
        let need = a.data_slots_required();
        if data.len() < need {
            return Err(P4Error::Invalid {
                what: format!("entry provides {} data slots, action needs {need}", data.len()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Operand, Primitive};
    use crate::control::Control;
    use crate::phv::fields;
    use crate::program::ProgramBuilder;
    use crate::table::{MatchKind, TableDef};
    use crate::target::TargetModel;

    fn pipeline() -> (Pipeline, usize, usize) {
        let mut b = ProgramBuilder::new();
        let reg = b.add_register("r", 32, 8);
        let fwd = b.add_action(ActionDef::new(
            "fwd",
            vec![Primitive::Forward {
                port: Operand::Data(0),
            }],
        ));
        let t = b.add_table(TableDef {
            name: "t".into(),
            keys: vec![(fields::IPV4_DST, MatchKind::Exact)],
            max_entries: 4,
            allowed_actions: vec![fwd],
            default_action: None,
        });
        b.set_control(Control::ApplyTable(t));
        (b.build(TargetModel::bmv2()).unwrap(), t, reg)
    }

    #[test]
    fn batch_applies_in_order_and_is_replayable() {
        let (mut p, t, reg) = pipeline();
        // The drill-down shape: clear, rebind, bump generation, in one
        // atomic message. Ends in a read so the response is checkable.
        let batch = RuntimeRequest::Batch(vec![
            RuntimeRequest::ClearTable { table: t },
            RuntimeRequest::InsertEntry {
                table: t,
                entry: Entry {
                    key: vec![MatchValue::Exact(9)],
                    priority: 0,
                    action: 0,
                    action_data: vec![2],
                },
            },
            RuntimeRequest::WriteRegister {
                register: reg,
                index: 1,
                value: 5,
            },
            RuntimeRequest::ReadRegister {
                register: reg,
                index: 1,
            },
        ]);
        assert_eq!(p.runtime(&batch), RuntimeResponse::Value(5));
        // A duplicated delivery (retry after a lost ack) reapplies
        // cleanly because the batch starts from a table clear.
        assert_eq!(p.runtime(&batch), RuntimeResponse::Value(5));
    }

    #[test]
    fn batch_stops_at_first_error() {
        let (mut p, _, reg) = pipeline();
        let batch = RuntimeRequest::Batch(vec![
            RuntimeRequest::WriteRegister {
                register: reg,
                index: 0,
                value: 1,
            },
            RuntimeRequest::ReadRegister {
                register: reg,
                index: 999,
            },
            RuntimeRequest::WriteRegister {
                register: reg,
                index: 2,
                value: 7,
            },
        ]);
        assert!(!p.runtime(&batch).is_ok());
        // The pre-error write landed; the post-error write never ran.
        assert_eq!(
            p.runtime(&RuntimeRequest::ReadRegister {
                register: reg,
                index: 0
            }),
            RuntimeResponse::Value(1)
        );
        assert_eq!(
            p.runtime(&RuntimeRequest::ReadRegister {
                register: reg,
                index: 2
            }),
            RuntimeResponse::Value(0)
        );
    }

    #[test]
    fn insert_validates_action_membership() {
        let (mut p, t, _) = pipeline();
        let bad = RuntimeRequest::InsertEntry {
            table: t,
            entry: Entry {
                key: vec![MatchValue::Exact(1)],
                priority: 0,
                action: 99,
                action_data: vec![],
            },
        };
        assert!(!p.runtime(&bad).is_ok());
    }

    #[test]
    fn insert_validates_data_arity() {
        let (mut p, t, _) = pipeline();
        let bad = RuntimeRequest::InsertEntry {
            table: t,
            entry: Entry {
                key: vec![MatchValue::Exact(1)],
                priority: 0,
                action: 0,
                action_data: vec![], // fwd needs 1 slot
            },
        };
        assert!(!p.runtime(&bad).is_ok());
        let good = RuntimeRequest::InsertEntry {
            table: t,
            entry: Entry {
                key: vec![MatchValue::Exact(1)],
                priority: 0,
                action: 0,
                action_data: vec![7],
            },
        };
        assert_eq!(p.runtime(&good), RuntimeResponse::Ok);
    }

    #[test]
    fn register_read_write_reset() {
        let (mut p, _, reg) = pipeline();
        assert_eq!(
            p.runtime(&RuntimeRequest::WriteRegister {
                register: reg,
                index: 3,
                value: 0x1_0000_0001, // masked to 32 bits
            }),
            RuntimeResponse::Ok
        );
        assert_eq!(
            p.runtime(&RuntimeRequest::ReadRegister {
                register: reg,
                index: 3
            }),
            RuntimeResponse::Value(1)
        );
        assert_eq!(
            p.runtime(&RuntimeRequest::ReadRegisterRange {
                register: reg,
                start: 2,
                len: 3
            }),
            RuntimeResponse::Values(vec![0, 1, 0])
        );
        assert_eq!(
            p.runtime(&RuntimeRequest::ResetRegister { register: reg }),
            RuntimeResponse::Ok
        );
        assert_eq!(
            p.runtime(&RuntimeRequest::ReadRegister {
                register: reg,
                index: 3
            }),
            RuntimeResponse::Value(0)
        );
    }

    #[test]
    fn oob_reads_are_errors() {
        let (mut p, _, reg) = pipeline();
        assert!(!p
            .runtime(&RuntimeRequest::ReadRegister {
                register: reg,
                index: 100
            })
            .is_ok());
        assert!(!p
            .runtime(&RuntimeRequest::ReadRegisterRange {
                register: reg,
                start: 6,
                len: 4
            })
            .is_ok());
        assert!(!p
            .runtime(&RuntimeRequest::ReadRegister {
                register: 42,
                index: 0
            })
            .is_ok());
    }

    #[test]
    fn modify_delete_clear_flow() {
        let (mut p, t, _) = pipeline();
        let key = vec![MatchValue::Exact(5)];
        p.runtime(&RuntimeRequest::InsertEntry {
            table: t,
            entry: Entry {
                key: key.clone(),
                priority: 0,
                action: 0,
                action_data: vec![1],
            },
        });
        assert_eq!(
            p.runtime(&RuntimeRequest::ModifyEntry {
                table: t,
                key: key.clone(),
                action: 0,
                action_data: vec![2],
            }),
            RuntimeResponse::Ok
        );
        assert_eq!(p.tables()[t].entries()[0].action_data, vec![2]);
        assert_eq!(
            p.runtime(&RuntimeRequest::DeleteEntry {
                table: t,
                key: key.clone()
            }),
            RuntimeResponse::Ok
        );
        assert!(!p
            .runtime(&RuntimeRequest::DeleteEntry { table: t, key })
            .is_ok());
        assert_eq!(
            p.runtime(&RuntimeRequest::ClearTable { table: t }),
            RuntimeResponse::Ok
        );
    }
}
