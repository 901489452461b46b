//! Error type for program construction, validation and execution.

use std::fmt;

/// Errors from building, validating or running a pipeline program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P4Error {
    /// Reference to a table/action/register/field that does not exist.
    UnknownId {
        /// What kind of object was referenced.
        kind: &'static str,
        /// The offending id.
        id: usize,
    },
    /// A primitive the selected target cannot execute.
    UnsupportedOnTarget {
        /// Description of the rejected operation.
        what: &'static str,
        /// Target name.
        target: &'static str,
    },
    /// Register index out of bounds at runtime.
    RegisterOutOfBounds {
        /// Register id.
        register: usize,
        /// Index accessed.
        index: u64,
        /// Register array size.
        size: u64,
    },
    /// The program's most expensive path charges a packet more steps
    /// than the target's per-packet budget, so `ProgramBuilder::build`
    /// refuses it (no packet is ever cut off part way).
    StepBudget {
        /// Steps a packet is charged on the worst path.
        worst: u64,
        /// The target's budget.
        budget: u64,
    },
    /// A table entry's key shape does not match the table definition.
    KeyShapeMismatch {
        /// Table id.
        table: usize,
        /// Expected number of key components.
        expected: usize,
        /// Provided number.
        provided: usize,
    },
    /// Table is full (max_entries reached).
    TableFull {
        /// Table id.
        table: usize,
    },
    /// Entry not found for modify/delete.
    EntryNotFound {
        /// Table id.
        table: usize,
    },
    /// An action referenced action-data beyond what the entry provides.
    ActionDataOutOfBounds {
        /// Action id.
        action: usize,
        /// Slot index requested.
        slot: usize,
    },
    /// Program validation found a structural problem.
    Invalid {
        /// Description.
        what: String,
    },
}

/// Convenience alias.
pub type P4Result<T> = Result<T, P4Error>;

impl fmt::Display for P4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P4Error::UnknownId { kind, id } => write!(f, "unknown {kind} id {id}"),
            P4Error::UnsupportedOnTarget { what, target } => {
                write!(f, "{what} is not supported on target {target}")
            }
            P4Error::RegisterOutOfBounds {
                register,
                index,
                size,
            } => write!(
                f,
                "register {register}: index {index} out of bounds (size {size})"
            ),
            P4Error::StepBudget { worst, budget } => {
                write!(f, "the worst-case path charges {worst} steps, past the per-packet budget of {budget}")
            }
            P4Error::KeyShapeMismatch {
                table,
                expected,
                provided,
            } => write!(
                f,
                "table {table}: entry key has {provided} components, expected {expected}"
            ),
            P4Error::TableFull { table } => write!(f, "table {table} is full"),
            P4Error::EntryNotFound { table } => write!(f, "no such entry in table {table}"),
            P4Error::ActionDataOutOfBounds { action, slot } => {
                write!(f, "action {action}: action-data slot {slot} not provided")
            }
            P4Error::Invalid { what } => write!(f, "invalid program: {what}"),
        }
    }
}

impl std::error::Error for P4Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = P4Error::RegisterOutOfBounds {
            register: 3,
            index: 10,
            size: 8,
        };
        let s = e.to_string();
        assert!(s.contains("register 3") && s.contains("10") && s.contains("8"));
        assert!(P4Error::TableFull { table: 1 }.to_string().contains("full"));
    }
}
