//! The plain counter value type.
//!
//! This is the per-shard building block: a single-owner struct whose
//! update is one integer add — no atomics, no locks, no allocation —
//! and whose cross-shard reduction is the same [`Mergeable`] fold the
//! Stat4 trackers use at epoch barriers.

use crate::json::{At, FromJson, Json, ToJson};
use stat4_core::{Mergeable, Stat4Result};

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n` (saturating: a counter never wraps backwards).
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A counter's JSON form is its count.
impl ToJson for Counter {
    fn to_json(&self) -> Json {
        self.value.to_json()
    }
}

impl FromJson for Counter {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        u64::from_json(v, at).map(|value| Self { value })
    }
}

impl Mergeable for Counter {
    /// Counters merge by addition: the merged counter equals the count
    /// a single observer of the combined event stream would hold.
    fn merge_from(&mut self, other: &Self) -> Stat4Result<()> {
        self.add(other.value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_saturates() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn merge_is_addition() {
        let mut a = Counter::new();
        a.add(10);
        let mut b = Counter::new();
        b.add(32);
        a.merge_from(&b).unwrap();
        assert_eq!(a.get(), 42);
    }
}
