//! Library configuration: the paper's compile-time macros as values.
//!
//! Stat4's register footprint is controlled by two "compiler macros
//! whose values can be tuned by P4 applications using the library":
//! `STAT_COUNTER_NUM` (how many distributions can be tracked at once)
//! and `STAT_COUNTER_SIZE` (cells per distribution). Here they are plain
//! fields of [`Stat4Config`], fixed when a program is emitted — the same
//! point in the lifecycle as a P4 compile.

/// Sizing of the Stat4 register block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat4Config {
    /// `STAT_COUNTER_NUM`: distributions tracked simultaneously.
    pub counter_num: usize,
    /// `STAT_COUNTER_SIZE`: value cells per distribution.
    pub counter_size: usize,
    /// Register cell width in bits.
    pub width_bits: u32,
}

impl Default for Stat4Config {
    fn default() -> Self {
        Self {
            counter_num: 4,
            counter_size: 512,
            width_bits: 64,
        }
    }
}

impl Stat4Config {
    /// Total value-counter cells (`counter_num × counter_size`).
    #[must_use]
    pub(crate) fn total_cells(&self) -> usize {
        self.counter_num * self.counter_size
    }

    /// Base cell index of distribution `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= counter_num`.
    #[must_use]
    pub fn base(&self, slot: usize) -> usize {
        assert!(slot < self.counter_num, "slot {slot} out of range");
        slot * self.counter_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_layout() {
        let c = Stat4Config::default();
        assert_eq!(c.total_cells(), 4 * 512);
        assert_eq!(c.base(0), 0);
        assert_eq!(c.base(3), 3 * 512);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn base_bounds_checked() {
        let c = Stat4Config::default();
        let _ = c.base(4);
    }
}
