//! Sparse epoch-barrier merging.
//!
//! Both replay engines used to rebuild the merged [`ShardState`] from
//! scratch at every epoch barrier — a fold over *all* tracker cells of
//! *all* surviving shards, so merge cost grew linearly with shard
//! count regardless of how little state an epoch actually touched.
//! [`BarrierMerger`] keeps the previous barrier's merged view as an
//! accumulator and, on steady-state epochs, ships only each shard's
//! **delta** (the cells mutated since the previous barrier, tracked by
//! `stat4_core::DeltaMergeable` dirty journals) into it.
//!
//! # Rebuild triggers
//!
//! The delta path is only sound while the accumulator reflects exactly
//! the set of shards it was built from. The merger falls back to a
//! full rebuild (the fold of every survivor) whenever:
//!
//! - it has no accumulator yet (first barrier, or first barrier after
//!   a checkpoint resume — restored trackers re-base their journals,
//!   so nothing is pending anyway), or
//! - the alive map changed since the accumulator was built (a shard
//!   was quarantined, so its history must leave the merged view; this
//!   also covers total shard loss, where the rebuild produces the
//!   fresh-empty state the old path produced).
//!
//! After a rebuild every surviving shard's journal is re-based
//! ([`ShardState::discard_delta`]) so the next barrier's deltas are
//! relative to what the accumulator already holds.
//!
//! # Interval-scoped state
//!
//! The engines zero each shard's interval scalars and wash its HLL
//! after every barrier ([`ShardState::close_interval`]), so on a delta
//! epoch each shard's *current* interval values are exactly its
//! contribution to the closing epoch. The merger therefore zeroes the
//! accumulator's interval fields before applying deltas; the result is
//! bit-identical to the fresh fold the rebuild path computes.

use crate::{merge_surviving, ReplayConfig, ShardDelta, ShardState};

/// What one barrier merge did — feeds the `merge_delta_bytes` /
/// `merge_skipped_registers` / `merge_rebuilds` telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BarrierStats {
    /// Wire bytes the delta path shipped (0 on a rebuild).
    pub delta_bytes: u64,
    /// Register cells present in the shards but absent from the deltas
    /// — untouched state a full merge would have re-folded.
    pub skipped_registers: u64,
    /// Whether this barrier fell back to a full rebuild.
    pub rebuilt: bool,
}

/// The states of `states` that are home and `alive`.
fn surviving<'a>(
    states: &'a mut [Option<ShardState>],
    alive: &'a [bool],
) -> impl Iterator<Item = &'a mut ShardState> {
    states
        .iter_mut()
        .zip(alive)
        .filter_map(|(state, &a)| state.as_mut().filter(|_| a))
}

/// Incremental cross-shard merger: owns the merged view between
/// barriers and folds per-shard deltas into it.
#[derive(Debug)]
pub(crate) struct BarrierMerger {
    acc: Option<ShardState>,
    /// Alive map the accumulator was built over.
    acc_alive: Vec<bool>,
    /// Every shard's delta is taken into this one buffer and applied
    /// from it, so the delta path allocates nothing once the buffer has
    /// grown to an epoch's working set.
    delta: ShardDelta,
}

impl BarrierMerger {
    pub(crate) fn new() -> Self {
        Self {
            acc: None,
            acc_alive: Vec::new(),
            delta: ShardDelta::default(),
        }
    }

    /// Merges the surviving shards for one epoch barrier. `states` are
    /// the coordinator's slots, indexed by shard.
    pub(crate) fn merge(
        &mut self,
        states: &mut [Option<ShardState>],
        alive: &[bool],
        cfg: &ReplayConfig,
    ) -> BarrierStats {
        let mut stats = BarrierStats::default();
        if let Some(acc) = self.acc.as_mut().filter(|_| self.acc_alive == alive) {
            // Interval-scoped fields start fresh each epoch; the
            // shards' current values are this epoch's contributions.
            acc.close_interval();
            let delta = &mut self.delta;
            for state in surviving(states, alive) {
                state.take_delta_into(delta);
                stats.delta_bytes += delta.wire_bytes();
                stats.skipped_registers +=
                    state.register_cells().saturating_sub(delta.touched_registers());
                acc.apply_delta(delta).expect("one geometry merges");
            }
        } else {
            stats.rebuilt = true;
            self.acc = Some(merge_surviving(states, alive, cfg));
            surviving(states, alive).for_each(ShardState::discard_delta);
            self.acc_alive = alive.to_vec();
        }
        stats
    }

    /// The merged view of the latest barrier.
    ///
    /// # Panics
    ///
    /// Panics if called before the first [`Self::merge`].
    pub(crate) fn merged(&self) -> &ShardState {
        self.acc.as_ref().expect("merge() before merged()")
    }
}
