//! Bounded exponential backoff with deterministic jitter — the retry
//! delay of the drilldown controller's rebind transactions.
//!
//! Two properties matter on a faulty control channel:
//!
//! - **bounded exponent**: the per-attempt delay is `BASE_NS << attempt`
//!   but the exponent is capped, so a long outage retries at a steady
//!   ceiling instead of backing off into silence;
//! - **deterministic jitter**: each retry adds up to 25% extra delay,
//!   derived by SplitMix64 from `(seed, attempt)` — de-synchronising
//!   concurrent retriers (the thundering-herd fix) while keeping every
//!   run a pure function of its seed, like all fault decisions in this
//!   workspace.

use stat4_core::splitmix64;

/// First-retry delay in nanoseconds (10 ms): comfortably more than one
/// control-channel round trip.
const BASE_NS: u64 = 10_000_000;
/// Cap on the backoff exponent: attempt `k` waits
/// `BASE_NS << min(k, MAX_SHIFT)` before jitter (a 640 ms ceiling).
const MAX_SHIFT: u32 = 6;
/// Jitter amplitude as a right-shift of the un-jittered delay: attempt
/// `k` adds `uniform[0, delay >> JITTER_SHIFT]`, up to 25%.
const JITTER_SHIFT: u32 = 2;

/// Delay before re-send number `attempt` (0-based), jitter included;
/// runs with equal `seed`s retry at equal times.
#[must_use]
pub fn delay_ns(seed: u64, attempt: u32) -> u64 {
    let base = BASE_NS << attempt.min(MAX_SHIFT);
    let h = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x2545_f491_4f6c_dd1d));
    base + h % ((base >> JITTER_SHIFT) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_is_capped() {
        // 10 ms doubling to a 640 ms ceiling, plus at most 25% jitter.
        let floors_ms = [
            (0, 10),
            (1, 20),
            (5, 320),
            (6, 640),
            (7, 640),
            (40, 640),
            (u32::MAX, 640),
        ];
        for (attempt, floor_ms) in floors_ms {
            let floor = floor_ms * 1_000_000;
            let d = delay_ns(9, attempt);
            assert!(
                (floor..=floor + floor / 4).contains(&d),
                "attempt {attempt}: {d}"
            );
        }
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_nontrivial() {
        let mut varied = false;
        for attempt in 0..64 {
            let base = BASE_NS << attempt.min(MAX_SHIFT);
            let d = delay_ns(9, attempt);
            assert!(d >= base, "jitter is additive");
            assert!(d <= base + (base >> 2), "jitter ≤ 25%");
            assert_eq!(d, delay_ns(9, attempt), "same seed, same delay");
            varied |= d != base;
        }
        assert!(varied, "jitter actually fires");
        assert!(
            (0..64).any(|a| delay_ns(10, a) != delay_ns(9, a)),
            "different seeds de-synchronise"
        );
    }
}
