//! Alert types shared by the detectors.

use std::net::Ipv4Addr;

/// An anomaly surfaced by a detector, timestamped in simulation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Alert {
    /// Traffic rate exceeded mean + k·σ of the recent-interval window.
    TrafficSpike {
        /// Time of detection (ns).
        at: u64,
        /// The outlying interval's packet count.
        interval_count: u64,
    },
    /// One monitored group receives disproportionate traffic.
    TrafficImbalance {
        /// Time of detection (ns).
        at: u64,
        /// The guilty group index.
        group: u64,
    },
    /// The spike's destination was pinpointed.
    Pinpointed {
        /// Time of identification (ns).
        at: u64,
        /// The destination.
        dest: Ipv4Addr,
    },
    /// SYN rate / share anomaly.
    SynFlood {
        /// Time of detection (ns).
        at: u64,
        /// SYN observations at detection.
        syn_count: u64,
    },
    /// Activity collapsed (stalled flows / failure).
    ActivityDrop {
        /// Time of detection (ns).
        at: u64,
        /// The anomalously low interval value.
        interval_value: i64,
    },
    /// Traffic composition drifted from its history.
    CompositionDrift {
        /// Time of detection (ns).
        at: u64,
        /// Index of the drifting packet kind.
        kind: usize,
    },
}

impl Alert {
    /// Detection timestamp.
    #[must_use]
    pub fn at(&self) -> u64 {
        match self {
            Alert::TrafficSpike { at, .. }
            | Alert::TrafficImbalance { at, .. }
            | Alert::Pinpointed { at, .. }
            | Alert::SynFlood { at, .. }
            | Alert::ActivityDrop { at, .. }
            | Alert::CompositionDrift { at, .. } => *at,
        }
    }

    /// The alert as `(variant tag, at, payload)` — one schema for every
    /// variant, which is how run snapshots and checkpoints store
    /// alerts. Payloads wider than `i64` saturate.
    #[must_use]
    pub fn flatten(&self) -> (&'static str, u64, i64) {
        let wide = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        match self {
            Alert::TrafficSpike { at, interval_count } => ("traffic_spike", *at, wide(*interval_count)),
            Alert::TrafficImbalance { at, group } => ("traffic_imbalance", *at, wide(*group)),
            Alert::Pinpointed { at, dest } => ("pinpointed", *at, i64::from(u32::from(*dest))),
            Alert::SynFlood { at, syn_count } => ("syn_flood", *at, wide(*syn_count)),
            Alert::ActivityDrop { at, interval_value } => ("activity_drop", *at, *interval_value),
            Alert::CompositionDrift { at, kind } => ("composition_drift", *at, wide(*kind as u64)),
        }
    }

    /// The inverse of [`Self::flatten`]; `None` for an unknown tag or
    /// a payload the variant cannot hold.
    #[must_use]
    pub(crate) fn unflatten(kind: &str, at: u64, value: i64) -> Option<Self> {
        Some(match kind {
            "traffic_spike" => Alert::TrafficSpike { at, interval_count: u64::try_from(value).ok()? },
            "traffic_imbalance" => Alert::TrafficImbalance { at, group: u64::try_from(value).ok()? },
            "pinpointed" => Alert::Pinpointed { at, dest: Ipv4Addr::from(u32::try_from(value).ok()?) },
            "syn_flood" => Alert::SynFlood { at, syn_count: u64::try_from(value).ok()? },
            "activity_drop" => Alert::ActivityDrop { at, interval_value: value },
            "composition_drift" => Alert::CompositionDrift { at, kind: usize::try_from(value).ok()? },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_extracts_timestamp() {
        let a = Alert::TrafficSpike {
            at: 77,
            interval_count: 5,
        };
        assert_eq!(a.at(), 77);
        let b = Alert::Pinpointed {
            at: 99,
            dest: Ipv4Addr::new(10, 0, 1, 2),
        };
        assert_eq!(b.at(), 99);
    }

    #[test]
    fn flatten_round_trips_every_variant() {
        let all = [
            Alert::TrafficSpike { at: 1, interval_count: 900 },
            Alert::TrafficImbalance { at: 2, group: 3 },
            Alert::Pinpointed { at: 3, dest: Ipv4Addr::new(10, 0, 1, 2) },
            Alert::SynFlood { at: 4, syn_count: 77 },
            Alert::ActivityDrop { at: 5, interval_value: -6 },
            Alert::CompositionDrift { at: 6, kind: 41 },
        ];
        for a in all {
            let (kind, at, value) = a.flatten();
            assert_eq!(at, a.at());
            assert_eq!(Alert::unflatten(kind, at, value), Some(a));
        }
        assert_eq!(Alert::unflatten("nonsense", 0, 0), None);
        assert_eq!(Alert::unflatten("syn_flood", 0, -1), None);
        assert_eq!(Alert::unflatten("pinpointed", 0, 1 << 40), None);
    }
}
