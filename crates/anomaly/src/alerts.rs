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
            | Alert::ActivityDrop { at, .. }
            | Alert::CompositionDrift { at, .. } => *at,
        }
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
}
