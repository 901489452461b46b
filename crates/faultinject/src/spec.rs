//! Declarative fault specification and its textual grammar.

use std::fmt;

/// What happens to a shard thread when its fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// The shard sleeps for this many (simulated-work) nanoseconds
    /// before finishing its epoch; state survives.
    Stall {
        /// Stall duration in nanoseconds.
        ns: u64,
    },
    /// The shard thread panics mid-epoch; the supervisor quarantines it.
    Panic,
    /// The shard stops cleanly but permanently; quarantined like a
    /// panic but without unwinding.
    Crash,
}

/// One scheduled shard fault: shard `shard` misbehaves at epoch `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Shard index the fault applies to.
    pub shard: usize,
    /// Epoch (0-based) at which the fault fires.
    pub epoch: u64,
    /// What the shard does.
    pub kind: ShardFaultKind,
}

/// A link-flap window: data-plane frames sent while the simulation
/// clock is in `[from_ns, to_ns)` are silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// Window start in simulation nanoseconds (inclusive).
    pub from_ns: u64,
    /// Window end in simulation nanoseconds (exclusive).
    pub to_ns: u64,
}

/// Declarative description of every fault a run may experience.
///
/// Probabilities drive seeded per-ordinal decisions in
/// [`crate::FaultSchedule`]; the explicit lists fire unconditionally at
/// their scheduled points. The default spec is empty: every decision
/// method answers "no fault".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that any given control message (or
    /// replay epoch report) is dropped.
    pub ctrl_loss: f64,
    /// Probability in `[0, 1]` that a control message is duplicated.
    pub ctrl_dup: f64,
    /// Maximum extra control-message delay; actual jitter is uniform
    /// in `[0, ctrl_delay_ns]` per message. Delay variance is what
    /// reorders messages relative to their send order.
    pub ctrl_delay_ns: u64,
    /// Data-plane link-flap windows.
    pub link_flaps: Vec<LinkFlap>,
    /// Scheduled shard faults.
    pub shard_faults: Vec<ShardFault>,
    /// Checkpoint-write ordinals (0-based) whose bytes are corrupted on
    /// the way to disk — the torn-write / bit-rot model. Whether a
    /// given ordinal is truncated or bit-flipped is a seeded decision
    /// ([`crate::FaultSchedule::ckpt_corruption`]).
    pub ckpt_corrupt: Vec<u64>,
    /// Probability in `[0, 1]` that a reconfigure (drain-swap)
    /// transaction is redelivered after committing — the duplicated
    /// control-plane request a swap path must reject as stale.
    pub reconfig_storm: f64,
}

/// A fault-spec string failed to parse; the message says where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(entry: &str, why: impl fmt::Display) -> SpecError {
    SpecError(format!("`{entry}`: {why}"))
}

/// Parses `1500`, `250us`, `4ms`, `2s` into nanoseconds.
fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{s}` is not a duration (expected e.g. `1500`, `250us`, `4ms`)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("duration `{s}` overflows u64 nanoseconds"))
}

fn parse_prob(entry: &str, v: &str) -> Result<f64, SpecError> {
    let p: f64 = v
        .parse()
        .map_err(|_| err(entry, format_args!("`{v}` is not a probability")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(err(entry, format_args!("probability {p} outside [0, 1]")));
    }
    Ok(p)
}

/// Parses `S@E` into (shard, epoch).
fn parse_shard_at(entry: &str, v: &str) -> Result<(usize, u64), SpecError> {
    let (s, e) = v
        .split_once('@')
        .ok_or_else(|| err(entry, "expected `<shard>@<epoch>`"))?;
    let shard = s
        .parse()
        .map_err(|_| err(entry, format_args!("`{s}` is not a shard index")))?;
    let epoch = e
        .parse()
        .map_err(|_| err(entry, format_args!("`{e}` is not an epoch number")))?;
    Ok((shard, epoch))
}

impl FaultSpec {
    /// Parses the comma-separated `key=value` grammar described in the
    /// crate docs. Whitespace around entries is ignored; keys may
    /// repeat (repeated probability keys keep the last value, repeated
    /// event keys accumulate). An empty string parses to the empty
    /// spec.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let mut out = Self::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, val) = entry
                .split_once('=')
                .ok_or_else(|| err(entry, "expected `key=value`"))?;
            match key {
                "ctrl_loss" => out.ctrl_loss = parse_prob(entry, val)?,
                "ctrl_dup" => out.ctrl_dup = parse_prob(entry, val)?,
                "ctrl_delay_ns" | "ctrl_delay" => {
                    out.ctrl_delay_ns =
                        parse_duration_ns(val).map_err(|e| err(entry, e))?;
                }
                "link_flap" => {
                    let v = val
                        .strip_prefix('@')
                        .ok_or_else(|| err(entry, "expected `@<from>..<to>`"))?;
                    let (from, to) = v
                        .split_once("..")
                        .ok_or_else(|| err(entry, "expected `@<from>..<to>`"))?;
                    let from_ns = parse_duration_ns(from).map_err(|e| err(entry, e))?;
                    let to_ns = parse_duration_ns(to).map_err(|e| err(entry, e))?;
                    if from_ns >= to_ns {
                        return Err(err(entry, "flap window is empty"));
                    }
                    out.link_flaps.push(LinkFlap { from_ns, to_ns });
                }
                "shard_crash" | "shard_panic" => {
                    let (shard, epoch) = parse_shard_at(entry, val)?;
                    let kind = if key == "shard_crash" {
                        ShardFaultKind::Crash
                    } else {
                        ShardFaultKind::Panic
                    };
                    out.shard_faults.push(ShardFault { shard, epoch, kind });
                }
                "shard_stall" => {
                    let (head, dur) = val
                        .split_once(':')
                        .ok_or_else(|| err(entry, "expected `<shard>@<epoch>:<duration>`"))?;
                    let (shard, epoch) = parse_shard_at(entry, head)?;
                    let ns = parse_duration_ns(dur).map_err(|e| err(entry, e))?;
                    out.shard_faults.push(ShardFault {
                        shard,
                        epoch,
                        kind: ShardFaultKind::Stall { ns },
                    });
                }
                "ckpt_corrupt" => {
                    let ordinal = val.parse().map_err(|_| {
                        err(entry, format_args!("`{val}` is not a checkpoint ordinal"))
                    })?;
                    out.ckpt_corrupt.push(ordinal);
                }
                "reconfig_storm" => out.reconfig_storm = parse_prob(entry, val)?,
                other => {
                    return Err(err(
                        entry,
                        format_args!(
                            "unknown fault key `{other}` (known: ctrl_loss, ctrl_dup, \
                             ctrl_delay_ns, link_flap, shard_crash, shard_panic, \
                             shard_stall, ckpt_corrupt, reconfig_storm)"
                        ),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// True when the spec declares no faults at all — the schedule will
    /// never perturb anything and every layer takes its fast path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ctrl_loss == 0.0
            && self.ctrl_dup == 0.0
            && self.ctrl_delay_ns == 0
            && self.link_flaps.is_empty()
            && self.shard_faults.is_empty()
            && self.ckpt_corrupt.is_empty()
            && self.reconfig_storm == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_is_empty_spec() {
        let s = FaultSpec::parse("").unwrap();
        assert!(s.is_empty());
        assert_eq!(s, FaultSpec::default());
    }

    #[test]
    fn full_grammar_round_trips_into_fields() {
        let s = FaultSpec::parse(
            "ctrl_loss=0.30, ctrl_dup=0.05, ctrl_delay_ns=250us, \
             link_flap=@5ms..9ms, shard_crash=1@3, shard_panic=0@2, \
             shard_stall=2@4:1500000",
        )
        .unwrap();
        assert!((s.ctrl_loss - 0.30).abs() < 1e-12);
        assert!((s.ctrl_dup - 0.05).abs() < 1e-12);
        assert_eq!(s.ctrl_delay_ns, 250_000);
        assert_eq!(
            s.link_flaps,
            vec![LinkFlap { from_ns: 5_000_000, to_ns: 9_000_000 }]
        );
        assert_eq!(s.shard_faults.len(), 3);
        assert_eq!(
            s.shard_faults[0],
            ShardFault { shard: 1, epoch: 3, kind: ShardFaultKind::Crash }
        );
        assert_eq!(
            s.shard_faults[2],
            ShardFault { shard: 2, epoch: 4, kind: ShardFaultKind::Stall { ns: 1_500_000 } }
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn bad_entries_are_rejected_with_context() {
        for bad in [
            "ctrl_loss=1.5",
            "ctrl_loss=maybe",
            "nonsense=1",
            "shard_crash=1",
            "shard_stall=1@2",
            "link_flap=@9ms..5ms",
            "ctrl_delay_ns=4x",
            "justakey",
            "ckpt_corrupt=soon",
            "reconfig_storm=2.0",
        ] {
            let e = FaultSpec::parse(bad).unwrap_err();
            assert!(e.to_string().contains("bad fault spec"), "{bad}: {e}");
        }
        // `seu` and `table_miss` are not fault keys: no layer reads a
        // data-plane fault, and the known-keys list names neither.
        for gone in ["seu=syn_count:12:7@40000", "table_miss=binding@100..200"] {
            let e = FaultSpec::parse(gone).unwrap_err().to_string();
            assert!(e.contains("unknown fault key"), "{gone}: {e}");
            let known = &e[e.find("(known:").expect("lists known keys")..];
            assert!(!known.contains("seu") && !known.contains("table_miss"), "{known}");
        }
    }

    #[test]
    fn durations_accept_suffixes() {
        for (txt, ns) in [("1500", 1_500), ("250us", 250_000), ("4ms", 4_000_000), ("2s", 2_000_000_000), ("7ns", 7)] {
            let s = FaultSpec::parse(&format!("ctrl_delay_ns={txt}")).unwrap();
            assert_eq!(s.ctrl_delay_ns, ns, "{txt}");
        }
    }

    #[test]
    fn lifecycle_faults_parse_into_fields() {
        let s = FaultSpec::parse("ckpt_corrupt=2, ckpt_corrupt=5, reconfig_storm=0.75").unwrap();
        assert_eq!(s.ckpt_corrupt, vec![2, 5]);
        assert!((s.reconfig_storm - 0.75).abs() < 1e-12);
        assert!(!s.is_empty());
        assert!(!FaultSpec::parse("ckpt_corrupt=0").unwrap().is_empty());
        assert!(!FaultSpec::parse("reconfig_storm=1").unwrap().is_empty());
    }

    #[test]
    fn repeated_event_keys_accumulate() {
        let s = FaultSpec::parse("shard_crash=0@1,shard_crash=1@1,ckpt_corrupt=2,ckpt_corrupt=3")
            .unwrap();
        assert_eq!(s.shard_faults.len(), 2);
        assert_eq!(s.ckpt_corrupt, vec![2, 3]);
    }
}
