//! Snapshot renderers: Prometheus text format and JSON.
//!
//! Both are hand-rolled (the workspace builds offline with no
//! serde_json / prometheus crates) and deliberately boring: the
//! Prometheus output follows the text-format spec closely enough for
//! any scraper — `# HELP` / `# TYPE` headers, escaped label values,
//! histogram `_bucket`/`_sum`/`_count` expansion with a trailing
//! `+Inf` bucket — and the JSON output is a single self-describing
//! document mirroring the [`Snapshot`] model.

use crate::snapshot::{Sample, SampleValue, Snapshot};
use std::fmt::Write as _;

/// Escapes a string into a double-quoted JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a double-quoted JSON string literal. Runs
/// of bytes that need no escape (the whole string, for every key and
/// almost every value this repo writes) are copied in one `push_str`;
/// every byte that does need one is ASCII, so splitting there keeps
/// the runs valid UTF-8.
pub(crate) fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",…}` (empty string when there are no labels), with
/// `extra` appended after the sample's own labels.
fn prom_labels(sample_labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if sample_labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = Vec::with_capacity(sample_labels.len() + extra.len());
    for (k, v) in sample_labels {
        parts.push(format!("{k}=\"{}\"", prom_label_value(v)));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", prom_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders the snapshot in Prometheus text exposition format.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for m in &snap.metrics {
        if !m.help.is_empty() {
            let help = m.help.replace('\\', "\\\\").replace('\n', "\\n");
            let _ = writeln!(out, "# HELP {} {}", m.name, help);
        }
        let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str());
        for s in &m.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, prom_labels(&s.labels, &[]), v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, prom_labels(&s.labels, &[]), v);
                }
                SampleValue::Histogram(h) => {
                    for (le, cum) in &h.buckets {
                        let le_s = le.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            m.name,
                            prom_labels(&s.labels, &[("le", &le_s)]),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        prom_labels(&s.labels, &[("le", "+Inf")]),
                        h.count
                    );
                    let _ = writeln!(out, "{}_sum{} {}", m.name, prom_labels(&s.labels, &[]), h.sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        prom_labels(&s.labels, &[]),
                        h.count
                    );
                }
            }
        }
    }
    out
}

fn json_sample(s: &Sample) -> String {
    let labels = s
        .labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect::<Vec<_>>()
        .join(",");
    let value = match &s.value {
        SampleValue::Counter(v) => format!("{v}"),
        SampleValue::Gauge(v) => format!("{v}"),
        SampleValue::Histogram(h) => {
            let buckets = h
                .buckets
                .iter()
                .map(|(le, cum)| format!("{{\"le\":{le},\"cumulative\":{cum}}}"))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                h.count, h.sum, buckets
            )
        }
    };
    format!("{{\"labels\":{{{labels}}},\"value\":{value}}}")
}

/// Renders the snapshot as one JSON document:
/// `{"metrics":[{"name","kind","help","samples":[{"labels","value"}]}]}`.
/// Histogram values expand to `{"count","sum","buckets":[{"le","cumulative"}]}`.
#[must_use]
pub fn render_json(snap: &Snapshot) -> String {
    let metrics = snap
        .metrics
        .iter()
        .map(|m| {
            let samples = m.samples.iter().map(json_sample).collect::<Vec<_>>().join(",");
            format!(
                "{{\"name\":{},\"kind\":{},\"help\":{},\"samples\":[{}]}}",
                json_string(&m.name),
                json_string(m.kind.as_str()),
                json_string(&m.help),
                samples
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"metrics\":[{metrics}]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogLinearHistogram;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::new();
        snap.push_counter("pkts_total", "packets seen", &[("shard", "0")], 42);
        snap.push_counter("pkts_total", "packets seen", &[("shard", "1")], 58);
        snap.push_gauge("occupancy", "cells in use", &[], 17);
        let mut h = LogLinearHistogram::new(2);
        for v in [3u64, 5, 100, 1000] {
            h.record(v);
        }
        snap.push_histogram("lat_ns", "latency", &[("stage", "ingest")], &h);
        snap
    }

    #[test]
    fn prometheus_shape() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE pkts_total counter"));
        assert!(text.contains("pkts_total{shard=\"0\"} 42"));
        assert!(text.contains("pkts_total{shard=\"1\"} 58"));
        assert!(text.contains("# TYPE occupancy gauge"));
        assert!(text.contains("occupancy 17"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{stage=\"ingest\",le=\"+Inf\"} 4"));
        assert!(text.contains("lat_ns_sum{stage=\"ingest\"} 1108"));
        assert!(text.contains("lat_ns_count{stage=\"ingest\"} 4"));
    }

    #[test]
    fn prometheus_escapes_labels() {
        let mut snap = Snapshot::new();
        snap.push_counter("m_total", "", &[("path", "a\"b\\c\nd")], 1);
        let text = render_prometheus(&snap);
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let j = render_json(&sample_snapshot());
        assert!(j.starts_with('{') && j.ends_with('}'));
        let opens = j.chars().filter(|&c| c == '{').count();
        let closes = j.chars().filter(|&c| c == '}').count();
        assert_eq!(opens, closes);
        assert!(j.contains("\"name\":\"pkts_total\""));
        assert!(j.contains("\"shard\":\"0\""));
        assert!(j.contains("\"value\":42"));
        assert!(j.contains("\"count\":4"));
        assert!(j.contains("\"cumulative\""));
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
