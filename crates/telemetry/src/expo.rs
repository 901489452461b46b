//! The Prometheus text exposition of a [`Snapshot`].
//!
//! Hand-rolled (the workspace builds offline with no prometheus crate)
//! and deliberately boring: it follows the text-format spec closely
//! enough for any scraper — `# HELP` / `# TYPE` headers, escaped label
//! values, histogram `_bucket`/`_sum`/`_count` expansion with a
//! trailing `+Inf` bucket. The JSON form of a snapshot is its
//! [`crate::json::ToJson`] impl, written by
//! [`crate::snapshot::render_json`].

use crate::snapshot::{SampleValue, Snapshot};
use std::fmt::Write as _;

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
                    for b in &h.buckets {
                        let le_s = b.le.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            m.name,
                            prom_labels(&s.labels, &[("le", &le_s)]),
                            b.cumulative
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample_snapshot;

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
}
