//! The exposition data model: a point-in-time, self-describing set of
//! metric families.
//!
//! A [`Snapshot`] is what crosses the boundary between the
//! instrumented layers and the run's artifacts: layers build one from
//! their metric values and [`render_json`] writes it as one JSON
//! document, without knowing where the numbers came from. The JSON
//! form of each type is its [`ToJson`] impl below it.
//!
//! A snapshot is valid by construction. Its push methods panic on an
//! illegal name, a kind clash or a repeated (name, labels) series;
//! counters are `u64`; a histogram's buckets come from a
//! [`LogLinearHistogram`], so `le` ascends and the cumulative counts
//! never fall or pass `count`.

use crate::hist::LogLinearHistogram;
use crate::json::{self, obj_of, write_obj, Json, ToJson};
use crate::json_struct;

/// Metric kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The kind's name, as the JSON document writes it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Written as its name.
impl ToJson for MetricKind {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// One histogram bucket: the samples at or below `le`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive upper bound.
    pub le: u64,
    /// Samples at or below `le`.
    pub cumulative: u64,
}

json_struct!(@write Bucket { le, cumulative });

/// A rendered histogram: cumulative counts at inclusive upper bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending in `le`; only the non-empty buckets of the source
    /// histogram appear (plus their cumulative semantics, the `+Inf`
    /// bucket is implicit via [`Self::count`]).
    pub buckets: Vec<Bucket>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u128,
}

json_struct!(@write HistogramSnapshot { count, sum, buckets });

impl From<&LogLinearHistogram> for HistogramSnapshot {
    fn from(h: &LogLinearHistogram) -> Self {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (idx, c) in h.nonzero_buckets() {
            cum += c;
            buckets.push(Bucket { le: h.bucket_range(idx).1, cumulative: cum });
        }
        Self {
            buckets,
            count: h.count(),
            sum: h.sum(),
        }
    }
}

/// One sample value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram reading.
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    fn reading(&self) -> &dyn ToJson {
        match self {
            SampleValue::Counter(v) => v,
            SampleValue::Gauge(v) => v,
            SampleValue::Histogram(h) => h,
        }
    }
}

/// Written as the reading alone: the family's kind says which.
impl ToJson for SampleValue {
    fn to_json(&self) -> Json {
        self.reading().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.reading().write_json(out);
    }
}

/// One labelled series of a metric family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// `(key, value)` label pairs, in insertion order.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// A sample's labels, written as the object they stand for.
struct Labels<'a>(&'a [(String, String)]);

impl ToJson for Labels<'_> {
    fn to_json(&self) -> Json {
        obj_of(self.0.iter().map(|(k, v)| (k.as_str(), v as &dyn ToJson)))
    }

    fn write_json(&self, out: &mut String) {
        write_obj(out, self.0.iter().map(|(k, v)| (k.as_str(), v as &dyn ToJson)));
    }
}

/// `{"labels":{…},"value":…}`.
impl ToJson for Sample {
    fn to_json(&self) -> Json {
        obj_of([("labels", &Labels(&self.labels) as &dyn ToJson), ("value", &self.value)])
    }

    fn write_json(&self, out: &mut String) {
        write_obj(out, [("labels", &Labels(&self.labels) as &dyn ToJson), ("value", &self.value)]);
    }
}

/// A named metric family with its samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Family kind; every sample must match it.
    pub kind: MetricKind,
    /// The labelled series.
    pub samples: Vec<Sample>,
}

json_struct!(@write Metric { name, kind, help, samples });

/// A point-in-time collection of metric families.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The families, in push order.
    pub metrics: Vec<Metric>,
}

json_struct!(@write Snapshot { metrics });

/// Renders the snapshot as one JSON document:
/// `{"metrics":[{"name","kind","help","samples":[{"labels","value"}]}]}`.
/// Histogram values expand to `{"count","sum","buckets":[{"le","cumulative"}]}`.
#[must_use]
pub fn render_json(snap: &Snapshot) -> String {
    json::write(snap)
}

/// True iff `name` is a legal metric name, `[a-zA-Z_:][a-zA-Z0-9_:]*`.
#[must_use]
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head_ok = first.is_ascii_alphabetic() || first == '_' || first == ':';
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// True iff `held` and `labels` are the same set of pairs: one series.
fn same_labels(held: &[(String, String)], labels: &[(&str, &str)]) -> bool {
    held.len() == labels.len()
        && labels
            .iter()
            .all(|&(k, v)| held.iter().any(|(hk, hv)| hk == k && hv == v))
}

fn to_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Metric {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        if let Some(i) = self.metrics.iter().position(|m| m.name == name) {
            assert!(
                self.metrics[i].kind == kind,
                "metric {name} pushed with two kinds"
            );
            return &mut self.metrics[i];
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Appends one sample to its family, refusing a second series with
    /// the same labels.
    fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: SampleValue,
    ) {
        let family = self.family(name, help, kind);
        assert!(
            !family.samples.iter().any(|s| same_labels(&s.labels, labels)),
            "metric {name} pushed twice with labels {labels:?}"
        );
        family.samples.push(Sample {
            labels: to_labels(labels),
            value,
        });
    }

    /// Appends a counter sample, creating the family on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a kind clash with an existing family
    /// of the same name, or a second sample of the family with the
    /// same labels in any order (programmer errors).
    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, help, MetricKind::Counter, labels, SampleValue::Counter(value));
    }

    /// Appends a gauge sample, creating the family on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a kind clash or a repeated series.
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.push(name, help, MetricKind::Gauge, labels, SampleValue::Gauge(value));
    }

    /// Appends a histogram sample, creating the family on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a kind clash or a repeated series.
    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &LogLinearHistogram,
    ) {
        self.push(name, help, MetricKind::Histogram, labels, SampleValue::Histogram(hist.into()));
    }

    /// The family named `name`, if present.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Sum of every counter sample in the family named `name` (0 when
    /// absent) — the "do the per-shard series add up" test helper.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |m| {
            m.samples
                .iter()
                .map(|s| match &s.value {
                    SampleValue::Counter(v) => *v,
                    _ => 0,
                })
                .sum()
        })
    }

    /// Total number of samples across all families.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.metrics.iter().map(|m| m.samples.len()).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Two labelled counters, an unlabelled gauge and a histogram.
    pub(crate) fn sample_snapshot() -> Snapshot {
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
    fn json_document_is_pinned_byte_for_byte() {
        let snap = sample_snapshot();
        let want = concat!(
            r#"{"metrics":[{"name":"pkts_total","kind":"counter","help":"packets seen","samples":["#,
            r#"{"labels":{"shard":"0"},"value":42},{"labels":{"shard":"1"},"value":58}]},"#,
            r#"{"name":"occupancy","kind":"gauge","help":"cells in use","samples":[{"labels":{},"value":17}]},"#,
            r#"{"name":"lat_ns","kind":"histogram","help":"latency","samples":[{"labels":{"stage":"ingest"},"#,
            r#""value":{"count":4,"sum":1108,"buckets":[{"le":3,"cumulative":1},{"le":5,"cumulative":2},"#,
            r#"{"le":111,"cumulative":3},{"le":1023,"cumulative":4}]}}]}]}"#
        );
        assert_eq!(render_json(&snap), want);
        // The tree the streamed text skips is the same document.
        assert_eq!(json::render(&snap.to_json()), want);
    }

    #[test]
    fn families_group_and_sum() {
        let mut s = Snapshot::new();
        s.push_counter("pkts_total", "packets", &[("shard", "0")], 10);
        s.push_counter("pkts_total", "packets", &[("shard", "1")], 32);
        s.push_gauge("occupancy", "cells", &[], -1);
        assert_eq!(s.metrics.len(), 2);
        assert_eq!(s.counter_sum("pkts_total"), 42);
        assert_eq!(s.sample_count(), 3);
        assert_eq!(s.find("occupancy").unwrap().kind, MetricKind::Gauge);
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_clash_panics() {
        let mut s = Snapshot::new();
        s.push_counter("m", "", &[], 1);
        s.push_gauge("m", "", &[], 1);
    }

    #[test]
    #[should_panic(expected = "pushed twice with labels")]
    fn repeated_series_panics() {
        let mut s = Snapshot::new();
        s.push_counter("m", "", &[("shard", "0"), ("stage", "ingest")], 1);
        s.push_counter("m", "", &[("shard", "1"), ("stage", "ingest")], 1);
        s.push_counter("m", "", &[("stage", "ingest"), ("shard", "0")], 2);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let mut s = Snapshot::new();
        s.push_counter("9lives", "", &[], 1);
    }

    #[test]
    fn histogram_snapshot_is_cumulative() {
        let mut h = LogLinearHistogram::new(2);
        for v in [1u64, 1, 2, 100] {
            h.record(v);
        }
        let hs = HistogramSnapshot::from(&h);
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 104);
        let cums: Vec<u64> = hs.buckets.iter().map(|b| b.cumulative).collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "monotone: {cums:?}");
        assert_eq!(*cums.last().unwrap(), 4);
        let les: Vec<u64> = hs.buckets.iter().map(|b| b.le).collect();
        assert!(les.windows(2).all(|w| w[0] < w[1]), "ascending: {les:?}");
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("replay_shard_packets_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("1st"));
    }
}
