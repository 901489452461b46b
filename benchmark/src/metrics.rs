//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names, units and directions (a test holds the two
//! together); bounds live only there.

use std::collections::BTreeMap;

use telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees, the same on every workload. The
/// fifth end-to-end figure, the share of failed reps, travels as the
/// result line's `failed` and `attempted`: a metric must never read 0,
/// and that one always should.
pub const END_TO_END: [Def; 4] = [
    def("pps", "frames/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
    def("detect_delay_epochs", "epochs", "lower"),
];

/// Single layers, from the traced pass. A layer that is not on a
/// workload's path reads 0 there.
pub const PER_LAYER: [Def; 58] = [
    // Per packet; should move `pps` on dense_1shard.
    def("replay.parse_frame_ns", "ns/frame", "lower"),
    def("workloads.route_ns", "ns/frame", "lower"),
    def("replay.ingest_meta_ns", "ns/frame", "lower"),
    def("stat4-core.freq_observe_ns", "ns/frame", "lower"),
    def("stat4-core.running_push_ns", "ns/frame", "lower"),
    def("stat4-core.percentile_observe_ns", "ns/frame", "lower"),
    def("stat4-core.cms_update_ns", "ns/frame", "lower"),
    def("stat4-core.hll_observe_ns", "ns/frame", "lower"),
    // Per epoch; should move `pps` on sparse_2shard and lifecycle_2shard.
    def("replay.take_delta_us", "us/epoch", "lower"),
    def("replay.apply_delta_us", "us/epoch", "lower"),
    def("replay.merge_from_us", "us/epoch", "lower"),
    def("replay.close_interval_us", "us/epoch", "lower"),
    def("anomaly.ensemble_observe_us", "us/epoch", "lower"),
    def("anomaly.drilldown_observe_us", "us/epoch", "lower"),
    def("replay.delta_wire_bytes", "bytes/epoch", "lower"),
    def("replay.pool_residual_us", "us/epoch", "lower"),
    // The engine's own telemetry and its neighbours; informational.
    def("replay.epoch_ns_p50", "ns", "lower"),
    def("replay.merge_ns_p50", "ns", "lower"),
    def("replay.barrier_wait_ns_p50", "ns", "lower"),
    def("replay.queue_wait_ns_p50", "ns", "lower"),
    def("replay.merge_delta_bytes", "bytes", "lower"),
    def("replay.merge_rebuilds", "count", "lower"),
    def("replay.reference_pps", "frames/s", "higher"),
    def("replay.pool_2shard_ratio", "ratio", "higher"),
    def("replay.snapshot_render_ms", "ms", "lower"),
    def("telemetry.hist_record_ns", "ns", "lower"),
    def("telemetry.span_ns", "ns", "lower"),
    def("telemetry.render_ms", "ms", "lower"),
    // The interpreter; should move `pps` on p4_casestudy.
    def("p4sim.parse_frame_ns", "ns/frame", "lower"),
    def("p4sim.process_phv_ns", "ns/frame", "lower"),
    def("p4sim.steps_per_pkt", "steps/frame", "lower"),
    def("p4sim.pipeline_clone_us", "us", "lower"),
    def("p4sim.take_register_delta_us", "us/epoch", "lower"),
    def("stat4-p4.casestudy_build_ms", "ms", "lower"),
    def("stat4-p4.echo_ns", "ns/frame", "lower"),
    def("stat4-p4.median_ns", "ns/frame", "lower"),
    def("stat4-p4.sketch_ns", "ns/frame", "lower"),
    def("stat4-p4.native_ratio", "ratio", "lower"),
    // Checkpoints; should move `pps` and `peak_rss_mb` on lifecycle_2shard.
    def("replay.ckpt_bytes_last", "bytes", "lower"),
    def("replay.ckpt_growth", "ratio", "lower"),
    def("replay.ckpt_write_ms", "ms", "lower"),
    def("replay.ckpt_serialize_ms", "ms", "lower"),
    def("replay.ckpt_parse_ms", "ms", "lower"),
    def("replay.ckpt_rebuild_ms", "ms", "lower"),
    def("replay.ckpts_written", "count", "lower"),
    def("replay.ckpt_fallbacks", "count", "lower"),
    // The harness's view of the run.
    def("harness.run_ms_p50", "ms", "lower"),
    def("harness.run_ms_hi", "ms", "lower"),
    def("harness.hi_pct", "%", "higher"),
    def("harness.reps", "count", "higher"),
    def("harness.cpu_ns_per_pkt", "ns/frame", "lower"),
    def("harness.cores_busy", "cores", "lower"),
    def("harness.allocs_per_pkt", "allocs/frame", "lower"),
    def("harness.alloc_bytes_per_pkt", "bytes/frame", "lower"),
    def("harness.trace_overhead_pct", "%", "lower"),
    def("harness.layers_sum_share", "ratio", "lower"),
    def("harness.per_packet_share", "ratio", "lower"),
    def("harness.free_cpus_speedup", "ratio", "higher"),
];

/// Values measured in one run, by catalogue name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list, or a value JSON
    /// cannot carry: either is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(def.name, value);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `defs`, in catalogue order; unmeasured ones read 0.
    #[must_use]
    pub fn in_order(&self, defs: &[Def]) -> Vec<(Def, f64)> {
        defs.iter()
            .map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

/// The `metrics` object of the result line.
#[must_use]
pub fn to_json(metrics: &[(Def, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(d, v)| {
                let value = Json::Obj(vec![
                    (String::from("value"), Json::Float(*v)),
                    (String::from("unit"), Json::Str(d.unit.to_string())),
                ]);
                (d.name.to_string(), value)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every entry of one list in the
    /// repository's `BENCHMARK.json`.
    fn declared(doc: &Json, list: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        doc.get(list)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn catalogue(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), catalogue(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&Def> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(&d.better));
        }
    }
}
