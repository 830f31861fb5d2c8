//! The metric tables, mirrored by `BENCHMARK.json` (a test keeps the two
//! in step), and the collector a run fills in.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one; `(definition, regression bound)`.
///
/// - `items_per_s`: observations stored (`ingest_*`), queries answered by
///   the closed-loop reader (`query_mix`) or observations taken through a
///   whole batch (`analysis_batch`), per second; median over repetitions.
/// - `op_ms_p50`: median time of one unit of work: a 16-document batch from
///   bytes to stored, one query, or one whole analysis batch.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lower("setup_s", "s"), 0.25),
    (higher("items_per_s", "1/s"), 0.25),
    (lower("op_ms_p50", "ms"), 0.25),
    (lower("peak_rss_mb", "MiB"), 0.10),
];

/// Single-layer measurements from the traced pass. A metric reads 0 on a
/// workload that does not run its layer, which is the prediction "flat".
pub const PER_LAYER: &[MetricDef] = &[
    // Where the traced time went, as shares of the traced wall time.
    lower("layer.types_pct", "%"),
    lower("layer.docstore_pct", "%"),
    lower("layer.assim_pct", "%"),
    lower("layer.analytics_pct", "%"),
    lower("layer.bench_pct", "%"),
    // types: the JSON library included.
    lower("types.doc_parse_ns", "ns"),
    lower("types.doc_write_ns", "ns"),
    lower("types.obs_decode_ns", "ns"),
    lower("types.obs_encode_ns", "ns"),
    lower("types.payload_bytes", "bytes"),
    // docstore, write side.
    lower("docstore.insert_ns_noindex", "ns"),
    lower("docstore.insert_ns_indexed", "ns"),
    lower("docstore.index_build_ms", "ms"),
    higher("docstore.store_obs_per_s", "1/s"),
    lower("docstore.batch_ms_p99", "ms"),
    lower("docstore.query_ms_p99", "ms"),
    // docstore, read side.
    lower("docstore.find_point_us", "us"),
    lower("docstore.find_range_us", "us"),
    lower("docstore.find_sorted_us", "us"),
    lower("docstore.find_scan_us", "us"),
    lower("docstore.find_extract_ms", "ms"),
    lower("docstore.count_us", "us"),
    lower("docstore.aggregate_us", "us"),
    lower("docstore.filter_parse_ns", "ns"),
    lower("docstore.docs_returned_per_query", "count"),
    lower("docstore.plan_full_scan_share", "%"),
    lower("docstore.point_ms_p50", "ms"),
    lower("docstore.point_ms_p99", "ms"),
    lower("docstore.range_ms_p50", "ms"),
    lower("docstore.scan_ms_p50", "ms"),
    lower("docstore.agg_ms_p50", "ms"),
    lower("docstore.write_ms_p50", "ms"),
    lower("docstore.write_ms_p99", "ms"),
    // docstore, durable path.
    lower("docstore.durable_insert_us", "us"),
    lower("docstore.journal_self_us", "us"),
    lower("docstore.export_json_ms", "ms"),
    lower("docstore.restore_ms", "ms"),
    lower("docstore.recovery_s", "s"),
    // wal.
    lower("wal.append_us", "us"),
    lower("wal.append_batch16_us", "us"),
    lower("wal.append_nosync_us", "us"),
    lower("wal.fsyncs_per_obs", "count"),
    lower("wal.bytes_per_obs", "bytes"),
    lower("wal.snapshot_ms", "ms"),
    lower("wal.compact_ms", "ms"),
    lower("wal.open_ms_per_10k", "ms"),
    lower("wal.crc32_ns_per_kb", "ns"),
    lower("wal.stall_ms_max", "ms"),
    // assim.
    lower("assim.batch_s", "s"),
    lower("assim.simulate_ms", "ms"),
    lower("assim.blue_global_ms", "ms"),
    lower("assim.blue_localized_ms", "ms"),
    lower("assim.spd_solve_ms", "ms"),
    lower("assim.map_rmse_db", "dB"),
    lower("assim.tile_solves", "count"),
    // analytics.
    lower("analytics.figures_s", "s"),
    lower("analytics.growth_ms", "ms"),
    lower("analytics.model_table_ms", "ms"),
    lower("analytics.accuracy_ms", "ms"),
    lower("analytics.spl_ms", "ms"),
    lower("analytics.delay_ms", "ms"),
    lower("analytics.diurnal_ms", "ms"),
    lower("analytics.provider_mode_ms", "ms"),
    lower("analytics.activity_ms", "ms"),
    // telemetry primitives the product calls on its hot paths.
    lower("telemetry.counter_inc_ns", "ns"),
    lower("telemetry.histogram_record_ns", "ns"),
    lower("telemetry.span_timer_ns", "ns"),
    lower("telemetry.flight_record_ns", "ns"),
    lower("telemetry.render_text_us", "us"),
    // the harness itself.
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.writer_lateness_ms_p99", "ms"),
    lower("bench.spans_recorded", "count"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Product operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that returned an error or whose output check failed.
    pub failed: u64,
    /// Why operations failed, for the log.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().any(|(d, _)| d.name == name)
            || PER_LAYER.iter().any(|d| d.name == name);
        assert!(known, "metric `{name}` is not in the tables of metrics.rs");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one attempted operation; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// `Ok` when `condition` holds, else the message.
pub fn ensure(condition: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
    }

    fn better(def: &MetricDef) -> &'static str {
        match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_end_to_end_table() {
        let listed = manifest();
        let listed = listed["end_to_end"].as_array().expect("end_to_end array");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, (def, bound)) in listed.iter().zip(END_TO_END) {
            assert_eq!(entry["name"].as_str(), Some(def.name));
            assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
            assert_eq!(entry["better"].as_str(), Some(better(def)), "{}", def.name);
            assert_eq!(entry["bound"].as_f64(), Some(*bound), "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_per_layer_table() {
        let listed = manifest();
        let listed = listed["per_layer"].as_array().expect("per_layer array");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, def) in listed.iter().zip(PER_LAYER) {
            assert_eq!(entry["name"].as_str(), Some(def.name));
            assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
            assert_eq!(entry["better"].as_str(), Some(better(def)), "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let listed = manifest();
        let names: Vec<&str> = listed["workloads"]
            .as_array()
            .expect("workloads array")
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(d, _)| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
