//! The store's handles into the process-wide telemetry registry.
//!
//! Series follow the workspace convention `<crate>_<subsystem>_<metric>`
//! and register lazily in [`Registry::global`], so any embedding process
//! (the GoFlow server, the bench harness, a test) sees combined storage
//! health without plumbing handles through constructors.

use crate::index::PlanKind;
use mps_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::OnceLock;

/// Shared docstore metric handles.
pub(crate) struct StoreTelemetry {
    /// Documents inserted across all collections.
    pub(crate) collection_insert: Counter,
    /// Find queries executed across all collections.
    pub(crate) collection_find: Counter,
    /// Counts executed across all collections.
    pub(crate) collection_count: Counter,
    /// Update-many operations executed across all collections.
    pub(crate) collection_update: Counter,
    /// Delete-many operations executed across all collections.
    pub(crate) collection_delete: Counter,
    /// Queries answered without any index (`plan="full_scan"`).
    pub(crate) query_plan_full_scan: Counter,
    /// Queries answered by one equality index (`plan="index_eq"`).
    pub(crate) query_plan_index_eq: Counter,
    /// Queries answered by one range index (`plan="index_range"`).
    pub(crate) query_plan_index_range: Counter,
    /// Queries intersecting several indexes (`plan="index_intersect"`).
    pub(crate) query_plan_index_intersect: Counter,
    /// Blocks scans walked — full scans, and the sealed blocks beside an
    /// index: their summaries and columns could not rule them out.
    pub(crate) scan_blocks_visited: Counter,
    /// Blocks scans passed over, on their summaries or because no row of
    /// a sealed one passed the column pass.
    pub(crate) scan_blocks_skipped: Counter,
    /// Blocks held as columns now, across all collections.
    pub(crate) blocks_sealed: Gauge,
    /// Sealed blocks copied back into rows by a write to one of their rows.
    pub(crate) blocks_unsealed: Counter,
    /// Latency of one insert call (one document or a batch), in seconds.
    pub(crate) collection_insert_seconds: Histogram,
    /// Latency of one find, in seconds.
    pub(crate) collection_find_seconds: Histogram,
    /// Latency of one count, in seconds.
    pub(crate) collection_count_seconds: Histogram,
    /// Latency of one update-many, in seconds.
    pub(crate) collection_update_seconds: Histogram,
    /// Live collections per store, with a high watermark.
    pub(crate) store_collections: Gauge,
    /// Distinct key sets (row shapes) live across all collections.
    pub(crate) shapes: Gauge,
}

/// The lazily-registered docstore metric set.
pub(crate) fn telemetry() -> &'static StoreTelemetry {
    static TELEMETRY: OnceLock<StoreTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| StoreTelemetry::register(Registry::global()))
}

impl StoreTelemetry {
    /// Registers every docstore series in `registry`.
    fn register(registry: &Registry) -> Self {
        let latency = Histogram::exponential_buckets(1e-7, 10.0, 9);
        StoreTelemetry {
            collection_insert: registry.counter(
                "docstore_collection_insert_total",
                "Documents inserted across all collections",
            ),
            collection_find: registry.counter(
                "docstore_collection_find_total",
                "Find queries executed across all collections",
            ),
            collection_count: registry.counter(
                "docstore_collection_count_total",
                "Count queries executed across all collections",
            ),
            collection_update: registry.counter(
                "docstore_collection_update_total",
                "Update-many operations across all collections",
            ),
            collection_delete: registry.counter(
                "docstore_collection_delete_total",
                "Delete-many operations across all collections",
            ),
            query_plan_full_scan: registry.counter_labeled(
                "docstore_query_plans_total",
                &[("plan", "full_scan")],
                "Queries by chosen plan",
            ),
            query_plan_index_eq: registry.counter_labeled(
                "docstore_query_plans_total",
                &[("plan", "index_eq")],
                "Queries by chosen plan",
            ),
            query_plan_index_range: registry.counter_labeled(
                "docstore_query_plans_total",
                &[("plan", "index_range")],
                "Queries by chosen plan",
            ),
            query_plan_index_intersect: registry.counter_labeled(
                "docstore_query_plans_total",
                &[("plan", "index_intersect")],
                "Queries by chosen plan",
            ),
            scan_blocks_visited: registry.counter(
                "docstore_scan_blocks_visited_total",
                "Blocks of 1024 ids that scans walked, full or beside an index",
            ),
            scan_blocks_skipped: registry.counter(
                "docstore_scan_blocks_skipped_total",
                "Blocks of 1024 ids that scans skipped on their summaries or columns",
            ),
            blocks_sealed: registry.gauge(
                "docstore_blocks_sealed",
                "Blocks of 1024 ids held as columns across all collections",
            ),
            blocks_unsealed: registry.counter(
                "docstore_blocks_unsealed_total",
                "Sealed blocks copied back into rows by an update or delete of one of their rows",
            ),
            collection_insert_seconds: registry.histogram(
                "docstore_collection_insert_seconds",
                "Latency of one insert call, one document or a batch (s)",
                &latency,
            ),
            collection_find_seconds: registry.histogram(
                "docstore_collection_find_seconds",
                "Latency of one find query (s)",
                &latency,
            ),
            collection_count_seconds: registry.histogram(
                "docstore_collection_count_seconds",
                "Latency of one count query (s)",
                &latency,
            ),
            collection_update_seconds: registry.histogram(
                "docstore_collection_update_seconds",
                "Latency of one update-many operation (s)",
                &latency,
            ),
            store_collections: registry.gauge(
                "docstore_store_collections",
                "Live collections across all stores",
            ),
            shapes: registry.gauge(
                "docstore_row_shapes",
                "Distinct document key sets (row shapes) live across all collections",
            ),
        }
    }

    /// Bumps the `docstore_query_plans_total` series for `kind`.
    pub(crate) fn record_plan(&self, kind: PlanKind) {
        match kind {
            PlanKind::FullScan => self.query_plan_full_scan.inc(),
            PlanKind::IndexEq => self.query_plan_index_eq.inc(),
            PlanKind::IndexRange => self.query_plan_index_range.inc(),
            PlanKind::IndexIntersect => self.query_plan_index_intersect.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_all_series_under_docstore_names() {
        let t = telemetry();
        t.collection_insert.add(0);
        let names = Registry::global().names();
        for name in [
            "docstore_collection_insert_total",
            "docstore_collection_find_total",
            "docstore_collection_count_total",
            "docstore_collection_update_total",
            "docstore_collection_delete_total",
            "docstore_scan_blocks_visited_total",
            "docstore_scan_blocks_skipped_total",
            "docstore_blocks_sealed",
            "docstore_blocks_unsealed_total",
            "docstore_collection_insert_seconds",
            "docstore_collection_find_seconds",
            "docstore_collection_count_seconds",
            "docstore_collection_update_seconds",
            "docstore_store_collections",
            "docstore_row_shapes",
        ] {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
    }

    #[test]
    fn plan_counters_register_one_series_per_label() {
        // A private registry: other tests plan queries into the global one.
        let registry = Registry::new();
        let t = StoreTelemetry::register(&registry);
        let before = registry
            .counter_value_labeled("docstore_query_plans_total", &[("plan", "index_eq")])
            .unwrap_or(0);
        t.record_plan(PlanKind::IndexEq);
        t.record_plan(PlanKind::FullScan);
        let after = registry
            .counter_value_labeled("docstore_query_plans_total", &[("plan", "index_eq")])
            .unwrap_or(0);
        assert_eq!(after, before + 1);
        for plan in ["full_scan", "index_eq", "index_range", "index_intersect"] {
            assert!(
                registry
                    .counter_value_labeled("docstore_query_plans_total", &[("plan", plan)])
                    .is_some(),
                "missing plan series {plan}"
            );
        }
    }
}
