//! GoFlow's handles into the process-wide telemetry registry.
//!
//! Metric names follow the workspace convention
//! `<crate>_<subsystem>_<metric>`; everything registers lazily in
//! [`Registry::global`] so any layer (or the bench harness) can render a
//! combined health report.

use mps_telemetry::{Counter, Histogram, Registry};
use std::sync::OnceLock;

/// Shared GoFlow metric handles.
pub(crate) struct GoFlowTelemetry {
    /// Observations decoded and stored by ingest.
    pub(crate) ingest_stored: Counter,
    /// Messages ingest could not decode.
    pub(crate) ingest_malformed: Counter,
    /// Quarantined documents that exceeded the late-data threshold
    /// (`goflow_ingest_quarantined_total{reason="late"}`).
    pub(crate) ingest_quarantined_late: Counter,
    /// Quarantined observations captured after they arrived
    /// (`goflow_ingest_quarantined_total{reason="future"}`).
    pub(crate) ingest_quarantined_future: Counter,
    /// Quarantined documents that could not be decoded
    /// (`goflow_ingest_quarantined_total{reason="malformed"}`).
    pub(crate) ingest_quarantined_malformed: Counter,
    /// Storage failures that sent a message back for redelivery.
    pub(crate) ingest_storage_failures: Counter,
    /// Drain passes that attempted a batched (group-committed) store.
    pub(crate) ingest_batches: Counter,
    /// Drain passes that fell back to per-message storage after a batch
    /// insert failed.
    pub(crate) ingest_batch_fallbacks: Counter,
    /// End-to-end capture-to-storage delay, in milliseconds.
    pub(crate) ingest_delivery_delay_ms: Histogram,
    /// Broker-queue residence of traced messages (publish to ingest), in
    /// sim-time milliseconds.
    pub(crate) ingest_broker_wait_ms: Histogram,
    /// Wall-clock duration of one queue drain, in seconds.
    pub(crate) ingest_drain_seconds: Histogram,
    /// Ingest passes run by the server facade.
    pub(crate) server_ingest_passes: Counter,
    /// Queries answered by the server facade.
    pub(crate) server_queries: Counter,
    /// Background jobs that completed.
    pub(crate) jobs_completed: Counter,
    /// Background jobs that failed.
    pub(crate) jobs_failed: Counter,
    /// Wall-clock duration of one job script run, in seconds.
    pub(crate) jobs_run_seconds: Histogram,
}

/// The lazily-registered GoFlow metric set.
pub(crate) fn telemetry() -> &'static GoFlowTelemetry {
    static TELEMETRY: OnceLock<GoFlowTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let registry = Registry::global();
        let quarantined = |reason| {
            let help = "Documents parked in a quarantine collection, by reason";
            registry.counter_labeled(
                "goflow_ingest_quarantined_total",
                &[("reason", reason)],
                help,
            )
        };
        GoFlowTelemetry {
            ingest_stored: registry.counter(
                "goflow_ingest_stored_total",
                "Observations decoded and stored",
            ),
            ingest_malformed: registry.counter(
                "goflow_ingest_malformed_total",
                "Messages ingest could not decode",
            ),
            ingest_quarantined_late: quarantined("late"),
            ingest_quarantined_future: quarantined("future"),
            ingest_quarantined_malformed: quarantined("malformed"),
            ingest_storage_failures: registry.counter(
                "goflow_ingest_storage_failures_total",
                "Storage failures that sent a message back for redelivery",
            ),
            ingest_batches: registry.counter(
                "goflow_ingest_batches_total",
                "Drain passes that attempted a batched store",
            ),
            ingest_batch_fallbacks: registry.counter(
                "goflow_ingest_batch_fallbacks_total",
                "Drain passes that fell back to per-message storage",
            ),
            ingest_delivery_delay_ms: registry.histogram(
                "goflow_ingest_delivery_delay_ms",
                "Capture-to-storage delay of stored observations (ms)",
                &Histogram::exponential_buckets(10.0, 4.0, 12),
            ),
            ingest_broker_wait_ms: registry.histogram(
                "goflow_ingest_broker_wait_ms",
                "Broker-queue residence of traced messages, publish to ingest (sim ms)",
                &Histogram::exponential_buckets(1.0, 4.0, 12),
            ),
            ingest_drain_seconds: registry.histogram(
                "goflow_ingest_drain_seconds",
                "Wall-clock duration of one GF queue drain (s)",
                &Histogram::exponential_buckets(1e-6, 10.0, 9),
            ),
            server_ingest_passes: registry.counter(
                "goflow_server_ingest_passes_total",
                "Ingest passes run by the GoFlow server",
            ),
            server_queries: registry.counter(
                "goflow_server_queries_total",
                "Observation queries answered by the GoFlow server",
            ),
            jobs_completed: registry.counter(
                "goflow_jobs_completed_total",
                "Background jobs that completed",
            ),
            jobs_failed: registry
                .counter("goflow_jobs_failed_total", "Background jobs that failed"),
            jobs_run_seconds: registry.histogram(
                "goflow_jobs_run_seconds",
                "Wall-clock duration of one background job run (s)",
                &Histogram::exponential_buckets(1e-6, 10.0, 9),
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_all_series_under_goflow_names() {
        let t = telemetry();
        t.ingest_stored.add(0);
        let names = Registry::global().names();
        for name in [
            "goflow_ingest_stored_total",
            "goflow_ingest_malformed_total",
            "goflow_ingest_quarantined_total",
            "goflow_ingest_storage_failures_total",
            "goflow_ingest_batches_total",
            "goflow_ingest_batch_fallbacks_total",
            "goflow_ingest_delivery_delay_ms",
            "goflow_ingest_broker_wait_ms",
            "goflow_ingest_drain_seconds",
            "goflow_server_ingest_passes_total",
            "goflow_server_queries_total",
            "goflow_jobs_completed_total",
            "goflow_jobs_failed_total",
            "goflow_jobs_run_seconds",
        ] {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
    }

    #[test]
    fn quarantine_reasons_are_labeled_children_of_one_family() {
        let t = telemetry();
        t.ingest_quarantined_late.inc();
        t.ingest_quarantined_malformed.inc();
        let text = Registry::global().render_text();
        assert!(text.contains("goflow_ingest_quarantined_total{reason=\"late\"}"));
        assert!(text.contains("goflow_ingest_quarantined_total{reason=\"malformed\"}"));
        let total = Registry::global()
            .counter_value("goflow_ingest_quarantined_total")
            .expect("family registered");
        assert!(total >= 2, "family total sums labeled children");
    }
}
