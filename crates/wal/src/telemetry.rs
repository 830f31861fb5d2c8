//! The WAL's handles into the process-wide telemetry registry.
//!
//! Series follow the workspace convention and register lazily in
//! [`Registry::global`]. Instances opened with
//! [`WalConfig::telemetry`] set to `false` (by `perf_baseline
//! --no-telemetry`, `recovery_matrix` and the tests) skip these mirrors
//! entirely.
//!
//! [`WalConfig::telemetry`]: crate::WalConfig

use mps_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::OnceLock;

/// Shared WAL metric handles.
pub(crate) struct WalTelemetry {
    /// Records appended (one per payload, not per batch).
    pub(crate) appends: Counter,
    /// Bytes written to segment files, framing included.
    pub(crate) bytes_written: Counter,
    /// Successful recovery scans (one per `Wal::open`).
    pub(crate) recoveries: Counter,
    /// Recoveries that truncated a torn tail off the last segment.
    pub(crate) torn_tail_truncations: Counter,
    /// Durability barriers issued on the append path (one per group
    /// commit) — the denominator the batching benches divide stored
    /// observations by.
    pub(crate) fsyncs: Counter,
    /// Snapshots committed, and the bytes written to their files,
    /// framing included. Kept apart from `bytes_written`: snapshot bytes
    /// over log bytes is the write amplification of the cadence.
    pub(crate) snapshots: Counter,
    pub(crate) snapshot_bytes_written: Counter,
    /// Dead records committed snapshots dropped: what a reopen would
    /// have read beyond what the snapshot holds. Snapshot bytes over
    /// this is what the cadence pays per record it reclaims.
    pub(crate) records_reclaimed: Counter,
    /// Snapshots a journal could not write, automatic or requested (an
    /// automatic one's failure reports itself nowhere else).
    pub(crate) snapshot_failures: Counter,
    /// Duration of one journal snapshot — export, write + fsync,
    /// compaction — which is how long its writers wait, in seconds.
    pub(crate) snapshot_seconds: Histogram,
    /// Segment files (closed + active) across live `Wal` instances —
    /// each instance contributes deltas and withdraws them on drop, so
    /// the readiness probe sees compaction keeping the count bounded.
    pub(crate) open_segments: Gauge,
}

/// The lazily-registered WAL metric set.
pub(crate) fn telemetry() -> &'static WalTelemetry {
    static TELEMETRY: OnceLock<WalTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let registry = Registry::global();
        WalTelemetry {
            appends: registry.counter("wal_appends_total", "Records appended to the log"),
            bytes_written: registry.counter(
                "wal_bytes_written_total",
                "Bytes written to segment files, framing included",
            ),
            recoveries: registry.counter(
                "wal_recoveries_total",
                "Recovery scans completed by Wal::open",
            ),
            torn_tail_truncations: registry.counter(
                "wal_torn_tail_truncations_total",
                "Recoveries that truncated a torn tail off the last segment",
            ),
            fsyncs: registry.counter(
                "wal_fsyncs_total",
                "Group-commit durability barriers issued on the append path",
            ),
            snapshots: registry.counter("wal_snapshots_total", "Snapshots committed"),
            snapshot_bytes_written: registry.counter(
                "wal_snapshot_bytes_written_total",
                "Bytes written to committed snapshot files, framing included",
            ),
            records_reclaimed: registry.counter(
                "wal_records_reclaimed_total",
                "Dead records dropped by committed snapshots",
            ),
            snapshot_failures: registry.counter(
                "wal_snapshot_failures_total",
                "Journal snapshots that failed, automatic or requested",
            ),
            snapshot_seconds: registry.histogram(
                "wal_snapshot_seconds",
                "Duration of one journal snapshot: export, write + fsync, compaction; writers wait (s)",
                &Histogram::exponential_buckets(1e-4, 4.0, 9),
            ),
            open_segments: registry.gauge(
                "wal_open_segments",
                "Segment files (closed + active) across live WAL instances",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_all_series_under_wal_names() {
        let t = telemetry();
        t.appends.add(0);
        let names = Registry::global().names();
        t.open_segments.add(0);
        for name in [
            "wal_appends_total",
            "wal_bytes_written_total",
            "wal_recoveries_total",
            "wal_torn_tail_truncations_total",
            "wal_fsyncs_total",
            "wal_snapshots_total",
            "wal_snapshot_bytes_written_total",
            "wal_records_reclaimed_total",
            "wal_snapshot_failures_total",
            "wal_snapshot_seconds",
            "wal_open_segments",
        ] {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
        let _ = (
            &t.bytes_written,
            &t.recoveries,
            &t.torn_tail_truncations,
            &t.fsyncs,
            &t.snapshots,
            &t.snapshot_bytes_written,
            &t.records_reclaimed,
            &t.snapshot_failures,
            &t.snapshot_seconds,
        );
    }
}
