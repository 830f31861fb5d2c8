//! Assimilation-engine handles into the process-wide telemetry registry.
//!
//! Series follow the workspace convention `<crate>_<subsystem>_<metric>`
//! and register lazily in [`Registry::global`] so the analysis passes
//! appear in the pipeline-wide health report next to messaging, ingest
//! and storage.

use mps_telemetry::{Counter, Histogram, Registry};
use std::sync::OnceLock;

/// Shared assimilation metric handles.
pub(crate) struct AssimTelemetry {
    /// BLUE analysis passes that produced a corrected field.
    pub(crate) blue_passes: Counter,
    /// Observations merged into analyses across all BLUE passes.
    pub(crate) blue_observations_merged: Counter,
    /// BLUE passes that ran with observation-space localization.
    pub(crate) blue_localized_passes: Counter,
    /// Per-tile innovation solves across all localized BLUE passes.
    pub(crate) blue_tile_solves: Counter,
    /// Wall-clock duration of one BLUE pass, in seconds.
    pub(crate) blue_pass_seconds: Histogram,
    /// Diurnal (hourly or static) assimilation runs.
    pub(crate) hourly_runs: Counter,
    /// Wall-clock duration of one diurnal run, in seconds.
    pub(crate) hourly_run_seconds: Histogram,
    /// Forward-model passes: a day of backgrounds computed for a
    /// simulator and grid shape.
    pub(crate) forward_passes: Counter,
}

/// The lazily-registered assimilation metric set.
pub(crate) fn telemetry() -> &'static AssimTelemetry {
    static TELEMETRY: OnceLock<AssimTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let registry = Registry::global();
        AssimTelemetry {
            blue_passes: registry.counter(
                "assim_blue_passes_total",
                "BLUE analysis passes that produced a corrected field",
            ),
            blue_observations_merged: registry.counter(
                "assim_blue_observations_merged_total",
                "Observations merged into analyses across all BLUE passes",
            ),
            blue_localized_passes: registry.counter(
                "assim_blue_localized_passes_total",
                "BLUE passes that ran with observation-space localization",
            ),
            blue_tile_solves: registry.counter(
                "assim_blue_tile_solves_total",
                "Per-tile innovation solves across localized BLUE passes",
            ),
            blue_pass_seconds: registry.histogram(
                "assim_blue_pass_seconds",
                "Wall-clock duration of one BLUE analysis pass (s)",
                // 50 µs (one observation, a small grid) to 6.6 s, a
                // bucket per doubling: a pass that gets twice as fast
                // moves to the next bucket.
                &Histogram::exponential_buckets(5e-5, 2.0, 18),
            ),
            hourly_runs: registry.counter(
                "assim_hourly_runs_total",
                "Diurnal (hourly or static) assimilation runs",
            ),
            hourly_run_seconds: registry.histogram(
                "assim_hourly_run_seconds",
                "Wall-clock duration of one diurnal assimilation run (s)",
                // 1 ms to 33 s, a bucket per doubling.
                &Histogram::exponential_buckets(1e-3, 2.0, 16),
            ),
            forward_passes: registry.counter(
                "assim_forward_passes_total",
                "Forward-model passes: a day of backgrounds computed for a simulator and grid shape",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_all_series_under_assim_names() {
        let t = telemetry();
        t.blue_passes.add(0);
        let names = Registry::global().names();
        for name in [
            "assim_blue_passes_total",
            "assim_blue_observations_merged_total",
            "assim_blue_localized_passes_total",
            "assim_blue_tile_solves_total",
            "assim_blue_pass_seconds",
            "assim_hourly_runs_total",
            "assim_hourly_run_seconds",
            "assim_forward_passes_total",
        ] {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
    }
}
