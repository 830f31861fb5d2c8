//! # mps-bench — benchmark harness and figure regeneration
//!
//! Two kinds of targets live here:
//!
//! * the **`figures` binary** (`cargo run -p mps-bench --bin figures --
//!   all`) regenerates every table and figure of the paper's evaluation
//!   (Figures 4 and 8–21) from a deployment replay, printing the measured
//!   series next to the published values;
//! * the **`perf_baseline` and `recovery_matrix` binaries** time the
//!   substrates (routing, ingest, WAL append, BLUE, the network boundary)
//!   into `BENCH_pipeline.json` and drive the crash-kill matrix.
//!
//! This library crate only hosts shared helpers for those targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;

use mps_core::{Dataset, Deployment, ExperimentConfig};

/// Runs the replay used by the figure harness. `quick` selects the light
/// two-month configuration; otherwise the 10-month, 1/100-scale
/// paper-shaped replay runs (use `--release`).
pub fn figure_dataset(quick: bool) -> Dataset {
    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper_scaled()
    };
    Deployment::new(config).run()
}

/// A longitudinal replay covering all three app versions with several
/// devices per model — used by the per-user and delay figures.
pub fn longitudinal_dataset() -> Dataset {
    let config = ExperimentConfig::quick()
        .with_months(10)
        .with_scale(0.05)
        .with_models(vec![
            mps_types::DeviceModel::OneplusA0001,
            mps_types::DeviceModel::SamsungSmG901f,
        ]);
    Deployment::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dataset_is_nonempty() {
        let ds = figure_dataset(true);
        assert!(ds.stored() > 1_000);
    }
}
