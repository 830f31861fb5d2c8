//! Empty stand-in for `loom`.
//!
//! `mps-telemetry` declares `loom` under `[target.'cfg(loom)'.dependencies]`.
//! Cargo resolves that entry even though the benchmark never builds with
//! `--cfg loom`, so an offline lock file needs a package by this name.
