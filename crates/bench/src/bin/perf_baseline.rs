//! Emits the machine-readable performance baseline (`BENCH_pipeline.json`).
//!
//! ```text
//! cargo run -p mps-bench --release --bin perf_baseline -- \
//!     [--quick] [--no-telemetry] [--out PATH]
//! ```
//!
//! `--quick` shrinks sample counts (CI `bench-smoke` uses it);
//! `--no-telemetry` measures with the WAL's registry mirrors off so
//! WAL-on vs WAL-off numbers are attributable to the log itself; `--out`
//! defaults to `BENCH_pipeline.json` in the current directory. The
//! printed summary shows the speedup of every optimized variant over its
//! naive reference; `docs/PERFORMANCE.md` documents the setups.

use mps_bench::baseline::{baseline_measurements, baseline_report, render_report, Measurement};
use std::collections::BTreeMap;

fn main() {
    let mut quick = false;
    let mut telemetry = true;
    let mut out_path = "BENCH_pipeline.json".to_owned();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--no-telemetry" => telemetry = false,
            "--out" => match argv.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_baseline [--quick] [--no-telemetry] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "measuring perf baseline ({} mode, telemetry {})...",
        if quick { "quick" } else { "full" },
        if telemetry { "on" } else { "off" },
    );
    let measurements = baseline_measurements(quick, telemetry);
    print_speedups(&measurements);

    let report = render_report(&baseline_report(&measurements));
    if let Some(parent) = std::path::Path::new(&out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        if let Err(err) = std::fs::create_dir_all(parent) {
            eprintln!("failed to create {}: {err}", parent.display());
            std::process::exit(1);
        }
    }
    if let Err(err) = std::fs::write(&out_path, report) {
        eprintln!("failed to write {out_path}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}

/// Prints `optimized vs reference` speedups per bench family and size.
fn print_speedups(measurements: &[Measurement]) {
    let reference_variant = |bench: &str| match bench {
        "broker_routing" => "naive_scan",
        "blue_analysis" => "global",
        "wal_append" => "per_record",
        "net_round_trip" => "tcp",
        "batched_ingest" | "batched_ingest_fsyncs_per_obs" => "per_message",
        _ => "full_scan",
    };
    let mut by_key: BTreeMap<(&str, usize), BTreeMap<&str, f64>> = BTreeMap::new();
    for m in measurements {
        by_key
            .entry((m.bench, m.size))
            .or_default()
            .insert(m.variant, m.median_ns_per_op);
    }
    for ((bench, size), variants) in &by_key {
        let reference = variants.get(reference_variant(bench));
        for (variant, ns) in variants {
            let speedup = match reference {
                Some(reference_ns) if *variant != reference_variant(bench) && *ns > 0.0 => {
                    format!("  ({:.1}x vs reference)", reference_ns / ns)
                }
                _ => String::new(),
            };
            println!("{bench:>22} size {size:>6} {variant:>10}: {ns:>14.0} ns/op{speedup}");
        }
    }
}
