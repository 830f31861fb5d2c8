//! CLI entry point: `cargo run -p xtask -- <lint|wal-inspect|obs> [options]`.

#![expect(clippy::print_stdout, reason = "a CLI's job is to print")]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p xtask -- lint [options]
       cargo run -p xtask -- wal-inspect <log-dir>
       cargo run -p xtask --features obs -- obs <name=host:port>... [options]

lint: runs mps-lint, the workspace invariant checker (L005, L007, L008).

options:
  --report <path>       also write the full report to <path>
  --root <path>         workspace root (default: current directory)
  -h, --help            this message

wal-inspect: dumps and validates an mps-wal log directory without
modifying it (torn tails are reported, not truncated).

obs: scrapes the admin opcodes of every listed daemon and prints the
fleet dashboard (merged metrics, stitched traces, loss attribution,
slow RPCs, SLO burn). Needs the non-default `obs` cargo feature.

obs options:
  --slo-p99-ms <ms>     declared server RPC p99 budget (default 50)
  --drain               clear each instance's flight recorder after export
  --merged-metrics <p>  also write the instance-labelled merged scrape to <p>
  --spans <path>        also write the merged span export (JSONL) to <p>

exit status: 0 clean/healthy, 1 findings/unhealthy, 2 usage or config error
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage_error("a command is needed");
    };
    if command == "-h" || command == "--help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if command == "wal-inspect" {
        return wal_inspect(args.collect());
    }
    if command == "obs" {
        return obs(args.collect());
    }
    if command != "lint" {
        return usage_error(&format!("unknown command `{command}`"));
    }

    let mut report_path: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => match args.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => return usage_error("--report needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root needs a path"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let outcome = match xtask::run_lint(&root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("mps-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.report);
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &outcome.report) {
            eprintln!("mps-lint: cannot write report to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if outcome.error_count > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints `message` and the usage to stderr; exit status 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// `obs <name=addr>...`: scrape the fleet and print the ops dashboard.
#[cfg(feature = "obs")]
fn obs(args: Vec<String>) -> ExitCode {
    use mps_net::client::ClientConfig;
    use mps_net::fleet::{Endpoint, FleetSnapshot};

    let mut endpoints: Vec<Endpoint> = Vec::new();
    let mut slo_p99_ms = 50.0f64;
    let mut drain = false;
    let mut merged_metrics_path: Option<PathBuf> = None;
    let mut spans_path: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--drain" => drain = true,
            "--slo-p99-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => slo_p99_ms = ms,
                None => return usage_error("--slo-p99-ms needs a number"),
            },
            "--merged-metrics" => match it.next() {
                Some(p) => merged_metrics_path = Some(PathBuf::from(p)),
                None => return usage_error("--merged-metrics needs a path"),
            },
            "--spans" => match it.next() {
                Some(p) => spans_path = Some(PathBuf::from(p)),
                None => return usage_error("--spans needs a path"),
            },
            spec => match Endpoint::parse(spec) {
                Ok(endpoint) => endpoints.push(endpoint),
                Err(e) => return usage_error(&e.to_string()),
            },
        }
    }
    if endpoints.is_empty() {
        return usage_error("obs needs at least one name=host:port endpoint");
    }

    let snapshot = FleetSnapshot::scrape(&endpoints, &ClientConfig::default(), drain);
    print!("{}", snapshot.render_dashboard(slo_p99_ms));
    if let Some(path) = merged_metrics_path {
        if let Err(e) = std::fs::write(&path, snapshot.merged_metrics()) {
            eprintln!(
                "obs: cannot write merged metrics to {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }
    if let Some(path) = spans_path {
        let mut jsonl = String::new();
        for span in snapshot.merged_spans() {
            jsonl.push_str(&span.to_jsonl());
            jsonl.push('\n');
        }
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("obs: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let healthy = snapshot
        .instances
        .iter()
        .all(|i| i.error.is_none() && i.ready());
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Without the `obs` cargo feature the command only explains how to get
/// it — the default build must stay buildable from the lint-path crates
/// alone.
#[cfg(not(feature = "obs"))]
fn obs(_args: Vec<String>) -> ExitCode {
    eprintln!(
        "the `obs` dashboard is feature-gated; rebuild with:\n\
         \n    cargo run -p xtask --features obs -- obs <name=host:port>...\n"
    );
    ExitCode::from(2)
}

/// `wal-inspect <log-dir>`: read-only dump + health verdict of a log.
fn wal_inspect(args: Vec<String>) -> ExitCode {
    let path = match args.as_slice() {
        [p] if p != "-h" && p != "--help" => PathBuf::from(p),
        [p] if p == "-h" || p == "--help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => return usage_error("wal-inspect needs exactly one log directory"),
    };
    let report = match mps_wal::inspect(&path) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("wal-inspect: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    println!("log directory: {}", path.display());
    for seg in &report.segments {
        println!(
            "segment {} start-lsn {} records {} bytes {} ({} valid){}",
            seg.path.display(),
            seg.start_lsn,
            seg.records,
            seg.bytes,
            seg.valid_bytes,
            if seg.torn { " TORN" } else { "" },
        );
    }
    for snap in &report.snapshots {
        println!(
            "snapshot {} covers-lsn {} bytes {}{}",
            snap.path.display(),
            snap.lsn,
            snap.bytes,
            if snap.valid { "" } else { " INVALID" },
        );
    }
    for tmp in &report.orphan_tmp {
        println!("orphan temp file {}", tmp.display());
    }
    println!(
        "total {} valid records across {} segment(s), {} snapshot(s)",
        report.total_records(),
        report.segments.len(),
        report.snapshots.len(),
    );
    if report.healthy() {
        println!("verdict: healthy (a torn tail, if any, is recoverable)");
        ExitCode::SUCCESS
    } else {
        println!("verdict: UNHEALTHY (torn mid-log segment or invalid snapshot)");
        ExitCode::FAILURE
    }
}
