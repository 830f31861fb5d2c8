//! The repository benchmark.
//!
//! ```text
//! benchmark/run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--repeat N] [--check] [--out DIR]
//! ```
//!
//! Runs the named workload (all four when none is named) against the
//! product crates' public functions, checks their outputs, and prints
//! every metric by name with its unit. The last line of each workload's
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Without `--trace` the metrics are the end-to-end ones; with it, the
//! per-layer ones from the traced pass, and the spans go to
//! `DIR/trace-<workload>.jsonl`. See README.md for the workloads, the
//! metrics and what each is expected to move.

mod adapter;
mod gen;
mod metrics;
mod probes;
mod query;
mod stats;
mod trace;
mod workloads;

use metrics::{Better, Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Ctx;

const WORKLOADS: [&str; 4] = [
    "ingest_mem",
    "ingest_durable",
    "query_mix",
    "analysis_batch",
];

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    check: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 15,
        trace: false,
        repeat: 1,
        check: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workloads =
                    vec![*known.ok_or(format!("unknown workload `{name}`; one of {WORKLOADS:?}"))?];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--check" => args.check = true,
            // `--trace` alone turns tracing on; `--trace 0` / `--trace 1` say which.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                argv.next();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".to_owned());
    }
    if args.check && args.repeat < 2 {
        return Err("--check compares sets of runs: use it with --repeat 2".to_owned());
    }
    Ok(args)
}

/// Runs one workload once and returns what it measured.
fn run_workload(name: &str, args: &Args) -> Report {
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    let mut ctx = Ctx {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        trace: args.trace,
        scratch: scratch.clone(),
        tracer: trace::Tracer::new(Instant::now()),
        report: Report::default(),
    };
    match name {
        "ingest_mem" => workloads::ingest::run(&mut ctx, false),
        "ingest_durable" => workloads::ingest::run(&mut ctx, true),
        "query_mix" => workloads::query_mix::run(&mut ctx),
        "analysis_batch" => workloads::analysis_batch::run(&mut ctx),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
    ctx.report.set("peak_rss_mb", stats::peak_rss_mib());
    if args.trace {
        let path = args.out.join(format!("trace-{name}.jsonl"));
        if let Err(why) = ctx.tracer.write_jsonl(&path) {
            ctx.report
                .check(Err(format!("write {}: {why}", path.display())));
        }
    }
    // The scratch directory may not exist (in-memory workloads).
    let _ = std::fs::remove_dir_all(&scratch);
    ctx.report
}

/// Prints the metrics of one run, one per line, then the result object.
/// Returns whether the run was correct.
fn print_report(name: &str, args: &Args, report: &Report) -> bool {
    let defs: Vec<_> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(def, _)| *def).collect()
    };
    let mut failed = report.failed;
    let mut fields = Vec::with_capacity(defs.len());
    println!(
        "# {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for def in defs {
        // A per-layer metric of a layer this workload does not run reads
        // 0; an end-to-end metric must have been measured.
        let value = match report.get(def.name) {
            Some(value) if value.is_finite() => value,
            None if args.trace => 0.0,
            _ => {
                failed += 1;
                eprintln!("{name}: metric {} was not measured", def.name);
                0.0
            }
        };
        println!("{:<36} {value:>16.4} {}", def.name, def.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    for why in &report.failures {
        eprintln!("{name}: FAILED {why}");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        fields.join(", ")
    );
    correct
}

/// What a child run reported on its last line.
struct Outcome {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a process of its own and passes its output on.
/// Workloads must not share a process: peak memory is per process, and the
/// heap one workload leaves behind slows the next (`ingest_mem` ran 20 %
/// slower after `query_mix` in the same process).
fn run_child(workload: &str, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result: serde_json::Value = stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str(line).ok())
        .ok_or(format!("{workload} printed no result"))?;
    let metrics = result["metrics"]
        .as_object()
        .ok_or(format!("{workload}: result without metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
        .collect();
    Ok(Outcome {
        correct: output.status.success() && result["correct"].as_bool() == Some(true),
        metrics,
    })
}

/// Compares two runs of one workload: no end-to-end metric's second value
/// may be worse than its first by more than its bound.
fn check_sets(workload: &str, first: &Outcome, second: &Outcome) -> bool {
    let mut steady = true;
    for (def, bound) in END_TO_END {
        let (Some(first), Some(second)) =
            (first.metrics.get(def.name), second.metrics.get(def.name))
        else {
            continue;
        };
        let worse_by = match def.better {
            Better::Lower => second / first - 1.0,
            Better::Higher => first / second - 1.0,
        };
        let verdict = if worse_by > *bound { "WORSE" } else { "ok" };
        println!(
            "check {workload:<16} {:<14} {first:>14.4} {second:>14.4} {:>+7.2}% (bound {:.0}%) {verdict}",
            def.name,
            worse_by * 100.0,
            bound * 100.0
        );
        steady &= worse_by <= *bound;
    }
    steady
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("mps-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if let Err(why) = std::fs::create_dir_all(&args.out) {
        eprintln!("mps-benchmark: {}: {why}", args.out.display());
        return ExitCode::from(2);
    }
    // One run of one workload happens here; anything more is one child
    // process per run, one set (every workload once) after another.
    if let ([workload], 1) = (&args.workloads[..], args.repeat) {
        let report = run_workload(workload, &args);
        return if print_report(workload, &args, &report) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut sets: Vec<Vec<Outcome>> = Vec::with_capacity(args.repeat);
    for _ in 0..args.repeat {
        let set: Result<Vec<Outcome>, String> = args
            .workloads
            .iter()
            .map(|workload| run_child(workload, &args))
            .collect();
        match set {
            Ok(set) => sets.push(set),
            Err(why) => {
                eprintln!("mps-benchmark: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut good = sets.iter().flatten().all(|outcome| outcome.correct);
    if args.check {
        for (i, workload) in args.workloads.iter().enumerate() {
            good &= check_sets(workload, &sets[0][i], &sets[1][i]);
        }
    }
    if good {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
