//! `ingest_mem` and `ingest_durable`: the write path, bytes in to stored.
//!
//! One thread, closed loop. A repetition opens a fresh store with
//! GoFlow's three indexes and feeds it the same generated documents in
//! batches of 16: parse each from bytes (`types`), then one `insert_many`
//! (`docstore`, and below it `wal` when the store is durable).
//!
//! In memory, parsing and index maintenance do all the work. Durable, the
//! journal (delta encoding, log append) and the periodic full-state
//! snapshot dominate, so a JSON or index win must not move that workload.
//! The log's per-batch fsync is off there; `Docs::open_durable` says why.

use super::{Ctx, BATCH, TIMED};
use crate::adapter::{self, Docs};
use crate::gen::{self, SplitMix64, MS_PER_DAY};
use crate::metrics::ensure;
use crate::trace::{mean_ns, total_s};
use crate::{probes, stats};
use std::path::Path;
use std::time::{Duration, Instant};

/// Documents per repetition, in memory: about 0.5 s of work.
pub const MEM_DOCS: usize = 100_000;
/// Documents per repetition, durable: three automatic snapshots (every
/// 4096 logged records) of a store that grows to 12 288 documents, in
/// about half a second, so a run has twenty repetitions to choose from.
pub const DURABLE_DOCS: usize = 3 * 4_096;
/// Milliseconds between generated arrivals (20 000 a day).
const STEP_MS: i64 = 4_320;

/// What one repetition measured.
struct Rep {
    traced: bool,
    /// The timed region: every batch from bytes to stored.
    timed: Duration,
    batch_ms: Vec<f64>,
    recovery_s: f64,
    export_ms: f64,
    wal_bytes: u64,
}

pub fn run(ctx: &mut Ctx, durable: bool) {
    let vocab = adapter::vocabulary();
    let docs = if durable { DURABLE_DOCS } else { MEM_DOCS };
    let scratch = ctx.scratch.join("ingest");
    let store_dir = durable.then(|| scratch.join("store"));

    let payloads = ctx.set_up(|ctx| {
        let mut rng = SplitMix64::new(ctx.seed);
        let rows = gen::rows(&mut rng, &vocab, docs, MS_PER_DAY, STEP_MS, gen::random_spl);
        let payloads = gen::documents(&rows, &vocab);
        // Warm-up: the first repetition runs slow (page faults, cold
        // caches) and is discarded.
        let _ = repetition(ctx, &payloads, store_dir.as_deref(), 0, false);
        payloads
    });

    let mut reps = Vec::new();
    let started = Instant::now();
    while started.elapsed() < ctx.measure || reps.len() < 2 {
        let traced = ctx.traced_rep(reps.len());
        match repetition(
            ctx,
            &payloads,
            store_dir.as_deref(),
            reps.len() as u64 + 1,
            traced,
        ) {
            Some(rep) => reps.push(rep),
            None => break, // the failure is already in the report
        }
    }

    // Each metric per repetition, then the fastest decile of repetitions
    // (see `stats::fastest` for why not their median).
    let of = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let seconds = of(|r| r.timed.as_secs_f64());
    ctx.report
        .set("items_per_s", docs as f64 / stats::fastest(&seconds));
    ctx.report.set(
        "op_ms_p50",
        stats::fastest(&of(|r| stats::median(&r.batch_ms))),
    );

    if ctx.trace {
        let seconds_where = |traced| -> Vec<f64> {
            let kind = reps.iter().filter(|r| r.traced == traced);
            kind.map(|r| r.timed.as_secs_f64()).collect()
        };
        ctx.report_trace_overhead(&seconds_where(false), &seconds_where(true));
        let traced_wall = reps.iter().filter(|r| r.traced).map(|r| r.timed).sum();
        ctx.report_layer_shares(traced_wall);

        let times = ctx.tracer.self_times(TIMED);
        let insert_span = insert_span(durable);
        let traced_docs = times.get("types.doc_parse").map_or(0, |t| t.1) as f64 * BATCH as f64;
        if traced_docs > 0.0 {
            let parse_ns = total_s(&times, "types.doc_parse") * 1e9 / traced_docs;
            ctx.report.set("types.doc_parse_ns", parse_ns);
            ctx.report.set(
                "docstore.store_obs_per_s",
                traced_docs / total_s(&times, insert_span),
            );
        }
        let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
        ctx.report
            .set("types.payload_bytes", payload_bytes as f64 / docs as f64);
        let p99 = stats::fastest(&of(|r| stats::percentile(&r.batch_ms, 99.0)));
        ctx.report.set("docstore.batch_ms_p99", p99);
        let per_batch_ns = mean_ns(&times, insert_span);
        if let Some(store_dir) = &store_dir {
            ctx.report
                .set("docstore.durable_insert_us", per_batch_ns / 1e3);
            ctx.report
                .set("docstore.recovery_s", stats::median(&of(|r| r.recovery_s)));
            ctx.report.set(
                "docstore.export_json_ms",
                stats::median(&of(|r| r.export_ms)),
            );
            ctx.report.set(
                "wal.stall_ms_max",
                stats::median(&of(|r| stats::max(&r.batch_ms))),
            );
            ctx.report.set(
                "wal.bytes_per_obs",
                stats::median(&of(|r| r.wal_bytes as f64)) / docs as f64,
            );
            probes::durable_path(ctx, &payloads, &scratch, store_dir, per_batch_ns / 1e3);
        } else {
            ctx.report
                .set("docstore.insert_ns_indexed", per_batch_ns / BATCH as f64);
            probes::memory_path(ctx, &payloads);
            probes::telemetry(ctx);
        }
    }
}

fn insert_span(durable: bool) -> &'static str {
    if durable {
        "docstore.durable_insert"
    } else {
        "docstore.insert_many"
    }
}

/// A fresh store with GoFlow's indexes: in memory, or durable in `dir`
/// (emptied first).
fn open(dir: Option<&Path>) -> Result<Docs, String> {
    let store = match dir {
        Some(dir) => {
            if dir.exists() {
                std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            Docs::open_durable(dir)?
        }
        None => Docs::open_mem(),
    };
    store.create_indexes(&adapter::GOFLOW_INDEXES)?;
    Ok(store)
}

fn repetition(
    ctx: &mut Ctx,
    payloads: &[Vec<u8>],
    dir: Option<&Path>,
    rep_no: u64,
    traced: bool,
) -> Option<Rep> {
    let store = match open(dir) {
        Ok(store) => store,
        Err(why) => {
            ctx.report.check(Err(format!("open store: {why}")));
            return None;
        }
    };
    let insert_span = insert_span(dir.is_some());
    let wal_before = adapter::counter("wal_bytes_written_total");
    let mut batch_ms = Vec::with_capacity(payloads.len() / BATCH + 1);

    ctx.tracer.on = traced;
    let started = Instant::now();
    ctx.tracer.span(TIMED, rep_no, |tracer| {
        for (b, chunk) in payloads.chunks(BATCH).enumerate() {
            let op = rep_no << 32 | b as u64;
            let batch_started = Instant::now();
            let parsed: Result<Vec<_>, String> = tracer.span("types.doc_parse", op, |_| {
                chunk.iter().map(|p| adapter::doc_from_bytes(p)).collect()
            });
            let stored =
                parsed.and_then(|docs| tracer.span(insert_span, op, |_| store.insert_many(docs)));
            batch_ms.push(stats::ms(batch_started.elapsed()));
            ctx.report.check(stored.and_then(|n| {
                ensure(n == chunk.len(), || {
                    format!("batch {b}: {n} ids for {} documents", chunk.len())
                })
            }));
        }
    });
    let timed = started.elapsed();
    let wal_after = adapter::counter("wal_bytes_written_total");

    // Output checks, outside the timed region.
    let stored = store.len();
    ctx.report.check(ensure(stored == payloads.len(), || {
        format!("{stored} documents stored, {} inserted", payloads.len())
    }));
    let (mut recovery_s, mut export_ms) = (0.0, 0.0);
    if let Some(dir) = dir {
        let outcome = ctx.tracer.span("bench.check", rep_no, |tracer| {
            let export_started = Instant::now();
            let before = tracer.span("docstore.export_json", rep_no, |_| store.export_json());
            export_ms = stats::ms(export_started.elapsed());
            drop(store);
            let reopen_started = Instant::now();
            let reopened =
                tracer.span("docstore.open_durable", rep_no, |_| Docs::open_durable(dir))?;
            recovery_s = reopen_started.elapsed().as_secs_f64();
            ensure(reopened.export_json() == before, || {
                "reopened store exports different JSON".to_owned()
            })
        });
        ctx.report.check(outcome);
    }
    ctx.tracer.on = false;

    Some(Rep {
        traced,
        timed,
        batch_ms,
        recovery_s,
        export_ms,
        wal_bytes: wal_after - wal_before,
    })
}
