//! Layer probes of the traced pass.
//!
//! The spans see a layer only from outside, one call at a time. Where a
//! per-layer number needs a comparison the workload itself never makes
//! (the same documents without indexes, the same bytes without fsync, the
//! log without the store above it), a probe makes it here, after the
//! timed region, on the workload's own inputs. Probes are short: a
//! fraction of a second each.

use crate::adapter::{self, Docs, Log, NoiseWorld, Prepared, TelemetryProbe};
use crate::stats;
use crate::workloads::{time_mean, Ctx, BATCH};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Documents a write-path probe feeds through.
const PROBE_DOCS: usize = 20_000;

/// Records `value` as `name`, or the failure that prevented measuring it.
fn record(ctx: &mut Ctx, name: &'static str, value: Result<f64, String>) {
    match value {
        Ok(value) => {
            ctx.report.passed(1);
            ctx.report.set(name, value);
        }
        Err(why) => ctx.report.check(Err(format!("probe {name}: {why}"))),
    }
}

fn parse_all(payloads: &[Vec<u8>]) -> Result<Vec<adapter::Doc>, String> {
    payloads
        .iter()
        .map(|p| adapter::doc_from_bytes(p))
        .collect()
}

/// Nanoseconds per document to insert `docs` in batches into `store`.
fn insert_ns(store: &Docs, docs: Vec<adapter::Doc>) -> Result<f64, String> {
    let n = docs.len();
    let mut docs = docs.into_iter();
    let started = Instant::now();
    loop {
        let batch: Vec<_> = docs.by_ref().take(BATCH).collect();
        if batch.is_empty() {
            break;
        }
        store.insert_many(batch)?;
    }
    Ok(started.elapsed().as_secs_f64() * 1e9 / n as f64)
}

/// `ingest_mem`: the writer's cost per document, and what the three
/// indexes add to an insert.
pub fn memory_path(ctx: &mut Ctx, payloads: &[Vec<u8>]) {
    let sample = &payloads[..PROBE_DOCS.min(payloads.len())];
    let write_ns = parse_all(sample).and_then(|docs| {
        time_mean(docs.len(), 1e9, |i| {
            adapter::doc_to_bytes(&docs[i]).map(|bytes| drop(black_box(bytes)))
        })
    });
    record(ctx, "types.doc_write_ns", write_ns);
    let noindex_ns = parse_all(sample).and_then(|docs| insert_ns(&Docs::open_mem(), docs));
    record(ctx, "docstore.insert_ns_noindex", noindex_ns);
}

/// `ingest_durable`: the log below the store, on the bytes the store
/// gives it, and the store's own share of a durable insert.
pub fn durable_path(
    ctx: &mut Ctx,
    payloads: &[Vec<u8>],
    scratch: &Path,
    store_dir: &Path,
    durable_insert_us: f64,
) {
    let sample = &payloads[..PROBE_DOCS.min(payloads.len())];
    let deltas: Result<Vec<Vec<u8>>, String> = parse_all(sample).and_then(|docs| {
        docs.iter()
            .enumerate()
            .map(|(id, doc)| adapter::insert_delta(doc, id as u64))
            .collect()
    });
    let deltas = match deltas {
        Ok(deltas) => deltas,
        Err(why) => return ctx.report.check(Err(format!("probe deltas: {why}"))),
    };
    let batches: Vec<&[Vec<u8>]> = deltas.chunks(BATCH).collect();
    let probe_dir = |name: &str| scratch.join(format!("probe-{name}"));
    let fresh_log = |name: &str, fsync: bool| -> Result<Log, String> {
        let dir = probe_dir(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        Log::open(&dir, fsync).map(|(log, _)| log)
    };

    // One record per fsync, then sixteen per fsync, then no fsync (what
    // the workload runs): the differences are the group-commit gain and
    // the fsync a shipped-default store would add to every batch.
    let append_us = fresh_log("append", true)
        .and_then(|mut log| time_mean(300, 1e6, |i| log.append(&deltas[i % deltas.len()])));
    record(ctx, "wal.append_us", append_us);
    let fsyncs_before = adapter::counter("wal_fsyncs_total");
    let batch_us = fresh_log("batch", true)
        .and_then(|mut log| time_mean(300, 1e6, |i| log.append_batch(batches[i % batches.len()])));
    record(ctx, "wal.append_batch16_us", batch_us);
    let fsyncs = adapter::counter("wal_fsyncs_total") - fsyncs_before;
    record(
        ctx,
        "wal.fsyncs_per_obs",
        Ok(fsyncs as f64 / (300 * BATCH) as f64),
    );
    let nosync_us = fresh_log("nosync", false)
        .and_then(|mut log| time_mean(batches.len(), 1e6, |i| log.append_batch(batches[i])));
    let log_us = *nosync_us.as_ref().unwrap_or(&0.0);
    record(ctx, "wal.append_nosync_us", nosync_us);

    // A snapshot of a state the size of the repetition's documents, over
    // a log holding them; then an explicit compact, which finds nothing
    // left (snapshot compacts) and so costs its fixed part.
    let state: Vec<u8> = payloads.concat();
    let snapshot = fresh_log("snapshot", false).and_then(|mut log| {
        batches.iter().try_for_each(|b| log.append_batch(b))?;
        let snapshot_ms = time_mean(3, 1e3, |_| log.snapshot(&state))?;
        let compact_ms = time_mean(20, 1e3, |_| log.compact())?;
        Ok((snapshot_ms, compact_ms))
    });
    record(ctx, "wal.snapshot_ms", snapshot.clone().map(|s| s.0));
    record(ctx, "wal.compact_ms", snapshot.map(|s| s.1));

    // Recovery scan of 10 000 records with no snapshot to skip them.
    let open_ms = fresh_log("open", false).and_then(|mut log| {
        let ten_k = &deltas[..10_000.min(deltas.len())];
        ten_k.chunks(BATCH).try_for_each(|b| log.append_batch(b))?;
        drop(log);
        let started = Instant::now();
        let (_log, replayed) = Log::open(&probe_dir("open"), false)?;
        let ms = stats::ms(started.elapsed());
        if replayed == 10_000 {
            Ok(ms)
        } else {
            Err(format!("replayed {replayed} records, wrote 10000"))
        }
    });
    record(ctx, "wal.open_ms_per_10k", open_ms);

    let megabyte = vec![0xa5u8; 1 << 20];
    let crc_ns = time_mean(50, 1e9 / 1024.0, |_| {
        black_box(adapter::crc32(black_box(&megabyte)));
        Ok(())
    });
    record(ctx, "wal.crc32_ns_per_kb", crc_ns);

    // The store's own part of a durable insert: what is left after the
    // same bytes through the log and the same documents into memory.
    let memory_us = parse_all(sample).and_then(|docs| {
        let store = Docs::open_mem();
        store.create_indexes(&adapter::GOFLOW_INDEXES)?;
        Ok(insert_ns(&store, docs)? * BATCH as f64 / 1e3)
    });
    let journal_us = memory_us.map(|memory_us| durable_insert_us - log_us - memory_us);
    record(ctx, "docstore.journal_self_us", journal_us);

    // Opening the store minus opening its log, on the directory the last
    // repetition left: the replay into documents and the index rebuild.
    let restore_ms = (|| {
        let started = Instant::now();
        drop(Log::open(store_dir, true)?);
        let log_ms = stats::ms(started.elapsed());
        let started = Instant::now();
        let store = Docs::open_durable(store_dir)?;
        let store_ms = stats::ms(started.elapsed());
        if store.len() == payloads.len() {
            Ok(store_ms - log_ms)
        } else {
            Err(format!(
                "restored {} of {} documents",
                store.len(),
                payloads.len()
            ))
        }
    })();
    record(ctx, "docstore.restore_ms", restore_ms);
}

/// `analysis_batch`: the parts of one hourly analysis, on the readings of
/// one hour of the extracted day.
pub fn assimilation(ctx: &mut Ctx, world: &NoiseWorld, store: &Docs, extract: &Prepared) {
    const HOUR: u32 = 12;
    let found = store.run(extract, &mut ctx.tracer, 0);
    let Some(batch) = found.ok().and_then(|f| world.hourly_batch(&f)) else {
        return ctx.report.check(Err("probe extract failed".to_owned()));
    };
    let simulate_ms = time_mean(24, 1e3, |h| {
        black_box(world.simulate(h as u32));
        Ok(())
    });
    record(ctx, "assim.simulate_ms", simulate_ms);
    let global_ms = time_mean(5, 1e3, |_| world.blue_global(&batch, HOUR).map(drop));
    record(ctx, "assim.blue_global_ms", global_ms);
    let tiles_before = adapter::counter("assim_blue_tile_solves_total");
    let localized_ms = time_mean(5, 1e3, |_| world.blue_localized(&batch, HOUR).map(drop));
    record(ctx, "assim.blue_localized_ms", localized_ms);
    let tile_solves = (adapter::counter("assim_blue_tile_solves_total") - tiles_before) / 5;
    record(ctx, "assim.tile_solves", Ok(tile_solves as f64));
    let solve = world.spd_system(&batch, HOUR);
    let solve_ms = time_mean(20, 1e3, |_| solve().map(drop));
    record(ctx, "assim.spd_solve_ms", solve_ms);
}

/// The telemetry primitives the product calls on its hot paths (docstore
/// bumps a counter and drops a `SpanTimer` per call): a ceiling on what
/// removing in-product telemetry could give `ingest_mem`.
pub fn telemetry(ctx: &mut Ctx) {
    let probe = TelemetryProbe::new();
    let per_call = |times: usize, f: &dyn Fn(usize)| {
        time_mean(times, 1e9, |i| {
            f(i);
            Ok(())
        })
    };
    record(
        ctx,
        "telemetry.counter_inc_ns",
        per_call(2_000_000, &|_| probe.counter_inc()),
    );
    record(
        ctx,
        "telemetry.histogram_record_ns",
        per_call(2_000_000, &|i| {
            probe.histogram_record(black_box(i as f64 * 1e-9))
        }),
    );
    record(
        ctx,
        "telemetry.span_timer_ns",
        per_call(1_000_000, &|_| probe.span_timer()),
    );
    record(
        ctx,
        "telemetry.flight_record_ns",
        per_call(200_000, &|i| probe.flight_record(i as u64)),
    );
    record(
        ctx,
        "telemetry.render_text_us",
        per_call(50, &|_| {
            black_box(probe.render_text());
        })
        .map(|ns| ns / 1e3),
    );
}
