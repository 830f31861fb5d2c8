//! `query_mix`: the read path with writes beside it.
//!
//! 200 000 documents sit in one in-memory collection with GoFlow's three
//! indexes. Thread A, closed loop, works through a seeded sequence of
//! queries (70 % indexed point lookups, 15 % range + sort, 8 % unindexed
//! scan, 5 % range + aggregate, 2 % unindexed count). Thread B, open
//! loop, inserts 16 documents every 16 ms (1 000 observations a second),
//! each batch timed from the moment it was due. Both go through the
//! collection's one lock, so a change that helps readers and hurts the
//! writer, or the reverse, shows in one run.
//!
//! The writer's documents are captured on later days than anything the
//! reader asks about, so every answer is a function of the preloaded rows
//! alone and can be checked against a scan of them.

use super::{load, Ctx, BATCH, TIMED};
use crate::adapter::{self, Doc, Docs, Prepared};
use crate::gen::{self, Row, SplitMix64, MS_PER_DAY};
use crate::metrics::ensure;
use crate::query::{self, Answer, Query, QueryKind};
use crate::stats;
use crate::trace::{mean_ns, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Preloaded documents: ten days at 20 000 a day.
pub const PRELOAD_DOCS: usize = 200_000;
const STEP_MS: i64 = 4_320;
/// Queries per repetition: one block of the mix (see `query::BLOCK`).
const OPS_PER_REP: usize = query::BLOCK;
/// Distinct queries generated, 30 blocks; the reader cycles through them.
pub const QUERIES: usize = 30 * OPS_PER_REP;
/// Every this-many-th query is re-answered from the rows.
const CHECK_EVERY: usize = 50;
/// The writer's period: one batch of 16 every 16 ms.
const WRITE_PERIOD: Duration = Duration::from_millis(16);

struct Inputs {
    rows: Vec<Row>,
    store: Docs,
    queries: Vec<Query>,
    prepared: Vec<Prepared>,
    /// Parsed batches for the writer, enough for the whole run.
    writes: Vec<Vec<Doc>>,
}

/// One query of the timed region.
struct Op {
    kind: QueryKind,
    ms: f64,
    returned: usize,
    traced: bool,
}

pub fn run(ctx: &mut Ctx) {
    let vocab = adapter::vocabulary();
    // The timed region plus slack, in writer batches.
    let write_batches = ((ctx.measure.as_secs_f64() + 2.0) / WRITE_PERIOD.as_secs_f64()) as usize;

    let mut inputs = ctx.set_up(|ctx| {
        let mut rng = SplitMix64::new(ctx.seed);
        let first = MS_PER_DAY;
        let rows = gen::rows(
            &mut rng,
            &vocab,
            PRELOAD_DOCS,
            first,
            STEP_MS,
            gen::random_spl,
        );
        let last = first + PRELOAD_DOCS as i64 * STEP_MS;
        let store = Docs::open_mem();
        let loaded = load(&store, &gen::documents(&rows, &vocab));
        ctx.report.check(loaded);
        let build_started = Instant::now();
        let indexed = ctx.tracer.span("docstore.index_build", 0, |_| {
            store.create_indexes(&adapter::GOFLOW_INDEXES)
        });
        ctx.report.set(
            "docstore.index_build_ms",
            stats::ms(build_started.elapsed()),
        );
        ctx.report.check(indexed);

        // Reads stay half a day inside the preloaded window, because
        // captures trail arrivals by up to twelve hours.
        let queries = query::mix(
            &mut rng,
            QUERIES / OPS_PER_REP,
            first + MS_PER_DAY / 2,
            last - MS_PER_DAY / 2,
            vocab.models.len(),
            vocab.activities.len(),
        );
        let prepared = queries
            .iter()
            .map(|q| adapter::prepare(q, &vocab))
            .collect();

        // Writes arrive from two days after the window on.
        let late = gen::rows(
            &mut rng,
            &vocab,
            write_batches * BATCH,
            last + 2 * MS_PER_DAY,
            STEP_MS,
            gen::random_spl,
        );
        let writes = gen::documents(&late, &vocab)
            .chunks(BATCH)
            .map(|chunk| chunk.iter().map(|p| adapter::doc_from_bytes(p)).collect())
            .collect::<Result<Vec<Vec<Doc>>, String>>();
        let writes = writes.unwrap_or_else(|why| {
            ctx.report.check(Err(format!("writer documents: {why}")));
            Vec::new()
        });
        let inputs = Inputs {
            rows,
            store,
            queries,
            prepared,
            writes,
        };
        // Warm-up: one repetition's worth of reads, discarded.
        for index in 0..OPS_PER_REP {
            read_one(ctx, &inputs, index, false, &mut Vec::new());
        }
        inputs
    });
    let mut kept = Vec::new();

    let stop = AtomicBool::new(false);
    let writes = std::mem::take(&mut inputs.writes);
    let mut writer_tracer = ctx.tracer.sibling();
    writer_tracer.on = ctx.trace;
    let (ops, write_ms, late_ms) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_loop(&inputs.store, writes, &stop, &mut writer_tracer));
        let ops = read_loop(ctx, &inputs, &mut kept);
        stop.store(true, Ordering::SeqCst);
        let (write_ms, late_ms, failures) = writer.join().expect("writer thread panicked");
        ctx.report.passed((write_ms.len() - failures.len()) as u64);
        for why in failures {
            ctx.report.check(Err(why));
        }
        (ops, write_ms, late_ms)
    });

    // Output checks: the kept answers against a scan of the rows.
    for (index, answer) in kept {
        let expected = inputs.queries[index % QUERIES].answer(&inputs.rows);
        let agrees = answer.as_ref().is_some_and(|a| a.agrees_with(&expected));
        ctx.report.check(ensure(agrees, || {
            format!(
                "query {index} {:?}: store and scan disagree",
                inputs.queries[index % QUERIES]
            )
        }));
    }
    let stored = inputs.store.len();
    let expected = PRELOAD_DOCS + write_ms.len() * BATCH;
    ctx.report.check(ensure(stored == expected, || {
        format!("{stored} documents stored, {expected} inserted")
    }));

    // Each metric per repetition (one block of the mix), then the fastest
    // decile of repetitions (see `stats::fastest` for why not the median).
    let reps: Vec<&[Op]> = ops.chunks_exact(OPS_PER_REP).collect();
    let rep_ms = |rep: &[Op]| -> Vec<f64> { rep.iter().map(|o| o.ms).collect() };
    let per_rep = |f: &dyn Fn(&[f64]) -> f64, keep: &dyn Fn(&[Op]) -> bool| -> Vec<f64> {
        let kept = reps.iter().filter(|rep| keep(rep));
        kept.map(|rep| f(&rep_ms(rep))).collect()
    };
    let total_s = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
    let all = |_: &[Op]| true;
    ctx.report.set(
        "items_per_s",
        OPS_PER_REP as f64 / stats::fastest(&per_rep(&total_s, &all)),
    );
    ctx.report
        .set("op_ms_p50", stats::fastest(&per_rep(&stats::median, &all)));

    if ctx.trace {
        ctx.report.set(
            "docstore.query_ms_p99",
            stats::fastest(&per_rep(&|ms| stats::percentile(ms, 99.0), &all)),
        );
        ctx.report_trace_overhead(
            &per_rep(&total_s, &|rep| !rep[0].traced),
            &per_rep(&total_s, &|rep| rep[0].traced),
        );
        let traced_ms: f64 = ops.iter().filter(|o| o.traced).map(|o| o.ms).sum();
        ctx.report_layer_shares(Duration::from_secs_f64(traced_ms / 1e3));

        let times = ctx.tracer.self_times(TIMED);
        for (metric, span) in [
            ("docstore.find_point_us", "docstore.find_point"),
            ("docstore.find_range_us", "docstore.find_range"),
            ("docstore.find_sorted_us", "docstore.find_sorted"),
            ("docstore.find_scan_us", "docstore.find_scan"),
            ("docstore.count_us", "docstore.count"),
            ("docstore.aggregate_us", "docstore.aggregate"),
        ] {
            ctx.report.set(metric, mean_ns(&times, span) / 1e3);
        }
        ctx.report.set(
            "docstore.filter_parse_ns",
            mean_ns(&times, "docstore.filter_parse"),
        );
        let of_kind = |kind| -> Vec<f64> {
            ops.iter()
                .filter(|o| o.kind == kind)
                .map(|o| o.ms)
                .collect()
        };
        let point = of_kind(QueryKind::Point);
        ctx.report
            .set("docstore.point_ms_p50", stats::median(&point));
        ctx.report
            .set("docstore.point_ms_p99", stats::percentile(&point, 99.0));
        ctx.report.set(
            "docstore.range_ms_p50",
            stats::median(&of_kind(QueryKind::RangeSorted)),
        );
        ctx.report.set(
            "docstore.scan_ms_p50",
            stats::median(&of_kind(QueryKind::Scan)),
        );
        ctx.report.set(
            "docstore.agg_ms_p50",
            stats::median(&of_kind(QueryKind::Agg)),
        );
        let returned: Vec<f64> = ops.iter().map(|o| o.returned as f64).collect();
        ctx.report
            .set("docstore.docs_returned_per_query", stats::mean(&returned));
        ctx.report
            .set("docstore.write_ms_p50", stats::median(&write_ms));
        ctx.report
            .set("docstore.write_ms_p99", stats::percentile(&write_ms, 99.0));
        ctx.report.set(
            "bench.writer_lateness_ms_p99",
            stats::percentile(&late_ms, 99.0),
        );
        ctx.tracer.absorb(writer_tracer);
        ctx.report
            .set("bench.spans_recorded", ctx.tracer.spans_recorded() as f64);
    }
}

/// One query, timed; every [`CHECK_EVERY`]-th answer is kept for checking.
fn read_one(
    ctx: &mut Ctx,
    inputs: &Inputs,
    index: usize,
    traced: bool,
    kept: &mut Vec<(usize, Option<Answer>)>,
) -> Op {
    let prepared = &inputs.prepared[index % QUERIES];
    let kind = inputs.queries[index % QUERIES].kind();
    ctx.tracer.on = traced;
    let started = Instant::now();
    let found = ctx.tracer.span(TIMED, index as u64, |tracer| {
        inputs.store.run(prepared, tracer, index as u64)
    });
    let ms = stats::ms(started.elapsed());
    ctx.tracer.on = false;
    let returned = found.as_ref().map_or(0, adapter::Found::returned);
    if index.is_multiple_of(CHECK_EVERY) {
        kept.push((index, found.as_ref().ok().and_then(|f| f.answer(kind))));
    }
    ctx.report.check(found.map(drop));
    Op {
        kind,
        ms,
        returned,
        traced,
    }
}

/// Thread A: queries one after another until the time is up.
fn read_loop(ctx: &mut Ctx, inputs: &Inputs, kept: &mut Vec<(usize, Option<Answer>)>) -> Vec<Op> {
    let plans_before = plan_counts();
    let mut ops = Vec::new();
    let started = Instant::now();
    while started.elapsed() < ctx.measure || ops.len() < 2 * OPS_PER_REP {
        let traced = ctx.traced_rep(ops.len() / OPS_PER_REP);
        let index = OPS_PER_REP + ops.len();
        ops.push(read_one(ctx, inputs, index, traced, kept));
    }
    if ctx.trace {
        let plans = plan_counts();
        let (scans, all) = (plans.0 - plans_before.0, plans.1 - plans_before.1);
        ctx.report.set(
            "docstore.plan_full_scan_share",
            100.0 * scans as f64 / all.max(1) as f64,
        );
    }
    ops
}

/// `(full scans, all plans)` chosen so far, from the product's counters.
fn plan_counts() -> (u64, u64) {
    let scans = adapter::plan_count("full_scan");
    let indexed: u64 = ["index_eq", "index_range", "index_intersect"]
        .iter()
        .map(|plan| adapter::plan_count(plan))
        .sum();
    (scans, scans + indexed)
}

/// Thread B: one batch every [`WRITE_PERIOD`] on a fixed schedule, never
/// waiting for the reader. Returns, per batch, the time from when it was
/// due to when it was stored and how late it started, plus any failures.
fn write_loop(
    store: &Docs,
    writes: Vec<Vec<Doc>>,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let (mut write_ms, mut late_ms, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for (k, batch) in writes.into_iter().enumerate() {
        let due = started + WRITE_PERIOD * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        late_ms.push(stats::ms(Instant::now().saturating_duration_since(due)));
        let stored = tracer.span("docstore.insert_many", 1 << 40 | k as u64, |_| {
            store.insert_many(batch)
        });
        write_ms.push(stats::ms(Instant::now().saturating_duration_since(due)));
        if let Err(why) = stored {
            failures.push(format!("writer batch {k}: {why}"));
        }
    }
    (write_ms, late_ms, failures)
}
