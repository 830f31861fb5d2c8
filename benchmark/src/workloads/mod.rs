//! The four workloads and what they share.

pub mod analysis_batch;
pub mod ingest;
pub mod query_mix;

use crate::adapter::{self, Docs};
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Documents per `insert_many` call everywhere (GoFlow's ingest batch).
pub const BATCH: usize = 16;

/// Name of the root span around each timed repetition or operation;
/// layer shares count only what happens under it.
pub const TIMED: &str = "bench.timed";

/// Set-ups per run; `setup_s` is their median, so one page-fault storm or
/// one warm cache does not decide it.
const SETUPS: usize = 3;

/// Everything a workload needs to run and report.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the timed region lasts.
    pub measure: Duration,
    /// Traced pass: alternate traced and untraced repetitions, then run
    /// the layer probes, and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the checkout, for durable stores.
    pub scratch: PathBuf,
    pub tracer: Tracer,
    pub report: Report,
}

impl Ctx {
    /// Runs `build` [`SETUPS`] times, dropping each result before the
    /// next so memory peaks at one copy, and records the median time as
    /// `setup_s`. `build` makes the inputs and ends with the warm-up
    /// repetition, so set-up is everything a run pays before it measures:
    /// work a change moves out of the timed region (an index built lazily,
    /// a cache filled on first use) shows up here. Spans are recorded
    /// during set-up in a traced pass.
    pub fn set_up<T>(&mut self, mut build: impl FnMut(&mut Ctx) -> T) -> T {
        let mut seconds = Vec::with_capacity(SETUPS);
        let mut built = None;
        for _ in 0..SETUPS {
            drop(built.take());
            self.tracer.on = self.trace;
            let started = Instant::now();
            built = Some(build(self));
            seconds.push(started.elapsed().as_secs_f64());
        }
        self.tracer.on = false;
        self.report.set("setup_s", stats::median(&seconds));
        built.expect("SETUPS is at least 1")
    }

    /// Whether repetition `rep` of the timed region is traced: every
    /// second one in a traced pass, so both kinds see the same drift.
    pub fn traced_rep(&self, rep: usize) -> bool {
        self.trace && rep % 2 == 1
    }

    /// Reports each layer's share of `traced_wall`, from span self times;
    /// what no product span covers is the harness's own (`bench`).
    pub fn report_layer_shares(&mut self, traced_wall: Duration) {
        let wall_ns = traced_wall.as_nanos() as f64;
        if wall_ns == 0.0 {
            return;
        }
        let layers = self.tracer.layer_self_ns(TIMED);
        let share = |layer: &str| 100.0 * layers.get(layer).copied().unwrap_or(0) as f64 / wall_ns;
        let product = [
            ("layer.types_pct", share("types")),
            ("layer.docstore_pct", share("docstore")),
            ("layer.assim_pct", share("assim")),
            ("layer.analytics_pct", share("analytics")),
        ];
        let covered: f64 = product.iter().map(|(_, pct)| pct).sum();
        for (name, pct) in product {
            self.report.set(name, pct);
        }
        self.report.set("layer.bench_pct", 100.0 - covered);
    }

    /// `bench.trace_overhead_pct`: how much slower the traced repetitions
    /// ran than the untraced ones interleaved with them, from the times
    /// (seconds) of each kind.
    pub fn report_trace_overhead(&mut self, untraced_s: &[f64], traced_s: &[f64]) {
        let (plain, traced) = (stats::fastest(untraced_s), stats::fastest(traced_s));
        if plain > 0.0 {
            self.report
                .set("bench.trace_overhead_pct", 100.0 * (traced / plain - 1.0));
        }
        self.report
            .set("bench.spans_recorded", self.tracer.spans_recorded() as f64);
    }
}

/// Parses `payloads` and inserts them into `store` in batches of [`BATCH`],
/// untimed: how set-ups preload a store.
pub fn load(store: &Docs, payloads: &[Vec<u8>]) -> Result<(), String> {
    payloads.chunks(BATCH).try_for_each(|chunk| {
        let docs: Result<Vec<_>, String> =
            chunk.iter().map(|p| adapter::doc_from_bytes(p)).collect();
        store.insert_many(docs?).map(drop)
    })
}

/// Mean of `f`'s wall time over `times` calls, in the unit `scale` turns
/// seconds into (1e6 for µs). Stops at the first error.
pub fn time_mean(
    times: usize,
    scale: f64,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let started = Instant::now();
    for i in 0..times {
        f(i)?;
    }
    Ok(started.elapsed().as_secs_f64() * scale / times as f64)
}
