//! `analysis_batch`: the batch products users look at.
//!
//! A repetition takes one day out of the store (`docstore`, one query),
//! assimilates its localized readings into 24 hourly noise maps over a
//! synthetic city (`assim`: covariance assembly, SPD solve, grid update),
//! then decodes a batch of wire observations (`types`) and builds the
//! eight empirical reports of Figures 8–21 (`analytics`).
//!
//! The readings are the city's true levels plus noise, and the forward
//! model is a degraded copy of the truth (quieter roads, no venues), so
//! the analysis has real work to do and a checkable result: its maps must
//! be closer to the truth than the uncorrected model's.

use super::{load, Ctx, TIMED};
use crate::adapter::{self, Docs, NoiseWorld, Prepared, ReportTotals};
use crate::gen::{self, Row, SplitMix64, MS_PER_DAY};
use crate::metrics::ensure;
use crate::query::Query;
use crate::trace::{mean_ns, total_s};
use crate::{probes, stats};
use std::time::{Duration, Instant};

/// Documents per stored day; two days are stored and one is analysed.
/// 40 % are localized: 4 000 readings, 167 an hour.
pub const DAY_DOCS: usize = 10_000;
/// Wire observations decoded and reported on per repetition.
pub const FIGURE_OBS: usize = 30_000;
/// The analysed day.
const DAY: i64 = 1;
/// Standard deviation of the generated measurement noise, dB.
const NOISE_DB: f64 = 1.0;

struct Inputs {
    world: NoiseWorld,
    store: Docs,
    extract: Prepared,
    /// Localized rows of the analysed day.
    localized: usize,
    background_rmse_db: f64,
    wire: Vec<Vec<u8>>,
    /// What the reports must add up to, from the rows.
    expected: ReportTotals,
}

struct Rep {
    traced: bool,
    timed: Duration,
    assim_s: f64,
    figures_s: f64,
    rmse_db: f64,
}

pub fn run(ctx: &mut Ctx) {
    let vocab = adapter::vocabulary();
    let inputs = ctx.set_up(|ctx| {
        let mut rng = SplitMix64::new(ctx.seed);
        let world = NoiseWorld::new(ctx.seed);
        // Two days of documents; readings with a fix sample the truth.
        let step_ms = MS_PER_DAY / DAY_DOCS as i64;
        let rows = gen::rows(
            &mut rng,
            &vocab,
            2 * DAY_DOCS,
            DAY * MS_PER_DAY,
            step_ms,
            |rng, fix, hour| match fix {
                Some(fix) => {
                    let truth = world.truth_db(fix.lat(), fix.lon(), hour);
                    ((truth + NOISE_DB * rng.normalish()) * 10.0).round() as i64
                }
                None => gen::random_spl(rng, None, hour),
            },
        );
        let store = Docs::open_mem();
        let loaded = store
            .create_indexes(&adapter::GOFLOW_INDEXES)
            .and_then(|()| load(&store, &gen::documents(&rows, &vocab)));
        ctx.report.check(loaded);
        let localized = rows
            .iter()
            .filter(|r| r.location.is_some() && r.day() == DAY)
            .count();

        // Wire observations spread over ten months, for the growth curve.
        let wire_rows = gen::rows(
            &mut rng,
            &vocab,
            FIGURE_OBS,
            MS_PER_DAY,
            300 * MS_PER_DAY / FIGURE_OBS as i64,
            gen::random_spl,
        );
        let encode_started = Instant::now();
        let wire = ctx.tracer.span("types.obs_encode", 0, |_| {
            wire_rows
                .iter()
                .map(adapter::encode_observation)
                .collect::<Result<Vec<_>, String>>()
        });
        ctx.report.set(
            "types.obs_encode_ns",
            encode_started.elapsed().as_secs_f64() * 1e9 / FIGURE_OBS as f64,
        );
        let wire = wire.unwrap_or_else(|why| {
            ctx.report.check(Err(format!("encode observations: {why}")));
            Vec::new()
        });
        let inputs = Inputs {
            background_rmse_db: world.background_rmse_db(),
            world,
            store,
            extract: adapter::prepare(&Query::Extract { day: DAY }, &vocab),
            localized,
            wire,
            expected: expected_totals(&wire_rows),
        };
        // Warm-up: the first repetition is discarded.
        let _ = repetition(ctx, &inputs, 0, false);
        inputs
    });
    let mut reps = Vec::new();
    let started = Instant::now();
    while started.elapsed() < ctx.measure || reps.len() < 2 {
        let traced = ctx.traced_rep(reps.len());
        match repetition(ctx, &inputs, reps.len() as u64 + 1, traced) {
            Some(rep) => reps.push(rep),
            None => break,
        }
    }

    // One repetition is one operation here, so the latency metric is the
    // repetition time; the fastest decile as everywhere else.
    let seconds_where = |keep: &dyn Fn(&Rep) -> bool| -> Vec<f64> {
        let kept = reps.iter().filter(|r| keep(r));
        kept.map(|r| r.timed.as_secs_f64()).collect()
    };
    let fastest_s = stats::fastest(&seconds_where(&|_| true));
    let items = (inputs.localized + FIGURE_OBS) as f64;
    ctx.report.set("items_per_s", items / fastest_s);
    ctx.report.set("op_ms_p50", fastest_s * 1e3);

    if ctx.trace {
        ctx.report_trace_overhead(
            &seconds_where(&|r| !r.traced),
            &seconds_where(&|r| r.traced),
        );
        ctx.report_layer_shares(reps.iter().filter(|r| r.traced).map(|r| r.timed).sum());

        let of = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
        ctx.report
            .set("assim.batch_s", stats::fastest(&of(|r| r.assim_s)));
        ctx.report
            .set("analytics.figures_s", stats::fastest(&of(|r| r.figures_s)));
        ctx.report
            .set("assim.map_rmse_db", stats::median(&of(|r| r.rmse_db)));
        let times = ctx.tracer.self_times(TIMED);
        ctx.report.set(
            "docstore.find_extract_ms",
            mean_ns(&times, "docstore.find_extract") / 1e6,
        );
        let decoded = times.get("types.obs_decode").map_or(0, |t| t.1) as f64 * FIGURE_OBS as f64;
        if decoded > 0.0 {
            ctx.report.set(
                "types.obs_decode_ns",
                total_s(&times, "types.obs_decode") * 1e9 / decoded,
            );
        }
        for (metric, span) in [
            ("analytics.growth_ms", "analytics.growth"),
            ("analytics.model_table_ms", "analytics.model_table"),
            ("analytics.accuracy_ms", "analytics.accuracy"),
            ("analytics.spl_ms", "analytics.spl"),
            ("analytics.delay_ms", "analytics.delay"),
            ("analytics.diurnal_ms", "analytics.diurnal"),
            ("analytics.provider_mode_ms", "analytics.provider_mode"),
            ("analytics.activity_ms", "analytics.activity"),
        ] {
            ctx.report.set(metric, mean_ns(&times, span) / 1e6);
        }
        probes::assimilation(ctx, &inputs.world, &inputs.store, &inputs.extract);
    }
}

/// What each report must count, from the benchmark's own rows.
fn expected_totals(rows: &[Row]) -> ReportTotals {
    let all = rows.len() as u64;
    let localized = rows.iter().filter(|r| r.location.is_some()).count() as u64;
    ReportTotals {
        growth: all,
        model_table: all,
        accuracy_localized: localized,
        spl: all,
        delay: all,
        diurnal: all,
        provider_mode: localized,
        activity: all,
    }
}

fn repetition(ctx: &mut Ctx, inputs: &Inputs, rep_no: u64, traced: bool) -> Option<Rep> {
    ctx.tracer.on = traced;
    let started = Instant::now();
    let outcome = ctx.tracer.span(TIMED, rep_no, |tracer| {
        let found = inputs.store.run(&inputs.extract, tracer, rep_no)?;
        let batch = inputs
            .world
            .hourly_batch(&found)
            .ok_or("an extracted document lacks lat, lon, spl or hour")?;
        let assim_started = Instant::now();
        let rmse_db = tracer.span("assim.diurnal_run", rep_no, |_| {
            inputs.world.assimilate(&batch)
        })?;
        let assim_s = assim_started.elapsed().as_secs_f64();

        let figures_started = Instant::now();
        let observations = tracer.span("types.obs_decode", rep_no, |_| {
            adapter::decode_observations(&inputs.wire)
        })?;
        let totals = adapter::build_reports(&observations, tracer, rep_no);
        let figures_s = figures_started.elapsed().as_secs_f64();
        Ok::<_, String>((
            batch.len(),
            rmse_db,
            assim_s,
            observations.len(),
            totals,
            figures_s,
        ))
    });
    let timed = started.elapsed();
    ctx.tracer.on = false;

    let (assimilated, rmse_db, assim_s, decoded, totals, figures_s) = match outcome {
        Ok(measured) => measured,
        Err(why) => {
            ctx.report.check(Err(format!("repetition {rep_no}: {why}")));
            return None;
        }
    };
    // Output checks, outside the timed region. The extract, the analysis,
    // the decode and the eight reports are one attempted operation each.
    ctx.report
        .check(ensure(assimilated == inputs.localized, || {
            format!(
                "{assimilated} readings extracted, {} localized that day",
                inputs.localized
            )
        }));
    ctx.report
        .check(ensure(rmse_db < inputs.background_rmse_db, || {
            format!(
                "analysis RMSE {rmse_db:.3} dB is not below the background's {:.3} dB",
                inputs.background_rmse_db
            )
        }));
    ctx.report.check(ensure(decoded == FIGURE_OBS, || {
        format!("{decoded} observations decoded, {FIGURE_OBS} encoded")
    }));
    ctx.report.check(ensure(totals == inputs.expected, || {
        format!("report totals {totals:?}, expected {:?}", inputs.expected)
    }));
    ctx.report.passed(7); // the other seven reports, checked with the first

    Some(Rep {
        traced,
        timed,
        assim_s,
        figures_s,
        rmse_db,
    })
}
