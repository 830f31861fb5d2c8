//! The only file that names product types.
//!
//! Workloads and probes call the functions here with benchmark-owned
//! types ([`Row`], [`Query`], byte strings); each function is one call
//! into a product layer, wrapped in the span that charges it to that
//! layer. An API refactor of a product crate has to keep these functions
//! working (or re-point them in a follow-up `benchmark` issue) and
//! nothing else in the benchmark. README.md lists them.

use crate::gen::{Row, Vocabulary};
use crate::query::{Answer, Query, QueryKind};
use crate::trace::Tracer;
use mps_analytics::{
    AccuracyReport, ActivityReport, DelayReport, DiurnalReport, GrowthReport, ModelTable,
    ProviderByModeReport, ProviderFilter, SplReport,
};
use mps_assim::{
    Blue, CityModel, DiurnalAnalysis, Grid, HourlyObservation, Localization, Matrix,
    NoiseSimulator, PointObservation, Road,
};
use mps_docstore::{
    aggregate, Accumulator, Collection, Durability, DurabilityConfig, Filter, FindOptions,
    GroupSpec, SortOrder, Stage, Store,
};
use mps_simcore::SimRng;
use mps_telemetry::trace::{FlightRecorder, Hop, Outcome, SpanRecord, TraceId};
use mps_telemetry::{Counter, Histogram, Registry, SpanTimer};
use mps_types::{
    Activity, AppVersion, DeviceId, DeviceModel, GeoBounds, GeoPoint, LocationFix,
    LocationProvider, Observation, SensingMode, SimTime, SoundLevel, UserId,
};
use mps_wal::{Wal, WalConfig};
use serde_json::{json, Value};
use std::path::Path;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- types

/// The product's label sets and city bounds, for the generator.
pub fn vocabulary() -> Vocabulary {
    let b = GeoBounds::paris();
    Vocabulary {
        models: DeviceModel::ALL.iter().map(|m| m.label()).collect(),
        activities: Activity::ALL.iter().map(|a| a.name()).collect(),
        modes: SensingMode::ALL.iter().map(|m| m.name()).collect(),
        providers: LocationProvider::ALL.iter().map(|p| p.name()).collect(),
        versions: AppVersion::ALL.iter().map(|v| v.name()).collect(),
        bounds: (b.lat_min, b.lat_max, b.lon_min, b.lon_max),
    }
}

/// A parsed stored-observation document.
#[derive(Debug)]
pub struct Doc(Value);

/// `types.doc_parse`: document bytes to the product's document value.
pub fn doc_from_bytes(bytes: &[u8]) -> Result<Doc, String> {
    serde_json::from_slice(bytes).map(Doc).map_err(text)
}

/// `types.doc_write`: a document value back to bytes.
pub fn doc_to_bytes(doc: &Doc) -> Result<Vec<u8>, String> {
    serde_json::to_vec(&doc.0).map_err(text)
}

/// Decoded wire observations, as the analytics builders take them.
#[derive(Debug)]
pub struct ObsBatch(Vec<Observation>);

impl ObsBatch {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// `types.obs_encode`: one wire observation, built with the product's
/// builder from a generated row and written with its serializer.
pub fn encode_observation(row: &Row) -> Result<Vec<u8>, String> {
    let mut builder = Observation::builder()
        .device(DeviceId::new(row.device))
        .user(UserId::new(row.device))
        .model(DeviceModel::ALL[row.model])
        .captured_at(SimTime::from_millis(row.captured_ms))
        .arrived_at(SimTime::from_millis(row.arrived_ms))
        .spl(SoundLevel::new(row.spl()))
        .activity(Activity::ALL[row.activity])
        .mode(SensingMode::ALL[row.mode])
        .app_version(AppVersion::ALL[row.version]);
    if let Some(fix) = &row.location {
        builder = builder.location(LocationFix::new(
            GeoPoint::new(fix.lat(), fix.lon()),
            fix.accuracy(),
            LocationProvider::ALL[fix.provider],
        ));
    }
    serde_json::to_vec(&builder.build()).map_err(text)
}

/// `types.obs_decode`: wire payloads back to observations.
pub fn decode_observations(payloads: &[Vec<u8>]) -> Result<ObsBatch, String> {
    payloads
        .iter()
        .map(|p| serde_json::from_slice::<Observation>(p).map_err(text))
        .collect::<Result<Vec<_>, _>>()
        .map(ObsBatch)
}

// ------------------------------------------------------------- docstore

/// The three indexes GoFlow keeps on its observation collection.
pub const GOFLOW_INDEXES: [&str; 3] = ["model", "provider", "captured_ms"];

const COLLECTION: &str = "observations";

/// One store with its observation collection.
#[derive(Debug)]
pub struct Docs {
    store: Store,
    collection: Collection,
}

impl Docs {
    /// `Store::new()`, no indexes yet.
    pub fn open_mem() -> Docs {
        let store = Store::new();
        let collection = store.collection(COLLECTION);
        Docs { store, collection }
    }

    /// `Store::open` on `dir`: the shipped durability defaults (snapshot
    /// every 4096 records, 1 MiB segments) except that the log does not
    /// fsync each batch; replays whatever `dir` holds.
    ///
    /// With the per-batch fsync on, half of a durable insert is the
    /// sandbox's virtio disk, whose latency drifts over minutes: the same
    /// commit measured 17–21 k obs/s in alternating runs against 29.5–31.9 k
    /// with it off, a spread two to three times as wide and no property of
    /// the code. What the code decides about syncing (how many, how many
    /// bytes) is counted instead, and the probes time the log with fsync
    /// on. Snapshots still fsync (the log does so regardless of this flag).
    pub fn open_durable(dir: &Path) -> Result<Docs, String> {
        let config = DurabilityConfig::new(dir).wal(WalConfig::default().fsync(false));
        let store = Store::open(Durability::Durable(config)).map_err(text)?;
        let collection = store.collection(COLLECTION);
        Ok(Docs { store, collection })
    }

    pub fn create_indexes(&self, paths: &[&str]) -> Result<(), String> {
        paths
            .iter()
            .try_for_each(|path| self.collection.create_index(path).map_err(text))
    }

    /// `Collection::insert_many`; returns how many ids came back.
    pub fn insert_many(&self, docs: Vec<Doc>) -> Result<usize, String> {
        self.collection
            .insert_many(docs.into_iter().map(|d| d.0))
            .map(|ids| ids.len())
            .map_err(text)
    }

    pub fn len(&self) -> usize {
        self.collection.len()
    }

    pub fn export_json(&self) -> String {
        self.store.export_json()
    }

    /// Runs one prepared query: `Filter::parse` on its filter document,
    /// then the find / count / aggregate its kind asks for, each in its
    /// own span.
    pub fn run(&self, q: &Prepared, tracer: &mut Tracer, op: u64) -> Result<Found, String> {
        let filter = tracer
            .span("docstore.filter_parse", op, |_| Filter::parse(&q.filter))
            .map_err(text)?;
        match q.kind {
            QueryKind::Count => tracer
                .span("docstore.count", op, |_| self.collection.count(&filter))
                .map(Found::Count)
                .map_err(text),
            QueryKind::Agg => {
                let docs = tracer
                    .span("docstore.find_range", op, |_| self.collection.find(&filter))
                    .map_err(text)?;
                let stages = [Stage::Group(
                    GroupSpec::by("hour").accumulate("mean_spl", Accumulator::Avg("spl".into())),
                )];
                tracer
                    .span("docstore.aggregate", op, |_| aggregate(&docs, &stages))
                    .map(Found::Docs)
                    .map_err(text)
            }
            QueryKind::Point | QueryKind::RangeSorted | QueryKind::Scan | QueryKind::Extract => {
                let name = match q.kind {
                    QueryKind::Point => "docstore.find_point",
                    QueryKind::RangeSorted => "docstore.find_sorted",
                    QueryKind::Scan => "docstore.find_scan",
                    _ => "docstore.find_extract",
                };
                tracer
                    .span(name, op, |_| {
                        self.collection.find_with_options(&filter, &q.options)
                    })
                    .map(Found::Docs)
                    .map_err(text)
            }
        }
    }
}

/// A query translated once, at set-up, into what arrives at the store on
/// the wire: a JSON filter document plus find options.
#[derive(Debug, Clone)]
pub struct Prepared {
    kind: QueryKind,
    filter: Value,
    options: FindOptions,
}

pub fn prepare(query: &Query, vocab: &Vocabulary) -> Prepared {
    let range = |lo: i64, hi: i64| json!({"$gte": lo, "$lte": hi});
    let (filter, options) = match *query {
        Query::Point { model, lo, hi } => (
            json!({"model": vocab.models[model], "captured_ms": range(lo, hi)}),
            FindOptions::new(),
        ),
        Query::RangeSorted { lo, hi, limit } => (
            json!({"captured_ms": range(lo, hi)}),
            FindOptions::new()
                .sort("spl", SortOrder::Descending)
                .limit(limit),
        ),
        Query::Scan {
            spl_min_tenths,
            activity,
            limit,
        } => (
            json!({
                "spl": {"$gte": spl_min_tenths as f64 / 10.0},
                "activity": vocab.activities[activity],
            }),
            FindOptions::new().limit(limit),
        ),
        Query::Agg { lo, hi } => (json!({"captured_ms": range(lo, hi)}), FindOptions::new()),
        Query::Count { activity, day } => (
            json!({"activity": vocab.activities[activity], "day": day}),
            FindOptions::new(),
        ),
        Query::Extract { day } => (json!({"localized": true, "day": day}), FindOptions::new()),
    };
    Prepared {
        kind: query.kind(),
        filter,
        options,
    }
}

/// What a query returned.
#[derive(Debug)]
pub enum Found {
    Docs(Vec<Value>),
    Count(usize),
}

impl Found {
    /// Documents returned (1 for a count).
    pub fn returned(&self) -> usize {
        match self {
            Found::Docs(docs) => docs.len(),
            Found::Count(_) => 1,
        }
    }

    /// The result in the form the benchmark's own scan produces, for
    /// comparison. `None` when a document lacks a field it must have.
    pub fn answer(&self, kind: QueryKind) -> Option<Answer> {
        match (self, kind) {
            (Found::Count(n), _) => Some(Answer::Count(*n)),
            (Found::Docs(groups), QueryKind::Agg) => groups
                .iter()
                .map(|g| Some((g.get("_id")?.as_i64()?, g.get("mean_spl")?.as_f64()?)))
                .collect::<Option<Vec<_>>>()
                .map(|mut groups| {
                    // The pipeline orders groups by the key's JSON text
                    // ("10" before "9"); the comparison wants hour order.
                    groups.sort_by_key(|(hour, _)| *hour);
                    Answer::Groups(groups)
                }),
            (Found::Docs(docs), _) => docs
                .iter()
                .map(|d| d.get("_id")?.as_u64())
                .collect::<Option<Vec<_>>>()
                .map(Answer::Ids),
        }
    }
}

// ---------------------------------------------------------------- assim

/// Grid shape of the hourly noise maps.
pub const MAP_NX: usize = 48;
pub const MAP_NY: usize = 48;

/// A synthetic city with a truth simulator, a degraded forward model
/// (quieter roads, no venues) and the hourly BLUE analysis between them.
#[derive(Debug)]
pub struct NoiseWorld {
    truth: NoiseSimulator,
    model: NoiseSimulator,
    truth_maps: Vec<Grid>,
    analysis: DiurnalAnalysis,
    blue: Blue,
}

/// One day of localized readings, ready for assimilation.
#[derive(Debug)]
pub struct HourlyBatch(Vec<HourlyObservation>);

impl HourlyBatch {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl NoiseWorld {
    pub fn new(seed: u64) -> NoiseWorld {
        let bounds = GeoBounds::paris();
        let city = CityModel::synthetic(bounds, 4, 30, &mut SimRng::new(seed));
        let quieter: Vec<Road> = city
            .roads()
            .iter()
            .map(|r| Road {
                a: r.a,
                b: r.b,
                emission_db: r.emission_db - 4.0,
            })
            .collect();
        let truth = NoiseSimulator::new(city);
        let truth_maps = (0..24)
            .map(|h| truth.simulate_at_hour(MAP_NX, MAP_NY, h))
            .collect();
        let blue = Blue::new(4.0, 800.0);
        NoiseWorld {
            truth,
            model: NoiseSimulator::new(CityModel::new(bounds, quieter, vec![])),
            truth_maps,
            analysis: DiurnalAnalysis::new(blue, MAP_NX, MAP_NY),
            blue,
        }
    }

    /// The true level at a point and hour, dB(A); the generator adds
    /// measurement noise to this.
    pub fn truth_db(&self, lat: f64, lon: f64, hour: i64) -> f64 {
        self.truth
            .level_at_hour(GeoPoint::new(lat, lon), hour as u32)
            .db()
    }

    /// Reads `lat`, `lon`, `spl` and `hour` out of extracted documents.
    pub fn hourly_batch(&self, found: &Found) -> Option<HourlyBatch> {
        let Found::Docs(docs) = found else {
            return None;
        };
        docs.iter()
            .map(|d| {
                Some(HourlyObservation {
                    at: GeoPoint::new(d.get("lat")?.as_f64()?, d.get("lon")?.as_f64()?),
                    value_db: d.get("spl")?.as_f64()?,
                    sigma_db: 1.5,
                    hour: u32::try_from(d.get("hour")?.as_u64()?).ok()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .map(HourlyBatch)
    }

    /// `assim.diurnal_run`: the 24 hourly analyses. Returns the RMSE of
    /// the analysed maps against the truth maps, dB.
    pub fn assimilate(&self, batch: &HourlyBatch) -> Result<f64, String> {
        self.analysis
            .run(&self.model, &batch.0)
            .map(|field| field.rmse_against(&self.truth_maps))
            .map_err(text)
    }

    /// RMSE of the uncorrected forward model against the truth, dB: what
    /// assimilation has to beat.
    pub fn background_rmse_db(&self) -> f64 {
        let squares: f64 = (0..24u32)
            .map(|h| {
                self.model
                    .simulate_at_hour(MAP_NX, MAP_NY, h)
                    .rmse(&self.truth_maps[h as usize])
                    .powi(2)
            })
            .sum();
        (squares / 24.0).sqrt()
    }

    /// One forward-model run for `hour` (probe).
    pub fn simulate(&self, hour: u32) -> usize {
        self.model.simulate_at_hour(MAP_NX, MAP_NY, hour).len()
    }

    fn points(&self, batch: &HourlyBatch, hour: u32) -> Vec<PointObservation> {
        batch
            .0
            .iter()
            .filter(|o| o.hour == hour)
            .map(|o| PointObservation::new(o.at, o.value_db, o.sigma_db))
            .collect()
    }

    /// One global BLUE analysis of `hour`'s observations (probe).
    pub fn blue_global(&self, batch: &HourlyBatch, hour: u32) -> Result<usize, String> {
        let background = self.model.simulate_at_hour(MAP_NX, MAP_NY, hour);
        self.blue
            .analyse(&background, &self.points(batch, hour))
            .map(|g| g.len())
            .map_err(text)
    }

    /// The same analysis with the product's default localization (probe).
    pub fn blue_localized(&self, batch: &HourlyBatch, hour: u32) -> Result<usize, String> {
        let background = self.model.simulate_at_hour(MAP_NX, MAP_NY, hour);
        self.blue
            .analyse_localized(
                &background,
                &self.points(batch, hour),
                &Localization::for_radius(800.0),
            )
            .map(|g| g.len())
            .map_err(text)
    }

    /// The innovation system of `hour`, assembled once; the returned
    /// closure solves it (probe for the SPD solve alone).
    pub fn spd_system(&self, batch: &HourlyBatch, hour: u32) -> impl Fn() -> Result<usize, String> {
        let points = self.points(batch, hour);
        let blue = self.blue;
        let system = Matrix::from_fn(points.len(), points.len(), |i, j| {
            let diagonal = if i == j {
                points[i].sigma_db * points[i].sigma_db
            } else {
                0.0
            };
            blue.covariance(points[i].at, points[j].at) + diagonal
        });
        let rhs = vec![1.0; points.len()];
        move || {
            system
                .solve_spd_blocked(&rhs)
                .map(|w| w.len())
                .map_err(text)
        }
    }
}

// ------------------------------------------------------------ analytics

/// How many observations each report accounted for.
#[derive(Debug, PartialEq, Eq)]
pub struct ReportTotals {
    pub growth: u64,
    pub model_table: u64,
    pub accuracy_localized: u64,
    pub spl: u64,
    pub delay: u64,
    pub diurnal: u64,
    pub provider_mode: u64,
    pub activity: u64,
}

/// Builds the eight `mps-analytics` reports (Figures 8–21), each in its
/// own `analytics.*` span, and returns what each one counted.
pub fn build_reports(batch: &ObsBatch, tracer: &mut Tracer, op: u64) -> ReportTotals {
    let obs = &batch.0[..];
    let growth = tracer.span("analytics.growth", op, |_| GrowthReport::build(obs));
    let models = tracer.span("analytics.model_table", op, |_| ModelTable::build(obs));
    let accuracy = tracer.span("analytics.accuracy", op, |_| {
        AccuracyReport::build(obs, ProviderFilter::All)
    });
    let spl = tracer.span("analytics.spl", op, |_| SplReport::by_model(obs));
    let delay = tracer.span("analytics.delay", op, |_| DelayReport::build(obs));
    let diurnal = tracer.span("analytics.diurnal", op, |_| DiurnalReport::by_model(obs));
    let provider_mode = tracer.span("analytics.provider_mode", op, |_| {
        ProviderByModeReport::build(obs)
    });
    let activity = tracer.span("analytics.activity", op, |_| ActivityReport::build(obs));
    ReportTotals {
        growth: growth.final_totals().0,
        model_table: models.totals().1,
        accuracy_localized: accuracy.localized_total,
        spl: spl.groups.values().map(|h| h.total()).sum(),
        delay: delay
            .versions()
            .iter()
            .map(|v| delay.count(*v) as u64)
            .sum(),
        diurnal: diurnal.groups.values().flatten().sum(),
        provider_mode: provider_mode.counts.iter().flatten().sum(),
        activity: activity.total(),
    }
}

// ------------------------------------------------------------------ wal

/// A write-ahead log opened directly, below the document store.
#[derive(Debug)]
pub struct Log(Wal);

impl Log {
    /// `Wal::open`; also returns how many records recovery replayed.
    pub fn open(dir: &Path, fsync: bool) -> Result<(Log, usize), String> {
        Wal::open(dir, WalConfig::default().fsync(fsync))
            .map(|(wal, recovered)| (Log(wal), recovered.entries.len()))
            .map_err(text)
    }

    pub fn append(&mut self, payload: &[u8]) -> Result<(), String> {
        self.0.append(payload).map(drop).map_err(text)
    }

    pub fn append_batch(&mut self, payloads: &[Vec<u8>]) -> Result<(), String> {
        self.0.append_batch(payloads).map(drop).map_err(text)
    }

    pub fn snapshot(&mut self, state: &[u8]) -> Result<(), String> {
        self.0.snapshot(state).map(drop).map_err(text)
    }

    pub fn compact(&mut self) -> Result<(), String> {
        self.0.compact().map_err(text)
    }
}

pub fn crc32(bytes: &[u8]) -> u32 {
    mps_wal::crc32(bytes)
}

/// The insert delta the durable store logs for `doc` with id `id`, as
/// bytes: what reaches `Wal::append_batch` under a durable insert.
pub fn insert_delta(doc: &Doc, id: u64) -> Result<Vec<u8>, String> {
    let mut doc = doc.0.clone();
    if let Some(fields) = doc.as_object_mut() {
        fields.insert("_id".to_owned(), Value::from(id));
    }
    serde_json::to_vec(&json!({"op": "insert", "coll": COLLECTION, "id": id, "doc": doc}))
        .map_err(text)
}

// ------------------------------------------------------------ telemetry

/// The value of an unlabelled counter in the global registry (0 before
/// its layer first ran).
pub fn counter(name: &str) -> u64 {
    Registry::global().counter_value(name).unwrap_or(0)
}

/// How many queries took `plan` (`full_scan`, `index_eq`, ...).
pub fn plan_count(plan: &str) -> u64 {
    Registry::global()
        .counter_value_labeled("docstore_query_plans_total", &[("plan", plan)])
        .unwrap_or(0)
}

/// Handles for timing the telemetry primitives the product calls on its
/// hot paths.
#[derive(Debug)]
pub struct TelemetryProbe {
    counter: Counter,
    histogram: Histogram,
}

impl TelemetryProbe {
    pub fn new() -> Self {
        let registry = Registry::global();
        TelemetryProbe {
            counter: registry.counter("benchmark_probe_total", "Benchmark probe counter"),
            histogram: registry.histogram(
                "benchmark_probe_seconds",
                "Benchmark probe histogram",
                &Histogram::exponential_buckets(1e-7, 10.0, 9),
            ),
        }
    }

    pub fn counter_inc(&self) {
        self.counter.inc();
    }

    pub fn histogram_record(&self, seconds: f64) {
        self.histogram.observe(seconds);
    }

    /// What docstore does around every call: start a timer, drop it.
    pub fn span_timer(&self) {
        drop(SpanTimer::start(&self.histogram));
    }

    pub fn flight_record(&self, i: u64) {
        FlightRecorder::global().record(
            SpanRecord::new(TraceId::from_raw(i), Hop::DocstoreWrite, i as i64)
                .outcome(Outcome::Ok),
        );
    }

    pub fn render_text(&self) -> usize {
        Registry::global().render_text().len()
    }
}
