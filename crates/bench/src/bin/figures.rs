//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! # everything, light two-month replay:
//! cargo run --release -p mps-bench --bin figures -- all --quick
//! # one exhibit, the 10-month 1/100-scale replay:
//! cargo run --release -p mps-bench --bin figures -- fig17
//! ```
//!
//! Exhibits: `fig4 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16
//! fig17 fig18 fig19 fig20 fig21 calib hourly resilience tracing fleet
//! all`.
//!
//! The `tracing` exhibit drives a seeded faulted pipeline run, renders
//! the per-hop latency waterfall, loss-attribution table and a sample
//! trace timeline from the flight recorder, and exits non-zero if any
//! trace failed to reach a terminal outcome. `--trace-export=PATH`
//! additionally writes the raw span stream as JSONL.
//!
//! The `fleet` exhibit deploys the broker and the docstore behind real
//! TCP servers, pushes a faulted upload run through them, fans in a
//! 200-member slice of a million-device [`mps_mobile::Fleet`] over a
//! clean `RemoteBroker` uplink, then scrapes
//! both daemons' admin opcodes exactly as `xtask obs` would and prints
//! the merged ops dashboard (fleet table, cross-process waterfall, loss
//! conservation, top slow RPCs, SLO burn). It exits non-zero if an
//! instance is unready or the trace ledger does not balance.

use mps_analytics::{
    AccuracyReport, ActivityReport, DelayReport, DiurnalReport, GrowthReport, ModelTable,
    ProviderByModeReport, ProviderFilter, SplReport,
};
use mps_bench::{figure_dataset, longitudinal_dataset};
use mps_core::{BatteryLab, CalibrationStrategy, CalibrationStudy, Dataset};
use mps_types::{Activity, AppVersion, DeviceModel, LocationProvider, SensingMode};
use std::collections::BTreeSet;

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn fig4() {
    header("Figure 4 — noise map vs complaint locations (San Francisco motivation)");
    let study = CalibrationStudy::new(42);
    let r = study.fig4_correlation();
    println!("noise/complaint per-cell correlation: r = {r:.2}");
    println!("paper: 'strong correlation' between simulated noise and 311 complaints");
}

fn fig8(dataset: &Dataset) {
    header("Figure 8 — contributed observations over the deployment");
    let growth = GrowthReport::build(&dataset.observations);
    print!("{growth}");
    let (total, localized) = growth.final_totals();
    println!(
        "final: {total} observations, {:.1}% localized  (paper: 45M total over 10 months, ~40% localized; scaled replay)",
        localized as f64 / total.max(1) as f64 * 100.0
    );
    println!("accelerating growth: {}", growth.accelerated());
}

fn fig9(dataset: &Dataset) {
    header("Figure 9 — top 20 models (devices / measurements / localized)");
    let table = ModelTable::build(&dataset.observations);
    print!("{table}");
    println!("\npaper totals: 2 091 devices, 23 108 136 measurements, 9 556 174 localized (41.4%)");
    println!(
        "paper per-model localized%: I9505 43.2, D5803 71.0, HTCONE_M8 20.8, GT-P5210 21.7 ..."
    );
}

fn accuracy_figure(dataset: &Dataset, filter: ProviderFilter, title: &str, paper_note: &str) {
    header(title);
    let report = AccuracyReport::build(&dataset.observations, filter);
    print!("{report}");
    println!("{paper_note}");
}

fn fig14(dataset: &Dataset) {
    header("Figure 14 — raw SPL distribution (‰) per model");
    let report = SplReport::by_model(&dataset.observations);
    println!(
        "{:<18} {:>8} {:>10} {:>12}",
        "model", "n", "peak dB", "active bump"
    );
    for (label, hist) in &report.groups {
        println!(
            "{:<18} {:>8} {:>10.1} {:>11.1}%",
            label,
            hist.total(),
            hist.peak_center().unwrap_or(f64::NAN),
            bump_share(&report, label) * 100.0
        );
    }
    println!(
        "\ncross-model peak spread: {:.1} dB  (paper: peak position 'varies significantly across device models')",
        report.peak_spread_db()
    );
}

fn bump_share(report: &SplReport, label: &str) -> f64 {
    let hist = &report.groups[label];
    let edges = hist.edges();
    let above: u64 = hist
        .counts()
        .iter()
        .enumerate()
        .filter(|(i, _)| edges[*i] >= 55.0)
        .map(|(_, c)| *c)
        .sum();
    (above + hist.overflow()) as f64 / hist.total().max(1) as f64
}

fn fig15(longitudinal: &Dataset) {
    header("Figure 15 — raw SPL distribution (‰) for top users of SAMSUNG SM-G901F");
    let report =
        SplReport::by_user_of_model(&longitudinal.observations, DeviceModel::SamsungSmG901f, 20);
    println!("{:<12} {:>8} {:>10}", "user", "n", "peak dB");
    for (label, hist) in &report.groups {
        println!(
            "{:<12} {:>8} {:>10.1}",
            label,
            hist.total(),
            hist.peak_center().unwrap_or(f64::NAN)
        );
    }
    println!(
        "\nsame-model user peak spread: {:.1} dB  (paper: same-model measurements 'follow much similar patterns')",
        report.peak_spread_db()
    );
}

fn fig16() {
    header("Figure 16 — battery depletion per client version / radio");
    let report = BatteryLab::new().run();
    print!("{report}");
    println!(
        "\npaper: unbuffered+WiFi ≈ 2x no-app; 3G +50% over WiFi; buffered < +50% over no-app"
    );
}

fn fig17(longitudinal: &Dataset) {
    header("Figure 17 — transmission delay vs energy efficiency (CDF per version)");
    let report = DelayReport::build(&longitudinal.observations);
    print!("{report}");
    println!(
        "\npaper (v1.2.9): ~30% within 10 s, ~35% beyond 2 h; (v1.3): most of the rest within 1 h, ~45% beyond 2 h"
    );
    for v in report.versions() {
        if let Some(m) = report.median_s(v) {
            println!("median delay {v}: {m:.0} s");
        }
    }
}

fn fig18(dataset: &Dataset) {
    header("Figure 18 — daily distribution (%) of measurements, top-20 models");
    let report = DiurnalReport::by_model(&dataset.observations);
    print!("{report}");
    println!(
        "10:00-21:00 share: {:.1}%  (paper: 'highest participation from 10AM to 9PM')",
        report.fraction_between(10, 21) * 100.0
    );
    println!("all 24 hours covered: {}", report.covers_all_hours());
}

fn fig19(longitudinal: &Dataset) {
    header("Figure 19 — daily distributions of individual One Plus One users");
    let report =
        DiurnalReport::by_user_of_model(&longitudinal.observations, DeviceModel::OneplusA0001, 10);
    println!("{:<12} {:>8} {:>10}", "user", "n", "peak hour");
    let peaks = report.peak_hours();
    for (label, counts) in &report.groups {
        println!(
            "{:<12} {:>8} {:>10}",
            label,
            counts.iter().sum::<u64>(),
            peaks.get(label).copied().unwrap_or(0)
        );
    }
    let distinct: BTreeSet<u32> = peaks.into_values().collect();
    println!(
        "\ndistinct peak hours across users: {}  (paper: 'quite large diversity' across users)",
        distinct.len()
    );
}

fn fig20(dataset: &Dataset, longitudinal: &Dataset) {
    header("Figure 20 — location providers by sensing mode");
    let report = ProviderByModeReport::build(&dataset.observations);
    print!("{report}");
    println!(
        "\nmanual GPS gain: {:+.1} pts  (paper: > +20 pts)",
        report.gps_gain_pts(SensingMode::Manual)
    );
    let journey = ProviderByModeReport::build(&longitudinal.observations);
    if journey.total(SensingMode::Journey) > 0 {
        println!(
            "journey GPS gain (longitudinal replay): {:+.1} pts  (paper: ~+40 pts)",
            journey.gps_gain_pts(SensingMode::Journey)
        );
    }
}

fn fig21(dataset: &Dataset) {
    header("Figure 21 — distribution of user activities");
    let report = ActivityReport::build(&dataset.observations);
    print!("{report}");
    println!(
        "\nstill {:.0}% / moving {:.1}% / unqualified {:.0}%  (paper: ~70% / <10% / ~20%)",
        report.share(Activity::Still) * 100.0,
        report.moving_share() * 100.0,
        report.unqualified_share() * 100.0
    );
}

fn hourly() {
    header("Hourly assimilation (Section 8 research direction)");
    use mps_assim::{Blue, CityModel, DiurnalAnalysis, HourlyObservation, NoiseSimulator, Road};
    use mps_simcore::SimRng;
    use mps_types::GeoBounds;
    let mut rng = SimRng::new(42);
    let city = CityModel::synthetic(GeoBounds::paris(), 4, 30, &mut rng);
    let truth_sim = NoiseSimulator::new(city.clone());
    let degraded: Vec<Road> = city
        .roads()
        .iter()
        .map(|r| Road {
            a: r.a,
            b: r.b,
            emission_db: r.emission_db - 4.0,
        })
        .collect();
    let model_sim = NoiseSimulator::new(CityModel::new(GeoBounds::paris(), degraded, vec![]));
    let truth: Vec<_> = (0..24)
        .map(|h| truth_sim.simulate_at_hour(16, 16, h))
        .collect();
    let mut observations = Vec::new();
    for hour in 0..24u32 {
        for _ in 0..12 {
            let at =
                GeoBounds::paris().lerp(rng.uniform_in(0.05, 0.95), rng.uniform_in(0.05, 0.95));
            observations.push(HourlyObservation {
                at,
                value_db: truth[hour as usize].sample(at).expect("inside") + rng.normal(0.0, 1.0),
                sigma_db: 1.5,
                hour,
            });
        }
    }
    let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);
    let hourly = analysis.run(&model_sim, &observations).expect("analysis");
    let static_field = analysis
        .run_static(&model_sim, &observations)
        .expect("analysis");
    println!("RMSE vs hour-varying truth over 24 hourly maps:");
    println!(
        "  static all-day analysis : {:.2} dB",
        static_field.rmse_against(&truth)
    );
    println!(
        "  hourly analyses         : {:.2} dB",
        hourly.rmse_against(&truth)
    );
    println!("\npaper (§8): time-varying urban phenomena call for adapted assimilation;");
    println!("hour-resolved analyses track the diurnal cycle a static map cannot.");
}

fn calib() {
    header("Calibration-granularity ablation (Section 5.2 claim)");
    let study = CalibrationStudy::new(42);
    for strategy in CalibrationStrategy::ALL {
        println!("{:<22} {}", strategy.label(), study.run(strategy));
    }
    println!("\npaper: 'calibration may be achieved per model rather than per device'");
}

fn resilience() {
    header("Resilience — message conservation under seeded fault plans (Section 6 'don'ts')");
    use mps_faults::{FaultPlan, FaultSpec, FaultyLink, Link, LinkError};
    use mps_types::SimTime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Sink(AtomicU64);
    impl Link for Sink {
        fn send(&self, _route: &str, _payload: &[u8]) -> Result<usize, LinkError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(1)
        }
    }

    const SENT: u64 = 10_000;
    println!(
        "{:<16} {:>7} {:>8} {:>8} {:>10} {:>7} {:>6} {:>9} {:>12}",
        "plan",
        "sent",
        "arrived",
        "dropped",
        "blackholed",
        "dup",
        "delay",
        "reordered",
        "conserved"
    );
    for (label, spec) in [
        ("none", FaultSpec::none()),
        ("flaky-cellular", FaultSpec::flaky_cellular()),
        (
            "stress+blackhole",
            FaultSpec::stress().with_blackhole(
                "obs.paris",
                SimTime::from_millis(2_000_000),
                SimTime::from_millis(4_000_000),
            ),
        ),
    ] {
        let link = FaultyLink::new(Sink::default(), FaultPlan::new(42, spec));
        for i in 0..SENT {
            let now = SimTime::from_millis(i as i64 * 1_000);
            link.advance_to(now).expect("sink never fails");
            link.send_at("obs.paris.noise", b"{}", now)
                .expect("sink never fails");
        }
        link.drain_pending().expect("sink never fails");
        let stats = link.stats();
        let arrived = link.inner().0.load(Ordering::Relaxed);
        let conserved = arrived + stats.dropped + stats.blackholed == SENT + stats.duplicated;
        println!(
            "{:<16} {:>7} {:>8} {:>8} {:>10} {:>7} {:>6} {:>9} {:>12}",
            label,
            SENT,
            arrived,
            stats.dropped,
            stats.blackholed,
            stats.duplicated,
            stats.delayed,
            stats.reordered,
            if conserved { "yes" } else { "NO — BUG" }
        );
    }
    println!("\nevery loss is injected and counted: arrived + dropped + blackholed");
    println!("== sent + duplicated, for any seed (see broker proptests and");
    println!("tests/resilience_pipeline.rs for the machine-checked versions).");
}

fn tracing(export: Option<&str>) {
    header("Tracing — latency waterfall and loss attribution from the flight recorder");
    use mps_assim::{Blue, CityModel, DiurnalAnalysis, HourlyObservation, NoiseSimulator};
    use mps_broker::Broker;
    use mps_faults::{FaultPlan, FaultSpec, FaultyLink, Link, LinkError};
    use mps_goflow::{GoFlowServer, ObservationQuery, ObservationRecord, Role};
    use mps_mobile::{BrokerLink, GoFlowClient, RetryPolicy};
    use mps_simcore::SimRng;
    use mps_telemetry::trace::{
        FlightRecorder, LatencyWaterfall, LossAttribution, TraceId, TraceIndex,
    };
    use mps_types::{AppId, GeoBounds, LocationFix, Observation, SimDuration, SimTime, SoundLevel};
    use std::sync::Arc;

    struct DownLink;
    impl Link for DownLink {
        fn send(&self, _route: &str, _payload: &[u8]) -> Result<usize, LinkError> {
            Err(LinkError::Unavailable("server outage".into()))
        }
    }

    let recorder = FlightRecorder::global();
    recorder.clear();

    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), mps_docstore::Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).expect("register app");
    server.set_late_quarantine(Some(SimDuration::from_mins(10)));
    let token = server
        .register_user(&app, 11.into(), Role::Contributor)
        .expect("register user");
    let session = server.login(&token).expect("login");
    let key = session.observation_key("noise", "FR75013");

    // Four simulated hours, one observation per minute, through drops,
    // delays, duplicates, a 15-minute black-hole and a visible outage.
    let spec = FaultSpec {
        drop_prob: 0.08,
        delay_prob: 0.20,
        mean_delay: SimDuration::from_mins(5),
        duplicate_prob: 0.05,
        max_duplicates: 2,
        reorder_prob: 0.05,
        reorder_window: SimDuration::from_secs(30),
        ..FaultSpec::none()
    }
    .with_blackhole(
        "",
        SimTime::EPOCH + SimDuration::from_mins(120),
        SimTime::EPOCH + SimDuration::from_mins(135),
    );
    let faulty = FaultyLink::new(
        BrokerLink::new(&broker, session.exchange()),
        FaultPlan::new(20_160, spec),
    );
    let mut client = GoFlowClient::new(session.exchange(), key, AppVersion::V1_2_9)
        .with_retry_policy(
            RetryPolicy {
                max_attempts: 20,
                ..RetryPolicy::default()
            },
            7,
        );

    const CYCLES: i64 = 240;
    const OUTAGE: std::ops::Range<i64> = 60..75;
    let bounds = GeoBounds::paris();
    let mut rng = SimRng::new(9);
    for i in 0..CYCLES {
        let now = SimTime::EPOCH + SimDuration::from_mins(i);
        let at = bounds.lerp(rng.uniform_in(0.05, 0.95), rng.uniform_in(0.05, 0.95));
        client.record(
            Observation::builder()
                .device(11.into())
                .user(11.into())
                .model(DeviceModel::LgeNexus5)
                .captured_at(now)
                .spl(SoundLevel::new(45.0 + (i % 30) as f64))
                .location(LocationFix::new(at, 30.0, LocationProvider::Network))
                .app_version(AppVersion::V1_2_9)
                .build(),
        );
        if OUTAGE.contains(&i) {
            client.on_cycle_at(&DownLink, true, now);
        } else {
            faulty.advance_to(now).expect("broker link never fails");
            client.on_cycle_at(&faulty.at(now), true, now);
        }
    }
    let end = SimTime::EPOCH + SimDuration::from_mins(CYCLES);
    client.flush_at(&faulty.at(end), end);
    faulty.drain_pending().expect("broker link never fails");

    // A crash-looping consumer dead-letters the two oldest survivors.
    let gf_queue = "gf-SC-queue";
    for _ in 0..5 {
        for delivery in broker.consume(gf_queue, 2).expect("gf queue") {
            broker.nack(gf_queue, delivery.tag, true).expect("nack");
        }
    }

    server.ingest_pending(&app, end, 1_000_000).expect("ingest");

    // Hour-resolved assimilation over everything stored: the fan-in span
    // links every member observation's trace into one analysis product.
    let docs = server.query(&app, &ObservationQuery::new()).expect("query");
    let mut members: Vec<TraceId> = Vec::new();
    let mut observations = Vec::new();
    let stored = docs
        .iter()
        .filter_map(|doc| Some((ObservationRecord::from_document(doc)?, doc)));
    for (obs, doc) in stored {
        let Some(fix) = obs.location else { continue };
        members.extend(ObservationRecord::trace(doc));
        observations.push(HourlyObservation {
            at: fix.point,
            value_db: obs.spl.db(),
            sigma_db: 1.5,
            hour: obs.captured_at.hour_of_day(),
        });
    }
    let city = CityModel::synthetic(bounds, 4, 30, &mut rng);
    let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 8, 8);
    analysis
        .run_traced(
            &NoiseSimulator::new(city),
            &observations,
            &members,
            "epoch+4h",
            end.as_millis(),
        )
        .expect("assimilation");

    let spans = recorder.snapshot();
    let index = TraceIndex::from_spans(spans.clone());
    println!(
        "spans recorded: {} (ring dropped {}), traces: {}",
        recorder.recorded(),
        recorder.dropped(),
        index.len()
    );

    println!("\nper-hop latency waterfall (sim-clock):");
    print!("{}", LatencyWaterfall::from_spans(&spans).render());

    println!("\nloss attribution (cross-checks the conservation counters):");
    print!("{}", LossAttribution::from_spans(&spans).render());

    let busiest = index
        .iter()
        .filter(|t| t.spans.iter().all(|s| s.links.is_empty()))
        .max_by_key(|t| t.spans.len())
        .expect("at least one observation trace");
    println!("\nbusiest observation trace:");
    print!("{}", busiest.render());

    if let Some(path) = export {
        std::fs::write(path, recorder.export_jsonl()).expect("write trace export");
        println!("\nexported {} spans to {path}", recorder.recorded());
    }

    let unterminated = index.unterminated();
    if !unterminated.is_empty() {
        eprintln!(
            "BUG: {} traces have no terminal outcome: {:?}",
            unterminated.len(),
            unterminated
        );
        std::process::exit(1);
    }
    println!("\nevery trace reached a terminal outcome (stored, quarantined,");
    println!("dead-lettered, dropped or black-holed): zero silent loss, attributed per hop.");
}

fn fleet() {
    header("Fleet — multi-process ops dashboard over the admin opcodes");
    use mps_broker::{Broker, BrokerTransport};
    use mps_docstore::{DocstoreTransport, Store};
    use mps_faults::{FaultPlan, FaultSpec};
    use mps_goflow::{GoFlowServer, Role};
    use mps_mobile::{BrokerLink, Fleet, GoFlowClient, RetryPolicy};
    use mps_net::client::ClientConfig;
    use mps_net::fleet::{Endpoint, FleetSnapshot};
    use mps_net::{
        BrokerService, DocstoreService, RemoteBroker, RemoteStore, ServerConfig, SocketFaultProxy,
        WireServer,
    };
    use mps_telemetry::trace::FlightRecorder;
    use mps_types::{
        AppId, GeoPoint, LocationFix, LocationProvider, Observation, SensingMode, SimDuration,
        SimTime, SoundLevel,
    };
    use std::sync::Arc;

    let recorder = FlightRecorder::global();
    recorder.clear();

    // The two daemons, exactly as `mps-brokerd` / `mps-docstored` would
    // run them, with fleet instance names.
    let broker_backend: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    let broker_srv = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(BrokerService::new(Arc::clone(&broker_backend))),
        ServerConfig {
            instance: "brokerd".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("bind brokerd");
    let store_backend: Arc<dyn DocstoreTransport> = Arc::new(Store::new());
    let store_srv = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(DocstoreService::new(store_backend)),
        ServerConfig {
            instance: "docstored".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("bind docstored");

    // GoFlow talks to both over the wire; the mobile upload path goes
    // through a fault proxy that tears a fifth of the TCP frames.
    let remote_broker: Arc<dyn BrokerTransport> = Arc::new(RemoteBroker::connect(
        broker_srv.local_addr().to_string(),
        ClientConfig::default(),
    ));
    let remote_store: Arc<dyn DocstoreTransport> = Arc::new(RemoteStore::connect(
        store_srv.local_addr().to_string(),
        ClientConfig::default(),
    ));
    let server = GoFlowServer::over(remote_broker, remote_store);
    let app = AppId::soundcity();
    server.register_app(&app).expect("register app");
    let token = server
        .register_user(&app, 23.into(), Role::Contributor)
        .expect("register user");
    let session = server.login(&token).expect("login");
    let key = session.observation_key("noise", "FR75013");
    let spec = FaultSpec {
        drop_prob: 0.2,
        ..FaultSpec::none()
    };
    let mut proxy = SocketFaultProxy::start(broker_srv.local_addr(), FaultPlan::new(515, spec))
        .expect("start fault proxy");
    let faulted_broker =
        RemoteBroker::connect(proxy.local_addr().to_string(), ClientConfig::default());
    let link = BrokerLink::new(&faulted_broker, session.exchange());

    const COUNT: i64 = 60;
    let mut client = GoFlowClient::new(session.exchange(), key, AppVersion::V1_2_9)
        .with_retry_policy(
            RetryPolicy {
                max_attempts: 50,
                ..RetryPolicy::default()
            },
            13,
        );
    for i in 0..COUNT {
        let now = SimTime::EPOCH + SimDuration::from_mins(i);
        client.record(
            Observation::builder()
                .device(23.into())
                .user(23.into())
                .model(DeviceModel::LgeNexus5)
                .captured_at(now)
                .spl(SoundLevel::new(48.0 + (i % 20) as f64))
                .location(LocationFix::new(
                    GeoPoint::PARIS,
                    25.0,
                    LocationProvider::Network,
                ))
                .app_version(AppVersion::V1_2_9)
                .build(),
        );
        client.on_cycle_at(&link, true, now);
    }
    let mut now = SimTime::EPOCH + SimDuration::from_mins(COUNT);
    for _ in 0..200 {
        if client.pending() == 0 && client.queued_retries() == 0 {
            break;
        }
        client.flush_at(&link, now);
        now += SimDuration::from_mins(5);
    }
    server
        .ingest_pending(&app, now, 1_000_000)
        .expect("ingest stored observations");

    // A fleet slice on top of the single faulted client: 200 members of
    // a million-device crowd (every 5 000th index) upload one capture
    // each through a clean TCP uplink to the same brokerd, exercising
    // the `RemoteBroker` path at fan-in before the dashboard scrape.
    let fleet = Fleet::new(29, 1_000_000);
    let uplink: Arc<dyn BrokerTransport> = Arc::new(RemoteBroker::connect(
        broker_srv.local_addr().to_string(),
        ClientConfig::default(),
    ));
    let mut published = 0usize;
    for index in fleet.shard_members(0, 5_000) {
        let mut device = fleet.device(index);
        let obs = device.capture(now, SensingMode::Opportunistic);
        let fleet_key = session.observation_key("noise", &format!("Z{:03}", index % 120));
        let payload = serde_json::to_vec(&obs).expect("serializable observation");
        uplink
            .publish(session.exchange(), &fleet_key, &payload)
            .expect("fleet publish over TCP");
        published += 1;
    }
    let outcome = server
        .ingest_pending(&app, now + SimDuration::from_mins(5), published)
        .expect("ingest fleet observations");
    assert_eq!(
        outcome.stored, published,
        "fleet slice must store every published observation"
    );
    println!(
        "\nfleet slice: {published} of {} devices uploaded one capture each over real",
        fleet.len()
    );
    println!(
        "TCP (RemoteBroker -> brokerd); the whole crowd would offer ~{:.1}M obs/day,",
        fleet.expected_observations_per_day() / 1e6
    );
    println!(
        "peaking at ~{:.0} arrivals per 5-minute slot.",
        fleet.peak_slot_arrivals()
    );

    // Scrape both daemons exactly as `xtask obs` would (drain mode, so
    // the shared in-process recorder is exported exactly once).
    let endpoints = [
        Endpoint {
            name: "brokerd".to_string(),
            addr: broker_srv.local_addr().to_string(),
        },
        Endpoint {
            name: "docstored".to_string(),
            addr: store_srv.local_addr().to_string(),
        },
    ];
    let snapshot = FleetSnapshot::scrape(&endpoints, &ClientConfig::default(), true);
    print!("{}", snapshot.render_dashboard(50.0));
    proxy.stop();

    let ledger = snapshot.conservation();
    let ready = snapshot
        .instances
        .iter()
        .all(|i| i.error.is_none() && i.ready());
    if !ready || !ledger.balanced() {
        eprintln!("BUG: fleet unhealthy (ready {ready}) or ledger unbalanced ({ledger:?})");
        std::process::exit(1);
    }
    println!("\nboth daemons scraped over their own wire protocol: merged metrics,");
    println!("stitched traces and slow RPCs from one `figures fleet` invocation.");
}

fn pipeline_health() {
    header("Pipeline health — aggregate telemetry from this run");
    let registry = mps_telemetry::Registry::global();
    if registry.names().is_empty() {
        println!("no metrics recorded (no exhibit exercised the pipeline)");
        return;
    }
    print!("{}", registry.render_text());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_export = args
        .iter()
        .find_map(|a| a.strip_prefix("--trace-export="))
        .map(str::to_owned);
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let wanted: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        vec![
            "fig4",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "calib",
            "resilience",
            "tracing",
            "fleet",
        ]
    } else {
        wanted
    };

    let needs_main = wanted.iter().any(|w| {
        matches!(
            *w,
            "fig8"
                | "fig9"
                | "fig10"
                | "fig11"
                | "fig12"
                | "fig13"
                | "fig14"
                | "fig18"
                | "fig20"
                | "fig21"
        )
    });
    let needs_long = wanted
        .iter()
        .any(|w| matches!(*w, "fig15" | "fig17" | "fig19" | "fig20"));

    let dataset = if needs_main {
        eprintln!(
            "running the {} deployment replay...",
            if quick { "quick" } else { "paper-scaled" }
        );
        Some(figure_dataset(quick))
    } else {
        None
    };
    let longitudinal = if needs_long {
        eprintln!("running the longitudinal (10-month, 2-model) replay...");
        Some(longitudinal_dataset())
    } else {
        None
    };
    // A stored document that does not decode would silently shrink every
    // figure computed from its replay.
    for replay in dataset.iter().chain(&longitudinal) {
        if replay.undecoded > 0 {
            eprintln!(
                "BUG: {} stored documents do not decode as observations",
                replay.undecoded
            );
            std::process::exit(1);
        }
    }

    for figure in wanted {
        match figure {
            "fig4" => fig4(),
            "fig8" => fig8(dataset.as_ref().expect("main replay")),
            "fig9" => fig9(dataset.as_ref().expect("main replay")),
            "fig10" => accuracy_figure(
                dataset.as_ref().expect("main replay"),
                ProviderFilter::All,
                "Figure 10 — location accuracy distribution (all providers)",
                "paper: most observations in the 20-50 m range, peak just below 100 m",
            ),
            "fig11" => accuracy_figure(
                dataset.as_ref().expect("main replay"),
                ProviderFilter::Only(LocationProvider::Gps),
                "Figure 11 — location accuracy distribution (GPS)",
                "paper: most GPS fixes in the 6-20 m range; GPS ≈ 7% of localized",
            ),
            "fig12" => accuracy_figure(
                dataset.as_ref().expect("main replay"),
                ProviderFilter::Only(LocationProvider::Network),
                "Figure 12 — location accuracy distribution (network)",
                "paper: network ≈ 86% of localized; 20-50 m range dominates",
            ),
            "fig13" => accuracy_figure(
                dataset.as_ref().expect("main replay"),
                ProviderFilter::Only(LocationProvider::Fused),
                "Figure 13 — location accuracy distribution (fused)",
                "paper: fused ≈ 7% of localized; few models provide it; accuracy rather low",
            ),
            "fig14" => fig14(dataset.as_ref().expect("main replay")),
            "fig15" => fig15(longitudinal.as_ref().expect("longitudinal replay")),
            "fig16" => fig16(),
            "fig17" => fig17(longitudinal.as_ref().expect("longitudinal replay")),
            "fig18" => fig18(dataset.as_ref().expect("main replay")),
            "fig19" => fig19(longitudinal.as_ref().expect("longitudinal replay")),
            "fig20" => fig20(
                dataset.as_ref().expect("main replay"),
                longitudinal.as_ref().expect("longitudinal replay"),
            ),
            "fig21" => fig21(dataset.as_ref().expect("main replay")),
            "calib" => calib(),
            "hourly" => hourly(),
            "resilience" => resilience(),
            "tracing" => tracing(trace_export.as_deref()),
            "fleet" => fleet(),
            other => eprintln!(
                "unknown exhibit: {other} (try fig4..fig21, calib, hourly, resilience, tracing, fleet, all)"
            ),
        }
    }

    pipeline_health();

    // Version stamp for EXPERIMENTS.md bookkeeping.
    let _ = AppVersion::ALL;
}
