//! Cross-crate integration of the middleware stack: broker topology,
//! GoFlow server, document store and the mobile client working together
//! without the crowd simulator.

use serde_json::json;
use soundcity::broker::Broker;
use soundcity::docstore::{Filter, FindOptions, SortOrder, Store};
use soundcity::goflow::{GoFlowServer, ObservationQuery, Packaging, Role};
use soundcity::mobile::GoFlowClient;
use soundcity::types::{
    AppId, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation,
    SensingMode, SimDuration, SimTime, SoundLevel,
};
use std::sync::Arc;

fn observation(i: i64, localized: bool) -> Observation {
    let mut b = Observation::builder()
        .device(9.into())
        .user(9.into())
        .model(DeviceModel::SonyD6603)
        .captured_at(SimTime::from_hms(0, 9, 0, 0) + SimDuration::from_mins(5 * i))
        .spl(SoundLevel::new(40.0 + i as f64))
        .mode(SensingMode::Opportunistic)
        .app_version(AppVersion::V1_3);
    if localized {
        b = b.location(LocationFix::new(
            GeoPoint::new(48.85, 2.35),
            25.0,
            LocationProvider::Network,
        ));
    }
    b.build()
}

/// The paper's v1.3 buffering client, run against the real server: ten
/// measurements buffer into one batch, which the server unpacks into ten
/// stored documents with correct arrival stamps.
#[test]
fn buffered_client_through_server_roundtrip() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 9.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();

    let mut client = GoFlowClient::new(
        session.exchange(),
        session.observation_key("noise", "FR75005"),
        AppVersion::V1_3,
    );
    for i in 0..10 {
        client.record(observation(i, i % 2 == 0));
        client.on_cycle(&broker, true).unwrap();
    }
    assert_eq!(client.total_transfers(), 1, "ten measurements, one batch");

    let arrival = SimTime::from_hms(0, 10, 0, 0);
    let outcome = server.ingest_pending(&app, arrival, 10).unwrap();
    assert_eq!(outcome.stored, 10);

    // Delays: capture times spread over 45 min before the single arrival.
    let docs = server.query(&app, &ObservationQuery::new()).unwrap();
    assert_eq!(docs.len(), 10);
    let delays: Vec<i64> = docs
        .iter()
        .map(|d| d["delay_ms"].as_i64().unwrap())
        .collect();
    assert_eq!(delays.iter().max(), Some(&(3_600_000)));
    assert_eq!(delays.iter().min(), Some(&(3_600_000 - 45 * 60_000)));

    // Filtered retrieval agrees with what the client sent.
    let localized = server
        .query(&app, &ObservationQuery::new().localized_only())
        .unwrap();
    assert_eq!(localized.len(), 5);
}

/// A disconnected client defers; on reconnection, the unbuffered version
/// pays one transfer per pending observation.
#[test]
fn disconnection_retry_through_stack() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 9.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let mut client = GoFlowClient::new(
        session.exchange(),
        session.observation_key("noise", "FR75005"),
        AppVersion::V1_2_9,
    );

    for i in 0..4 {
        client.record(observation(i, false));
        let sent = client.on_cycle(&broker, false).unwrap();
        assert_eq!(sent.transfers, 0);
    }
    assert_eq!(client.pending(), 4);
    let sent = client.on_cycle(&broker, true).unwrap();
    assert_eq!(sent.transfers, 4);
    let outcome = server
        .ingest_pending(&app, SimTime::from_hms(0, 12, 0, 0), 100)
        .unwrap();
    assert_eq!(outcome.stored, 4);
}

/// GoFlow's storage plays well with raw docstore power-tools (sorting,
/// aggregation-style counting) on the documents it writes.
#[test]
fn stored_documents_are_queryable_with_docstore_primitives() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 9.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let mut client = GoFlowClient::new(
        session.exchange(),
        session.observation_key("noise", "FR75005"),
        AppVersion::V1_2_9,
    );
    for i in 0..6 {
        client.record(observation(i, true));
        client.on_cycle(&broker, true).unwrap();
    }
    server
        .ingest_pending(&app, SimTime::from_hms(0, 11, 0, 0), 100)
        .unwrap();

    let collection = server.collection(&app).unwrap();
    // Sorted cursor, loudest first.
    let loudest = collection
        .find_with_options(
            &Filter::True,
            &FindOptions::new()
                .sort("spl", SortOrder::Descending)
                .limit(1),
        )
        .unwrap();
    assert_eq!(loudest[0]["spl"], json!(45.0));
    // Range count via the indexed path.
    let recent = collection
        .count(&Filter::gte(
            "captured_ms",
            SimTime::from_hms(0, 9, 20, 0).as_millis(),
        ))
        .unwrap();
    assert_eq!(recent, 2);
}

/// The Figure 3 topology isolates applications: a second app's clients
/// never see SoundCity's traffic, and vice versa.
#[test]
fn applications_are_isolated() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let sc = AppId::soundcity();
    let other = AppId::new("AIRQUALITY");
    server.register_app(&sc).unwrap();
    server.register_app(&other).unwrap();

    let sc_token = server
        .register_user(&sc, 1.into(), Role::Contributor)
        .unwrap();
    let other_token = server
        .register_user(&other, 2.into(), Role::Contributor)
        .unwrap();
    let sc_session = server.login(&sc_token).unwrap();
    let other_session = server.login(&other_token).unwrap();

    let obs = observation(0, true);
    broker
        .publish(
            sc_session.exchange(),
            &sc_session.observation_key("noise", "FR75001"),
            serde_json::to_vec(&obs).unwrap(),
        )
        .unwrap();
    broker
        .publish(
            other_session.exchange(),
            &other_session.observation_key("pm25", "FR75001"),
            serde_json::to_vec(&obs).unwrap(),
        )
        .unwrap();

    let now = SimTime::from_hms(0, 10, 0, 0);
    assert_eq!(server.ingest_pending(&sc, now, 10).unwrap().stored, 1);
    assert_eq!(server.ingest_pending(&other, now, 10).unwrap().stored, 1);
    assert_eq!(
        server.query(&sc, &ObservationQuery::new()).unwrap().len(),
        1
    );
    assert_eq!(
        server
            .query(&other, &ObservationQuery::new())
            .unwrap()
            .len(),
        1
    );
    // Storage namespaces differ.
    assert!(server.store().has_collection("obs-SC"));
    assert!(server.store().has_collection("obs-AIRQUALITY"));
}

/// Raw broker + docstore wiring (no GoFlow): a consumer persisting a
/// topic-filtered stream — the minimal "build your own pipeline" path a
/// downstream user might take.
#[test]
fn diy_pipeline_with_broker_and_store() {
    let broker = Broker::new();
    broker.declare_exchange("feed").unwrap();
    broker.declare_queue("loud-events").unwrap();
    broker
        .bind_queue("feed", "loud-events", "obs.*.loud")
        .unwrap();

    for (zone, kind) in [("a", "loud"), ("b", "quiet"), ("c", "loud")] {
        broker
            .publish(
                "feed",
                &format!("obs.{zone}.{kind}"),
                json!({"zone": zone}).to_string().into_bytes(),
            )
            .unwrap();
    }

    let store = Store::new();
    let sink = store.collection("loud");
    for delivery in broker.consume("loud-events", 100).unwrap() {
        let doc: serde_json::Value = serde_json::from_slice(delivery.payload()).unwrap();
        sink.insert_one(doc).unwrap();
        broker.ack("loud-events", delivery.tag).unwrap();
    }
    assert_eq!(sink.len(), 2);
    assert_eq!(sink.count(&Filter::eq("zone", "a")).unwrap(), 1);
    assert_eq!(sink.count(&Filter::eq("zone", "b")).unwrap(), 0);
}

/// Exported packages parse back losslessly.
#[test]
fn export_round_trips() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    server
        .collection(&app)
        .unwrap()
        .insert_many([json!({"spl": 50.0}), json!({"spl": 60.0})])
        .unwrap();

    let lines = server
        .export(&app, &ObservationQuery::new(), Packaging::JsonLines)
        .unwrap();
    let parsed: Vec<serde_json::Value> = lines
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(parsed.len(), 2);

    let array = server
        .export(&app, &ObservationQuery::new(), Packaging::JsonArray)
        .unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&array).unwrap();
    assert_eq!(parsed.as_array().unwrap().len(), 2);
}
