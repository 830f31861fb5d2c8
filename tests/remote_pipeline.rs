//! End-to-end pipeline across a real network boundary.
//!
//! The whole workspace is deliberately in-process; `mps-net` supplies the
//! socket. These tests prove the boundary is *transparent* and *honest*:
//!
//! 1. **Transparency** — the same observation set pushed through the
//!    embedded pipeline (broker and store in-process) and through the
//!    remote pipeline (broker and store behind TCP servers, GoFlow
//!    talking to them via `RemoteBroker`/`RemoteStore`) yields identical
//!    stored documents, byte for byte once the storage-assigned `_id` is
//!    stripped.
//! 2. **Honesty under faults** — with an `mps-faults` plan applied at an
//!    actual socket (the `SocketFaultProxy` tears TCP frames mid-flight),
//!    every fault is a *visible* failure: the mobile client's retry path
//!    absorbs them, every observation trace still reaches exactly one
//!    primary terminal outcome, and nothing is lost silently.

use serde_json::Value;
use soundcity::broker::{Broker, BrokerTransport};
use soundcity::docstore::{DocstoreTransport, Store};
use soundcity::faults::{FaultPlan, FaultSpec};
use soundcity::goflow::{GoFlowServer, ObservationQuery, Role};
use soundcity::mobile::{BrokerLink, GoFlowClient, RetryPolicy};
use soundcity::net::{
    BrokerService, ClientConfig, DocstoreService, RemoteBroker, RemoteStore, ServerConfig,
    SocketFaultProxy, WireServer,
};
use soundcity::telemetry::trace::{FlightRecorder, Hop, Outcome, TraceId, TraceIndex};
use soundcity::types::{
    AppId, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation,
    SimDuration, SimTime, SoundLevel,
};
use std::sync::Arc;

const DEVICE: u64 = 7;

fn observation(i: i64) -> Observation {
    Observation::builder()
        .device(DEVICE.into())
        .user(DEVICE.into())
        .model(DeviceModel::LgeNexus5)
        .captured_at(SimTime::EPOCH + SimDuration::from_mins(i))
        .spl(SoundLevel::new(45.0 + (i % 25) as f64))
        .location(LocationFix::new(
            GeoPoint::PARIS,
            25.0,
            LocationProvider::Network,
        ))
        .app_version(AppVersion::V1_2_9)
        .build()
}

/// Spawns a broker and a docstore behind TCP servers and returns remote
/// transports for them (plus the servers, which shut down on drop).
fn remote_pair() -> (
    WireServer,
    WireServer,
    Arc<dyn BrokerTransport>,
    Arc<dyn DocstoreTransport>,
) {
    let broker_backend: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    let broker_server = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(BrokerService::new(broker_backend)),
        ServerConfig::default(),
    )
    .expect("bind broker server");
    let store_backend: Arc<dyn DocstoreTransport> = Arc::new(Store::new());
    let store_server = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(DocstoreService::new(store_backend)),
        ServerConfig::default(),
    )
    .expect("bind docstore server");
    let remote_broker: Arc<dyn BrokerTransport> = Arc::new(RemoteBroker::connect(
        broker_server.local_addr().to_string(),
        ClientConfig::default(),
    ));
    let remote_store: Arc<dyn DocstoreTransport> = Arc::new(RemoteStore::connect(
        store_server.local_addr().to_string(),
        ClientConfig::default(),
    ));
    (broker_server, store_server, remote_broker, remote_store)
}

/// Pushes `count` observations through a GoFlow server (publish → ingest
/// → query) and returns the stored documents with `_id` stripped, in
/// capture order.
fn drive_pipeline(server: &GoFlowServer, count: i64) -> Vec<Value> {
    let app = AppId::soundcity();
    server.register_app(&app).expect("register app");
    let token = server
        .register_user(&app, DEVICE.into(), Role::Contributor)
        .expect("register user");
    let session = server.login(&token).expect("login");
    let key = session.observation_key("noise", "FR75013");
    for i in 0..count {
        let payload = serde_json::to_vec(&observation(i)).expect("serialize");
        let routed = server
            .broker()
            .publish(session.exchange(), &key, &payload)
            .expect("publish");
        assert_eq!(routed, 1, "observation must reach the GF queue");
    }
    let arrival = SimTime::EPOCH + SimDuration::from_mins(count);
    let outcome = server
        .ingest_pending(&app, arrival, 1_000_000)
        .expect("ingest");
    assert_eq!(outcome.stored as i64, count);
    assert_eq!(outcome.malformed, 0);
    assert_eq!(outcome.requeued, 0);
    let mut docs = server.query(&app, &ObservationQuery::new()).expect("query");
    for doc in &mut docs {
        doc.as_object_mut()
            .expect("stored docs are objects")
            .remove("_id");
    }
    docs.sort_by_key(|d| d["captured_ms"].as_i64().expect("captured_ms"));
    docs
}

/// The same observations through the embedded and the TCP pipeline must
/// come back as identical stored documents.
#[test]
fn embedded_and_remote_pipelines_store_identical_documents() {
    const COUNT: i64 = 40;

    let embedded_server = GoFlowServer::new(Arc::new(Broker::new()), Store::new());
    let embedded_docs = drive_pipeline(&embedded_server, COUNT);

    let (_broker_srv, _store_srv, remote_broker, remote_store) = remote_pair();
    let remote_server = GoFlowServer::over(remote_broker, remote_store);
    let remote_docs = drive_pipeline(&remote_server, COUNT);

    assert_eq!(embedded_docs.len(), COUNT as usize);
    assert_eq!(
        embedded_docs, remote_docs,
        "the network boundary must not change a single stored field"
    );
}

/// Socket faults tear frames mid-flight; the retry path absorbs every
/// failure and the flight recorder proves no observation was lost
/// silently: every trace ends in exactly one primary terminal, and every
/// terminal is a successful docstore write.
#[test]
fn socket_faults_are_visible_failures_with_zero_silent_loss() {
    const COUNT: i64 = 80;
    let recorder = FlightRecorder::global();
    recorder.clear();

    let (broker_srv, _store_srv, direct_broker, remote_store) = remote_pair();
    let server = GoFlowServer::over(Arc::clone(&direct_broker), remote_store);
    let app = AppId::soundcity();
    server.register_app(&app).expect("register app");
    let token = server
        .register_user(&app, DEVICE.into(), Role::Contributor)
        .expect("register user");
    let session = server.login(&token).expect("login");
    let key = session.observation_key("noise", "FR75013");

    // The mobile upload path goes through a fault proxy that drops a
    // quarter of the requests by tearing the TCP frame mid-write.
    let spec = FaultSpec {
        drop_prob: 0.25,
        ..FaultSpec::none()
    };
    let mut proxy = SocketFaultProxy::start(broker_srv.local_addr(), FaultPlan::new(4242, spec))
        .expect("start fault proxy");
    let faulted_broker =
        RemoteBroker::connect(proxy.local_addr().to_string(), ClientConfig::default());
    let link = BrokerLink::new(&faulted_broker, session.exchange());

    let mut client = GoFlowClient::new(session.exchange(), key, AppVersion::V1_2_9)
        .with_retry_policy(
            RetryPolicy {
                max_attempts: 50,
                ..RetryPolicy::default()
            },
            11,
        );
    let mut expected: Vec<TraceId> = Vec::with_capacity(COUNT as usize);
    for i in 0..COUNT {
        let now = SimTime::EPOCH + SimDuration::from_mins(i);
        let obs = observation(i);
        expected.push(TraceId::for_observation(
            DEVICE,
            obs.captured_at.as_millis(),
        ));
        client.record(obs);
        client.on_cycle_at(&link, true, now);
    }
    // Drain the retry backlog: flush_at ignores backoff, so each round
    // retries everything still parked; torn frames re-park it.
    let mut now = SimTime::EPOCH + SimDuration::from_mins(COUNT);
    for _ in 0..200 {
        if client.pending() == 0 && client.queued_retries() == 0 {
            break;
        }
        client.flush_at(&link, now);
        now += SimDuration::from_mins(5);
    }
    assert_eq!(client.pending(), 0, "every upload must eventually land");
    assert_eq!(client.queued_retries(), 0);
    assert_eq!(
        client.shed_total(),
        0,
        "retry budget must absorb the faults"
    );
    let stats = proxy.stats();
    assert!(stats.dropped > 0, "the fault plan must actually fire");

    let outcome = server.ingest_pending(&app, now, 1_000_000).expect("ingest");
    assert_eq!(outcome.stored as i64, COUNT, "zero silent loss");
    assert_eq!(outcome.malformed, 0, "torn frames never surface as data");
    assert_eq!(outcome.quarantined, 0);

    // Every trace: rooted at `sensed`, exactly one primary terminal, and
    // that terminal is the successful docstore write.
    assert_eq!(recorder.dropped(), 0, "ring must retain the whole run");
    let spans = recorder.snapshot();
    let index = TraceIndex::from_spans(spans);
    assert!(
        index.unterminated().is_empty(),
        "no trace may be left open under socket faults"
    );
    for trace in &expected {
        let tree = index.get(*trace).expect("observation trace retained");
        assert_eq!(tree.root().expect("rooted").hop, Hop::Sensed);
        let primaries: Vec<_> = tree.terminals().filter(|s| !s.duplicate).collect();
        assert_eq!(
            primaries.len(),
            1,
            "trace {trace} must terminate exactly once"
        );
        assert_eq!(primaries[0].hop, Hop::DocstoreWrite);
        assert_eq!(primaries[0].outcome, Outcome::Ok);
    }

    proxy.stop();
}
