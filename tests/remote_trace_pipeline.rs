//! Fleet observability across a real network boundary.
//!
//! `tests/remote_pipeline.rs` proves the socket is transparent and
//! honest; this test proves it is *observable*. A faulted upload run is
//! pushed through a broker and a docstore that live behind real TCP
//! servers, and then — without touching any in-process state — the
//! fleet scraper reconstructs the whole story through the admin opcodes
//! alone (`OP_METRICS`, `OP_HEALTH`, `OP_FLIGHT_DRAIN`, `OP_SLOW_RPCS`),
//! exactly as `xtask obs` would against daemons on other machines:
//!
//! * both instances report themselves ready, and their registries merge
//!   under distinct `instance` labels with per-RPC latency series;
//! * every observation trace is reconstructable from the merged
//!   flight-recorder export with exactly one primary terminal (the
//!   successful docstore write), so the fleet-wide conservation ledger
//!   balances;
//! * the slow-RPC rings answer over the wire.

use soundcity::broker::{Broker, BrokerTransport};
use soundcity::docstore::{DocstoreTransport, Store};
use soundcity::faults::{FaultPlan, FaultSpec};
use soundcity::goflow::{GoFlowServer, Role};
use soundcity::mobile::{BrokerLink, GoFlowClient, RetryPolicy};
use soundcity::net::{
    BrokerService, ClientConfig, DocstoreService, Endpoint, FleetSnapshot, RemoteBroker,
    RemoteStore, ServerConfig, SocketFaultProxy, WireServer,
};
use soundcity::telemetry::trace::{FlightRecorder, Hop, Outcome, TraceId, TraceIndex};
use soundcity::types::{
    AppId, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation,
    SimDuration, SimTime, SoundLevel,
};
use std::sync::Arc;

const DEVICE: u64 = 19;
const COUNT: i64 = 50;

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

/// One faulted run, then the whole story re-read through the wire's
/// admin opcodes. This is the only test in this binary on purpose: it
/// owns the process-global flight recorder.
#[test]
fn merged_flight_recorders_reconstruct_every_trace() {
    let recorder = FlightRecorder::global();
    recorder.clear();

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
        .register_user(&app, DEVICE.into(), Role::Contributor)
        .expect("register user");
    let session = server.login(&token).expect("login");
    let key = session.observation_key("noise", "FR75013");

    // Uploads go through a proxy that tears a quarter of the frames;
    // the retry path must absorb every failure.
    let spec = FaultSpec {
        drop_prob: 0.25,
        ..FaultSpec::none()
    };
    let mut proxy = SocketFaultProxy::start(broker_srv.local_addr(), FaultPlan::new(6161, spec))
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
            17,
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
    let mut now = SimTime::EPOCH + SimDuration::from_mins(COUNT);
    for _ in 0..200 {
        if client.pending() == 0 && client.queued_retries() == 0 {
            break;
        }
        client.flush_at(&link, now);
        now += SimDuration::from_mins(5);
    }
    assert_eq!(client.pending(), 0, "every upload must eventually land");
    let outcome = server.ingest_pending(&app, now, 1_000_000).expect("ingest");
    assert_eq!(outcome.stored as i64, COUNT, "zero silent loss");

    // Provoke one visible RPC error so the error-counter series exists
    // fleet-wide: an unknown opcode answers with a typed error status,
    // which the server counts per opcode.
    let prober = soundcity::net::ClientPool::new(
        broker_srv.local_addr().to_string(),
        ClientConfig::default(),
    );
    assert!(
        prober.call(99, &[], b"").is_err(),
        "unknown opcode must answer with an error status"
    );

    // ---- the remote read-back: everything below uses only the wire.
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

    for instance in &snapshot.instances {
        assert!(
            instance.error.is_none(),
            "{}: scrape failed: {:?}",
            instance.name,
            instance.error
        );
        assert!(instance.ready(), "{} must report ready", instance.name);
    }
    assert_eq!(
        snapshot.instances[0].health["role"].as_str(),
        Some("broker")
    );
    assert_eq!(
        snapshot.instances[1].health["role"].as_str(),
        Some("docstore")
    );

    let merged = snapshot.merged_metrics();
    assert!(merged.contains("instance=\"brokerd\""), "{merged}");
    assert!(merged.contains("instance=\"docstored\""));
    assert!(
        merged.contains("net_server_rpc_seconds_bucket{instance="),
        "per-RPC latency series must merge under instance labels"
    );
    assert!(merged.contains("net_server_rpc_errors_total{instance=\"brokerd\""));

    // Every trace reconstructs from the merged flight-recorder export
    // with exactly one primary terminal: the successful docstore write.
    let spans = snapshot.merged_spans();
    assert!(!spans.is_empty(), "flight drain must export the run");
    let index = TraceIndex::from_spans(spans);
    assert!(index.unterminated().is_empty(), "no trace left open");
    for trace in &expected {
        let tree = index.get(*trace).expect("trace retained across drains");
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
    let ledger = snapshot.conservation();
    assert!(ledger.balanced(), "{ledger:?}");
    assert_eq!(ledger.stored as i64, COUNT);

    // The slow-RPC rings answer over the wire (default threshold zero:
    // every request is retained, so the top-k is never empty here).
    let slow = snapshot.slow_rpcs(5);
    assert!(!slow.is_empty(), "slow-RPC rings must answer remotely");

    // Drain mode cleared the recorder: a second scrape starts fresh
    // (modulo the spans recorded by the scrape traffic itself — admin
    // opcodes record none).
    let again = FleetSnapshot::scrape(&endpoints, &ClientConfig::default(), false);
    assert!(
        again.merged_spans().len() < 4,
        "drain must clear the exported spans"
    );

    proxy.stop();
}
