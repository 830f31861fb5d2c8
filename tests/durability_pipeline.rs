//! End-to-end durability: the faulted pipeline with write-ahead-logged
//! storage and messaging, crash-killed mid-batch, recovered on reopen.
//!
//! The scenario extends `tests/trace_pipeline.rs`: a device uploads
//! through a flaky link into a *durable* broker, and GoFlow ingests into
//! a *durable* docstore whose WAL is armed to die mid-append partway
//! through the ingest batch. Three invariants:
//!
//! 1. **Zero silent loss across the crash** — every observation's trace
//!    reaches exactly one primary terminal; stored + dead-lettered +
//!    link-dropped accounts for every recording, crash included.
//! 2. **Deterministic recovery** — two independent replays of each log
//!    produce a byte-identical docstore export and identical broker
//!    queue/DLQ snapshots.
//! 3. **Recovery to full service** — after reopen the recovered state
//!    serves queries, the dead-lettered backlog replays through ingest,
//!    and nothing is lost or duplicated: final documents equal arrivals.
//!    The records of the torn group commit that reached the disk whole
//!    survive recovery although ingest saw their batch fail; the replay
//!    finds them stored and skips them.

use soundcity::broker::Broker;
use soundcity::docstore::{Durability, DurabilityConfig, Store};
use soundcity::faults::{CrashPlan, CrashTarget, FaultPlan, FaultSpec, FaultyLink};
use soundcity::goflow::{GoFlowServer, ObservationQuery, Role};
use soundcity::mobile::{BrokerLink, GoFlowClient, RetryPolicy};
use soundcity::simcore::SimRng;
use soundcity::telemetry::trace::{
    FlightRecorder, Hop, LossAttribution, Outcome, TraceId, TraceIndex,
};
use soundcity::telemetry::Registry;
use soundcity::types::{
    AppId, AppVersion, DeviceModel, GeoBounds, GeoPoint, LocationFix, LocationProvider,
    Observation, SimDuration, SimTime, SoundLevel,
};
use soundcity::wal::{KillPoint, KillSwitch, WalConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

const DEVICE: u64 = 45;
const CYCLES: i64 = 120;
/// Messages per ingest pass: one group-committed WAL append each.
const INGEST_BATCH: usize = 16;

fn observation(i: i64, at: GeoPoint) -> Observation {
    Observation::builder()
        .device(DEVICE.into())
        .user(DEVICE.into())
        .model(DeviceModel::LgeNexus5)
        .captured_at(SimTime::EPOCH + SimDuration::from_mins(i))
        .spl(SoundLevel::new(45.0 + (i % 30) as f64))
        .location(LocationFix::new(at, 30.0, LocationProvider::Network))
        .app_version(AppVersion::V1_2_9)
        .build()
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-durability-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn store_config(dir: &PathBuf, wal: WalConfig) -> Durability {
    Durability::Durable(DurabilityConfig::new(dir).wal(wal).snapshot_every(64))
}

fn broker_config(dir: &PathBuf, wal: WalConfig) -> DurabilityConfig {
    DurabilityConfig::new(dir).wal(wal).snapshot_every(64)
}

#[test]
fn crash_killed_pipeline_recovers_without_silent_loss() {
    let recorder = FlightRecorder::global();
    recorder.clear();

    let doc_dir = scratch("docstore");
    let broker_dir = scratch("broker");
    let _ = std::fs::remove_dir_all(&doc_dir);
    let _ = std::fs::remove_dir_all(&broker_dir);

    // The docstore's log dies mid-append partway through the ingest
    // batch; the broker's log stays healthy and records the fallout.
    let kill = KillSwitch::new();
    let store = Store::open(store_config(
        &doc_dir,
        WalConfig::default().kill(kill.clone()),
    ))
    .unwrap();
    let broker =
        Arc::new(Broker::open_durable(broker_config(&broker_dir, WalConfig::default())).unwrap());

    let server = GoFlowServer::new(Arc::clone(&broker), store);
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, DEVICE.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let key = session.observation_key("noise", "FR75013");
    let gf_queue = "gf-SC-queue";
    let dlq_name = server.dead_letter_queue(&app);
    // Armed after registration, so the skip counts ingest batches, not
    // the setup's index records: three batches land, the fourth is torn.
    CrashPlan::at(CrashTarget::Docstore, KillPoint::MidAppend, 3).arm(&kill);

    // Two simulated hours, one observation per minute, over a flaky
    // link: drops and delays, no duplicates (so documents count 1:1).
    let spec = FaultSpec {
        drop_prob: 0.10,
        delay_prob: 0.15,
        mean_delay: SimDuration::from_mins(3),
        ..FaultSpec::none()
    };
    let faulty = FaultyLink::new(
        BrokerLink::new(&broker, session.exchange()),
        FaultPlan::new(4_242, spec),
    );
    let mut client = GoFlowClient::new(session.exchange(), key, AppVersion::V1_2_9)
        .with_retry_policy(RetryPolicy::default(), 7);

    let bounds = GeoBounds::paris();
    let mut rng = SimRng::new(11);
    let mut expected: Vec<TraceId> = Vec::with_capacity(CYCLES as usize);
    for i in 0..CYCLES {
        let now = SimTime::EPOCH + SimDuration::from_mins(i);
        let at = bounds.lerp(rng.uniform_in(0.05, 0.95), rng.uniform_in(0.05, 0.95));
        let obs = observation(i, at);
        expected.push(TraceId::for_observation(
            DEVICE,
            obs.captured_at.as_millis(),
        ));
        client.record(obs);
        faulty.advance_to(now).unwrap();
        client.on_cycle_at(&faulty.at(now), true, now);
    }
    let end = SimTime::EPOCH + SimDuration::from_mins(CYCLES);
    client.flush_at(&faulty.at(end), end);
    faulty.drain_pending().unwrap();
    assert_eq!(client.pending(), 0);
    assert_eq!(client.queued_retries(), 0);
    assert_eq!(client.shed_total(), 0);
    let stats = faulty.stats();
    let arrived = CYCLES as u64 - stats.dropped;
    assert!(stats.dropped > 0, "the link must visibly lose something");

    // Ingest until the queue drains: the WAL dies mid-batch, so the
    // tail of the backlog cycles through redelivery into the DLQ.
    let mut stored_total = 0usize;
    for _ in 0..64 {
        let outcome = server.ingest_pending(&app, end, INGEST_BATCH).unwrap();
        stored_total += outcome.stored;
        assert_eq!(outcome.malformed, 0);
        assert_eq!(outcome.quarantined, 0);
        if broker.queue_depth(gf_queue).unwrap() == 0 {
            break;
        }
    }
    assert_eq!(broker.queue_depth(gf_queue).unwrap(), 0);
    assert_eq!(
        kill.dead(),
        Some(KillPoint::MidAppend),
        "the crash must fire"
    );
    let dlq_depth = broker.queue_depth(&dlq_name).unwrap() as u64;
    assert!(stored_total > 0, "some of the batch lands before the crash");
    assert!(dlq_depth > 0, "the rest dead-letters after the crash");

    // --- invariant 1: zero silent loss across the crash -----------------
    assert_eq!(recorder.dropped(), 0);
    let spans = recorder.snapshot();
    let index = TraceIndex::from_spans(spans.clone());
    assert!(index.unterminated().is_empty());
    let mut ok = 0u64;
    let mut lost = 0u64;
    let mut stored_traces = BTreeSet::new();
    for trace in &expected {
        let tree = index.get(*trace).expect("observation trace retained");
        let primaries = tree.terminals().filter(|s| !s.duplicate).count();
        assert_eq!(primaries, 1, "trace {trace} must terminate exactly once");
        if tree.terminal().unwrap().outcome == Outcome::Ok {
            ok += 1;
            stored_traces.insert(trace.to_string());
        } else {
            lost += 1;
        }
    }
    assert_eq!(ok + lost, CYCLES as u64);
    let loss = LossAttribution::from_spans(&spans);
    assert_eq!(lost, loss.total_primary());
    assert_eq!(ok, stored_total as u64, "stored traces match the ledger");
    assert_eq!(
        loss.copies(Hop::LinkTransmit, Outcome::Dropped),
        stats.dropped
    );
    assert_eq!(
        loss.copies(Hop::BrokerDlq, Outcome::DeadLettered),
        dlq_depth
    );
    assert_eq!(
        stored_total as u64 + dlq_depth,
        arrived,
        "pre-crash accounting"
    );

    // Close every handle before recovery.
    drop(client);
    drop(faulty);
    drop(server);
    drop(broker);

    // --- invariant 2: deterministic recovery ----------------------------
    let export = |_: usize| {
        let store = Store::open(store_config(&doc_dir, WalConfig::default())).unwrap();
        store.export_json()
    };
    assert_eq!(
        export(0),
        export(1),
        "docstore replay must be byte-identical"
    );
    let snapshots = |_: usize| {
        let broker =
            Broker::open_durable(broker_config(&broker_dir, WalConfig::default())).unwrap();
        (
            broker.queue_snapshot(gf_queue).unwrap(),
            broker.queue_snapshot(&dlq_name).unwrap(),
        )
    };
    assert_eq!(
        snapshots(0),
        snapshots(1),
        "broker replay must be identical"
    );

    // --- invariant 3: recovery to full service --------------------------
    let recoveries_before = Registry::global()
        .counter_value("wal_recoveries_total")
        .unwrap_or(0);
    let store = Store::open(store_config(
        &doc_dir,
        WalConfig::default().recovery_span_at_ms(end.as_millis()),
    ))
    .unwrap();
    let broker = Arc::new(
        Broker::open_durable(broker_config(
            &broker_dir,
            WalConfig::default().recovery_span_at_ms(end.as_millis()),
        ))
        .unwrap(),
    );
    assert!(
        Registry::global()
            .counter_value("wal_recoveries_total")
            .unwrap_or(0)
            > recoveries_before,
        "recovery must be visible in the metrics"
    );
    assert!(
        recorder
            .snapshot()
            .iter()
            .any(|s| s.hop == Hop::WalRecovery),
        "recovery must appear in the flight recorder"
    );

    let server = GoFlowServer::new(Arc::clone(&broker), store);
    // Re-declaring the topology and indexes is idempotent on recovery.
    server.register_app(&app).unwrap();
    let docs = server.query(&app, &ObservationQuery::new()).unwrap();
    let recovered: BTreeSet<&str> = docs.iter().filter_map(|d| d["trace"].as_str()).collect();
    assert_eq!(recovered.len(), docs.len(), "one document per trace");
    assert!(
        stored_traces.iter().all(|t| recovered.contains(t.as_str())),
        "recovered store serves everything ingest stored"
    );
    // What else survived is the torn batch short of its torn record.
    let prefix = docs.len() - stored_total;
    assert!(
        (1..INGEST_BATCH).contains(&prefix),
        "durable prefix of the crash batch: {prefix} documents"
    );
    assert_eq!(broker.queue_depth(&dlq_name).unwrap() as u64, dlq_depth);

    // An operator replays the dead-lettered backlog through ingest,
    // which skips what the torn batch already left in the store.
    let late = end + SimDuration::from_mins(5);
    let mut replayed = 0usize;
    let mut already_stored = 0usize;
    for _ in 0..8 {
        let outcome = server.replay_dead_letters(&app, late, 10_000).unwrap();
        replayed += outcome.stored;
        already_stored += outcome.already_stored;
        assert_eq!(outcome.requeued, 0, "the healed store accepts everything");
        if broker.queue_depth(&dlq_name).unwrap() == 0 {
            break;
        }
    }
    assert_eq!(already_stored, prefix);
    assert_eq!((replayed + already_stored) as u64, dlq_depth);
    assert_eq!(broker.queue_depth(&dlq_name).unwrap(), 0);
    assert_eq!(broker.queue_depth(gf_queue).unwrap(), 0);
    let docs = server.query(&app, &ObservationQuery::new()).unwrap();
    assert_eq!(
        docs.len() as u64,
        arrived,
        "every arrival is stored exactly once after replay"
    );

    let _ = std::fs::remove_dir_all(&doc_dir);
    let _ = std::fs::remove_dir_all(&broker_dir);
}
