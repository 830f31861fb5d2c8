//! End-to-end resilience: the full pipeline (mobile client → broker →
//! ingest → docstore) driven through a seeded fault plan injecting drops,
//! delays, duplicates and a topic black-hole window, plus a visible
//! server outage that exercises the client's retry/backoff machinery and
//! a crash-looping consumer that exercises the broker's dead-letter
//! policy.
//!
//! The scenario runs twice: once with the server draining the queue in
//! one batch after the run, once with capped batches drained every 25
//! simulated minutes while the faults are live. Under both, the
//! invariants are **zero silent loss** — every observation the client
//! recorded is either stored, parked in quarantine, parked in the
//! dead-letter queue, or counted as an injected drop/black-hole, and the
//! books balance exactly, duplicates included — and **every observation
//! trace reaches exactly one primary terminal outcome**.

use soundcity::broker::Broker;
use soundcity::faults::{FaultPlan, FaultSpec, FaultyLink, Link, LinkError};
use soundcity::goflow::{GoFlowServer, Role};
use soundcity::mobile::{BrokerLink, GoFlowClient, RetryPolicy};
use soundcity::telemetry::trace::{FlightRecorder, TraceId, TraceIndex};
use soundcity::telemetry::Registry;
use soundcity::types::{
    AppId, AppVersion, DeviceModel, Observation, SimDuration, SimTime, SoundLevel,
};
use std::sync::Arc;

/// A link during a server outage: every send visibly fails, so the
/// client's retry queue and backoff (not the fault plan) must absorb it.
struct DownLink;

impl Link for DownLink {
    fn send(&self, _route: &str, _payload: &[u8]) -> Result<usize, LinkError> {
        Err(LinkError::Unavailable("server outage".into()))
    }
}

fn observation(i: i64) -> Observation {
    Observation::builder()
        .device(4.into())
        .user(4.into())
        .model(DeviceModel::LgeNexus5)
        .captured_at(SimTime::EPOCH + SimDuration::from_mins(i))
        .spl(SoundLevel::new(45.0 + (i % 30) as f64))
        .app_version(AppVersion::V1_2_9)
        .build()
}

#[test]
fn no_silent_loss_under_faults_outage_and_dead_letters() {
    // (minutes between drains during the run, batch size): one drain
    // after the run, then capped drains while the faults are live.
    for (drain_every, batch) in [(None, 1_000_000), (Some(25), 64)] {
        run(drain_every, batch);
    }
}

/// Runs the scenario, the server draining the GF queue in batches of at
/// most `batch`, every `drain_every` minutes of the run (if set) and
/// again after it.
fn run(drain_every: Option<i64>, batch: usize) {
    let recorder = FlightRecorder::global();
    recorder.clear();

    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), soundcity::docstore::Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 4.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let key = session.observation_key("noise", "FR75013");

    // The fault plan: drops + delays + duplicates throughout, plus a
    // black-hole swallowing every route during minutes 400-440.
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
        SimTime::EPOCH + SimDuration::from_mins(400),
        SimTime::EPOCH + SimDuration::from_mins(440),
    );
    let faulty = FaultyLink::new(
        BrokerLink::new(&broker, session.exchange()),
        FaultPlan::new(20_160, spec),
    );

    // A v1.2.9 client (one message per observation) with a generous
    // retry budget so the outage never exhausts it.
    let mut client = GoFlowClient::new(session.exchange(), key.clone(), AppVersion::V1_2_9)
        .with_retry_policy(
            RetryPolicy {
                max_attempts: 20,
                ..RetryPolicy::default()
            },
            7,
        );

    // Ten simulated hours, one observation per minute. The server is
    // visibly down during minutes 200-230.
    const CYCLES: i64 = 600;
    const OUTAGE: std::ops::Range<i64> = 200..230;
    let mut expected: Vec<TraceId> = Vec::with_capacity(CYCLES as usize);
    let mut mid_run_stored = 0u64;
    for i in 0..CYCLES {
        let now = SimTime::EPOCH + SimDuration::from_mins(i);
        let obs = observation(i);
        expected.push(TraceId::for_observation(4, obs.captured_at.as_millis()));
        client.record(obs);
        if OUTAGE.contains(&i) {
            client.on_cycle_at(&DownLink, true, now);
        } else {
            faulty.advance_to(now).unwrap();
            client.on_cycle_at(&faulty.at(now), true, now);
        }
        if drain_every.is_some_and(|minutes| i % minutes == minutes - 1) {
            let outcome = server.ingest_pending(&app, now, batch).unwrap();
            assert!(outcome.stored <= batch);
            assert_eq!(outcome.requeued, 0);
            assert_eq!(outcome.quarantined, 0);
            mid_run_stored += outcome.stored as u64;
        }
    }
    assert_eq!(
        mid_run_stored > 0,
        drain_every.is_some(),
        "mid-run drains must make progress"
    );

    // The outage forced visible failures into the retry queue, and the
    // backlog later drained through the faulty link.
    assert!(client.retried_total() > 0, "outage should force retries");
    assert_eq!(
        client.shed_total(),
        0,
        "retry budget must absorb the outage"
    );

    // Quiesce: flush whatever the client still holds, then force the
    // delay line empty.
    let end = SimTime::EPOCH + SimDuration::from_mins(CYCLES);
    client.flush_at(&faulty.at(end), end);
    faulty.drain_pending().unwrap();
    assert_eq!(client.pending(), 0);
    assert_eq!(client.queued_retries(), 0);
    assert_eq!(faulty.pending(), 0);

    let stats = faulty.stats();
    assert!(stats.dropped > 0, "plan should have injected drops");
    assert!(stats.delayed > 0, "plan should have injected delays");
    assert!(stats.duplicated > 0, "plan should have injected duplicates");
    assert!(stats.blackholed > 0, "black-hole window should have fired");

    // Every observation the client recorded was either shipped or shed.
    let sent = client.total_sent();
    assert_eq!(sent + client.shed_total(), CYCLES as u64);

    // Fault-layer conservation: what the broker received is exactly the
    // sends plus duplicates minus counted losses.
    let gf_queue = "gf-SC-queue";
    let arrived = mid_run_stored + broker.queue_depth(gf_queue).unwrap() as u64;
    assert_eq!(
        arrived + stats.dropped + stats.blackholed,
        sent + stats.duplicated
    );

    // Three malformed payloads reach the queue outside the fault layer —
    // ingest must quarantine, not drop, them.
    const MALFORMED: u64 = 3;
    for _ in 0..MALFORMED {
        broker
            .publish(session.exchange(), &key, &b"corrupted upload"[..])
            .unwrap();
    }

    // A crash-looping consumer nacks the two oldest messages until the
    // queue's dead-letter policy (5 attempts) parks them in the DLQ.
    const DEAD_LETTERED: u64 = 2;
    for _ in 0..5 {
        for delivery in broker.consume(gf_queue, DEAD_LETTERED as usize).unwrap() {
            broker.nack(gf_queue, delivery.tag, true).unwrap();
        }
    }
    let dlq = server.dead_letter_queue(&app);
    assert_eq!(broker.queue_depth(&dlq).unwrap() as u64, DEAD_LETTERED);

    // Ingest everything that survived, in the drain's batch size.
    let (mut stored, mut malformed, mut quarantined) = (mid_run_stored, 0u64, 0u64);
    loop {
        let outcome = server.ingest_pending(&app, end, batch).unwrap();
        assert_eq!(outcome.requeued, 0);
        stored += outcome.stored as u64;
        malformed += outcome.malformed as u64;
        quarantined += outcome.quarantined as u64;
        if outcome.stored + outcome.quarantined == 0 {
            break;
        }
    }
    assert_eq!(broker.queue_depth(gf_queue).unwrap(), 0);
    assert_eq!(malformed, MALFORMED);
    assert_eq!(quarantined, MALFORMED);
    assert_eq!(
        server.quarantine(&app).unwrap().len() as u64,
        MALFORMED,
        "malformed payloads must be preserved in quarantine"
    );

    // --- The zero-silent-loss ledger -----------------------------------
    // stored + quarantined + dead-lettered + injected drops + black-holed
    //   == sent + duplicates + malformed probes.
    assert!(stored > 0);
    assert_eq!(
        stored + quarantined + DEAD_LETTERED + stats.dropped + stats.blackholed,
        sent + stats.duplicated + MALFORMED
    );

    // And the ledger is visible operationally: the resilience counters
    // all moved.
    let registry = Registry::global();
    for counter in [
        "mobile_client_upload_failures_total",
        "mobile_client_retry_attempts_total",
        "mobile_client_retry_success_total",
        "faults_injected_drops_total",
        "faults_injected_delays_total",
        "faults_injected_duplicates_total",
        "faults_injected_blackholed_total",
        "broker_core_delivery_failures_total",
        "broker_core_dead_lettered_total",
        "goflow_ingest_quarantined_total",
    ] {
        assert!(
            registry.counter_value(counter).unwrap_or(0) > 0,
            "counter {counter} should be non-zero after the run"
        );
    }

    // --- one primary terminal per observation trace --------------------
    assert_eq!(recorder.dropped(), 0, "ring must retain the whole run");
    let index = TraceIndex::from_spans(recorder.snapshot());
    assert!(
        index.unterminated().is_empty(),
        "every trace must reach a terminal outcome (drain every {drain_every:?})"
    );
    for trace in &expected {
        let tree = index.get(*trace).expect("observation trace retained");
        let primaries = tree.terminals().filter(|s| !s.duplicate).count();
        assert_eq!(primaries, 1, "trace {trace} must terminate exactly once");
    }
}
