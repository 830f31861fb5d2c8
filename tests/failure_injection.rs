//! Failure injection across the middleware stack: malformed traffic,
//! bounded-queue overflow, crashing consumers, revoked credentials, and
//! session teardown under load — the system must degrade predictably,
//! never corrupt stored data.

use serde_json::json;
use soundcity::broker::{Broker, BrokerError};
use soundcity::docstore::Store;
use soundcity::goflow::{GoFlowError, GoFlowServer, ObservationQuery, Role};
use soundcity::types::{AppId, DeviceModel, Observation, SimDuration, SimTime, SoundLevel};
use std::sync::Arc;

fn obs(i: i64) -> Observation {
    Observation::builder()
        .device(1.into())
        .user(1.into())
        .model(DeviceModel::SonyD2303)
        .captured_at(SimTime::from_hms(0, 8, 0, 0) + SimDuration::from_mins(i))
        .spl(SoundLevel::new(47.0))
        .build()
}

/// Garbage interleaved with valid observations: the valid ones are all
/// stored, the garbage is counted and dropped, and nothing is requeued
/// into an ingest loop.
#[test]
fn malformed_traffic_is_quarantined() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 1.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let key = session.observation_key("noise", "FR75001");

    for i in 0..10 {
        if i % 3 == 0 {
            // Inject hostile payloads: truncated JSON, wrong schema, binary.
            let garbage: &[u8] = match i % 9 {
                0 => b"{\"model\": \"LGE NEX", // truncated
                3 => b"[1, 2, 3]",             // wrong schema
                _ => &[0xFF, 0xFE, 0x00],      // not UTF-8
            };
            broker.publish(session.exchange(), &key, garbage).unwrap();
        } else {
            broker
                .publish(
                    session.exchange(),
                    &key,
                    serde_json::to_vec(&obs(i)).unwrap(),
                )
                .unwrap();
        }
    }

    let outcome = server
        .ingest_pending(&app, SimTime::from_hms(0, 9, 0, 0), 100)
        .unwrap();
    assert_eq!(outcome.stored, 6);
    assert_eq!(outcome.malformed, 4);
    // Second pass finds nothing: the garbage was not requeued.
    let outcome = server
        .ingest_pending(&app, SimTime::from_hms(0, 9, 5, 0), 100)
        .unwrap();
    assert_eq!(outcome.stored + outcome.malformed, 0);
    assert_eq!(
        server.query(&app, &ObservationQuery::new()).unwrap().len(),
        6
    );
}

/// A consumer that takes deliveries and dies: nacking with requeue makes
/// every message deliverable again, flagged as redelivered, in order.
#[test]
fn crashed_consumer_recovers_via_redelivery() {
    let broker = Broker::new();
    broker.declare_exchange("e").unwrap();
    broker.declare_queue("q").unwrap();
    broker.bind_queue("e", "q", "#").unwrap();
    for i in 0..5u8 {
        broker.publish("e", "k", vec![i]).unwrap();
    }

    // First consumer takes everything and "crashes" (nacks with requeue,
    // as a supervisor would on its behalf).
    let taken = broker.consume("q", 5).unwrap();
    assert_eq!(broker.queue_depth("q").unwrap(), 0);
    for d in taken.iter().rev() {
        // reverse order: push_front restores FIFO
        broker.nack("q", d.tag, true).unwrap();
    }

    // Second consumer sees all five, redelivered, in original order.
    let retaken = broker.consume("q", 5).unwrap();
    let payloads: Vec<u8> = retaken.iter().map(|d| d.payload()[0]).collect();
    assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    assert!(retaken.iter().all(|d| d.redelivered));
    for d in &retaken {
        broker.ack("q", d.tag).unwrap();
    }
}

/// Revoked users cannot open new sessions, while already-stored data
/// stays queryable (the paper's accounts are revocable, its data is not
/// retroactively destroyed).
#[test]
fn revocation_blocks_sessions_not_history() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 1.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    broker
        .publish(
            session.exchange(),
            &session.observation_key("noise", "FR75001"),
            serde_json::to_vec(&obs(0)).unwrap(),
        )
        .unwrap();
    server
        .ingest_pending(&app, SimTime::from_hms(0, 9, 0, 0), 10)
        .unwrap();

    server.revoke(&token).unwrap();
    assert!(matches!(
        server.login(&token),
        Err(GoFlowError::InvalidToken)
    ));
    assert_eq!(
        server.query(&app, &ObservationQuery::new()).unwrap().len(),
        1
    );
}

/// Logging out mid-stream deletes the client's endpoints; publishes to
/// the dead exchange fail loudly rather than vanishing.
#[test]
fn publishing_after_logout_fails_loudly() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 1.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    server.logout(&session).unwrap();
    let result = broker.publish(
        session.exchange(),
        &session.observation_key("noise", "FR75001"),
        &b"{}"[..],
    );
    assert!(matches!(result, Err(BrokerError::ExchangeNotFound(_))));
}

/// A failing background job is recorded as failed and does not poison
/// later jobs or the collection.
#[test]
fn failing_jobs_are_contained() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let manager = server.register_user(&app, 1.into(), Role::Manager).unwrap();

    let bad = server
        .submit_job(&manager, "explodes", |_| Err("boom".into()))
        .unwrap();
    let good = server
        .submit_job(&manager, "counts", |c| Ok(json!(c.len())))
        .unwrap();
    assert_eq!(server.run_jobs(&app).unwrap(), 2);
    assert_eq!(
        server.job_status(bad).unwrap(),
        soundcity::goflow::JobStatus::Failed("boom".into())
    );
    assert_eq!(
        server.job_status(good).unwrap(),
        soundcity::goflow::JobStatus::Done(json!(0))
    );
}

/// Ingest with a tiny batch limit drains incrementally without loss.
#[test]
fn incremental_ingest_drains_completely() {
    let broker = Arc::new(Broker::new());
    let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 1.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let key = session.observation_key("noise", "FR75001");
    for i in 0..17 {
        broker
            .publish(
                session.exchange(),
                &key,
                serde_json::to_vec(&obs(i)).unwrap(),
            )
            .unwrap();
    }
    let mut total = 0;
    let mut rounds = 0;
    loop {
        let outcome = server
            .ingest_pending(&app, SimTime::from_hms(0, 10, 0, 0), 3)
            .unwrap();
        if outcome.stored == 0 {
            break;
        }
        total += outcome.stored;
        rounds += 1;
        assert!(rounds < 50, "ingest must terminate");
    }
    assert_eq!(total, 17);
    assert_eq!(rounds, 6, "ceil(17 / 3)");
}
