//! A tour of the GoFlow middleware API (Figures 2–3 of the paper).
//!
//! Walks the full server surface without the crowd simulator: register an
//! app and users, open sessions, publish observations through the
//! Figure 3 exchange topology, subscribe to feedback at a location,
//! ingest, query with filters, run a background job, and export open
//! data.
//!
//! ```sh
//! cargo run --release --example middleware_tour
//! ```

// Examples exist to print.
#![expect(clippy::print_stdout, reason = "an example reports to stdout")]

use serde_json::json;
use soundcity::broker::Broker;
use soundcity::docstore::Store;
use soundcity::goflow::{
    GoFlowServer, ObservationQuery, ObservationRecord, Packaging, PrivacyPolicy, Role,
};
use soundcity::types::{
    AppId, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation, SimTime, SoundLevel,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A server with a CNIL-style policy: exact coordinates stay private
    // when data is shared outside the owning app.
    let broker = Arc::new(Broker::new());
    let policy = PrivacyPolicy::new(0xB0B0)
        .with_private_path("lat")
        .with_private_path("lon");
    let server = GoFlowServer::with_policy(Arc::clone(&broker), Store::new(), policy);

    // 1. Register the SoundCity app: this creates the Figure 3 topology.
    let app = AppId::soundcity();
    server.register_app(&app)?;
    println!("registered app {app}; broker now hosts:");
    for ex in broker.exchanges() {
        println!("  exchange {:<22} ({} bindings)", ex.name, ex.bindings);
    }

    // 2. Register users with roles and open sessions.
    let alice = server.register_user(&app, 1.into(), Role::Contributor)?;
    let bob = server.register_user(&app, 2.into(), Role::Contributor)?;
    let manager = server.register_user(&app, 3.into(), Role::Manager)?;
    let alice_session = server.login(&alice)?;
    let bob_session = server.login(&bob)?;
    println!(
        "\nalice's session: exchange {}, queue {}",
        alice_session.exchange(),
        alice_session.queue()
    );

    // 3. Bob subscribes to feedback around his neighbourhood.
    server.subscribe(&bob_session, "Feedback", "FR75013")?;

    // 4. Alice publishes an observation and a feedback message.
    let obs = Observation::builder()
        .device(1.into())
        .user(1.into())
        .model(DeviceModel::SonyD5803)
        .captured_at(SimTime::from_hms(0, 18, 30, 0))
        .spl(SoundLevel::new(71.5))
        .location(LocationFix::new(
            GeoPoint::new(48.83, 2.36),
            14.0,
            LocationProvider::Gps,
        ))
        .build();
    broker.publish(
        alice_session.exchange(),
        &alice_session.observation_key("noise", "FR75013"),
        serde_json::to_vec(&obs)?,
    )?;
    broker.publish(
        alice_session.exchange(),
        &alice_session.observation_key("Feedback", "FR75013"),
        &br#"{"text": "street concert, very loud"}"#[..],
    )?;

    // 5. Bob receives the feedback through his subscription queue.
    let deliveries = broker.consume(bob_session.queue(), 10)?;
    println!("\nbob's notifications: {} message(s)", deliveries.len());
    for d in &deliveries {
        println!(
            "  [{}] {}",
            d.routing_key(),
            String::from_utf8_lossy(d.payload())
        );
        broker.ack(bob_session.queue(), d.tag)?;
    }

    // 6. The server ingests pending contributions (stamping arrival).
    let outcome = server.ingest_pending(&app, SimTime::from_hms(0, 18, 30, 9), 100)?;
    println!(
        "\ningest: stored {} observation(s), {} malformed (the feedback JSON is not an observation)",
        outcome.stored, outcome.malformed
    );

    // 7. Filtered retrieval: accurate GPS fixes only.
    let query = ObservationQuery::new()
        .provider(LocationProvider::Gps)
        .max_accuracy_m(20.0);
    let hits = server.query(&app, &query)?;
    println!("query [gps, ≤20 m]: {} hit(s)", hits.len());
    let hit = hits.first().and_then(ObservationRecord::from_document);
    let delay = hit.and_then(|obs| obs.delay()).ok_or("no stored hit")?;
    println!("  stored delay: {} ms", delay.as_millis());

    // 8. A manager submits a background job over the stored data.
    let job = server.submit_job(&manager, "mean-spl", |collection| {
        let docs = collection.all();
        let observations = docs.iter().filter_map(ObservationRecord::from_document);
        let spls: Vec<f64> = observations.map(|obs| obs.spl.db()).collect();
        if spls.is_empty() {
            return Err("no data".into());
        }
        Ok(json!({"mean_spl": spls.iter().sum::<f64>() / spls.len() as f64}))
    })?;
    server.run_jobs(&app)?;
    println!("\nbackground job {job:?}: {:?}", server.job_status(job)?);

    // 9. Open-data export: private paths are redacted for other apps.
    let own = server.export(&app, &ObservationQuery::new(), Packaging::JsonLines)?;
    let shared = server.query_shared(&app, &ObservationQuery::new())?;
    println!("\nown view has coordinates : {}", own.contains("\"lat\""));
    println!(
        "shared view has coordinates: {}",
        shared[0].get("lat").is_some()
    );

    println!("\nbroker counters: {:?}", broker.metrics());
    Ok(())
}
