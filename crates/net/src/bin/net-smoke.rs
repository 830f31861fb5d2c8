//! `net-smoke` — multi-process smoke driver for the wire protocol.
//!
//! ```text
//! net-smoke --broker ADDR --docstore ADDR [--shutdown | --shutdown-only]
//! ```
//!
//! Connects to a running `mps-brokerd` and `mps-docstored`, pushes one
//! observation through a declare → publish → consume → ack cycle (with
//! a trace header riding the envelope), writes and reads back documents
//! on the store, and — with `--shutdown` — asks both servers to exit
//! cleanly. `--shutdown-only` skips the traffic and just requests the
//! shutdowns, so a scrape step (`xtask obs`) can run between the smoke
//! traffic and the teardown. Exits non-zero with a diagnostic on stderr
//! at the first divergence, so CI can gate on it. See
//! `docs/DEPLOYMENT.md`.

// Pipeline code returns errors: one malformed upload must not panic the
// middleware. Tests may unwrap, expect and panic (clippy.toml).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use mps_broker::{BrokerTransport, Message};
use mps_docstore::{DocstoreTransport, Filter};
use mps_net::broker_api::RemoteBroker;
use mps_net::client::{ClientConfig, ClientPool};
use mps_net::docstore_api::RemoteStore;
use mps_net::rpc::OP_SHUTDOWN;
use mps_telemetry::trace::TRACE_HEADER;
use serde_json::json;
use std::process::ExitCode;

struct Flags {
    broker: String,
    docstore: String,
    shutdown: bool,
    shutdown_only: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut broker = None;
    let mut docstore = None;
    let mut shutdown = false;
    let mut shutdown_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--broker" => broker = Some(value_for("--broker")?),
            "--docstore" => docstore = Some(value_for("--docstore")?),
            "--shutdown" => shutdown = true,
            "--shutdown-only" => shutdown_only = true,
            "--help" | "-h" => {
                return Err(
                    "usage: net-smoke --broker ADDR --docstore ADDR [--shutdown | --shutdown-only]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Flags {
        broker: broker.ok_or("--broker ADDR is required")?,
        docstore: docstore.ok_or("--docstore ADDR is required")?,
        shutdown,
        shutdown_only,
    })
}

fn check(condition: bool, what: &str) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

fn smoke_broker(addr: &str) -> Result<(), String> {
    let broker = RemoteBroker::connect(addr, ClientConfig::default());
    broker
        .declare_exchange("smoke")
        .map_err(|e| format!("declare_exchange: {e}"))?;
    broker
        .declare_queue("smoke.q")
        .map_err(|e| format!("declare_queue: {e}"))?;
    broker
        .bind_queue("smoke", "smoke.q", "obs.#")
        .map_err(|e| format!("bind_queue: {e}"))?;

    let message = Message::new(
        "obs.paris.noise"
            .parse()
            .map_err(|_| "routing key rejected".to_string())?,
        br#"{"spl": 61.5}"#.to_vec(),
    )
    .with_header(TRACE_HEADER, "smoke-trace-1");
    let fanout = broker
        .publish_message("smoke", message)
        .map_err(|e| format!("publish_message: {e}"))?;
    check(fanout == 1, "publish reached exactly one queue")?;
    check(
        broker.queue_depth("smoke.q").unwrap_or(0) == 1,
        "queue depth is 1 after publish",
    )?;

    let deliveries = broker
        .consume("smoke.q", 8)
        .map_err(|e| format!("consume: {e}"))?;
    check(deliveries.len() == 1, "consumed exactly one delivery")?;
    let delivery = &deliveries[0];
    check(
        delivery.payload().as_ref() == br#"{"spl": 61.5}"#,
        "payload survived the round trip",
    )?;
    check(
        delivery.message.header(TRACE_HEADER) == Some("smoke-trace-1"),
        "trace header survived the round trip",
    )?;
    broker
        .ack("smoke.q", delivery.tag)
        .map_err(|e| format!("ack: {e}"))?;
    check(
        broker.queue_depth("smoke.q").unwrap_or(1) == 0,
        "queue drained after ack",
    )?;
    eprintln!("net-smoke: broker at {addr} ok");
    Ok(())
}

fn smoke_docstore(addr: &str) -> Result<(), String> {
    let store = RemoteStore::connect(addr, ClientConfig::default());
    let coll = store.collection("smoke");
    for (city, spl) in [("paris", 61.5), ("lyon", 48.0), ("brest", 72.25)] {
        coll.insert_one(json!({"city": city, "spl": spl}))
            .map_err(|e| format!("insert_one: {e}"))?;
    }
    check(coll.len() == 3, "three documents stored")?;
    let loud = coll
        .find(
            &Filter::parse(&json!({"spl": {"$gte": 60}}))
                .map_err(|e| format!("filter parse: {e}"))?,
        )
        .map_err(|e| format!("find: {e}"))?;
    check(loud.len() == 2, "two documents above 60 dB")?;
    check(
        store.has_collection("smoke"),
        "collection is visible store-wide",
    )?;
    store
        .drop_collection("smoke")
        .map_err(|e| format!("drop_collection: {e}"))?;
    check(!store.has_collection("smoke"), "collection gone after drop")?;
    eprintln!("net-smoke: docstore at {addr} ok");
    Ok(())
}

fn request_shutdown(addr: &str, who: &str) -> Result<(), String> {
    let pool = ClientPool::new(addr, ClientConfig::default());
    pool.call(OP_SHUTDOWN, &[], b"")
        .map_err(|e| format!("{who} shutdown: {e}"))?;
    eprintln!("net-smoke: {who} at {addr} acknowledged shutdown");
    Ok(())
}

fn run(flags: &Flags) -> Result<(), String> {
    if !flags.shutdown_only {
        smoke_broker(&flags.broker)?;
        smoke_docstore(&flags.docstore)?;
    }
    if flags.shutdown || flags.shutdown_only {
        request_shutdown(&flags.broker, "broker")?;
        request_shutdown(&flags.docstore, "docstore")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&flags) {
        Ok(()) => {
            eprintln!("net-smoke: all checks passed");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("net-smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
