//! `mps-brokerd` — the message broker as a standalone process.
//!
//! ```text
//! mps-brokerd [--listen ADDR] [--wal-dir DIR] [--max-connections N]
//!             [--instance NAME]
//! ```
//!
//! Serves an `mps-broker` instance over the mps-net wire protocol.
//! With `--wal-dir` the broker write-ahead-logs every queue transition
//! to that directory and replays it on restart; without it the broker
//! is in-memory. `--instance` names this process in the fleet: the
//! admin health report echoes it and `xtask obs` labels merged metrics
//! with it. Prints the bound address on stderr (`listening on ...`) so
//! wrappers can scrape it, and exits cleanly when a client sends the
//! shutdown opcode. See `docs/DEPLOYMENT.md` and
//! `docs/OBSERVABILITY.md`.

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

use mps_broker::{Broker, BrokerTransport, DurabilityConfig};
use mps_net::broker_api::BrokerService;
use mps_net::server::{ServerConfig, WireServer};
use std::process::ExitCode;
use std::sync::Arc;

struct Flags {
    listen: String,
    wal_dir: Option<String>,
    max_connections: usize,
    instance: String,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        listen: "127.0.0.1:7401".to_string(),
        wal_dir: None,
        max_connections: ServerConfig::default().max_connections,
        instance: "brokerd".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => flags.listen = value_for("--listen")?,
            "--wal-dir" => flags.wal_dir = Some(value_for("--wal-dir")?),
            "--max-connections" => {
                flags.max_connections = value_for("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections needs an integer".to_string())?;
            }
            "--instance" => flags.instance = value_for("--instance")?,
            "--help" | "-h" => {
                return Err(
                    "usage: mps-brokerd [--listen ADDR] [--wal-dir DIR] [--max-connections N] \
                     [--instance NAME]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
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

    let broker: Arc<dyn BrokerTransport> = match &flags.wal_dir {
        None => Arc::new(Broker::new()),
        Some(dir) => match Broker::open_durable(DurabilityConfig::new(dir)) {
            Ok(broker) => Arc::new(broker),
            Err(err) => {
                eprintln!("cannot open durable broker in {dir}: {err}");
                return ExitCode::FAILURE;
            }
        },
    };
    let config = ServerConfig {
        max_connections: flags.max_connections,
        instance: flags.instance,
        ..ServerConfig::default()
    };
    let server =
        match WireServer::bind(&*flags.listen, Arc::new(BrokerService::new(broker)), config) {
            Ok(server) => server,
            Err(err) => {
                eprintln!("cannot bind {}: {err}", flags.listen);
                return ExitCode::FAILURE;
            }
        };
    eprintln!("mps-brokerd listening on {}", server.local_addr());
    server.join();
    eprintln!("mps-brokerd shut down cleanly");
    ExitCode::SUCCESS
}
