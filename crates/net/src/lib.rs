//! # mps-net — the pipeline's real network boundary
//!
//! Every other crate in this workspace is deliberately in-process: the
//! broker, the docstore and the GoFlow server all live in one address
//! space so experiments stay deterministic. The paper's deployment,
//! however, ran across *machines* — phones talking AMQP to a RabbitMQ
//! broker, GoFlow talking BSON to a MongoDB server — and several of its
//! hard-won lessons (backpressure, visible loss, bounded buffers) only
//! bite once a socket sits between components. This crate supplies that
//! socket without dragging in an async runtime or a serialization
//! framework:
//!
//! * **Frames** ([`frame`]) — a length-prefixed, CRC-32-checksummed
//!   binary framing reusing the `mps-wal` record conventions; torn and
//!   corrupt frames are classified, counted and rejected, never skipped.
//! * **Wire primitives** ([`wire`]) — little-endian scalars and
//!   length-prefixed strings; the whole protocol is implementable from
//!   `docs/WIRE_PROTOCOL.md` alone.
//! * **Servers** ([`server`]) — a thread-per-connection TCP server with
//!   per-connection bounded buffers and explicit backpressure: past
//!   `max_connections` the handshake *sheds* (counted in
//!   `net_server_shed_total`) instead of queueing invisibly.
//! * **Clients** ([`client`]) — a connection-pooled client that retries
//!   a failed call exactly once on a fresh connection (at-least-once,
//!   the same contract the rest of the pipeline assumes).
//! * **APIs** ([`broker_api`], [`docstore_api`]) — opcode tables mapping
//!   [`mps_broker::BrokerTransport`] and
//!   [`mps_docstore::DocstoreTransport`] over the wire, with exact
//!   bidirectional error codecs: a `QueueNotFound` on the server is a
//!   `QueueNotFound` at the client, three processes away.
//! * **Fault proxy** ([`proxy`]) — `mps-faults` plans applied at an
//!   actual socket: drops tear TCP streams, delays stall frames, and
//!   every decision lands in the same conservation counters the
//!   simulated links use.
//! * **Observability plane** ([`admin`], [`fleet`]) — every server
//!   answers the reserved admin opcodes (metrics, health,
//!   flight-recorder drain, slow RPCs) on its wire port, and the fleet
//!   scraper merges N processes into one instance-labelled registry,
//!   one stitched trace index and one ops dashboard (`xtask obs`).
//!
//! Trace contexts ([`mps_telemetry::trace::TRACE_HEADER`]) ride request
//! envelope headers across the boundary, so the flight-recorder's
//! "every trace ends in exactly one primary terminal" invariant keeps
//! holding when the pipeline spans processes — see
//! `tests/remote_pipeline.rs`.
//!
//! # Example: a broker behind TCP
//!
//! ```
//! use mps_broker::{Broker, BrokerTransport};
//! use mps_net::client::ClientConfig;
//! use mps_net::broker_api::{BrokerService, RemoteBroker};
//! use mps_net::server::{ServerConfig, WireServer};
//! use std::sync::Arc;
//!
//! let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
//! let server = WireServer::bind(
//!     "127.0.0.1:0",
//!     Arc::new(BrokerService::new(broker)),
//!     ServerConfig::default(),
//! )?;
//!
//! // In another process this would be `RemoteBroker::connect("host:port", ...)`.
//! let remote = RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
//! remote.declare_exchange("app")?;
//! remote.declare_queue("inbox")?;
//! remote.bind_queue("app", "inbox", "obs.#")?;
//! remote.publish("app", "obs.paris.noise", br#"{"spl": 61.5}"#)?;
//! assert_eq!(remote.queue_depth("inbox")?, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

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

pub mod admin;
pub mod broker_api;
pub mod client;
pub mod docstore_api;
pub mod fleet;
pub mod frame;
pub mod proxy;
pub mod rpc;
pub mod server;
pub(crate) mod sync;
mod telemetry;
pub mod wire;

#[cfg(test)]
mod proptests;

pub use admin::{
    SlowRpc, SlowRpcRing, ADMIN_OPCODE_MIN, OP_FLIGHT_DRAIN, OP_HEALTH, OP_METRICS, OP_SLOW_RPCS,
};
pub use broker_api::{BrokerService, RemoteBroker};
pub use client::{ClientConfig, ClientPool, IdleStack, NetError, WireConn};
pub use docstore_api::{DocstoreService, RemoteStore};
pub use fleet::{Conservation, Endpoint, FleetSnapshot, InstanceScrape};
pub use frame::{Frame, FrameError, FrameType, PROTOCOL_VERSION};
pub use proxy::SocketFaultProxy;
pub use server::{ServerConfig, ServiceError, WireServer, WireService};
