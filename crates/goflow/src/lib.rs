//! # mps-goflow — the GoFlow crowd-sensing middleware server
//!
//! GoFlow (Section 3 of the paper) is the server side of the SoundCity
//! deployment: it stores the crowd's contributions, manages accounts and
//! privacy, and wires the RabbitMQ messaging topology on behalf of mobile
//! clients. This crate implements its components on top of
//! [`mps_broker`] (messaging) and [`mps_docstore`] (storage):
//!
//! * [`AccountManager`] — register apps/users with roles, token auth
//!   (Figure 2: "Account and access management").
//! * [`PrivacyPolicy`] — CNIL-style pseudonymisation of contributor
//!   identifiers and per-app private-field stripping for open data
//!   ("GoFlow implements the privacy policy set by the French CNIL").
//! * [`ChannelManager`] — creates the exchanges, queues and bindings of
//!   Figure 3 on behalf of clients ("Channel management").
//! * ingest — drains the GF queue, validates, stamps arrival times,
//!   pseudonymises and stores observations ("Data storage") as
//!   [`ObservationRecord`] documents. It degrades
//!   gracefully: malformed payloads and (opt-in) late observations are
//!   parked in a per-app quarantine collection, and storage failures are
//!   redelivered until the broker's dead-letter policy parks them in the
//!   GF dead-letter queue — never silent loss (see
//!   [`GoFlowServer::quarantine`] and [`GoFlowServer::set_late_quarantine`]).
//! * [`ObservationQuery`] — filtered retrieval with packaging
//!   ("Crowd-sensed data management").
//! * [`JobRegistry`] — background jobs over stored data
//!   ("Background jobs").
//! * [`UsageAnalytics`] — per-app/per-day contribution counters
//!   ("Crowd-sensing analytics", the source of Figure 8).
//! * [`GoFlowServer`] — the facade tying the components together, plus a
//!   typed REST-like [`api`] surface.
//!
//! # Examples
//!
//! ```
//! use mps_broker::Broker;
//! use mps_docstore::Store;
//! use mps_goflow::{GoFlowServer, Role};
//! use mps_types::{AppId, SimTime};
//! use std::sync::Arc;
//!
//! let broker = Arc::new(Broker::new());
//! let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
//! server.register_app(&AppId::soundcity())?;
//! let token = server.register_user(&AppId::soundcity(), 1.into(), Role::Contributor)?;
//! let session = server.login(&token)?;
//! assert_eq!(broker.queue_depth(session.queue()), Ok(0));
//! # Ok::<(), mps_goflow::GoFlowError>(())
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

mod accounts;
mod analytics;
pub mod api;
mod channels;
mod data;
mod error;
mod ingest;
mod jobs;
mod privacy;
#[cfg(test)]
mod proptests;
mod record;
mod server;
mod telemetry;

pub use accounts::{AccountManager, Role, Token};
pub use analytics::UsageAnalytics;
pub use channels::{ChannelManager, ClientSession};
pub use data::{ObservationQuery, Packaging};
pub use error::GoFlowError;
pub use ingest::IngestOutcome;
pub use jobs::{JobId, JobRegistry, JobStatus};
pub use privacy::{PrivacyPolicy, Pseudonym};
pub use record::ObservationRecord;
pub use server::GoFlowServer;
