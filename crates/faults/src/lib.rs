//! # mps-faults — deterministic fault injection and the resilient link
//!
//! The paper's "don'ts" are almost all resilience failures: a 10-month
//! urban deployment (Section 6) survives on flaky cellular links, device
//! churn and server-side hiccups, and every message the middleware loses
//! silently is an observation the analyses never see. This crate is the
//! workspace's controlled adversary: a **seeded, replayable fault model**
//! that the pipeline is driven through so loss is always *injected,
//! counted and accounted for* — never accidental.
//!
//! Components:
//!
//! * [`FaultSpec`] — the declarative fault mix: drop / delay / duplicate /
//!   reorder probabilities, black-hole windows per route prefix, and
//!   device churn (outage) behaviour.
//! * [`FaultPlan`] — a seeded decision stream over a spec (built on
//!   [`mps_simcore::SimRng`], so decisions are bit-reproducible and
//!   independent of unrelated randomness). [`FaultPlan::decide`] maps
//!   each send to a [`FaultAction`]; [`FaultPlan::device_online`] derives
//!   deterministic per-device outage windows.
//! * [`Link`] — the trait at the transmission boundary (the mobile upload
//!   path and the broker publish boundary both implement it), and
//!   [`FaultyLink`] — the wrapper that applies a plan to any link,
//!   holding delayed messages in an internal delay line until
//!   [`FaultyLink::advance_to`] releases them.
//! * [`FaultStats`] — per-plan conservation counters (everything is also
//!   mirrored into the global [`mps_telemetry::Registry`] under
//!   `faults_*` series).
//! * [`CrashSpec`] / [`CrashPlan`] — the crash-kill fault: a seeded
//!   process death at a WAL kill point, armed onto an
//!   [`mps_wal::KillSwitch`] for the durable docstore or broker.
//!
//! The conservation contract the end-to-end tests assert: for every
//! message offered to a faulty link,
//! `delivered + dropped(counted) + still_pending == offered + duplicated`.
//!
//! # Examples
//!
//! ```
//! use mps_faults::{FaultPlan, FaultSpec, FaultyLink, Link, LinkError, LinkReceipt};
//! use mps_types::SimTime;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! /// A link that counts what reaches the far side.
//! #[derive(Default)]
//! struct Sink(AtomicUsize);
//! impl Link for Sink {
//!     fn send(&self, _route: &str, _payload: &[u8]) -> Result<usize, LinkError> {
//!         self.0.fetch_add(1, Ordering::Relaxed);
//!         Ok(1)
//!     }
//! }
//!
//! let plan = FaultPlan::new(42, FaultSpec::flaky_cellular());
//! let link = FaultyLink::new(Sink::default(), plan);
//! for i in 0..100u32 {
//!     let now = SimTime::from_millis(i as i64 * 1_000);
//!     link.advance_to(now).unwrap();
//!     link.send_at("obs.paris.noise", b"{}", now).unwrap();
//! }
//! link.drain_pending().unwrap();
//! let stats = link.stats();
//! let arrived = link.inner().0.load(Ordering::Relaxed) as u64;
//! // Zero silent loss: every send is delivered, duplicated or counted as dropped.
//! assert_eq!(arrived + stats.dropped + stats.blackholed, 100 + stats.duplicated);
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

mod crash;
mod link;
mod plan;
#[cfg(test)]
mod proptests;
mod spec;
mod telemetry;

pub use crash::{CrashPlan, CrashSpec, CrashTarget};
pub use link::{FaultyLink, FaultyLinkAt, Link, LinkError, LinkReceipt, SendTrace};
pub use plan::{DropReason, FaultAction, FaultPlan, FaultStats};
pub use spec::{BlackholeWindow, FaultSpec, OutageSpec};
