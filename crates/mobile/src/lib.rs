//! # mps-mobile — device & crowd simulator and the GoFlow mobile client
//!
//! The paper's analyses consume observation streams from 2 091 real phones
//! of 20 models. This crate is the simulation substitute (see DESIGN.md):
//! statistically-faithful models of the phones, their sensors, their users
//! and their connectivity, plus a faithful implementation of the GoFlow
//! *mobile client* (the part of SoundCity that records, buffers and ships
//! observations).
//!
//! Components:
//!
//! * [`ModelProfile`] — per-model calibration targets derived from the
//!   paper's Figure 9 plus model-specific sensor characteristics.
//! * [`Microphone`] and [`SoundEnvironment`] — the two-regime SPL model
//!   behind Figures 14–15 (quiet-environment peak + active-environment
//!   bump, shifted per model).
//! * [`LocationSampler`] — availability, provider mix and per-provider
//!   accuracy distributions behind Figures 10–13 and 20.
//! * [`activity_chain`] — the activity Markov model behind Figure 21.
//! * [`UserBehavior`] — per-user diurnal participation profiles behind
//!   Figures 18–19.
//! * [`ConnectivityModel`] — connectivity classes (cellular-data,
//!   Wi-Fi-only, rarely-connected) behind the delay CDF of Figure 17.
//! * [`BatteryModel`] and [`RadioKind`] — the energy model behind the
//!   battery-depletion lab of Figure 16.
//! * [`GoFlowClient`] — the versioned client (v1.1 / v1.2.9 / v1.3) with
//!   send-every-cycle vs buffer-10 behaviour and retry-on-next-cycle, plus
//!   a resilient upload path ([`GoFlowClient::on_cycle_at`]) that retries
//!   visible failures with jittered exponential backoff ([`RetryPolicy`])
//!   through any [`mps_faults::Link`] transport ([`BrokerLink`] adapts a
//!   broker exchange).
//! * [`Device`] — one simulated phone tying the models together.
//! * [`Fleet`] — a lazily-derived crowd of up to millions of devices:
//!   members are pure functions of `(seed, index)` over the interned
//!   model catalog, with the population diurnal load shape and a
//!   round-robin shard partition for scale-out driving.
//!
//! # Examples
//!
//! ```
//! use mps_mobile::{Device, DeviceConfig};
//! use mps_simcore::SimRng;
//! use mps_types::{DeviceModel, SensingMode, SimTime};
//!
//! let rng = SimRng::new(7);
//! let mut device = Device::new(DeviceConfig::new(1, DeviceModel::LgeNexus5), &rng);
//! let obs = device.capture(SimTime::from_hms(0, 12, 0, 0), SensingMode::Opportunistic);
//! assert_eq!(obs.model, DeviceModel::LgeNexus5);
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

mod activity;
mod battery;
mod behavior;
mod catalog;
mod client;
mod connectivity;
mod device;
mod fleet;
mod journey;
mod location;
mod microphone;
#[cfg(test)]
mod proptests;
mod retry;
mod telemetry;

pub use activity::{activity_chain, ActivityModel, TARGET_ACTIVITY_SHARES};
pub use battery::{BatteryModel, BatteryParams, RadioKind};
pub use behavior::UserBehavior;
pub use catalog::ModelProfile;
pub use client::{BrokerLink, GoFlowClient, SendOutcome};
pub use connectivity::{transmission_latency, ConnectivityClass, ConnectivityModel, CLASS_SHARES};
pub use device::{Device, DeviceConfig};
pub use fleet::Fleet;
pub use journey::{Journey, JourneyTrace, JourneyVisibility};
pub use location::LocationSampler;
pub use microphone::{Microphone, SoundEnvironment};
pub use retry::RetryPolicy;
