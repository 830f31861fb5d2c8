//! # mps-types — shared domain types
//!
//! Foundation crate of the SoundCity/GoFlow workspace. It defines the
//! vocabulary shared by every other crate: identifiers, simulated time,
//! geographic positions, the catalog of phone models analysed by the paper,
//! location fixes, user activities, sound levels, sensing modes, application
//! versions, and the [`Observation`] record that flows from phones through
//! the middleware into storage.
//!
//! All data types implement [`serde::Serialize`]/[`serde::Deserialize`] so
//! they can cross the (simulated) wire as JSON, exactly as the real
//! deployment shipped JSON payloads over AMQP.
//!
//! # Examples
//!
//! ```
//! use mps_types::{DeviceModel, Observation, SimTime, SoundLevel};
//!
//! let obs = Observation::builder()
//!     .device(7.into())
//!     .user(3.into())
//!     .model(DeviceModel::SamsungGtI9505)
//!     .captured_at(SimTime::from_hms(0, 9, 30, 0))
//!     .spl(SoundLevel::new(55.0))
//!     .build();
//! assert!(obs.location.is_none());
//! assert_eq!(obs.spl.db(), 55.0);
//! ```

mod activity;
mod error;
mod geo;
pub mod headers;
mod id;
mod location;
mod model;
mod observation;
#[cfg(test)]
mod proptests;
mod sound;
mod time;
mod version;

pub use activity::Activity;
pub use error::ParseEnumError;
pub use geo::{haversine_deg, haversine_distance_m, GeoBounds, GeoPoint};
pub use id::{AppId, ClientId, DeviceId, UserId};
pub use location::{LocationFix, LocationProvider};
pub use model::DeviceModel;
pub use observation::{Observation, ObservationBuilder, SensingMode};
pub use sound::SoundLevel;
pub use time::{SimDuration, SimTime};
pub use version::AppVersion;
