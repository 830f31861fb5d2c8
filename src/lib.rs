//! # SoundCity — umbrella crate
//!
//! This crate re-exports the member crates of the SoundCity / GoFlow
//! workspace, a reproduction of *"Dos and Don'ts in Mobile Phone Sensing
//! Middleware: Learning from a Large-Scale Experiment"* (Middleware 2016).
//!
//! The individual crates are:
//!
//! * [`types`] — shared domain types (observations, locations, models).
//! * [`simcore`] — deterministic discrete-event simulation kernel.
//! * [`broker`] — AMQP-style message broker (RabbitMQ substitute).
//! * [`faults`] — seeded fault injection (drops, delays, duplicates,
//!   black-holes, device churn) and the resilient-link boundary.
//! * [`docstore`] — document store (MongoDB substitute).
//! * [`goflow`] — the GoFlow crowd-sensing middleware server.
//! * [`mobile`] — device/crowd simulator and GoFlow mobile client.
//! * [`net`] — binary wire protocol, socket servers and pooled clients
//!   that put [`broker`] and [`docstore`] behind a real network boundary.
//! * [`assim`] — urban noise model, BLUE data assimilation, calibration.
//! * [`analytics`] — the empirical-analysis toolkit (figures/tables).
//! * [`core`] — experiment orchestration (deployment replay, lab harnesses).
//! * [`telemetry`] — workspace-wide counters, latency histograms and the
//!   shared metric registry (see the README's Observability section).
//! * [`wal`] — append-only write-ahead log with crash recovery, behind
//!   the durable modes of [`docstore`] and [`broker`].
//!
//! Start with the runnable examples: `quickstart` (a full deployment
//! replay), `middleware_tour` (the GoFlow API), `noise_map` (simulation +
//! assimilation), `energy_tradeoff` (the battery lab) and
//! `citizen_journey` (journeys, exposure, crowd-calibration).
//!
//! # Examples
//!
//! ```
//! use soundcity::prelude::*;
//!
//! let config = ExperimentConfig::tiny();
//! let mut deployment = Deployment::new(config);
//! let dataset = deployment.run();
//! assert!(!dataset.observations.is_empty());
//! let table = ModelTable::build(&dataset.observations);
//! assert_eq!(table.rows.len(), 20);
//! ```

pub use mps_analytics as analytics;
pub use mps_assim as assim;
pub use mps_broker as broker;
pub use mps_core as core;
pub use mps_docstore as docstore;
pub use mps_faults as faults;
pub use mps_goflow as goflow;
pub use mps_mobile as mobile;
pub use mps_net as net;
pub use mps_simcore as simcore;
pub use mps_telemetry as telemetry;
pub use mps_types as types;
pub use mps_wal as wal;

/// The most commonly used items across the workspace, importable in one
/// line (`use soundcity::prelude::*`).
pub mod prelude {
    pub use mps_analytics::{
        AccuracyReport, ActivityReport, DelayReport, DiurnalReport, ExposureReport, GrowthReport,
        ModelTable, ProviderByModeReport, ProviderFilter, SplReport,
    };
    pub use mps_assim::{Blue, CityModel, Grid, NoiseSimulator, PointObservation};
    pub use mps_broker::Broker;
    pub use mps_core::{BatteryLab, CalibrationStudy, Dataset, Deployment, ExperimentConfig};
    pub use mps_docstore::{Filter, Store};
    pub use mps_faults::{FaultPlan, FaultSpec, FaultyLink};
    pub use mps_goflow::{GoFlowServer, ObservationQuery, Role};
    pub use mps_mobile::{Device, DeviceConfig, GoFlowClient, Journey};
    pub use mps_simcore::SimRng;
    pub use mps_types::{
        Activity, AppId, AppVersion, DeviceModel, GeoBounds, GeoPoint, LocationProvider,
        Observation, SensingMode, SimDuration, SimTime, SoundLevel,
    };
}
