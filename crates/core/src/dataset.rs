//! The dataset produced by a deployment replay.

use mps_broker::MetricsSnapshot;
use mps_goflow::ObservationRecord;
use mps_types::Observation;
use serde_json::Value;

/// Everything a replay leaves behind: the observations *as stored by the
/// server* (pseudonymised ids, arrival stamps), plus pipeline-level
/// counters.
///
/// The observations are reconstructed from the GoFlow storage documents,
/// so every figure computed from a `Dataset` has travelled the full
/// client → broker → ingest → store → query pipeline.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Stored observations. Device/user ids are pseudonyms (stable within
    /// the dataset), exactly as the privacy policy stores them.
    pub observations: Vec<Observation>,
    /// Devices simulated.
    pub devices: u64,
    /// Observations captured on phones (delivered or not).
    pub captured: u64,
    /// Observations still undelivered at the end of the replay (pending
    /// in client buffers).
    pub undelivered: u64,
    /// Broker counters at the end of the replay.
    pub broker_metrics: MetricsSnapshot,
    /// Stored documents that did not decode as observations (foreign
    /// schema). They are left out of [`observations`](Self::observations),
    /// so a non-zero count means every figure is computed from fewer
    /// observations than the store holds.
    pub undecoded: u64,
}

impl Dataset {
    /// Reconstructs typed observations from GoFlow storage documents.
    /// Documents that do not decode (foreign schema) are left out and
    /// counted in [`undecoded`](Self::undecoded).
    pub fn from_documents(
        docs: &[Value],
        devices: u64,
        captured: u64,
        undelivered: u64,
        broker_metrics: MetricsSnapshot,
    ) -> Self {
        let observations: Vec<Observation> = docs
            .iter()
            .filter_map(ObservationRecord::from_document)
            .collect();
        Self {
            undecoded: (docs.len() - observations.len()) as u64,
            observations,
            devices,
            captured,
            undelivered,
            broker_metrics,
        }
    }

    /// Stored (delivered) observation count.
    pub fn stored(&self) -> u64 {
        self.observations.len() as u64
    }

    /// Fraction of stored observations that carry a location fix.
    pub fn localized_fraction(&self) -> f64 {
        if self.observations.is_empty() {
            return 0.0;
        }
        self.observations
            .iter()
            .filter(|o| o.is_localized())
            .count() as f64
            / self.observations.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_goflow::PrivacyPolicy;
    use mps_types::{
        Activity, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, SensingMode,
        SimDuration, SimTime, SoundLevel,
    };
    use serde_json::json;

    fn doc(localized: bool) -> Value {
        let mut obs = Observation::builder()
            .device(111.into())
            .user(222.into())
            .model(DeviceModel::LgeNexus5)
            .captured_at(SimTime::from_millis(1_000_000))
            .spl(SoundLevel::new(61.5))
            .activity(Activity::Still)
            .mode(SensingMode::Manual)
            .app_version(AppVersion::V1_2_9);
        if localized {
            let fix = LocationFix::new(GeoPoint::new(48.85, 2.35), 12.5, LocationProvider::Gps);
            obs = obs.location(fix);
        }
        let arrived = SimTime::from_millis(1_000_000) + SimDuration::from_secs(9);
        ObservationRecord::to_document(&obs.build(), arrived, &PrivacyPolicy::default(), None)
    }

    #[test]
    fn parses_localized_document() {
        let ds = Dataset::from_documents(&[doc(true)], 1, 1, 0, MetricsSnapshot::default());
        assert_eq!(ds.stored(), 1);
        let obs = &ds.observations[0];
        assert_eq!(obs.model, DeviceModel::LgeNexus5);
        assert_eq!(
            obs.device.raw(),
            PrivacyPolicy::default().pseudonymize(111).raw()
        );
        assert_eq!(obs.spl.db(), 61.5);
        assert_eq!(obs.mode, SensingMode::Manual);
        assert_eq!(obs.app_version, AppVersion::V1_2_9);
        let fix = obs.location.as_ref().unwrap();
        assert_eq!(fix.provider, LocationProvider::Gps);
        assert_eq!(fix.accuracy_m, 12.5);
        assert_eq!(obs.delay().unwrap().as_secs(), 9);
        assert_eq!(ds.localized_fraction(), 1.0);
    }

    #[test]
    fn parses_unlocalized_document() {
        let ds = Dataset::from_documents(&[doc(false)], 1, 1, 0, MetricsSnapshot::default());
        assert_eq!(ds.stored(), 1);
        assert!(!ds.observations[0].is_localized());
        assert_eq!(ds.localized_fraction(), 0.0);
    }

    #[test]
    fn skips_undecodable_documents() {
        let ds = Dataset::from_documents(
            &[json!({"garbage": true}), doc(true)],
            1,
            2,
            0,
            MetricsSnapshot::default(),
        );
        assert_eq!(ds.stored(), 1);
        assert_eq!(ds.undecoded, 1);
    }

    #[test]
    fn empty_dataset_fractions() {
        let ds = Dataset::from_documents(&[], 0, 0, 0, MetricsSnapshot::default());
        assert_eq!(ds.localized_fraction(), 0.0);
        assert_eq!(ds.stored(), 0);
    }
}
