//! The dataset produced by a deployment replay.

use mps_broker::MetricsSnapshot;
use mps_types::{
    Activity, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation,
    SensingMode, SimTime, SoundLevel,
};
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

fn parse_observation(doc: &Value) -> Option<Observation> {
    let model: DeviceModel = doc.get("model")?.as_str()?.parse().ok()?;
    let captured = SimTime::from_millis(doc.get("captured_ms")?.as_i64()?);
    let arrived = SimTime::from_millis(doc.get("arrived_ms")?.as_i64()?);
    let spl = SoundLevel::new(doc.get("spl")?.as_f64()?);
    let activity: Activity = doc.get("activity")?.as_str()?.parse().ok()?;
    let mode: SensingMode = doc.get("mode")?.as_str()?.parse().ok()?;
    let version: AppVersion = doc.get("app_version")?.as_str()?.parse().ok()?;
    let device = doc.get("device")?.as_u64()?;
    let user = doc.get("user")?.as_u64()?;

    let mut builder = Observation::builder()
        .device(device.into())
        .user(user.into())
        .model(model)
        .captured_at(captured)
        .arrived_at(arrived)
        .spl(spl)
        .activity(activity)
        .mode(mode)
        .app_version(version);

    if doc.get("localized")?.as_bool()? {
        let provider: LocationProvider = doc.get("provider")?.as_str()?.parse().ok()?;
        let accuracy = doc.get("accuracy")?.as_f64()?;
        let lat = doc.get("lat")?.as_f64()?;
        let lon = doc.get("lon")?.as_f64()?;
        builder = builder.location(LocationFix::new(
            GeoPoint::new(lat, lon),
            accuracy,
            provider,
        ));
    }
    Some(builder.build())
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
        let observations: Vec<Observation> = docs.iter().filter_map(parse_observation).collect();
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
    use serde_json::json;

    fn doc(localized: bool) -> Value {
        json!({
            "device": 111, "user": 222,
            "model": "LGE NEXUS 5",
            "captured_ms": 1_000_000, "arrived_ms": 1_009_000, "delay_ms": 9_000,
            "hour": 0, "day": 0, "month": 0,
            "spl": 61.5,
            "localized": localized,
            "provider": if localized { json!("gps") } else { Value::Null },
            "accuracy": if localized { json!(12.5) } else { Value::Null },
            "lat": if localized { json!(48.85) } else { Value::Null },
            "lon": if localized { json!(2.35) } else { Value::Null },
            "activity": "still",
            "mode": "manual",
            "app_version": "1.2.9",
        })
    }

    #[test]
    fn parses_localized_document() {
        let ds = Dataset::from_documents(&[doc(true)], 1, 1, 0, MetricsSnapshot::default());
        assert_eq!(ds.stored(), 1);
        let obs = &ds.observations[0];
        assert_eq!(obs.model, DeviceModel::LgeNexus5);
        assert_eq!(obs.device.raw(), 111);
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
