//! The stored observation: one document per observation (paper §3.1),
//! stated once. Each row of the member table says how a member is written
//! and whether GoFlow indexes it; a member that identifies a person is
//! written as a pseudonym. Writing, reading back, GoFlow's indexes, its
//! erasure and its query filters all go through the rows: no other GoFlow
//! file spells a member's name. The derived members (`hour`, `day`,
//! `month`, `delay_ms`) are written for the analyses, never read back.

use crate::PrivacyPolicy;
use mps_telemetry::trace::TraceId;
use mps_types::{GeoPoint, LocationFix, Observation, SimTime, SoundLevel};
use serde_json::{Map, Value};
use Write::{Plain, Pseudonym};

/// One member of the stored document: a row of [`MEMBERS`].
#[derive(Clone, Copy)]
pub(crate) struct Member {
    pub(crate) name: &'static str,
    /// GoFlow indexes the member in every app's collection.
    indexed: bool,
    write: Write,
}

/// How a member is written.
#[derive(Clone, Copy)]
enum Write {
    /// The pseudonym of a contributor id: the member identifies a person.
    Pseudonym(fn(&Observation) -> u64),
    /// A value of the observation and the instant it arrived.
    Plain(fn(&Observation, SimTime) -> Value),
}

/// Declares one constant per row and [`MEMBERS`], every row in order.
macro_rules! members {
    ($($row:ident $name:literal $indexed:literal $write:expr;)*) => {
        $(pub(crate) const $row: Member = Member { name: $name, indexed: $indexed, write: $write };)*
        /// Every member of a stored observation document.
        const MEMBERS: &[Member] = &[$($row),*];
    };
}

members! {
    // row      name           indexed  written as
    DEVICE      "device"       false    Pseudonym(|o| o.device.raw());
    USER        "user"         false    Pseudonym(|o| o.user.raw());
    MODEL       "model"        true     Plain(|o, _| o.model.label().into());
    CAPTURED    "captured_ms"  true     Plain(|o, _| o.captured_at.as_millis().into());
    ARRIVED     "arrived_ms"   false    Plain(|_, at| at.as_millis().into());
    DELAY       "delay_ms"     false    Plain(|o, at| at.since(o.captured_at).as_millis().into());
    HOUR        "hour"         false    Plain(|o, _| o.captured_at.hour_of_day().into());
    DAY         "day"          false    Plain(|o, _| o.captured_at.day().into());
    MONTH       "month"        false    Plain(|o, _| o.captured_at.month().into());
    SPL         "spl"          false    Plain(|o, _| o.spl.db().into());
    LOCALIZED   "localized"    false    Plain(|o, _| o.is_localized().into());
    PROVIDER    "provider"     true     Plain(|o, _| o.location.map(|l| l.provider.name()).into());
    ACCURACY    "accuracy"     false    Plain(|o, _| o.location.map(|l| l.accuracy_m).into());
    LAT         "lat"          false    Plain(|o, _| o.location.map(|l| l.point.lat).into());
    LON         "lon"          false    Plain(|o, _| o.location.map(|l| l.point.lon).into());
    ACTIVITY    "activity"     false    Plain(|o, _| o.activity.name().into());
    MODE        "mode"         false    Plain(|o, _| o.mode.name().into());
    VERSION     "app_version"  false    Plain(|o, _| o.app_version.name().into());
}

/// The optional member beside [`MEMBERS`]: the trace of a traced
/// observation, which a replay pass matches to skip what is stored.
pub(crate) const TRACE: &str = "trace";

/// Conversion between wire observations and stored documents.
#[derive(Debug, Clone, Copy)]
pub struct ObservationRecord;

impl ObservationRecord {
    /// Builds the stored document for an observation that arrived at
    /// `arrived_at`, with its contributor ids pseudonymised and its trace,
    /// if it has one.
    pub fn to_document(
        obs: &Observation,
        arrived_at: SimTime,
        policy: &PrivacyPolicy,
        trace: Option<TraceId>,
    ) -> Value {
        let mut doc: Map = MEMBERS
            .iter()
            .map(|m| {
                let value = match m.write {
                    Pseudonym(id) => policy.pseudonymize(id(obs)).raw().into(),
                    Plain(write) => write(obs, arrived_at),
                };
                (m.name.to_owned(), value)
            })
            .collect();
        if let Some(trace) = trace {
            doc.insert(TRACE.to_owned(), trace.to_string().into());
        }
        Value::Object(doc)
    }

    /// Reads a stored document back into the observation it was written
    /// from, with pseudonyms for ids and the arrival time set. The derived
    /// members are not read, nor are a fix's members unless `localized` is
    /// true. `None` when a member it reads is missing or mistyped, or the
    /// document arrived before it was captured.
    pub fn from_document(doc: &Value) -> Option<Observation> {
        let get = |m: Member| doc.get(m.name);
        let text = |m: Member| get(m)?.as_str();
        let number = |m: Member| get(m)?.as_f64();
        let captured_at = SimTime::from_millis(get(CAPTURED)?.as_i64()?);
        let arrived_at = SimTime::from_millis(get(ARRIVED)?.as_i64()?);
        if arrived_at < captured_at {
            return None;
        }
        let mut builder = Observation::builder()
            .device(get(DEVICE)?.as_u64()?.into())
            .user(get(USER)?.as_u64()?.into())
            .model(text(MODEL)?.parse().ok()?)
            .captured_at(captured_at)
            .arrived_at(arrived_at)
            .spl(SoundLevel::new(number(SPL)?))
            .activity(text(ACTIVITY)?.parse().ok()?)
            .mode(text(MODE)?.parse().ok()?)
            .app_version(text(VERSION)?.parse().ok()?);
        if get(LOCALIZED)?.as_bool()? {
            builder = builder.location(LocationFix::new(
                GeoPoint::new(number(LAT)?, number(LON)?),
                number(ACCURACY)?,
                text(PROVIDER)?.parse().ok()?,
            ));
        }
        Some(builder.build())
    }

    /// The trace a stored document carries, if it has one.
    pub fn trace(doc: &Value) -> Option<TraceId> {
        doc.get(TRACE)?.as_str()?.parse().ok()
    }

    /// The members GoFlow indexes in every app's collection.
    pub fn indexed() -> impl Iterator<Item = &'static str> {
        MEMBERS.iter().filter(|m| m.indexed).map(|m| m.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_types::{
        Activity, AppVersion, DeviceModel, LocationProvider, SensingMode, SimDuration,
    };
    use serde_json::json;

    fn sample_obs() -> Observation {
        Observation::builder()
            .device(7.into())
            .user(3.into())
            .model(DeviceModel::OneplusA0001)
            .captured_at(SimTime::from_hms(40, 14, 5, 0))
            .spl(SoundLevel::new(63.0))
            .location(LocationFix::new(
                GeoPoint::PARIS,
                28.0,
                LocationProvider::Network,
            ))
            .activity(Activity::Foot)
            .mode(SensingMode::Journey)
            .app_version(AppVersion::V1_2_9)
            .build()
    }

    /// The bytes a stored document had before the member table: not one
    /// of them may move.
    #[test]
    fn documents_keep_their_bytes() {
        let obs = sample_obs();
        let arrived = obs.captured_at + SimDuration::from_secs(9);
        let policy = PrivacyPolicy::default();
        assert_eq!(
            ObservationRecord::to_document(&obs, arrived, &policy, None).to_string(),
            r#"{"accuracy":28.0,"activity":"foot","app_version":"1.2.9","arrived_ms":3506709000,"captured_ms":3506700000,"day":40,"delay_ms":9000,"device":8666563293318659843,"hour":14,"lat":48.8566,"localized":true,"lon":2.3522,"mode":"journey","model":"ONEPLUS A0001","month":1,"provider":"network","spl":63.0,"user":1962186184670727115}"#
        );
        let unlocalized = Observation {
            location: None,
            ..obs
        };
        assert_eq!(
            ObservationRecord::to_document(&unlocalized, arrived, &policy, None).to_string(),
            r#"{"accuracy":null,"activity":"foot","app_version":"1.2.9","arrived_ms":3506709000,"captured_ms":3506700000,"day":40,"delay_ms":9000,"device":8666563293318659843,"hour":14,"lat":null,"localized":false,"lon":null,"mode":"journey","model":"ONEPLUS A0001","month":1,"provider":null,"spl":63.0,"user":1962186184670727115}"#
        );
    }

    #[test]
    fn a_traced_document_carries_its_trace() {
        let obs = sample_obs();
        let trace = TraceId::for_observation(7, obs.captured_at.as_millis());
        let policy = PrivacyPolicy::default();
        let doc = ObservationRecord::to_document(&obs, obs.captured_at, &policy, Some(trace));
        assert_eq!(ObservationRecord::trace(&doc), Some(trace));
        let untraced = ObservationRecord::to_document(&obs, obs.captured_at, &policy, None);
        assert_eq!(ObservationRecord::trace(&untraced), None);
    }

    #[test]
    fn from_document_is_lenient_where_it_reads_nothing() {
        let obs = Observation {
            location: None,
            ..sample_obs()
        };
        let at = obs.captured_at + SimDuration::from_secs(9);
        let mut doc = ObservationRecord::to_document(&obs, at, &PrivacyPolicy::default(), None);
        let fields = doc.as_object_mut().unwrap();
        // Derived members, and a fix's members while `localized` is false,
        // are not read back.
        for name in ["hour", "day", "month", "delay_ms", "provider", "lat"] {
            fields.insert(name.to_owned(), json!("anything"));
        }
        assert!(ObservationRecord::from_document(&doc).is_some());
        doc.as_object_mut().unwrap().remove("spl");
        assert_eq!(ObservationRecord::from_document(&doc), None);
        assert_eq!(ObservationRecord::from_document(&json!([1, 2])), None);
    }

    #[test]
    fn a_document_that_arrived_before_capture_does_not_decode() {
        let obs = sample_obs();
        let early = obs.captured_at - SimDuration::from_secs(1);
        let doc = ObservationRecord::to_document(&obs, early, &PrivacyPolicy::default(), None);
        assert_eq!(ObservationRecord::from_document(&doc), None);
    }
}
