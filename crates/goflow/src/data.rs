//! Crowd-sensed data management: filtered retrieval and packaging.
//!
//! GoFlow "allows the retrieval of crowd-sensed information based on
//! various filtering parameters, and various packaging solutions (file,
//! json stream, ...)" (Figure 2). [`ObservationQuery`] is the typed filter
//! surface; [`Packaging`] selects the output encoding.

use crate::record::{ACCURACY, CAPTURED, LAT, LOCALIZED, LON, MODE, MODEL, PROVIDER, VERSION};
use mps_docstore::Filter;
use mps_types::{AppVersion, DeviceModel, GeoBounds, LocationProvider, SensingMode, SimTime};
use serde_json::Value;

/// A typed query over stored observations.
///
/// Builds a document-store [`Filter`] over the members of the stored
/// document ([`ObservationRecord`](crate::ObservationRecord)).
///
/// # Examples
///
/// ```
/// use mps_goflow::ObservationQuery;
/// use mps_types::{LocationProvider, SimTime};
///
/// let query = ObservationQuery::new()
///     .provider(LocationProvider::Gps)
///     .max_accuracy_m(50.0)
///     .captured_between(SimTime::EPOCH, SimTime::from_hms(30, 0, 0, 0));
/// let filter = query.to_filter();
/// # let _ = filter;
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObservationQuery {
    time_range: Option<(SimTime, SimTime)>,
    bbox: Option<GeoBounds>,
    model: Option<DeviceModel>,
    provider: Option<LocationProvider>,
    max_accuracy_m: Option<f64>,
    localized_only: bool,
    mode: Option<SensingMode>,
    app_version: Option<AppVersion>,
    limit: Option<usize>,
}

impl ObservationQuery {
    /// Creates an unconstrained query (matches every observation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps observations captured in `[from, to)`.
    pub fn captured_between(mut self, from: SimTime, to: SimTime) -> Self {
        self.time_range = Some((from, to));
        self
    }

    /// Keeps observations located inside `bounds` (implies localized).
    pub fn within(mut self, bounds: GeoBounds) -> Self {
        self.bbox = Some(bounds);
        self
    }

    /// Keeps observations from one device model.
    pub fn model(mut self, model: DeviceModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Keeps observations with a fix from one provider (implies localized).
    pub fn provider(mut self, provider: LocationProvider) -> Self {
        self.provider = Some(provider);
        self
    }

    /// Keeps observations at least this accurate (radius ≤ the bound;
    /// implies localized).
    pub fn max_accuracy_m(mut self, bound: f64) -> Self {
        self.max_accuracy_m = Some(bound);
        self
    }

    /// Keeps only localized observations.
    pub fn localized_only(mut self) -> Self {
        self.localized_only = true;
        self
    }

    /// Keeps observations captured in one sensing mode.
    pub fn mode(mut self, mode: SensingMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Keeps observations captured by one app version.
    pub fn app_version(mut self, version: AppVersion) -> Self {
        self.app_version = Some(version);
        self
    }

    /// Caps the number of returned documents.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// The result cap, if set.
    pub fn limit_value(&self) -> Option<usize> {
        self.limit
    }

    /// Lowers the query to a document-store filter.
    pub fn to_filter(&self) -> Filter {
        let mut clauses = Vec::new();
        if let Some((from, to)) = self.time_range {
            clauses.push(Filter::gte(CAPTURED.name, from.as_millis()));
            clauses.push(Filter::lt(CAPTURED.name, to.as_millis()));
        }
        if let Some(bounds) = self.bbox {
            clauses.push(Filter::range(LAT.name, bounds.lat_min, bounds.lat_max));
            clauses.push(Filter::range(LON.name, bounds.lon_min, bounds.lon_max));
        }
        if let Some(model) = self.model {
            clauses.push(Filter::eq(MODEL.name, model.label()));
        }
        if let Some(provider) = self.provider {
            clauses.push(Filter::eq(PROVIDER.name, provider.name()));
        }
        if let Some(bound) = self.max_accuracy_m {
            clauses.push(Filter::lte(ACCURACY.name, bound));
        }
        if self.localized_only {
            clauses.push(Filter::eq(LOCALIZED.name, true));
        }
        if let Some(mode) = self.mode {
            clauses.push(Filter::eq(MODE.name, mode.name()));
        }
        if let Some(version) = self.app_version {
            clauses.push(Filter::eq(VERSION.name, version.name()));
        }
        Filter::and(clauses)
    }
}

/// Output encoding for retrieved data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Packaging {
    /// One JSON document per line (a "json stream").
    #[default]
    JsonLines,
    /// A single JSON array (a downloadable "file").
    JsonArray,
}

impl Packaging {
    /// Encodes documents in this packaging.
    pub fn encode(self, docs: &[Value]) -> String {
        match self {
            Packaging::JsonLines => docs
                .iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join("\n"),
            Packaging::JsonArray => Value::Array(docs.to_vec()).to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(provider: &str, accuracy: f64, captured: i64) -> Value {
        json!({
            "model": "LGE NEXUS 5",
            "provider": provider,
            "accuracy": accuracy,
            "localized": true,
            "captured_ms": captured,
            "mode": "opportunistic",
            "lat": 48.85,
            "lon": 2.35,
        })
    }

    #[test]
    fn empty_query_matches_all() {
        let f = ObservationQuery::new().to_filter();
        assert_eq!(f, Filter::True);
        assert!(f.matches(&doc("gps", 10.0, 0)));
    }

    #[test]
    fn provider_and_accuracy() {
        let f = ObservationQuery::new()
            .provider(LocationProvider::Gps)
            .max_accuracy_m(20.0)
            .to_filter();
        assert!(f.matches(&doc("gps", 15.0, 0)));
        assert!(!f.matches(&doc("gps", 25.0, 0)));
        assert!(!f.matches(&doc("network", 15.0, 0)));
    }

    #[test]
    fn time_window_is_half_open() {
        let f = ObservationQuery::new()
            .captured_between(SimTime::from_millis(100), SimTime::from_millis(200))
            .to_filter();
        assert!(!f.matches(&doc("gps", 10.0, 99)));
        assert!(f.matches(&doc("gps", 10.0, 100)));
        assert!(f.matches(&doc("gps", 10.0, 199)));
        assert!(!f.matches(&doc("gps", 10.0, 200)));
    }

    #[test]
    fn bbox_filters_coordinates() {
        let f = ObservationQuery::new()
            .within(GeoBounds::paris())
            .to_filter();
        assert!(f.matches(&doc("gps", 10.0, 0)));
        let mut outside = doc("gps", 10.0, 0);
        outside
            .as_object_mut()
            .unwrap()
            .insert("lat".into(), json!(45.0));
        assert!(!f.matches(&outside));
        // Unlocalized docs (null lat) never match a bbox.
        let mut unlocalized = doc("gps", 10.0, 0);
        unlocalized
            .as_object_mut()
            .unwrap()
            .insert("lat".into(), Value::Null);
        assert!(!f.matches(&unlocalized));
    }

    #[test]
    fn model_mode_version_filters() {
        let f = ObservationQuery::new()
            .model(DeviceModel::LgeNexus5)
            .mode(SensingMode::Opportunistic)
            .to_filter();
        assert!(f.matches(&doc("gps", 10.0, 0)));
        let f = ObservationQuery::new()
            .model(DeviceModel::SonyD2303)
            .to_filter();
        assert!(!f.matches(&doc("gps", 10.0, 0)));
        let f = ObservationQuery::new()
            .app_version(AppVersion::V1_3)
            .to_filter();
        assert!(!f.matches(&doc("gps", 10.0, 0)), "doc has no app_version");
    }

    #[test]
    fn localized_only_filter() {
        let f = ObservationQuery::new().localized_only().to_filter();
        assert!(f.matches(&doc("gps", 10.0, 0)));
        assert!(!f.matches(&json!({"localized": false})));
    }

    #[test]
    fn limit_is_carried() {
        assert_eq!(ObservationQuery::new().limit(5).limit_value(), Some(5));
        assert_eq!(ObservationQuery::new().limit_value(), None);
    }

    #[test]
    fn packaging_json_lines() {
        let docs = vec![json!({"a": 1}), json!({"b": 2})];
        let out = Packaging::JsonLines.encode(&docs);
        assert_eq!(out.lines().count(), 2);
        let first: Value = serde_json::from_str(out.lines().next().unwrap()).unwrap();
        assert_eq!(first, json!({"a": 1}));
    }

    #[test]
    fn packaging_json_array() {
        let docs = vec![json!({"a": 1})];
        let out = Packaging::JsonArray.encode(&docs);
        let parsed: Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed, json!([{"a": 1}]));
    }

    #[test]
    fn packaging_empty_inputs() {
        assert_eq!(Packaging::JsonLines.encode(&[]), "");
        assert_eq!(Packaging::JsonArray.encode(&[]), "[]");
    }
}
