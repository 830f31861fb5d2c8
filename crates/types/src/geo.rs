//! Geographic positions and bounding boxes.
//!
//! Observations are localized with WGS-84 coordinates. The city-scale
//! analyses also need metric distances and a local planar projection; at
//! city scale an equirectangular approximation is accurate to well under a
//! metre, which is far below phone location accuracy (tens of metres).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean Earth radius in metres (IUGG).
const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// The haversine `sin²(Δ/2)` of an angle difference given in degrees.
///
/// Together with [`haversine_distance_m`] this is
/// [`GeoPoint::distance_m`] taken apart: on a regular lat/lon grid the
/// latitude term depends on the row alone and the longitude term on the
/// column alone, so a caller measuring many cells against the same points
/// evaluates each term once and still gets the bits `distance_m` returns.
#[inline]
pub fn haversine_deg(delta_deg: f64) -> f64 {
    (delta_deg.to_radians() / 2.0).sin().powi(2)
}

/// Great-circle distance in metres from the haversines of the latitude
/// and longitude differences ([`haversine_deg`]) and the product of the
/// cosines of the two latitudes (the first point's times the second's).
#[inline]
pub fn haversine_distance_m(hav_lat: f64, cos_lats: f64, hav_lon: f64) -> f64 {
    let a = hav_lat + cos_lats * hav_lon;
    2.0 * EARTH_RADIUS_M * a.sqrt().asin()
}

/// A WGS-84 position (latitude/longitude in degrees).
///
/// # Examples
///
/// ```
/// use mps_types::GeoPoint;
///
/// let notre_dame = GeoPoint::new(48.8530, 2.3499);
/// let louvre = GeoPoint::new(48.8606, 2.3376);
/// let d = notre_dame.distance_m(louvre);
/// assert!(d > 1_100.0 && d < 1_400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// City-hall reference point for the Paris deployment.
    pub const PARIS: GeoPoint = GeoPoint {
        lat: 48.8566,
        lon: 2.3522,
    };

    /// Creates a point from latitude and longitude in degrees.
    pub const fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in metres (haversine formula).
    pub fn distance_m(self, other: GeoPoint) -> f64 {
        haversine_distance_m(
            haversine_deg(other.lat - self.lat),
            self.lat.to_radians().cos() * other.lat.to_radians().cos(),
            haversine_deg(other.lon - self.lon),
        )
    }

    /// Projects this point to planar metres east/north of `origin`
    /// (equirectangular local projection).
    pub fn to_local_xy(self, origin: GeoPoint) -> (f64, f64) {
        let lat0 = origin.lat.to_radians();
        let x = (self.lon - origin.lon).to_radians() * lat0.cos() * EARTH_RADIUS_M;
        let y = (self.lat - origin.lat).to_radians() * EARTH_RADIUS_M;
        (x, y)
    }

    /// Inverse of [`GeoPoint::to_local_xy`]: the point `x` metres east and
    /// `y` metres north of `origin`.
    pub fn from_local_xy(origin: GeoPoint, x: f64, y: f64) -> Self {
        let lat0 = origin.lat.to_radians();
        GeoPoint {
            lat: origin.lat + (y / EARTH_RADIUS_M).to_degrees(),
            lon: origin.lon + (x / (EARTH_RADIUS_M * lat0.cos())).to_degrees(),
        }
    }

    /// Whether the coordinates are finite and within WGS-84 ranges.
    pub fn is_valid(self) -> bool {
        self.lat.is_finite()
            && self.lon.is_finite()
            && (-90.0..=90.0).contains(&self.lat)
            && (-180.0..=180.0).contains(&self.lon)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.5}, {:.5})", self.lat, self.lon)
    }
}

/// An axis-aligned latitude/longitude bounding box.
///
/// Used by GoFlow's filtered data retrieval ("bbox" filters) and by the
/// assimilation grid.
///
/// # Examples
///
/// ```
/// use mps_types::{GeoBounds, GeoPoint};
///
/// let bounds = GeoBounds::new(48.80, 48.92, 2.25, 2.45);
/// assert!(bounds.contains(GeoPoint::PARIS));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoBounds {
    /// Southern edge latitude, degrees.
    pub lat_min: f64,
    /// Northern edge latitude, degrees.
    pub lat_max: f64,
    /// Western edge longitude, degrees.
    pub lon_min: f64,
    /// Eastern edge longitude, degrees.
    pub lon_max: f64,
}

impl GeoBounds {
    /// Creates a bounding box.
    ///
    /// # Panics
    ///
    /// Panics if `lat_min > lat_max` or `lon_min > lon_max`.
    pub fn new(lat_min: f64, lat_max: f64, lon_min: f64, lon_max: f64) -> Self {
        assert!(lat_min <= lat_max, "lat_min > lat_max");
        assert!(lon_min <= lon_max, "lon_min > lon_max");
        Self {
            lat_min,
            lat_max,
            lon_min,
            lon_max,
        }
    }

    /// A bounding box roughly covering intra-muros Paris.
    pub fn paris() -> Self {
        Self::new(48.815, 48.902, 2.224, 2.470)
    }

    /// Whether `point` falls inside (inclusive) this box.
    pub fn contains(&self, point: GeoPoint) -> bool {
        (self.lat_min..=self.lat_max).contains(&point.lat)
            && (self.lon_min..=self.lon_max).contains(&point.lon)
    }

    /// Centre point of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.lat_min + self.lat_max) / 2.0,
            (self.lon_min + self.lon_max) / 2.0,
        )
    }

    /// Width (east-west) and height (north-south) of the box in metres,
    /// measured through the centre.
    pub fn size_m(&self) -> (f64, f64) {
        let c = self.center();
        let w = GeoPoint::new(c.lat, self.lon_min).distance_m(GeoPoint::new(c.lat, self.lon_max));
        let h = GeoPoint::new(self.lat_min, c.lon).distance_m(GeoPoint::new(self.lat_max, c.lon));
        (w, h)
    }

    /// Linearly interpolates a point inside the box; `(0,0)` is the
    /// south-west corner, `(1,1)` the north-east corner.
    pub fn lerp(&self, u: f64, v: f64) -> GeoPoint {
        GeoPoint::new(
            self.lat_min + (self.lat_max - self.lat_min) * v,
            self.lon_min + (self.lon_max - self.lon_min) * u,
        )
    }
}

impl fmt::Display for GeoBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.4},{:.4}]x[{:.4},{:.4}]",
            self.lat_min, self.lat_max, self.lon_min, self.lon_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_zero_to_self() {
        let p = GeoPoint::PARIS;
        assert_eq!(p.distance_m(p), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(48.85, 2.35);
        let b = GeoPoint::new(48.86, 2.37);
        assert!((a.distance_m(b) - b.distance_m(a)).abs() < 1e-9);
    }

    #[test]
    fn one_degree_latitude_is_about_111_km() {
        let a = GeoPoint::new(48.0, 2.0);
        let b = GeoPoint::new(49.0, 2.0);
        let d = a.distance_m(b);
        assert!((d - 111_195.0).abs() < 200.0, "got {d}");
    }

    #[test]
    fn local_projection_round_trips() {
        let origin = GeoPoint::PARIS;
        let p = GeoPoint::new(48.87, 2.30);
        let (x, y) = p.to_local_xy(origin);
        let back = GeoPoint::from_local_xy(origin, x, y);
        assert!((back.lat - p.lat).abs() < 1e-9);
        assert!((back.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    fn local_projection_matches_haversine_at_city_scale() {
        let origin = GeoPoint::PARIS;
        let p = GeoPoint::new(48.87, 2.39);
        let (x, y) = p.to_local_xy(origin);
        let planar = (x * x + y * y).sqrt();
        let great_circle = origin.distance_m(p);
        assert!((planar - great_circle).abs() < 5.0);
    }

    #[test]
    fn validity_checks() {
        assert!(GeoPoint::new(48.0, 2.0).is_valid());
        assert!(!GeoPoint::new(91.0, 0.0).is_valid());
        assert!(!GeoPoint::new(0.0, 181.0).is_valid());
        assert!(!GeoPoint::new(f64::NAN, 0.0).is_valid());
    }

    #[test]
    fn bounds_contains_and_center() {
        let b = GeoBounds::paris();
        assert!(b.contains(GeoPoint::PARIS));
        assert!(!b.contains(GeoPoint::new(0.0, 0.0)));
        assert!(b.contains(b.center()));
    }

    #[test]
    #[should_panic(expected = "lat_min > lat_max")]
    fn bounds_rejects_inverted_latitudes() {
        let _ = GeoBounds::new(49.0, 48.0, 2.0, 3.0);
    }

    #[test]
    fn bounds_lerp_hits_corners() {
        let b = GeoBounds::new(48.0, 49.0, 2.0, 3.0);
        let sw = b.lerp(0.0, 0.0);
        let ne = b.lerp(1.0, 1.0);
        assert_eq!((sw.lat, sw.lon), (48.0, 2.0));
        assert_eq!((ne.lat, ne.lon), (49.0, 3.0));
    }

    #[test]
    fn paris_bounds_size_is_city_scale() {
        let (w, h) = GeoBounds::paris().size_m();
        assert!(w > 10_000.0 && w < 25_000.0, "width {w}");
        assert!(h > 5_000.0 && h < 15_000.0, "height {h}");
    }
}
