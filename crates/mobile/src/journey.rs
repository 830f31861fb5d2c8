//! Journey mode: participatory sensing along a path (Section 4.2).
//!
//! "We have further introduced a new mode, called Journey, for
//! participatory sensing. In this mode, the user engages in the
//! measurement of noise across a journey and defines the sensing
//! frequency." A journey is therefore a *sequence*: the user walks (or
//! rides) a path, the app measures at the chosen frequency, GPS is on,
//! and the collected trace may be shared publicly or within a community
//! as a collaborative noise map.

use crate::device::Device;
use mps_simcore::SimRng;
use mps_types::{GeoPoint, Observation, SensingMode, SimDuration, SimTime};

/// Visibility of a completed journey's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JourneyVisibility {
    /// Only the contributing user sees the trace (the app default).
    #[default]
    Private,
    /// Shared within a community.
    Community,
    /// Shared publicly as a collaborative noise map.
    Public,
}

/// A planned journey: a path, a user-chosen sensing period, and the
/// sharing choice.
///
/// # Examples
///
/// ```
/// use mps_mobile::{Device, DeviceConfig, Journey, JourneyVisibility};
/// use mps_simcore::SimRng;
/// use mps_types::{DeviceModel, GeoPoint, SimDuration, SimTime};
///
/// let rng = SimRng::new(5);
/// let mut device = Device::new(DeviceConfig::new(1, DeviceModel::LgeNexus5), &rng);
/// let journey = Journey::new(
///     vec![GeoPoint::new(48.85, 2.34), GeoPoint::new(48.86, 2.36)],
///     SimDuration::from_secs(60),
/// )
/// .with_visibility(JourneyVisibility::Public);
/// let trace = journey.run(&mut device, SimTime::from_hms(0, 17, 0, 0), 10);
/// assert_eq!(trace.observations.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Journey {
    waypoints: Vec<GeoPoint>,
    period: SimDuration,
    visibility: JourneyVisibility,
}

/// The result of running a journey: the ordered observation sequence and
/// its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyTrace {
    /// Observations in capture order, all in [`SensingMode::Journey`].
    pub observations: Vec<Observation>,
    /// The journey's sharing choice.
    pub visibility: JourneyVisibility,
    /// Path length walked, metres.
    pub path_length_m: f64,
}

impl Journey {
    /// Plans a journey along `waypoints` measuring every `period`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two waypoints are given or the period is not
    /// positive.
    pub fn new(waypoints: Vec<GeoPoint>, period: SimDuration) -> Self {
        assert!(
            waypoints.len() >= 2,
            "a journey needs at least two waypoints"
        );
        assert!(
            period > SimDuration::ZERO,
            "sensing period must be positive"
        );
        Self {
            waypoints,
            period,
            visibility: JourneyVisibility::Private,
        }
    }

    /// Plans a random city walk starting at the device's current
    /// position: `legs` segments of a few hundred metres each.
    pub fn random_walk(device: &Device, legs: usize, rng: &mut SimRng) -> Self {
        let mut waypoints = vec![device.position()];
        let mut current = device.position();
        for _ in 0..legs.max(1) {
            let dx = rng.normal(0.0, 350.0);
            let dy = rng.normal(0.0, 350.0);
            current = GeoPoint::from_local_xy(current, dx, dy);
            waypoints.push(current);
        }
        Self::new(waypoints, SimDuration::from_secs(60))
    }

    /// Sets the sharing choice.
    pub fn with_visibility(mut self, visibility: JourneyVisibility) -> Self {
        self.visibility = visibility;
        self
    }

    /// The user-chosen sensing period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Total path length, metres.
    pub fn path_length_m(&self) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].distance_m(w[1]))
            .sum()
    }

    /// Position along the path at parameter `t` in `[0, 1]` (by arc
    /// length).
    #[expect(
        clippy::expect_used,
        reason = "Journey::new rejects empty waypoint lists, so last() always resolves"
    )]
    pub fn position_at(&self, t: f64) -> GeoPoint {
        let total = self.path_length_m();
        if total <= 0.0 {
            return self.waypoints[0];
        }
        let target = t.clamp(0.0, 1.0) * total;
        let mut walked = 0.0;
        for w in self.waypoints.windows(2) {
            let leg = w[0].distance_m(w[1]);
            if walked + leg >= target && leg > 0.0 {
                let f = (target - walked) / leg;
                let (x, y) = w[1].to_local_xy(w[0]);
                return GeoPoint::from_local_xy(w[0], x * f, y * f);
            }
            walked += leg;
        }
        *self.waypoints.last().expect("non-empty")
    }

    /// Runs the journey on a device: `samples` measurements, one every
    /// [`Journey::period`], moving along the path. Every observation is
    /// captured in [`SensingMode::Journey`] (GPS-heavy, per Figure 20).
    pub fn run(&self, device: &mut Device, start: SimTime, samples: usize) -> JourneyTrace {
        let mut observations = Vec::with_capacity(samples);
        for i in 0..samples {
            let t = if samples <= 1 {
                0.0
            } else {
                i as f64 / (samples - 1) as f64
            };
            let at = start + self.period * i as i64;
            let position = self.position_at(t);
            observations.push(device.capture_at_position(at, SensingMode::Journey, position));
        }
        JourneyTrace {
            observations,
            visibility: self.visibility,
            path_length_m: self.path_length_m(),
        }
    }
}

impl JourneyTrace {
    /// Fraction of the trace's observations that are localized (journeys
    /// are GPS-heavy, so this is high).
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

    /// Duration from first to last capture.
    pub fn duration(&self) -> SimDuration {
        match (self.observations.first(), self.observations.last()) {
            (Some(first), Some(last)) => last.captured_at.since(first.captured_at),
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use mps_types::DeviceModel;

    fn device(seed: u64) -> Device {
        Device::new(
            DeviceConfig::new(seed, DeviceModel::SonyD5803),
            &SimRng::new(77),
        )
    }

    fn straight_journey() -> Journey {
        Journey::new(
            vec![GeoPoint::new(48.85, 2.34), GeoPoint::new(48.85, 2.36)],
            SimDuration::from_secs(30),
        )
    }

    #[test]
    fn run_produces_ordered_journey_observations() {
        let mut d = device(1);
        let start = SimTime::from_hms(1, 15, 0, 0);
        let trace = straight_journey().run(&mut d, start, 12);
        assert_eq!(trace.observations.len(), 12);
        for (i, obs) in trace.observations.iter().enumerate() {
            assert_eq!(obs.mode, SensingMode::Journey);
            assert_eq!(
                obs.captured_at,
                start + SimDuration::from_secs(30) * i as i64
            );
        }
        assert_eq!(trace.duration(), SimDuration::from_secs(30 * 11));
    }

    #[test]
    fn journeys_are_gps_heavy() {
        let mut d = device(2);
        let mut localized = 0usize;
        let mut gps = 0usize;
        let mut total = 0usize;
        for run in 0..30 {
            let trace = straight_journey().run(&mut d, SimTime::from_hms(run, 10, 0, 0), 20);
            for obs in &trace.observations {
                total += 1;
                if let Some(fix) = &obs.location {
                    localized += 1;
                    if fix.provider == mps_types::LocationProvider::Gps {
                        gps += 1;
                    }
                }
            }
        }
        let loc_frac = localized as f64 / total as f64;
        assert!(loc_frac > 0.85, "journey localized fraction {loc_frac}");
        let gps_share = gps as f64 / localized as f64;
        assert!(gps_share > 0.30, "journey GPS share {gps_share}");
    }

    #[test]
    fn observations_follow_the_path() {
        let mut d = device(3);
        let journey = straight_journey();
        let trace = journey.run(&mut d, SimTime::from_hms(0, 12, 0, 0), 10);
        // Localized fixes stay near the path (within accuracy + path
        // corridor).
        for obs in trace.observations.iter().filter(|o| o.is_localized()) {
            let fix = obs.location.as_ref().unwrap();
            let d0 = journey.position_at(0.0).distance_m(fix.point);
            let d1 = journey.position_at(1.0).distance_m(fix.point);
            let len = journey.path_length_m();
            assert!(
                d0 < len + 800.0 && d1 < len + 800.0,
                "fix strayed: {d0} / {d1} vs path {len}"
            );
        }
    }

    #[test]
    fn position_at_interpolates_arc_length() {
        let j = Journey::new(
            vec![
                GeoPoint::new(48.85, 2.34),
                GeoPoint::new(48.85, 2.35),
                GeoPoint::new(48.86, 2.35),
            ],
            SimDuration::from_secs(10),
        );
        assert_eq!(j.position_at(0.0), GeoPoint::new(48.85, 2.34));
        let end = j.position_at(1.0);
        assert!((end.lat - 48.86).abs() < 1e-9);
        // Midpoint by arc length is near the corner.
        let mid = j.position_at(0.4);
        assert!(mid.lat < 48.8501, "{mid}");
        // Clamps outside [0, 1].
        assert_eq!(j.position_at(-1.0), j.position_at(0.0));
        assert_eq!(j.position_at(2.0), j.position_at(1.0));
    }

    #[test]
    fn path_length_is_sum_of_legs() {
        let j = straight_journey();
        let expected = GeoPoint::new(48.85, 2.34).distance_m(GeoPoint::new(48.85, 2.36));
        assert!((j.path_length_m() - expected).abs() < 1.0);
    }

    #[test]
    fn random_walk_starts_at_device() {
        let mut rng = SimRng::new(9);
        let d = device(4);
        let j = Journey::random_walk(&d, 5, &mut rng);
        assert_eq!(j.position_at(0.0), d.position());
        assert!(j.path_length_m() > 100.0);
    }

    #[test]
    fn visibility_defaults_private() {
        let j = straight_journey();
        let mut d = device(5);
        let trace = j.run(&mut d, SimTime::EPOCH, 3);
        assert_eq!(trace.visibility, JourneyVisibility::Private);
        let public = straight_journey().with_visibility(JourneyVisibility::Public);
        let trace = public.run(&mut d, SimTime::EPOCH, 3);
        assert_eq!(trace.visibility, JourneyVisibility::Public);
    }

    #[test]
    fn single_sample_journey() {
        let mut d = device(6);
        let trace = straight_journey().run(&mut d, SimTime::EPOCH, 1);
        assert_eq!(trace.observations.len(), 1);
        assert_eq!(trace.duration(), SimDuration::ZERO);
    }

    #[test]
    fn empty_trace_fractions() {
        let trace = JourneyTrace {
            observations: vec![],
            visibility: JourneyVisibility::Private,
            path_length_m: 0.0,
        };
        assert_eq!(trace.localized_fraction(), 0.0);
        assert_eq!(trace.duration(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn rejects_single_waypoint() {
        let _ = Journey::new(vec![GeoPoint::PARIS], SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rejects_zero_period() {
        let _ = Journey::new(
            vec![GeoPoint::PARIS, GeoPoint::new(48.86, 2.36)],
            SimDuration::ZERO,
        );
    }
}
