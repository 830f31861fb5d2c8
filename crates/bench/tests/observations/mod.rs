//! The observations the allocator-counted tests store: GoFlow's
//! documents, drawn as the benchmark's generator draws them. A test
//! binary gets them by declaring `mod observations;`.

use mps_goflow::{ObservationRecord, PrivacyPolicy};
use mps_types::{
    Activity, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation,
    SensingMode, SimDuration, SimTime, SoundLevel,
};
use serde_json::Value;

const MS_PER_DAY: i64 = 24 * 3_600_000;

/// splitmix64, as the benchmark's generator draws.
pub struct Draw(pub u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((u128::from(z ^ (z >> 31)) * u128::from(n)) >> 64) as u64
    }
}

/// Observation `i`, as GoFlow stores it: one arrives every 4.32 s and
/// was captured up to a minute before; two in five carry a location fix.
pub fn observation(draw: &mut Draw, i: u64) -> Value {
    let arrived = SimTime::from_millis(MS_PER_DAY + i as i64 * 4_320);
    let captured = arrived - SimDuration::from_millis(1_000 + draw.below(59_000) as i64);
    let device = draw.below(2_091);
    let pick = |draw: &mut Draw, len: usize| draw.below(len as u64) as usize;
    let mut obs = Observation::builder()
        .device(device.into())
        .user(device.into())
        .model(DeviceModel::ALL[(device * 7) as usize % DeviceModel::ALL.len()])
        .captured_at(captured)
        .spl(SoundLevel::new((300 + draw.below(600)) as f64 / 10.0))
        .activity(Activity::ALL[pick(draw, Activity::ALL.len())])
        .mode(SensingMode::ALL[pick(draw, SensingMode::ALL.len())])
        .app_version(AppVersion::ALL[pick(draw, AppVersion::ALL.len())]);
    if draw.below(5) < 2 {
        let provider = LocationProvider::ALL[pick(draw, LocationProvider::ALL.len())];
        let accuracy = (30 + draw.below(4_970)) as f64 / 10.0;
        let lat = 48.82 + draw.below(80_000) as f64 / 1e6;
        let lon = 2.26 + draw.below(150_000) as f64 / 1e6;
        obs = obs.location(LocationFix::new(
            GeoPoint::new(lat, lon),
            accuracy,
            provider,
        ));
    }
    ObservationRecord::to_document(&obs.build(), arrived, &PrivacyPolicy::default(), None)
}
