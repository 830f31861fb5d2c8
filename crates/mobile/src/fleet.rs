//! A million-device crowd without a million structs.
//!
//! The paper's deployment had 2 091 phones; the scale-out question (what
//! does the pipeline sustain at metropolitan scale?) needs orders of
//! magnitude more. [`Fleet`] describes an arbitrarily large crowd by
//! *derivation*, not enumeration: it stores only the root seed, the
//! population size and a 20-row cumulative model-mix table over the
//! interned [`ModelProfile`] catalog. Any member device is materialised
//! on demand — [`Fleet::device`] is a pure function of
//! `(seed, index)` — so holding a 1 000 000-device fleet costs a few
//! hundred bytes, and driving a slice of it costs only the devices
//! actually built.
//!
//! The fleet also exposes the population's **diurnal load shape**
//! (Figure 18: contributions peak 10:00–21:00): per-hour expected
//! observation volumes that the throughput benches use to model peak
//! versus overnight ingest pressure, and a deterministic round-robin
//! partition ([`Fleet::shard_members`]) for driving shards of the fleet
//! from independent workers.

use crate::behavior::{UserBehavior, SLOTS_PER_HOUR};
use crate::catalog::ModelProfile;
use crate::device::{Device, DeviceConfig};
use mps_simcore::SimRng;
use mps_types::DeviceModel;

/// SplitMix64 finaliser — decorrelates consecutive member indices before
/// the model-mix draw so models interleave across the index space.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A lazily-derived crowd of simulated devices. See the module docs of
/// `fleet.rs`.
///
/// # Examples
///
/// ```
/// use mps_mobile::Fleet;
/// use mps_types::{SensingMode, SimTime};
///
/// let fleet = Fleet::new(7, 1_000_000);
/// let mut device = fleet.device(999_999);
/// let obs = device.capture(SimTime::from_hms(0, 12, 0, 0), SensingMode::Opportunistic);
/// assert_eq!(obs.model, fleet.model_of(999_999));
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    root: SimRng,
    seed: u64,
    size: u64,
    /// Cumulative paper device counts, one row per catalog model.
    cumulative: Vec<(u64, DeviceModel)>,
    total_weight: u64,
}

impl Fleet {
    /// Creates a fleet of `size` devices (clamped to at least 1) derived
    /// from `seed`, with the model mix of the paper's Figure 9 device
    /// counts.
    pub fn new(seed: u64, size: u64) -> Self {
        let mut cumulative = Vec::with_capacity(ModelProfile::catalog().len());
        let mut total_weight = 0u64;
        for profile in ModelProfile::catalog() {
            total_weight += profile.devices;
            cumulative.push((total_weight, profile.model));
        }
        Self {
            root: SimRng::new(seed),
            seed,
            size: size.max(1),
            cumulative,
            total_weight,
        }
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> u64 {
        self.size
    }

    /// Always `false` (a fleet has at least one device); present for
    /// clippy's `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The model of member `index`, drawn from the Figure 9 device-count
    /// mix — a pure function of `(seed, index)`.
    pub fn model_of(&self, index: u64) -> DeviceModel {
        let draw = mix(index.wrapping_add(self.seed.wrapping_mul(0x517C_C1B7_2722_0A95)))
            % self.total_weight;
        let row = self.cumulative.partition_point(|(cum, _)| *cum <= draw);
        self.cumulative[row].1
    }

    /// The interned calibration profile of member `index`.
    pub fn profile_of(&self, index: u64) -> &'static ModelProfile {
        ModelProfile::interned(self.model_of(index))
    }

    /// Materialises member `index` — deterministic in `(seed, index)`,
    /// independent of which other members were built before.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn device(&self, index: u64) -> Device {
        assert!(index < self.size, "device {index} of {}", self.size);
        Device::new(DeviceConfig::new(index, self.model_of(index)), &self.root)
    }

    /// Materialises the members of a contiguous index range, lazily.
    ///
    /// # Panics
    ///
    /// The iterator panics when it reaches an out-of-range index.
    pub fn devices(&self, range: std::ops::Range<u64>) -> impl Iterator<Item = Device> + '_ {
        range.map(move |i| self.device(i))
    }

    /// The member indices owned by worker `shard` of `shards`
    /// (round-robin: member `i` belongs to shard `i % shards`), so
    /// independent workers can drive disjoint slices of one fleet.
    pub fn shard_members(&self, shard: usize, shards: usize) -> impl Iterator<Item = u64> {
        let shards = shards.max(1) as u64;
        let size = self.size;
        ((shard as u64).min(size)..size).step_by(shards as usize)
    }

    /// Expected observations contributed by the whole fleet per day: the
    /// population size times the device-count-weighted mean of the
    /// catalog's per-device daily rates.
    pub fn expected_observations_per_day(&self) -> f64 {
        let weighted: f64 = ModelProfile::catalog()
            .iter()
            .map(|p| p.devices as f64 * p.measurements_per_device_day)
            .sum();
        self.size as f64 * weighted / self.total_weight as f64
    }

    /// Expected observations contributed by the whole fleet during hour
    /// `hour`, following the population diurnal shape of Figure 18 —
    /// the load model behind the sustained-throughput benches' peak-hour
    /// arrival rates.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn expected_observations_in_hour(&self, hour: u32) -> f64 {
        self.expected_observations_per_day() * Self::diurnal_share(hour)
    }

    /// The fraction of a day's observations that arrive during `hour`
    /// (the Figure 18 population day shape, normalised to sum to 1).
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn diurnal_share(hour: u32) -> f64 {
        let shape = UserBehavior::population_day_shape();
        shape[hour as usize] / shape.iter().sum::<f64>()
    }

    /// Expected observations per 5-minute slot at the daily peak hour —
    /// the arrival pressure a sustained-throughput target must absorb.
    pub fn peak_slot_arrivals(&self) -> f64 {
        let peak = (0..24).map(Self::diurnal_share).fold(0.0f64, f64::max);
        self.expected_observations_per_day() * peak / SLOTS_PER_HOUR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_types::{SensingMode, SimTime};

    #[test]
    fn a_million_devices_cost_nothing_until_built() {
        let fleet = Fleet::new(7, 1_000_000);
        assert_eq!(fleet.len(), 1_000_000);
        // Any member materialises directly, without touching the others.
        for index in [0, 1, 499_999, 999_999] {
            let mut device = fleet.device(index);
            let obs = device.capture(SimTime::from_hms(0, 12, 0, 0), SensingMode::Opportunistic);
            assert_eq!(obs.model, fleet.model_of(index));
            assert_eq!(obs.device.raw(), index);
        }
    }

    #[test]
    fn members_are_deterministic_and_order_independent() {
        let a = Fleet::new(42, 1_000_000);
        let b = Fleet::new(42, 1_000_000);
        // b builds other members first; member 123_456 must not care.
        let _ = b.device(5);
        let _ = b.device(999_999);
        let at = SimTime::from_hms(0, 9, 0, 0);
        assert_eq!(
            a.device(123_456).capture(at, SensingMode::Manual),
            b.device(123_456).capture(at, SensingMode::Manual)
        );
        // A different seed derives a different crowd.
        let c = Fleet::new(43, 1_000_000);
        assert_ne!(
            a.device(123_456).capture(at, SensingMode::Manual),
            c.device(123_456).capture(at, SensingMode::Manual)
        );
    }

    #[test]
    fn model_mix_tracks_figure_9_shares() {
        let fleet = Fleet::new(1, 40_000);
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..fleet.len() {
            *counts.entry(fleet.model_of(i)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 20, "all models represented");
        for profile in ModelProfile::catalog() {
            let expected = profile.devices as f64 / 2_091.0;
            let got = counts[&profile.model] as f64 / fleet.len() as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "{}: {got} vs {expected}",
                profile.model
            );
        }
    }

    #[test]
    fn shard_members_partition_the_fleet() {
        let fleet = Fleet::new(3, 1_000);
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..4 {
            for index in fleet.shard_members(shard, 4) {
                assert_eq!(index % 4, shard as u64);
                assert!(seen.insert(index), "member {index} owned twice");
            }
        }
        assert_eq!(seen.len(), 1_000);
        // One shard is the whole fleet.
        assert_eq!(fleet.shard_members(0, 1).count(), 1_000);
    }

    #[test]
    fn diurnal_volume_peaks_in_daytime_and_sums_to_a_day() {
        let fleet = Fleet::new(9, 1_000_000);
        let daily = fleet.expected_observations_per_day();
        // ~2k observations per device per month in the paper ⇒ roughly
        // 20–60 per device-day across the mix.
        assert!(daily > 20e6 && daily < 60e6, "daily {daily}");
        let total: f64 = (0..24)
            .map(|h| fleet.expected_observations_in_hour(h))
            .sum();
        assert!((total - daily).abs() / daily < 1e-9);
        let noon = fleet.expected_observations_in_hour(12);
        let night = fleet.expected_observations_in_hour(3);
        assert!(noon > 4.0 * night, "noon {noon} vs night {night}");
        assert!(fleet.peak_slot_arrivals() > daily / 24.0 / SLOTS_PER_HOUR);
    }

    #[test]
    fn interned_profiles_are_shared_and_equal() {
        let by_value = ModelProfile::for_model(DeviceModel::LgeNexus5);
        let interned = ModelProfile::interned(DeviceModel::LgeNexus5);
        assert_eq!(*interned, by_value);
        // Same allocation on every lookup.
        assert!(std::ptr::eq(
            interned,
            ModelProfile::interned(DeviceModel::LgeNexus5)
        ));
    }

    #[test]
    #[should_panic(expected = "device 5 of 5")]
    fn out_of_range_member_panics() {
        let fleet = Fleet::new(1, 5);
        let _ = fleet.device(5);
    }
}
