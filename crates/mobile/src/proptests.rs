//! In-crate property tests over the simulation models' invariants:
//! seeded loops over [`SimRng`], so they run wherever the unit tests do.

use crate::{
    BatteryModel, BatteryParams, Device, DeviceConfig, LocationSampler, ModelProfile, RadioKind,
    UserBehavior,
};
use mps_simcore::check::check;
use mps_simcore::SimRng;
use mps_types::{DeviceModel, SensingMode, SimDuration, SimTime};

fn any_model(r: &mut SimRng) -> DeviceModel {
    *r.pick(&DeviceModel::ALL)
}

#[test]
fn behavior_hits_any_target_rate() {
    check(|rng| {
        let rate = rng.uniform_in(0.0, 280.0);
        let user = UserBehavior::new(rate, rng);
        // Clamping can only lose mass for extreme rates; expected daily
        // stays at or below the target and within it for feasible rates.
        assert!(user.expected_daily() <= rate + 1e-6);
        // With moderate rates no hour clamps, so the target is hit
        // exactly; high rates may clamp busy hours and land below it.
        if rate < 40.0 {
            assert!((user.expected_daily() - rate).abs() < 1e-6);
        }
        let dist: f64 = user.hourly_distribution().iter().sum();
        assert!(dist == 0.0 || (dist - 1.0).abs() < 1e-9);
    });
}

#[test]
fn session_start_probabilities_are_probabilities() {
    check(|rng| {
        let rate = rng.uniform_in(0.0, 280.0);
        let user = UserBehavior::new(rate, rng);
        for hour in 0..24 {
            let q = user.session_start_probability(hour);
            assert!((0.0..=1.0).contains(&q), "hour {hour}: {q}");
        }
        for _ in 0..20 {
            assert!(user.sample_session_length(rng) >= 1);
        }
    });
}

#[test]
fn provider_mix_is_distribution_in_every_mode() {
    for model in DeviceModel::ALL {
        let sampler = LocationSampler::for_profile(&ModelProfile::for_model(model));
        for mode in SensingMode::ALL {
            let mix = sampler.provider_mix(mode);
            let sum: f64 = mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{model:?} {mode:?}: {sum}");
            assert!(mix.iter().all(|w| (0.0..=1.0).contains(w)));
            let p = sampler.localized_probability(mode);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}

#[test]
fn captures_are_always_well_formed() {
    check(|r| {
        let (model, id, hour) = (any_model(r), 1 + r.index(499) as u64, r.index(24) as u32);
        let mut device = Device::new(DeviceConfig::new(id, model), &SimRng::new(99));
        let at = SimTime::from_hms(3, hour, 0, 0);
        for mode in SensingMode::ALL {
            let obs = device.capture(at, mode);
            assert_eq!(obs.model, model);
            assert_eq!(obs.mode, mode);
            assert!(obs.spl.db() > 5.0 && obs.spl.db() <= 100.0);
            if let Some(fix) = &obs.location {
                assert!(fix.accuracy_m > 0.0 && fix.accuracy_m <= 5_000.0);
                assert!(fix.point.is_valid());
            }
        }
    });
}

#[test]
fn battery_drain_is_monotone() {
    check(|r| {
        let mut battery = BatteryModel::new(BatteryParams::default(), 1.0);
        let mut last = battery.soc();
        for _ in 0..r.index(60) {
            match r.index(4) {
                0 => battery.drain_idle(SimDuration::from_mins(5)),
                1 => battery.drain_measurement(true),
                2 => battery.drain_transfer(RadioKind::Wifi, 1),
                _ => battery.drain_transfer(RadioKind::ThreeG, 10),
            }
            let soc = battery.soc();
            assert!(soc <= last + 1e-12);
            assert!(soc >= 0.0);
            last = soc;
        }
    });
}

#[test]
fn devices_with_same_seed_and_id_agree() {
    check(|root| {
        let (model, id) = (any_model(root), 1 + root.index(99) as u64);
        let mut a = Device::new(DeviceConfig::new(id, model), root);
        let mut b = Device::new(DeviceConfig::new(id, model), root);
        let at = SimTime::from_hms(1, 12, 0, 0);
        assert_eq!(a.maybe_capture(at), b.maybe_capture(at));
        assert_eq!(a.is_connected(at), b.is_connected(at));
    });
}
