//! In-crate property tests over the domain types' invariants: seeded
//! loops over a small splitmix64 (this crate sits below `mps-simcore`),
//! so they run wherever the unit tests do.

use crate::{GeoBounds, GeoPoint, SimDuration, SimTime, SoundLevel};

/// Cases per property.
const CASES: u64 = 256;

/// splitmix64 (Steele, Lea & Flood 2014).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    /// Uniform in `lo..hi`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Runs `property` once per seed in `0..CASES`, naming the seed that failed.
fn check(property: impl Fn(&mut Rng)) {
    for seed in 0..CASES {
        let run = std::panic::AssertUnwindSafe(|| property(&mut Rng(seed)));
        if std::panic::catch_unwind(run).is_err() {
            panic!(
                "property failed at seed {seed}; replay it alone with `property(&mut Rng({seed}))`"
            );
        }
    }
}

#[test]
fn bounds_lerp_always_inside() {
    check(|r| {
        let b = GeoBounds::paris();
        // The closed unit square: the far edges are the likeliest to fall out.
        let (u, v) = match r.int(0, 8) {
            0 => (1.0, r.float(0.0, 1.0)),
            1 => (r.float(0.0, 1.0), 1.0),
            _ => (r.float(0.0, 1.0), r.float(0.0, 1.0)),
        };
        assert!(b.contains(b.lerp(u, v)));
    });
}

#[test]
fn distance_is_nonnegative_and_symmetric() {
    check(|r| {
        let a = GeoPoint::new(r.float(-80.0, 80.0), r.float(-179.0, 179.0));
        let b = GeoPoint::new(r.float(-80.0, 80.0), r.float(-179.0, 179.0));
        let d = a.distance_m(b);
        assert!(d >= 0.0);
        assert!((d - b.distance_m(a)).abs() < 1e-6);
        assert!(d < 2.1e7, "no distance exceeds half the circumference: {d}");
    });
}

#[test]
fn distance_keeps_the_bits_of_the_one_expression_haversine() {
    // `distance_m` is assembled from `haversine_deg` and
    // `haversine_distance_m` so that grid code can share their terms; the
    // formula written out in one piece is what it must still return.
    check(|r| {
        let a = GeoPoint::new(r.float(-80.0, 80.0), r.float(-179.0, 179.0));
        // Half the cases a city apart, half anywhere.
        let b = match r.int(0, 2) {
            0 => GeoPoint::new(a.lat + r.float(-0.1, 0.1), a.lon + r.float(-0.1, 0.1)),
            _ => GeoPoint::new(r.float(-80.0, 80.0), r.float(-179.0, 179.0)),
        };
        let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
        let dlat = (b.lat - a.lat).to_radians();
        let dlon = (b.lon - a.lon).to_radians();
        let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        let written_out = 2.0 * 6_371_008.8 * h.sqrt().asin();
        assert_eq!(a.distance_m(b).to_bits(), written_out.to_bits());
    });
}

#[test]
fn sound_combine_is_permutation_invariant() {
    check(|r| {
        let levels: Vec<f64> = (0..r.int(1, 8)).map(|_| r.float(0.0, 110.0)).collect();
        let forward = SoundLevel::combine(levels.iter().map(|l| SoundLevel::new(*l)));
        let backward = SoundLevel::combine(levels.iter().rev().map(|l| SoundLevel::new(*l)));
        assert!((forward.db() - backward.db()).abs() < 1e-9);
    });
}

#[test]
fn sound_combine_is_monotone_in_each_source() {
    check(|r| {
        let (base, extra) = (r.float(30.0, 90.0), r.float(0.0, 90.0));
        let one = SoundLevel::combine([SoundLevel::new(base)]);
        let two = SoundLevel::combine([SoundLevel::new(base), SoundLevel::new(extra)]);
        assert!(two.db() >= one.db() - 1e-9);
    });
}

#[test]
fn leq_of_duplicated_samples_is_unchanged() {
    check(|r| {
        let db = r.float(0.0, 100.0);
        let samples = vec![SoundLevel::new(db); r.int(1, 20) as usize];
        assert!((SoundLevel::leq(&samples).db() - db).abs() < 1e-9);
    });
}

#[test]
fn time_day_hour_decomposition() {
    check(|r| {
        let (day, hour, min) = (r.int(-500, 500), r.int(0, 24) as u32, r.int(0, 60) as u32);
        let t = SimTime::from_hms(day, hour, min, 0);
        assert_eq!(t.day(), day);
        assert_eq!(t.hour_of_day(), hour);
        assert_eq!(t.minute_of_hour(), min);
    });
}

#[test]
fn duration_scaling_distributes() {
    check(|r| {
        let (ms, k) = (r.int(-1_000_000, 1_000_000), r.int(1, 50));
        let d = SimDuration::from_millis(ms);
        assert_eq!((d * k).as_millis(), ms * k);
        assert_eq!(((d * k) / k).as_millis(), ms);
    });
}

#[test]
fn local_xy_magnitude_matches_haversine() {
    check(|r| {
        let (dx, dy) = (r.float(-10_000.0, 10_000.0), r.float(-10_000.0, 10_000.0));
        let origin = GeoPoint::PARIS;
        let p = GeoPoint::from_local_xy(origin, dx, dy);
        let planar = (dx * dx + dy * dy).sqrt();
        let sphere = origin.distance_m(p);
        // At city scale the equirectangular projection is metre-accurate.
        assert!((planar - sphere).abs() < 0.5 + planar * 1e-3);
    });
}
