//! The forward noise model: city sources → noise map.
//!
//! Sources emit at a reference level (dB(A) at 10 m) and attenuate
//! geometrically with distance: point sources (venues) lose
//! `20·log10(d/d₀)` dB, line sources (roads, approximately cylindrical
//! spreading) lose `10·log10(d/d₀)`. Contributions combine by energy
//! summation over a quiet ambient floor. Hourly modulation follows the
//! urban activity cycle (traffic and nightlife quiet down overnight).

use crate::city::CityModel;
use crate::grid::Grid;
use crate::telemetry::telemetry;
use mps_types::{GeoPoint, SoundLevel};
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Reference distance of source emission levels, metres.
const REF_DISTANCE_M: f64 = 10.0;
/// Sources closer than this are clamped (a listener is never *inside*
/// the source).
const MIN_DISTANCE_M: f64 = 3.0;
/// Quiet ambient floor far from every source, dB(A).
const AMBIENT_DB: f64 = 30.0;

/// Computes noise levels for a [`CityModel`].
///
/// Every grid it returns is read from one day of backgrounds, computed
/// once for the last grid shape asked for (see
/// [`NoiseSimulator::simulate_day`]). A clone starts without one.
pub struct NoiseSimulator {
    city: CityModel,
    /// The day's map for each distinct hourly modulation, paired with
    /// that modulation in dB, on the last grid shape asked for; empty
    /// until a grid is.
    day: Mutex<Vec<(f64, Grid)>>,
}

impl Clone for NoiseSimulator {
    fn clone(&self) -> Self {
        Self::new(self.city.clone())
    }
}

impl fmt::Debug for NoiseSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = self.lock_day().first().map(|(_, map)| (map.nx(), map.ny()));
        f.debug_struct("NoiseSimulator")
            .field("city", &self.city)
            .field("day_shape", &shape)
            .finish()
    }
}

impl NoiseSimulator {
    /// Creates a simulator over a city.
    pub fn new(city: CityModel) -> Self {
        Self {
            city,
            day: Mutex::new(Vec::new()),
        }
    }

    /// The simulated city.
    pub fn city(&self) -> &CityModel {
        &self.city
    }

    /// Hourly source-activity modulation in dB (0 at the day reference,
    /// strongly negative at night for traffic).
    pub fn hourly_modulation_db(hour: u32) -> f64 {
        match hour {
            0..=4 => -12.0,
            5 => -8.0,
            6 => -4.0,
            7..=9 => 0.0,
            10..=17 => -1.0,
            18..=21 => 0.0,
            22 => -4.0,
            _ => -8.0,
        }
    }

    /// The noise level at a point for the day-reference hour (8:00).
    pub fn level_at(&self, p: GeoPoint) -> SoundLevel {
        self.level_at_hour(p, 8)
    }

    /// The noise level at a point at a given hour of day.
    pub fn level_at_hour(&self, p: GeoPoint, hour: u32) -> SoundLevel {
        let mut heard = Vec::new();
        self.hear(p, &mut heard);
        level(Self::hourly_modulation_db(hour), &heard)
    }

    /// Refills `heard` with `(emission_db, attenuation_db)` of every
    /// source as heard from `p`, roads first, then venues. Neither number
    /// depends on the hour.
    fn hear(&self, p: GeoPoint, heard: &mut Vec<(f64, f64)>) {
        heard.clear();
        heard.reserve(self.city.roads().len() + self.city.venues().len());
        for road in self.city.roads() {
            let d = road.distance_m(p).max(MIN_DISTANCE_M);
            // Cylindrical spreading for line sources.
            heard.push((road.emission_db, 10.0 * (d / REF_DISTANCE_M).log10()));
        }
        for venue in self.city.venues() {
            let d = venue.at.distance_m(p).max(MIN_DISTANCE_M);
            // Spherical spreading for point sources.
            heard.push((venue.emission_db, 20.0 * (d / REF_DISTANCE_M).log10()));
        }
    }

    /// Computes the full noise map on an `nx × ny` grid at the
    /// day-reference hour.
    pub fn simulate(&self, nx: usize, ny: usize) -> Grid {
        self.simulate_at_hour(nx, ny, 8)
    }

    /// The full noise map at a given hour: a copy of the day's map for
    /// the hour's modulation (see [`simulate_day`](Self::simulate_day)).
    /// Hours from 24 on have 23:00's modulation and get its map.
    pub fn simulate_at_hour(&self, nx: usize, ny: usize, hour: u32) -> Grid {
        background(&self.kept_day(nx, ny), hour).clone()
    }

    /// The 24 hourly noise maps, `[h]` the map of hour `h`.
    ///
    /// The distance from a cell to a source, and with it the attenuation,
    /// is the same at every hour; the hours differ only in the modulation
    /// added before the energies are summed, and a day has five distinct
    /// modulations. So the forward model is one geometry pass: each cell
    /// measures its sources once and sums energies once per modulation.
    /// The simulator keeps those five maps for the last grid shape asked
    /// for, and this method, [`simulate`](Self::simulate) and
    /// [`simulate_at_hour`](Self::simulate_at_hour) copy from them; only
    /// a call on a new shape runs a pass (counted by
    /// `assim_forward_passes_total`). Each map is bit for bit the grid of
    /// [`level_at_hour`](Self::level_at_hour) at the cell centres.
    pub fn simulate_day(&self, nx: usize, ny: usize) -> Vec<Grid> {
        let day = self.kept_day(nx, ny);
        (0..24).map(|hour| background(&day, hour).clone()).collect()
    }

    /// The day's maps on an `nx × ny` grid, locked, after a forward pass
    /// unless the last shape asked for was this one. The lock is held
    /// through the pass, so callers that arrive during it wait for its
    /// maps instead of running a pass of their own.
    fn kept_day(&self, nx: usize, ny: usize) -> MutexGuard<'_, Vec<(f64, Grid)>> {
        let mut day = self.lock_day();
        let stale = day
            .first()
            .is_none_or(|(_, map)| (map.nx(), map.ny()) != (nx, ny));
        if stale {
            *day = self.forward_pass(nx, ny);
            telemetry().forward_passes.inc();
        }
        day
    }

    fn lock_day(&self) -> MutexGuard<'_, Vec<(f64, Grid)>> {
        // A pass panics (on a zero dimension) before its maps are stored,
        // so a poisoned lock still guards a whole day, or none.
        self.day.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One geometry pass: the map of every distinct modulation of the
    /// day, in order of the first hour that has it.
    fn forward_pass(&self, nx: usize, ny: usize) -> Vec<(f64, Grid)> {
        let blank = Grid::constant(self.city.bounds(), nx, ny, 0.0);
        let mut day: Vec<(f64, Grid)> = Vec::new();
        for modulation in (0..24).map(Self::hourly_modulation_db) {
            if day.iter().all(|(m, _)| *m != modulation) {
                day.push((modulation, blank.clone()));
            }
        }
        let mut heard = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                self.hear(blank.cell_center(ix, iy), &mut heard);
                for (modulation, map) in &mut day {
                    map.values_mut()[iy * nx + ix] = level(*modulation, &heard).db();
                }
            }
        }
        day
    }
}

/// The map of the day for `hour`'s modulation.
fn background(day: &[(f64, Grid)], hour: u32) -> &Grid {
    let modulation = NoiseSimulator::hourly_modulation_db(hour);
    day.iter()
        .find(|(m, _)| *m == modulation)
        .map(|(_, map)| map)
        .expect("an hour past the day has one of the day's modulations")
}

/// Energy sum of the ambient floor and every source of `heard` still
/// audible after the hour's `modulation` and its own attenuation, in
/// order.
///
/// The attenuations are collected first and the energies summed in a
/// second loop on purpose: with `log10` and `powf` alternating in one
/// loop a 48×48 map of 20 roads took 73 ms per 24 hours against 58 ms
/// this way.
fn level(modulation: f64, heard: &[(f64, f64)]) -> SoundLevel {
    let mut energy = SoundLevel::new(AMBIENT_DB).energy();
    for (emission_db, attenuation_db) in heard {
        let level = emission_db + modulation - attenuation_db;
        if level > 0.0 {
            energy += SoundLevel::new(level).energy();
        }
    }
    SoundLevel::from_energy(energy)
}

/// The map at `hour` written cell by cell from
/// [`NoiseSimulator::level_at_hour`]: the oracle the day's maps are held
/// to.
#[cfg(test)]
pub(crate) fn per_cell_map(sim: &NoiseSimulator, nx: usize, ny: usize, hour: u32) -> Grid {
    Grid::from_fn(sim.city().bounds(), nx, ny, |p| {
        sim.level_at_hour(p, hour).db()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{Road, Venue};
    use crate::grid::assert_same_bits;
    use mps_simcore::check::{check, size};
    use mps_simcore::SimRng;
    use mps_types::GeoBounds;

    fn bounds() -> GeoBounds {
        GeoBounds::new(48.80, 48.90, 2.30, 2.40)
    }

    fn one_venue_city() -> CityModel {
        CityModel::new(
            bounds(),
            vec![],
            vec![Venue {
                at: GeoPoint::new(48.85, 2.35),
                emission_db: 80.0,
            }],
        )
    }

    #[test]
    fn noise_decays_with_distance() {
        let sim = NoiseSimulator::new(one_venue_city());
        let near = sim.level_at(GeoPoint::new(48.8502, 2.35)); // ~22 m
        let far = sim.level_at(GeoPoint::new(48.86, 2.35)); // ~1.1 km
        assert!(near.db() > far.db() + 20.0, "near {near}, far {far}");
    }

    #[test]
    fn point_source_follows_inverse_square_law() {
        let sim = NoiseSimulator::new(one_venue_city());
        // At 100 m, an 80 dB @ 10 m source gives 80 - 20 = 60 dB
        // (ambient adds a negligible fraction).
        let p = GeoPoint::from_local_xy(GeoPoint::new(48.85, 2.35), 100.0, 0.0);
        let level = sim.level_at(p).db();
        assert!((level - 60.0).abs() < 0.5, "{level}");
    }

    #[test]
    fn line_source_decays_slower() {
        let road_city = CityModel::new(
            bounds(),
            vec![Road {
                a: GeoPoint::new(48.85, 2.30),
                b: GeoPoint::new(48.85, 2.40),
                emission_db: 80.0,
            }],
            vec![],
        );
        let sim = NoiseSimulator::new(road_city);
        let origin = GeoPoint::new(48.85, 2.35);
        let at_100 = sim
            .level_at(GeoPoint::from_local_xy(origin, 0.0, 100.0))
            .db();
        let at_1000 = sim
            .level_at(GeoPoint::from_local_xy(origin, 0.0, 1000.0))
            .db();
        // Cylindrical: 10 dB per decade (plus a whisker of ambient).
        assert!(
            (at_100 - at_1000 - 10.0).abs() < 1.0,
            "{at_100} vs {at_1000}"
        );
    }

    #[test]
    fn far_field_approaches_ambient() {
        let sim = NoiseSimulator::new(CityModel::new(bounds(), vec![], vec![]));
        let level = sim.level_at(GeoPoint::new(48.85, 2.35));
        assert!((level.db() - AMBIENT_DB).abs() < 1e-9);
    }

    #[test]
    fn night_is_quieter_than_day() {
        let mut rng = SimRng::new(3);
        let city = CityModel::synthetic(bounds(), 4, 30, &mut rng);
        let sim = NoiseSimulator::new(city);
        let p = GeoPoint::new(48.85, 2.35);
        let day = sim.level_at_hour(p, 18).db();
        let night = sim.level_at_hour(p, 3).db();
        assert!(day > night + 6.0, "day {day}, night {night}");
    }

    #[test]
    fn map_is_louder_near_sources() {
        let sim = NoiseSimulator::new(one_venue_city());
        let map = sim.simulate(20, 20);
        // The loudest cell should be the one containing the venue.
        let venue = GeoPoint::new(48.85, 2.35);
        let at_venue = map.sample(venue).unwrap();
        let corner = map.at(0, 0);
        assert!(
            at_venue > corner + 15.0,
            "venue {at_venue}, corner {corner}"
        );
    }

    #[test]
    fn synthetic_map_has_dynamic_range() {
        let mut rng = SimRng::new(4);
        let city = CityModel::synthetic(GeoBounds::paris(), 5, 50, &mut rng);
        let map = NoiseSimulator::new(city).simulate(32, 32);
        let min = map.values().iter().cloned().fold(f64::INFINITY, f64::min);
        let max = map
            .values()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 10.0, "range {min}..{max} too flat");
        assert!(min >= AMBIENT_DB - 1e-9);
        assert!(max < 100.0, "urban outdoor levels stay under 100 dB");
    }

    #[test]
    fn day_maps_keep_the_bits_of_the_hourly_maps() {
        check(|r| {
            // Roads and venues, so both spreading laws and the source
            // order are exercised; non-square grids.
            let city = CityModel::synthetic(GeoBounds::paris(), size(r, 1, 5), size(r, 0, 20), r);
            let sim = NoiseSimulator::new(city);
            let a = (size(r, 1, 9), size(r, 1, 9));
            // Never the shape of `a`: the switch drops the day of `a`.
            let b = (a.1 + 1, a.0);
            let agrees = |sim: &NoiseSimulator, (nx, ny): (usize, usize), what: &str| {
                let day = sim.simulate_day(nx, ny);
                assert_eq!(day.len(), 24);
                // Hours 24 and 30 share 23:00's modulation.
                for hour in (0..24).chain([24, 30]) {
                    let oracle = per_cell_map(sim, nx, ny, hour);
                    if let Some(map) = day.get(hour as usize) {
                        assert_same_bits(map, &oracle, &format!("{what}: day, hour {hour}"));
                    }
                    let alone = sim.simulate_at_hour(nx, ny, hour);
                    assert_same_bits(&alone, &oracle, &format!("{what}: hour {hour}"));
                }
                let reference = per_cell_map(sim, nx, ny, 8);
                assert_same_bits(&sim.simulate(nx, ny), &reference, what);
                assert!(format!("{sim:?}").contains(&format!("day_shape: Some(({nx}, {ny}))")));
            };
            agrees(&sim, a, "shape A");
            agrees(&sim, b, "shape B");
            agrees(&sim, a, "shape A again");
            let clone = sim.clone();
            assert!(format!("{clone:?}").contains("day_shape: None"));
            agrees(&clone, b, "clone");
        });
    }

    #[test]
    fn level_keeps_the_bits_of_the_collected_combination() {
        // The oracle collects every audible contribution and hands the
        // list to `SoundLevel::combine`; the in-place sum must agree.
        check(|r| {
            let city = CityModel::synthetic(GeoBounds::paris(), size(r, 1, 5), size(r, 0, 20), r);
            let sim = NoiseSimulator::new(city);
            let p = GeoBounds::paris().lerp(r.uniform(), r.uniform());
            let hour = r.index(24) as u32;
            let modulation = NoiseSimulator::hourly_modulation_db(hour);
            let mut contributions = vec![SoundLevel::new(AMBIENT_DB)];
            for road in sim.city().roads() {
                let d = road.distance_m(p).max(MIN_DISTANCE_M);
                let level = road.emission_db + modulation - 10.0 * (d / REF_DISTANCE_M).log10();
                if level > 0.0 {
                    contributions.push(SoundLevel::new(level));
                }
            }
            for venue in sim.city().venues() {
                let d = venue.at.distance_m(p).max(MIN_DISTANCE_M);
                let level = venue.emission_db + modulation - 20.0 * (d / REF_DISTANCE_M).log10();
                if level > 0.0 {
                    contributions.push(SoundLevel::new(level));
                }
            }
            let collected = SoundLevel::combine(contributions);
            assert_eq!(
                sim.level_at_hour(p, hour).db().to_bits(),
                collected.db().to_bits()
            );
        });
    }

    #[test]
    fn modulation_covers_every_hour() {
        for hour in 0..24 {
            let m = NoiseSimulator::hourly_modulation_db(hour);
            assert!((-15.0..=0.0).contains(&m), "hour {hour}: {m}");
        }
    }
}
