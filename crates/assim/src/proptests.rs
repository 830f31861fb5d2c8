//! In-crate property tests over assimilation invariants: seeded loops
//! over [`SimRng`], so they run wherever the unit tests do.

use crate::{Blue, Grid, Localization, Matrix, PointObservation};
use mps_simcore::check::{check, size};
use mps_types::{GeoBounds, GeoPoint};

fn bounds() -> GeoBounds {
    GeoBounds::paris()
}

#[test]
fn covariance_is_bounded_by_variance() {
    check(|r| {
        let (sigma, radius) = (r.uniform_in(0.5, 10.0), r.uniform_in(100.0, 5_000.0));
        let blue = Blue::new(sigma, radius);
        let a = bounds().center();
        let b = bounds().lerp(r.uniform(), r.uniform());
        let c = blue.covariance(a, b);
        assert!(c >= 0.0);
        assert!(c <= sigma * sigma + 1e-9);
    });
}

#[test]
fn interp_weights_are_convex() {
    check(|r| {
        let grid = Grid::constant(bounds(), size(r, 2, 12), size(r, 2, 12), 0.0);
        let p = bounds().lerp(r.uniform().min(0.999), r.uniform().min(0.999));
        let weights = grid.interp_weights(p).unwrap();
        let total: f64 = weights.iter().map(|(_, w)| *w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(weights.iter().all(|(i, w)| *i < grid.len() && *w >= 0.0));
    });
}

#[test]
fn bilinear_sample_within_cell_value_range() {
    check(|r| {
        let (nx, ny) = (size(r, 2, 10), size(r, 2, 10));
        let grid = Grid::from_fn(bounds(), nx, ny, |_| r.index(1000) as f64 / 10.0);
        let p = bounds().lerp(r.uniform().min(0.999), r.uniform().min(0.999));
        if let Some(s) = grid.sample(p) {
            let min = grid.values().iter().cloned().fold(f64::INFINITY, f64::min);
            let max = grid
                .values()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(s >= min - 1e-9 && s <= max + 1e-9);
        }
    });
}

#[test]
fn analysis_interpolates_between_background_and_observation() {
    check(|r| {
        let (background_db, obs_db) = (r.uniform_in(30.0, 70.0), r.uniform_in(30.0, 70.0));
        let sigma_o = r.uniform_in(0.5, 8.0);
        let grid = Grid::constant(bounds(), 12, 12, background_db);
        let blue = Blue::new(4.0, 1_000.0);
        let obs = vec![PointObservation::new(GeoPoint::PARIS, obs_db, sigma_o)];
        let analysis = blue.analyse(&grid, &obs).unwrap();
        let at = analysis.sample(GeoPoint::PARIS).unwrap();
        let (lo, hi) = (background_db.min(obs_db), background_db.max(obs_db));
        assert!(
            at >= lo - 1e-6 && at <= hi + 1e-6,
            "analysis {at} outside [{lo}, {hi}]"
        );
    });
}

#[test]
fn stronger_observation_error_weakens_the_pull() {
    check(|r| {
        let (sigma1, extra) = (r.uniform_in(0.5, 3.0), r.uniform_in(1.0, 8.0));
        let grid = Grid::constant(bounds(), 10, 10, 50.0);
        let blue = Blue::new(4.0, 1_000.0);
        let pull = |sigma: f64| {
            let obs = vec![PointObservation::new(GeoPoint::PARIS, 60.0, sigma)];
            blue.analyse(&grid, &obs)
                .unwrap()
                .sample(GeoPoint::PARIS)
                .unwrap()
        };
        assert!(pull(sigma1) >= pull(sigma1 + extra) - 1e-9);
    });
}

#[test]
fn blocked_solve_equals_unblocked_reference() {
    check(|r| {
        // The blocked Cholesky must agree with the retained unblocked
        // reference on arbitrary well-conditioned SPD systems.
        let n = size(r, 1, 60);
        let m = Matrix::from_fn(n, n, |_, _| r.uniform_in(-1.0, 1.0));
        let a = Matrix::from_fn(n, n, |i, j| {
            let dot: f64 = (0..n).map(|k| m.get(i, k) * m.get(j, k)).sum();
            dot + if i == j { 1.0 } else { 0.0 }
        });
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).cos() * 10.0).collect();
        let reference = a.solve_spd(&b).unwrap();
        let blocked = a.solve_spd_blocked(&b).unwrap();
        for (u, v) in blocked.iter().zip(&reference) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    });
}

#[test]
fn localized_blue_stays_within_tolerance_of_global() {
    check(|r| {
        // Observation-space localization at the default 8-radii cutoff
        // must stay within 0.1 dB of the global analysis, cell by cell.
        let observations: Vec<PointObservation> = (0..size(r, 1, 20))
            .map(|_| {
                let at = bounds().lerp(r.uniform_in(0.05, 0.95), r.uniform_in(0.05, 0.95));
                PointObservation::new(at, r.uniform_in(40.0, 70.0), r.uniform_in(1.0, 4.0))
            })
            .collect();
        let radius = r.uniform_in(300.0, 800.0);
        let tile = size(r, 3, 10);
        let background = Grid::constant(bounds(), 24, 24, 50.0);
        let blue = Blue::new(4.0, radius);
        let global = blue.analyse(&background, &observations).unwrap();
        let localization = Localization::for_radius(radius).tile(tile).threads(2);
        let localized = blue
            .analyse_localized(&background, &observations, &localization)
            .unwrap();
        let max_dev = global
            .values()
            .iter()
            .zip(localized.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_dev <= 0.1, "max deviation {max_dev} dB");
    });
}
