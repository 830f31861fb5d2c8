//! The analysis grid: a regular lat/lon field.

use crate::AssimError;
use mps_types::{GeoBounds, GeoPoint};

/// A regular `nx × ny` field of `f64` values over a bounding box —
/// the state vector of the assimilation and the product of the noise
/// simulator (values are dB(A) there, but the grid is unit-agnostic).
///
/// Cells are indexed column-major by `(ix, iy)` with `ix` increasing
/// eastward and `iy` northward; cell centres are evenly spaced with a
/// half-cell inset from the bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    bounds: GeoBounds,
    nx: usize,
    ny: usize,
    values: Vec<f64>,
}

impl Grid {
    /// Creates a grid filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero.
    pub fn constant(bounds: GeoBounds, nx: usize, ny: usize, value: f64) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        Self {
            bounds,
            nx,
            ny,
            values: vec![value; nx * ny],
        }
    }

    /// Creates a grid by evaluating `f` at every cell centre.
    pub fn from_fn(
        bounds: GeoBounds,
        nx: usize,
        ny: usize,
        mut f: impl FnMut(GeoPoint) -> f64,
    ) -> Self {
        let mut grid = Self::constant(bounds, nx, ny, 0.0);
        for iy in 0..ny {
            for ix in 0..nx {
                let p = grid.cell_center(ix, iy);
                grid.values[iy * nx + ix] = f(p);
            }
        }
        grid
    }

    /// The grid's bounding box.
    pub fn bounds(&self) -> GeoBounds {
        self.bounds
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the grid has no cells (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values, row `iy = 0` first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.nx && iy < self.ny,
            "cell ({ix},{iy}) out of range"
        );
        self.values[iy * self.nx + ix]
    }

    /// Sets the value at cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, ix: usize, iy: usize, value: f64) {
        assert!(
            ix < self.nx && iy < self.ny,
            "cell ({ix},{iy}) out of range"
        );
        self.values[iy * self.nx + ix] = value;
    }

    /// Centre of cell `(ix, iy)`.
    pub fn cell_center(&self, ix: usize, iy: usize) -> GeoPoint {
        let u = (ix as f64 + 0.5) / self.nx as f64;
        let v = (iy as f64 + 0.5) / self.ny as f64;
        self.bounds.lerp(u, v)
    }

    /// Latitude of the cell centres of row `iy`; it does not depend on
    /// `ix`, which lets per-row work be shared along the row.
    pub(crate) fn row_lat(&self, iy: usize) -> f64 {
        self.cell_center(0, iy).lat
    }

    /// Longitude of the cell centres of column `ix`, whatever the row.
    pub(crate) fn col_lon(&self, ix: usize) -> f64 {
        self.cell_center(ix, 0).lon
    }

    /// Fractional grid coordinates of a point (cell units, origin at the
    /// centre of cell `(0, 0)`), or `None` outside the bounds.
    fn frac_coords(&self, point: GeoPoint) -> Option<(f64, f64)> {
        if !self.bounds.contains(point) {
            return None;
        }
        let u = (point.lon - self.bounds.lon_min) / (self.bounds.lon_max - self.bounds.lon_min);
        let v = (point.lat - self.bounds.lat_min) / (self.bounds.lat_max - self.bounds.lat_min);
        Some((u * self.nx as f64 - 0.5, v * self.ny as f64 - 0.5))
    }

    /// Bilinear sample of the field at `point`, or `None` outside the
    /// bounds. Points in the half-cell margin clamp to the edge cells.
    pub fn sample(&self, point: GeoPoint) -> Option<f64> {
        let (fx, fy) = self.frac_coords(point)?;
        let fx = fx.clamp(0.0, (self.nx - 1) as f64);
        let fy = fy.clamp(0.0, (self.ny - 1) as f64);
        let ix = fx.floor() as usize;
        let iy = fy.floor() as usize;
        let ix1 = (ix + 1).min(self.nx - 1);
        let iy1 = (iy + 1).min(self.ny - 1);
        let tx = fx - ix as f64;
        let ty = fy - iy as f64;
        let v00 = self.at(ix, iy);
        let v10 = self.at(ix1, iy);
        let v01 = self.at(ix, iy1);
        let v11 = self.at(ix1, iy1);
        Some(
            v00 * (1.0 - tx) * (1.0 - ty)
                + v10 * tx * (1.0 - ty)
                + v01 * (1.0 - tx) * ty
                + v11 * tx * ty,
        )
    }

    /// The bilinear interpolation weights of `point` as `(cell_index,
    /// weight)` pairs (up to 4, weights sum to 1) — the observation
    /// operator's row.
    ///
    /// # Errors
    ///
    /// Returns [`AssimError::ObservationOutsideGrid`] for points outside
    /// the bounds.
    pub fn interp_weights(&self, point: GeoPoint) -> Result<Vec<(usize, f64)>, AssimError> {
        let (fx, fy) = self
            .frac_coords(point)
            .ok_or(AssimError::ObservationOutsideGrid {
                lat: point.lat,
                lon: point.lon,
            })?;
        let fx = fx.clamp(0.0, (self.nx - 1) as f64);
        let fy = fy.clamp(0.0, (self.ny - 1) as f64);
        let ix = fx.floor() as usize;
        let iy = fy.floor() as usize;
        let ix1 = (ix + 1).min(self.nx - 1);
        let iy1 = (iy + 1).min(self.ny - 1);
        let tx = fx - ix as f64;
        let ty = fy - iy as f64;
        let mut weights = vec![
            (iy * self.nx + ix, (1.0 - tx) * (1.0 - ty)),
            (iy * self.nx + ix1, tx * (1.0 - ty)),
            (iy1 * self.nx + ix, (1.0 - tx) * ty),
            (iy1 * self.nx + ix1, tx * ty),
        ];
        // Merge duplicate cells at the grid edge.
        weights.sort_by_key(|(i, _)| *i);
        weights.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        weights.retain(|(_, w)| *w > 0.0);
        Ok(weights)
    }

    /// Root-mean-square difference against another grid of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn rmse(&self, other: &Grid) -> f64 {
        assert_eq!(
            (self.nx, self.ny),
            (other.nx, other.ny),
            "grid shapes differ"
        );
        let sum: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        (sum / self.values.len() as f64).sqrt()
    }

    /// Mean of the field.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// Asserts that two grids are the same grid down to the last bit of every
/// cell — what the reference-oracle tests of this crate compare with.
#[cfg(test)]
pub(crate) fn assert_same_bits(got: &Grid, want: &Grid, what: &str) {
    assert_eq!(got.bounds(), want.bounds(), "{what}");
    assert_eq!((got.nx(), got.ny()), (want.nx(), want.ny()), "{what}");
    for (i, (g, w)) in got.values().iter().zip(want.values()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> GeoBounds {
        GeoBounds::new(48.0, 49.0, 2.0, 3.0)
    }

    #[test]
    fn constant_grid_samples_constant() {
        let g = Grid::constant(bounds(), 8, 8, 42.0);
        assert_eq!(g.len(), 64);
        assert_eq!(g.sample(GeoPoint::new(48.5, 2.5)), Some(42.0));
        assert_eq!(g.mean(), 42.0);
    }

    #[test]
    fn sample_outside_is_none() {
        let g = Grid::constant(bounds(), 4, 4, 1.0);
        assert_eq!(g.sample(GeoPoint::new(50.0, 2.5)), None);
        assert_eq!(g.sample(GeoPoint::new(48.5, 1.0)), None);
    }

    #[test]
    fn from_fn_evaluates_cell_centers() {
        let g = Grid::from_fn(bounds(), 4, 4, |p| p.lat);
        // Cell (0, 0) centre latitude: 48 + 1/8.
        assert!((g.at(0, 0) - 48.125).abs() < 1e-12);
        assert!((g.at(0, 3) - 48.875).abs() < 1e-12);
    }

    #[test]
    fn cell_centres_are_row_latitude_and_column_longitude() {
        let g = Grid::constant(GeoBounds::paris(), 7, 5, 0.0);
        for iy in 0..g.ny() {
            for ix in 0..g.nx() {
                let c = g.cell_center(ix, iy);
                assert_eq!(c.lat.to_bits(), g.row_lat(iy).to_bits());
                assert_eq!(c.lon.to_bits(), g.col_lon(ix).to_bits());
            }
        }
    }

    #[test]
    fn bilinear_interpolates_linear_field_exactly() {
        let g = Grid::from_fn(bounds(), 16, 16, |p| 10.0 * p.lon + 3.0 * p.lat);
        // Any interior point must reproduce the linear function.
        let p = GeoPoint::new(48.43, 2.61);
        let expected = 10.0 * p.lon + 3.0 * p.lat;
        let sampled = g.sample(p).unwrap();
        assert!((sampled - expected).abs() < 1e-9, "{sampled} vs {expected}");
    }

    #[test]
    fn sample_at_cell_center_is_cell_value() {
        let mut g = Grid::constant(bounds(), 5, 5, 0.0);
        g.set(2, 3, 7.0);
        let c = g.cell_center(2, 3);
        assert!((g.sample(c).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn interp_weights_sum_to_one() {
        let g = Grid::constant(bounds(), 6, 7, 0.0);
        for p in [
            GeoPoint::new(48.01, 2.01), // margin corner
            GeoPoint::new(48.5, 2.5),
            GeoPoint::new(48.99, 2.99),
        ] {
            let w = g.interp_weights(p).unwrap();
            let total: f64 = w.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{p}: {total}");
            assert!(w.len() <= 4 && !w.is_empty());
            assert!(w.iter().all(|(i, _)| *i < g.len()));
        }
    }

    #[test]
    fn interp_weights_outside_errors() {
        let g = Grid::constant(bounds(), 4, 4, 0.0);
        assert!(matches!(
            g.interp_weights(GeoPoint::new(0.0, 0.0)),
            Err(AssimError::ObservationOutsideGrid { .. })
        ));
    }

    #[test]
    fn rmse_of_shifted_grid() {
        let a = Grid::constant(bounds(), 3, 3, 1.0);
        let b = Grid::constant(bounds(), 3, 3, 4.0);
        assert_eq!(a.rmse(&b), 3.0);
        assert_eq!(a.rmse(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn rmse_rejects_mismatched_shapes() {
        let a = Grid::constant(bounds(), 3, 3, 1.0);
        let b = Grid::constant(bounds(), 4, 3, 1.0);
        let _ = a.rmse(&b);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dims_panic() {
        let _ = Grid::constant(bounds(), 0, 3, 1.0);
    }

    #[test]
    fn values_mut_roundtrip() {
        let mut g = Grid::constant(bounds(), 2, 2, 0.0);
        g.values_mut()[3] = 9.0;
        assert_eq!(g.at(1, 1), 9.0);
        assert_eq!(g.values()[3], 9.0);
        assert!(!g.is_empty());
        assert_eq!((g.nx(), g.ny()), (2, 2));
        assert_eq!(g.bounds(), bounds());
    }
}
