//! BLUE analysis (optimal interpolation).
//!
//! The Best Linear Unbiased Estimator corrects a background field `x_b`
//! with observations `y`:
//!
//! ```text
//! x_a = x_b + B Hᵀ (H B Hᵀ + R)⁻¹ (y − H x_b)
//! ```
//!
//! with `H` the (bilinear) observation operator, `R` the diagonal
//! observation-error covariance, and `B` a Balgovind background
//! covariance: `B(d) = σ_b² (1 + d/r) e^(−d/r)` — the standard choice of
//! the urban-scale BLUE assimilation the paper builds on [Tilloy et al.
//! 2013]. Working in dB treats the log-domain field as Gaussian, as the
//! noise-mapping literature does.
//!
//! # Where the time goes, and what is shared
//!
//! An analysis of `m` observations on `n` cells evaluates `n·m`
//! cell–observation covariances and `m²/2` observation–observation ones;
//! at a few hundred observations the `O(m³)` solve is a small fraction
//! of that. Each covariance is a haversine distance and an `exp`, so the
//! passes are organized to evaluate as little of the haversine per pair
//! as the geometry allows:
//!
//! * the grid is regular in latitude and longitude, so `sin²(Δlat/2)` and
//!   `cos(lat_cell)·cos(lat_obs)` are tabulated per (row, observation),
//!   `sin²(Δlon/2)` per (column, observation), and a pair is left with
//!   `a = s_lat + cc·s_lon`, `sqrt`, `asin` and `exp` (`CellKernel`,
//!   used by the global and the localized pass alike), the distances of
//!   a batch of observations taken before their covariances;
//! * the innovation covariance `S` is evaluated once per analysis, on
//!   one triangle, with each observation's `cos(lat)` taken once; the
//!   localized pass cuts every tile's system out of that one matrix.
//!
//! None of this moves a bit of the result. `GeoPoint::distance_m` is
//! itself assembled from `mps_types::{haversine_deg,
//! haversine_distance_m}`, the tables hold those functions' values for
//! the very arguments `distance_m` would pass, and sums run in the order
//! they always did; the tests keep the pair-by-pair formulation as an
//! oracle and compare `f64::to_bits`.

use crate::grid::Grid;
use crate::matrix::Matrix;
use crate::telemetry::telemetry;
use crate::AssimError;
use mps_telemetry::SpanTimer;
use mps_types::{haversine_deg, haversine_distance_m, GeoPoint};

/// One point observation to assimilate: a location, a measured value (dB)
/// and the observation-error standard deviation (dB) — which per-model
/// calibration estimates (see
/// [`CalibrationDatabase`](crate::CalibrationDatabase)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointObservation {
    /// Where the measurement was taken.
    pub at: GeoPoint,
    /// Measured value, dB(A).
    pub value_db: f64,
    /// Observation-error standard deviation, dB.
    pub sigma_db: f64,
}

impl PointObservation {
    /// Whether `sigma_db` is an error [`PointObservation::new`] accepts:
    /// strictly positive and finite.
    pub(crate) fn is_valid_error(sigma_db: f64) -> bool {
        sigma_db > 0.0 && sigma_db.is_finite()
    }

    /// Creates an observation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is not strictly positive and finite.
    pub fn new(at: GeoPoint, value_db: f64, sigma_db: f64) -> Self {
        assert!(
            Self::is_valid_error(sigma_db),
            "observation error must be positive, got {sigma_db}"
        );
        Self {
            at,
            value_db,
            sigma_db,
        }
    }
}

/// The number of threads the machine offers this process, one if it
/// cannot tell.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Observation-space localization settings for
/// [`Blue::analyse_localized`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Localization {
    /// Observations farther than this from a tile's circumscribed circle
    /// are excluded from that tile's solve, metres.
    pub cutoff_radius_m: f64,
    /// Tile edge length, in grid cells.
    pub tile: usize,
    /// Worker threads solving tiles (the result does not depend on it).
    pub threads: usize,
    /// Shard assignment `(index, count)`: this worker solves only tiles
    /// whose sequence number `t` (row-major tile order) satisfies
    /// `t % count == index`, leaving every other tile at the background.
    /// Defaults to `(0, 1)` — all tiles. Partial analyses from a full
    /// set of disjoint assignments recombine exactly via
    /// [`Blue::merge_shards`].
    pub shard: (usize, usize),
}

impl Localization {
    /// Creates a localization with the given cutoff, 8×8-cell tiles and
    /// one worker per available CPU.
    ///
    /// # Panics
    ///
    /// Panics unless `cutoff_radius_m` is strictly positive and finite.
    pub fn new(cutoff_radius_m: f64) -> Self {
        assert!(
            cutoff_radius_m > 0.0 && cutoff_radius_m.is_finite(),
            "cutoff radius must be positive, got {cutoff_radius_m}"
        );
        Self {
            cutoff_radius_m,
            tile: 8,
            threads: available_threads(),
            shard: (0, 1),
        }
    }

    /// A cutoff of 8 Balgovind correlation radii — there the covariance
    /// has decayed to `(1+8)·e⁻⁸ ≈ 0.3%` of the background variance,
    /// which keeps the localized analysis within 0.1 dB of the global one
    /// at realistic configurations.
    pub fn for_radius(radius_m: f64) -> Self {
        Self::new(radius_m * 8.0)
    }

    /// Overrides the tile edge length (clamped to at least one cell).
    pub fn tile(mut self, tile: usize) -> Self {
        self.tile = tile.max(1);
        self
    }

    /// Overrides the worker-thread count (clamped to at least one).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Assigns this worker shard `index` of `count`: the analysis solves
    /// only its own tiles, so `count` workers (threads, processes or
    /// machines) can split one BLUE pass and recombine with
    /// [`Blue::merge_shards`].
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn shard(mut self, index: usize, count: usize) -> Self {
        assert!(index < count, "shard {index} of {count}");
        self.shard = (index, count);
        self
    }
}

/// The BLUE analysis operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blue {
    sigma_b_db: f64,
    radius_m: f64,
}

impl Blue {
    /// Creates an analysis operator with background-error standard
    /// deviation `sigma_b_db` (dB) and Balgovind correlation radius
    /// `radius_m` (metres).
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are strictly positive.
    pub fn new(sigma_b_db: f64, radius_m: f64) -> Self {
        assert!(sigma_b_db > 0.0, "sigma_b must be positive");
        assert!(radius_m > 0.0, "radius must be positive");
        Self {
            sigma_b_db,
            radius_m,
        }
    }

    /// Background covariance between two points (Balgovind).
    pub fn covariance(&self, a: GeoPoint, b: GeoPoint) -> f64 {
        self.balgovind(a.distance_m(b))
    }

    /// The Balgovind covariance at a separation of `distance_m` metres.
    fn balgovind(&self, distance_m: f64) -> f64 {
        let d = distance_m / self.radius_m;
        self.sigma_b_db * self.sigma_b_db * (1.0 + d) * (-d).exp()
    }

    /// Runs the analysis: returns the corrected field.
    ///
    /// # Errors
    ///
    /// Returns [`AssimError::NoObservations`] for an empty observation
    /// set, [`AssimError::ObservationOutsideGrid`] if an observation falls
    /// outside the background grid, and
    /// [`AssimError::SingularCovariance`] if the innovation covariance
    /// cannot be factored.
    pub fn analyse(
        &self,
        background: &Grid,
        observations: &[PointObservation],
    ) -> Result<Grid, AssimError> {
        if observations.is_empty() {
            return Err(AssimError::NoObservations);
        }
        let metrics = telemetry();
        let _timer = SpanTimer::start(&metrics.blue_pass_seconds);
        let innovations = innovations(background, observations)?;
        let weights = self
            .innovation_covariance(observations)
            .solve_spd_blocked(&innovations)?;

        // x_a = x_b + (B Hᵀ) w, with (B Hᵀ)[cell, i] = cov(cell, obs_i).
        let kernel = CellKernel::new(self, background, observations);
        let mut analysis = background.clone();
        let nx = analysis.nx();
        for (iy, row) in analysis.values_mut().chunks_exact_mut(nx).enumerate() {
            for (ix, value) in row.iter_mut().enumerate() {
                *value += kernel.increment(ix, iy, 0..observations.len(), &weights);
            }
        }
        metrics.blue_passes.inc();
        metrics
            .blue_observations_merged
            .add(observations.len() as u64);
        Ok(analysis)
    }

    /// `S = H B Hᵀ + R`. Because H is an interpolation, `H B Hᵀ` is
    /// approximated by the covariance function evaluated between
    /// observation locations (exact as the grid refines).
    ///
    /// Entry `(i, j)` with `j <= i` holds the bits of
    /// `covariance(obs[i], obs[j])`, each latitude's cosine taken once per
    /// observation and not once per pair; the upper triangle mirrors it
    /// (the Cholesky solve reads the lower one only).
    fn innovation_covariance(&self, observations: &[PointObservation]) -> Matrix {
        let cos_lat: Vec<f64> = observations
            .iter()
            .map(|o| o.at.lat.to_radians().cos())
            .collect();
        Matrix::symmetric_from_fn(observations.len(), |i, j| {
            let (a, b) = (observations[i], observations[j]);
            let mut v = self.balgovind(haversine_distance_m(
                haversine_deg(b.at.lat - a.at.lat),
                cos_lat[i] * cos_lat[j],
                haversine_deg(b.at.lon - a.at.lon),
            ));
            if i == j {
                v += a.sigma_db * a.sigma_db;
            }
            v
        })
    }

    /// Runs the analysis with observation-space localization: the grid is
    /// cut into tiles, and each tile solves a small innovation system
    /// over only the observations within `localization.cutoff_radius_m`
    /// of it (measured to the tile's circumscribed circle, so no cell
    /// ever loses an observation closer than the cutoff).
    ///
    /// Because the Balgovind covariance at the default cutoff of 8
    /// correlation radii has decayed to `9·e⁻⁸ ≈ 3·10⁻³` of the
    /// background variance, the result deviates from the global
    /// [`Blue::analyse`] by well under 0.1 dB per cell at realistic
    /// configurations (held by a property test), while replacing one
    /// O(m³) solve with many small ones. Tiles run on
    /// `localization.threads` scoped threads; the result is independent
    /// of the thread count — tiles are disjoint and deterministic.
    ///
    /// A tile with no observation in reach keeps the background
    /// unchanged, which is exactly the localized estimate there.
    ///
    /// # Errors
    ///
    /// Same contract as [`Blue::analyse`]: [`AssimError::NoObservations`],
    /// [`AssimError::ObservationOutsideGrid`], or
    /// [`AssimError::SingularCovariance`] from any tile solve.
    pub fn analyse_localized(
        &self,
        background: &Grid,
        observations: &[PointObservation],
        localization: &Localization,
    ) -> Result<Grid, AssimError> {
        if observations.is_empty() {
            return Err(AssimError::NoObservations);
        }
        let metrics = telemetry();
        let _timer = SpanTimer::start(&metrics.blue_pass_seconds);
        let innovations = innovations(background, observations)?;
        // Every tile solves a sub-block of the one innovation covariance
        // and reads the one set of hoisted cell factors.
        let system = &TileSystem {
            background,
            observations,
            innovations: &innovations,
            covariance: &self.innovation_covariance(observations),
            kernel: &CellKernel::new(self, background, observations),
            cutoff_m: localization.cutoff_radius_m,
        };

        // Keep only this worker's tiles; unowned tiles stay at the
        // background (their increments live in other shards' partials).
        let (shard, shards) = localization.shard;
        let tiles: Vec<Tile> = tiles(background.nx(), background.ny(), localization.tile)
            .into_iter()
            .enumerate()
            .filter(|(t, _)| t % shards.max(1) == shard)
            .map(|(_, t)| t)
            .collect();

        // Solve tiles in parallel; each worker owns a disjoint slice of
        // the result vector, so no synchronization is needed.
        let mut increments: Vec<Result<Vec<f64>, AssimError>> = vec![Ok(Vec::new()); tiles.len()];
        let threads = localization.threads.clamp(1, tiles.len().max(1));
        // max(1): a shard owning no tile (more shards than tiles) still
        // needs a non-zero chunk size for `chunks`.
        let chunk = tiles.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (jobs, slots) in tiles.chunks(chunk).zip(increments.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (tile, slot) in jobs.iter().zip(slots.iter_mut()) {
                        *slot = system.increments(tile);
                    }
                });
            }
        });

        let mut analysis = background.clone();
        let nx = analysis.nx();
        let mut solves = 0u64;
        for (tile, result) in tiles.iter().zip(increments) {
            let increment = result?;
            if increment.is_empty() {
                continue; // no observation in reach: background stands
            }
            solves += 1;
            let width = tile.ix1 - tile.ix0;
            for (iy, added) in (tile.iy0..tile.iy1).zip(increment.chunks_exact(width)) {
                let row = &mut analysis.values_mut()[iy * nx + tile.ix0..iy * nx + tile.ix1];
                for (value, add) in row.iter_mut().zip(added) {
                    *value += add;
                }
            }
        }
        metrics.blue_passes.inc();
        metrics.blue_localized_passes.inc();
        metrics.blue_tile_solves.add(solves);
        metrics
            .blue_observations_merged
            .add(observations.len() as u64);
        Ok(analysis)
    }

    /// Recombines partial sharded analyses (see [`Localization::shard`])
    /// into the full localized analysis: each cell takes the value of
    /// the partial that solved its tile, or the background where no
    /// partial touched it. Shard assignments are disjoint, so at most
    /// one partial differs from the background at any cell and the
    /// merge is exact — merging a full set of shards is bitwise equal
    /// to the unsharded [`Blue::analyse_localized`].
    ///
    /// # Panics
    ///
    /// Panics if a partial's grid dimensions differ from the
    /// background's.
    pub fn merge_shards(background: &Grid, partials: &[Grid]) -> Grid {
        let mut merged = background.clone();
        for partial in partials {
            assert!(
                partial.nx() == background.nx() && partial.ny() == background.ny(),
                "partial grid {}x{} does not match background {}x{}",
                partial.nx(),
                partial.ny(),
                background.nx(),
                background.ny()
            );
            for iy in 0..background.ny() {
                for ix in 0..background.nx() {
                    let value = partial.at(ix, iy);
                    if value != background.at(ix, iy) {
                        merged.set(ix, iy, value);
                    }
                }
            }
        }
        merged
    }

    /// Innovation statistics `(mean, rms)` of observations against a
    /// field — used to diagnose bias before/after calibration.
    pub fn innovation_stats(field: &Grid, observations: &[PointObservation]) -> (f64, f64) {
        let innovations: Vec<f64> = observations
            .iter()
            .filter_map(|o| field.sample(o.at).map(|hx| o.value_db - hx))
            .collect();
        if innovations.is_empty() {
            return (0.0, 0.0);
        }
        let n = innovations.len() as f64;
        let mean = innovations.iter().sum::<f64>() / n;
        let rms = (innovations.iter().map(|d| d * d).sum::<f64>() / n).sqrt();
        (mean, rms)
    }
}

/// Innovations `d = y − H x_b`, which also validates the locations.
fn innovations(
    background: &Grid,
    observations: &[PointObservation],
) -> Result<Vec<f64>, AssimError> {
    observations
        .iter()
        .map(|obs| {
            let hx = background
                .sample(obs.at)
                .ok_or(AssimError::ObservationOutsideGrid {
                    lat: obs.at.lat,
                    lon: obs.at.lon,
                })?;
            Ok(obs.value_db - hx)
        })
        .collect()
}

/// The cell–observation covariances `(B Hᵀ)[cell, i]` of one analysis
/// with everything that does not vary along a row or a column taken out
/// of the cell loop.
///
/// A cell centre's latitude depends on `iy` alone and its longitude on
/// `ix` alone, so of the haversine distance between cell `(ix, iy)` and
/// observation `o` the latitude term and the product of cosines belong to
/// `(iy, o)` and the longitude term to `(ix, o)`. They are tabulated here
/// with the expressions [`GeoPoint::distance_m`] uses — it is built from
/// the same [`haversine_deg`] and [`haversine_distance_m`] — which leaves
/// one multiply-add, `sqrt`, `asin` and `exp` per pair and makes every
/// covariance the bits of `covariance(cell_center(ix, iy), obs.at)`.
struct CellKernel<'a> {
    blue: &'a Blue,
    /// Observation count: the row length of the three tables.
    m: usize,
    /// `sin²(Δlon/2)` at `[ix * m + o]`.
    hav_lon: Vec<f64>,
    /// `sin²(Δlat/2)` at `[iy * m + o]`.
    hav_lat: Vec<f64>,
    /// `cos(lat_cell) · cos(lat_obs)` at `[iy * m + o]`.
    cos_lats: Vec<f64>,
}

impl<'a> CellKernel<'a> {
    fn new(blue: &'a Blue, grid: &Grid, observations: &[PointObservation]) -> Self {
        let m = observations.len();
        let cos_obs: Vec<f64> = observations
            .iter()
            .map(|o| o.at.lat.to_radians().cos())
            .collect();
        let mut hav_lon = Vec::with_capacity(grid.nx() * m);
        for ix in 0..grid.nx() {
            let lon = grid.col_lon(ix);
            hav_lon.extend(observations.iter().map(|o| haversine_deg(o.at.lon - lon)));
        }
        let mut hav_lat = Vec::with_capacity(grid.ny() * m);
        let mut cos_lats = Vec::with_capacity(grid.ny() * m);
        for iy in 0..grid.ny() {
            let lat = grid.row_lat(iy);
            let cos_cell = lat.to_radians().cos();
            hav_lat.extend(observations.iter().map(|o| haversine_deg(o.at.lat - lat)));
            cos_lats.extend(cos_obs.iter().map(|cos_obs| cos_cell * cos_obs));
        }
        Self {
            blue,
            m,
            hav_lon,
            hav_lat,
            cos_lats,
        }
    }

    /// `Σ cov(cell, obs_o) · w` over the observations `chosen`, in their
    /// order, `weights` running alongside.
    fn increment(
        &self,
        ix: usize,
        iy: usize,
        chosen: impl Iterator<Item = usize>,
        weights: &[f64],
    ) -> f64 {
        let hav_lon = &self.hav_lon[ix * self.m..(ix + 1) * self.m];
        let hav_lat = &self.hav_lat[iy * self.m..(iy + 1) * self.m];
        let cos_lats = &self.cos_lats[iy * self.m..(iy + 1) * self.m];
        // Distances for a batch of observations first, covariances after:
        // the sum runs in the same order, and a pass of 167 observations
        // on 48×48 cells takes 5.1 ms this way against 6.6 ms with
        // `asin` and `exp` alternating pair by pair.
        let mut increment = 0.0;
        let mut chosen = chosen;
        let mut distance_m = [0.0; 64];
        for weights in weights.chunks(distance_m.len()) {
            // `distance_m` leads the zip, so a full batch ends it without
            // taking the next batch's first observation out of `chosen`.
            for (d, o) in distance_m.iter_mut().zip(&mut chosen) {
                *d = haversine_distance_m(hav_lat[o], cos_lats[o], hav_lon[o]);
            }
            for (d, w) in distance_m.iter().zip(weights) {
                increment += self.blue.balgovind(*d) * w;
            }
        }
        increment
    }
}

/// A rectangle of grid cells, `ix0..ix1 × iy0..iy1`.
#[derive(Debug, Clone, Copy)]
struct Tile {
    ix0: usize,
    ix1: usize,
    iy0: usize,
    iy1: usize,
}

/// Cuts an `nx × ny` grid into `tile × tile` cell jobs, row-major.
fn tiles(nx: usize, ny: usize, tile: usize) -> Vec<Tile> {
    let tile = tile.max(1);
    let mut tiles = Vec::new();
    for iy0 in (0..ny).step_by(tile) {
        for ix0 in (0..nx).step_by(tile) {
            tiles.push(Tile {
                ix0,
                ix1: (ix0 + tile).min(nx),
                iy0,
                iy1: (iy0 + tile).min(ny),
            });
        }
    }
    tiles
}

impl Tile {
    /// The observations a tile's solve takes in, ascending: those within
    /// `cutoff_m` of the circle through the tile's corner cell centres.
    fn observations_in_reach(
        &self,
        grid: &Grid,
        observations: &[PointObservation],
        cutoff_m: f64,
    ) -> Vec<usize> {
        // Centre of the tile's corner cell centres, and the radius of the
        // circle through them: an observation within `cutoff_m` of any
        // tile cell is within `cutoff_m + reach` of the centre.
        let corners = [
            grid.cell_center(self.ix0, self.iy0),
            grid.cell_center(self.ix1 - 1, self.iy0),
            grid.cell_center(self.ix0, self.iy1 - 1),
            grid.cell_center(self.ix1 - 1, self.iy1 - 1),
        ];
        let center = GeoPoint::new(
            (corners[0].lat + corners[3].lat) / 2.0,
            (corners[0].lon + corners[3].lon) / 2.0,
        );
        let reach = cutoff_m
            + corners
                .iter()
                .map(|c| center.distance_m(*c))
                .fold(0.0, f64::max);
        (0..observations.len())
            .filter(|&i| observations[i].at.distance_m(center) <= reach)
            .collect()
    }
}

/// What every tile solve of one localized analysis shares.
struct TileSystem<'a> {
    background: &'a Grid,
    observations: &'a [PointObservation],
    innovations: &'a [f64],
    /// [`Blue::innovation_covariance`] of all the observations.
    covariance: &'a Matrix,
    kernel: &'a CellKernel<'a>,
    cutoff_m: f64,
}

impl TileSystem<'_> {
    /// The analysis increments of one tile (row-major over the tile), or
    /// an empty vector when no observation is within reach.
    fn increments(&self, tile: &Tile) -> Result<Vec<f64>, AssimError> {
        let local = tile.observations_in_reach(self.background, self.observations, self.cutoff_m);
        if local.is_empty() {
            return Ok(Vec::new());
        }
        let d: Vec<f64> = local.iter().map(|&i| self.innovations[i]).collect();
        let weights = self
            .covariance
            .principal_submatrix(&local)
            .solve_spd_blocked(&d)?;

        let mut increments = Vec::with_capacity((tile.ix1 - tile.ix0) * (tile.iy1 - tile.iy0));
        for iy in tile.iy0..tile.iy1 {
            for ix in tile.ix0..tile.ix1 {
                increments.push(
                    self.kernel
                        .increment(ix, iy, local.iter().copied(), &weights),
                );
            }
        }
        Ok(increments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::assert_same_bits;
    use mps_simcore::check::{check, size};
    use mps_simcore::SimRng;
    use mps_types::GeoBounds;

    fn bounds() -> GeoBounds {
        GeoBounds::paris()
    }

    fn background() -> Grid {
        Grid::constant(bounds(), 24, 24, 50.0)
    }

    /// The global analysis in its pair-by-pair formulation: `covariance`
    /// from two points, nothing shared, for the whole innovation matrix
    /// and for every cell. The oracle of the bit-identity properties below.
    fn reference_analyse(blue: &Blue, background: &Grid, obs: &[PointObservation]) -> Grid {
        let innovations: Vec<f64> = obs
            .iter()
            .map(|o| o.value_db - background.sample(o.at).unwrap())
            .collect();
        let s = Matrix::from_fn(obs.len(), obs.len(), |i, j| {
            let mut v = blue.covariance(obs[i].at, obs[j].at);
            if i == j {
                v += obs[i].sigma_db * obs[i].sigma_db;
            }
            v
        });
        let weights = s.solve_spd_blocked(&innovations).unwrap();
        let mut analysis = background.clone();
        for iy in 0..analysis.ny() {
            for ix in 0..analysis.nx() {
                let cell = analysis.cell_center(ix, iy);
                let mut increment = 0.0;
                for (o, w) in obs.iter().zip(&weights) {
                    increment += blue.covariance(cell, o.at) * w;
                }
                analysis.set(ix, iy, analysis.at(ix, iy) + increment);
            }
        }
        analysis
    }

    /// The localized analysis likewise: every tile evaluates its own
    /// innovation matrix and its cells' covariances pair by pair.
    fn reference_analyse_localized(
        blue: &Blue,
        background: &Grid,
        obs: &[PointObservation],
        localization: &Localization,
    ) -> Grid {
        let (nx, ny, tile) = (background.nx(), background.ny(), localization.tile);
        let mut analysis = background.clone();
        let mut iy0 = 0;
        while iy0 < ny {
            let iy1 = (iy0 + tile).min(ny);
            let mut ix0 = 0;
            while ix0 < nx {
                let ix1 = (ix0 + tile).min(nx);
                let here = Tile { ix0, ix1, iy0, iy1 };
                ix0 = ix1;
                let local =
                    here.observations_in_reach(background, obs, localization.cutoff_radius_m);
                if local.is_empty() {
                    continue;
                }
                let s = Matrix::from_fn(local.len(), local.len(), |a, b| {
                    let (i, j) = (local[a], local[b]);
                    let mut v = blue.covariance(obs[i].at, obs[j].at);
                    if a == b {
                        v += obs[i].sigma_db * obs[i].sigma_db;
                    }
                    v
                });
                let d: Vec<f64> = local
                    .iter()
                    .map(|&i| obs[i].value_db - background.sample(obs[i].at).unwrap())
                    .collect();
                let weights = s.solve_spd_blocked(&d).unwrap();
                for iy in here.iy0..here.iy1 {
                    for ix in here.ix0..here.ix1 {
                        let cell = background.cell_center(ix, iy);
                        let mut v = 0.0;
                        for (&i, w) in local.iter().zip(&weights) {
                            v += blue.covariance(cell, obs[i].at) * w;
                        }
                        analysis.set(ix, iy, background.at(ix, iy) + v);
                    }
                }
            }
            iy0 = iy1;
        }
        analysis
    }

    /// A non-square grid over a box somewhere between the tropics and
    /// the polar circles, and observations that sit where the hoisting
    /// could go wrong: on cell centres, on the edges and corners of the
    /// bounds, on top of one another, and anywhere.
    fn awkward_case(r: &mut SimRng) -> (Blue, Grid, Vec<PointObservation>) {
        let (lat, lon) = (r.uniform_in(-60.0, 60.0), r.uniform_in(-170.0, 170.0));
        let bounds = GeoBounds::new(
            lat,
            lat + r.uniform_in(0.02, 0.12),
            lon,
            lon + r.uniform_in(0.02, 0.3),
        );
        let nx = size(r, 1, 14);
        let ny = (nx + size(r, 1, 9)) % 14 + 1;
        let background = Grid::from_fn(bounds, nx, ny, |_| r.uniform_in(35.0, 75.0));
        let mut at: Vec<GeoPoint> = Vec::new();
        // Mostly a handful; now and then enough to cross the kernel's
        // batches of 64 observations.
        let count = if r.chance(0.15) {
            size(r, 60, 140)
        } else {
            size(r, 1, 24)
        };
        for _ in 0..count {
            let p = match r.index(4) {
                0 => background.cell_center(r.index(nx), r.index(ny)),
                1 => {
                    let (u, v) = (r.uniform(), r.uniform());
                    bounds.lerp(*r.pick(&[0.0, 1.0, u]), *r.pick(&[0.0, 1.0, v]))
                }
                2 if !at.is_empty() => *r.pick(&at),
                _ => bounds.lerp(r.uniform(), r.uniform()),
            };
            at.push(p);
        }
        let obs = at
            .into_iter()
            // `lerp(1.0, _)` may land an ulp outside; such a point is the
            // caller's error, not this property's subject.
            .filter(|p| bounds.contains(*p))
            .map(|p| PointObservation::new(p, r.uniform_in(35.0, 75.0), r.uniform_in(0.5, 4.0)))
            .collect();
        let blue = Blue::new(r.uniform_in(1.0, 6.0), r.uniform_in(150.0, 2_500.0));
        (blue, background, obs)
    }

    #[test]
    fn analyse_keeps_the_bits_of_the_pairwise_formulation() {
        check(|r| {
            let (blue, background, obs) = awkward_case(r);
            if obs.is_empty() {
                return;
            }
            let analysis = blue.analyse(&background, &obs).unwrap();
            let reference = reference_analyse(&blue, &background, &obs);
            assert_same_bits(&analysis, &reference, "global");
        });
    }

    #[test]
    fn analyse_localized_keeps_the_bits_of_the_pairwise_formulation() {
        check(|r| {
            let (blue, background, obs) = awkward_case(r);
            if obs.is_empty() {
                return;
            }
            // Cutoffs from "a tile sees nothing" to "every tile sees all".
            let localization =
                Localization::new(blue.radius_m * r.uniform_in(0.2, 8.0)).tile(size(r, 1, 7));
            let reference = reference_analyse_localized(&blue, &background, &obs, &localization);
            for threads in [1, 2, 5] {
                let analysis = blue
                    .analyse_localized(&background, &obs, &localization.threads(threads))
                    .unwrap();
                assert_same_bits(&analysis, &reference, &format!("{threads} threads"));
            }
            let partials: Vec<Grid> = (0..3)
                .map(|shard| {
                    blue.analyse_localized(&background, &obs, &localization.shard(shard, 3))
                        .unwrap()
                })
                .collect();
            let merged = Blue::merge_shards(&background, &partials);
            assert_same_bits(&merged, &reference, "3 shards merged");
        });
    }

    #[test]
    fn covariance_is_bitwise_symmetric() {
        // What lets the innovation matrix be evaluated on one triangle.
        check(|r| {
            let (blue, background, _) = awkward_case(r);
            let bounds = background.bounds();
            let a = bounds.lerp(r.uniform(), r.uniform());
            let b = bounds.lerp(r.uniform(), r.uniform());
            assert_eq!(
                blue.covariance(a, b).to_bits(),
                blue.covariance(b, a).to_bits()
            );
        });
    }

    #[test]
    fn covariance_at_zero_distance_is_variance() {
        let blue = Blue::new(3.0, 500.0);
        let p = GeoPoint::PARIS;
        assert!((blue.covariance(p, p) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_decays_monotonically() {
        let blue = Blue::new(3.0, 500.0);
        let origin = GeoPoint::PARIS;
        let mut last = f64::INFINITY;
        for d in [0.0, 100.0, 500.0, 1_000.0, 5_000.0] {
            let p = GeoPoint::from_local_xy(origin, d, 0.0);
            let c = blue.covariance(origin, p);
            assert!(c <= last + 1e-12, "covariance must decay");
            assert!(c >= 0.0);
            last = c;
        }
    }

    #[test]
    fn analysis_moves_toward_observation() {
        let blue = Blue::new(4.0, 800.0);
        let obs = vec![PointObservation::new(GeoPoint::PARIS, 62.0, 2.0)];
        let analysis = blue.analyse(&background(), &obs).unwrap();
        let at_obs = analysis.sample(GeoPoint::PARIS).unwrap();
        assert!(at_obs > 50.0 && at_obs <= 62.0, "{at_obs}");
        // With sigma_b=4 and sigma_o=2, the gain is 16/(16+4) = 0.8:
        // expected ≈ 50 + 0.8 * 12 = 59.6.
        assert!((at_obs - 59.6).abs() < 1.0, "{at_obs}");
    }

    #[test]
    fn correction_is_localised() {
        let blue = Blue::new(4.0, 500.0);
        let obs = vec![PointObservation::new(GeoPoint::PARIS, 70.0, 1.0)];
        let analysis = blue.analyse(&background(), &obs).unwrap();
        // Far from the observation (many correlation radii), the field is
        // untouched.
        let far = GeoPoint::from_local_xy(GeoPoint::PARIS, 6_000.0, 0.0);
        if let Some(v) = analysis.sample(far) {
            assert!((v - 50.0).abs() < 0.5, "far field moved to {v}");
        }
    }

    #[test]
    fn trusted_observation_pulls_harder() {
        let blue = Blue::new(4.0, 800.0);
        let precise = blue
            .analyse(
                &background(),
                &[PointObservation::new(GeoPoint::PARIS, 62.0, 0.5)],
            )
            .unwrap()
            .sample(GeoPoint::PARIS)
            .unwrap();
        let noisy = blue
            .analyse(
                &background(),
                &[PointObservation::new(GeoPoint::PARIS, 62.0, 8.0)],
            )
            .unwrap()
            .sample(GeoPoint::PARIS)
            .unwrap();
        assert!(precise > noisy + 3.0, "precise {precise}, noisy {noisy}");
    }

    #[test]
    fn multiple_observations_all_pull() {
        let blue = Blue::new(4.0, 600.0);
        let a = GeoPoint::from_local_xy(GeoPoint::PARIS, -3_000.0, 0.0);
        let b = GeoPoint::from_local_xy(GeoPoint::PARIS, 3_000.0, 0.0);
        let obs = vec![
            PointObservation::new(a, 62.0, 2.0),
            PointObservation::new(b, 40.0, 2.0),
        ];
        let analysis = blue.analyse(&background(), &obs).unwrap();
        assert!(analysis.sample(a).unwrap() > 55.0);
        assert!(analysis.sample(b).unwrap() < 45.0);
    }

    #[test]
    fn reduces_rmse_against_truth() {
        // Truth: a tilted plane. Background: flat 50. Observations of the
        // truth must pull the analysis toward it.
        let truth = Grid::from_fn(bounds(), 24, 24, |p| 50.0 + (p.lon - 2.3) * 100.0);
        let blue = Blue::new(4.0, 1_500.0);
        let mut observations = Vec::new();
        for i in 0..25 {
            let u = (i % 5) as f64 / 4.0;
            let v = (i / 5) as f64 / 4.0;
            let at = bounds().lerp(u * 0.9 + 0.05, v * 0.9 + 0.05);
            observations.push(PointObservation::new(at, truth.sample(at).unwrap(), 1.0));
        }
        let bg = background();
        let analysis = blue.analyse(&bg, &observations).unwrap();
        let before = bg.rmse(&truth);
        let after = analysis.rmse(&truth);
        assert!(after < before * 0.6, "rmse {before} -> {after}");
    }

    #[test]
    fn empty_observations_error() {
        let blue = Blue::new(4.0, 800.0);
        assert_eq!(
            blue.analyse(&background(), &[]).unwrap_err(),
            AssimError::NoObservations
        );
    }

    #[test]
    fn outside_observation_errors() {
        let blue = Blue::new(4.0, 800.0);
        let obs = vec![PointObservation::new(GeoPoint::new(0.0, 0.0), 60.0, 2.0)];
        assert!(matches!(
            blue.analyse(&background(), &obs),
            Err(AssimError::ObservationOutsideGrid { .. })
        ));
    }

    #[test]
    fn duplicate_locations_still_solve() {
        // R on the diagonal keeps S positive definite even for co-located
        // observations.
        let blue = Blue::new(4.0, 800.0);
        let obs = vec![
            PointObservation::new(GeoPoint::PARIS, 60.0, 2.0),
            PointObservation::new(GeoPoint::PARIS, 64.0, 2.0),
        ];
        let analysis = blue.analyse(&background(), &obs).unwrap();
        let v = analysis.sample(GeoPoint::PARIS).unwrap();
        assert!(v > 55.0 && v < 64.0, "{v}");
    }

    #[test]
    fn localized_matches_global_on_clustered_observations() {
        let blue = Blue::new(4.0, 400.0);
        let obs: Vec<PointObservation> = (0..12)
            .map(|i| {
                let at = GeoPoint::from_local_xy(
                    GeoPoint::PARIS,
                    (i % 4) as f64 * 250.0,
                    (i / 4) as f64 * 250.0,
                );
                PointObservation::new(at, 55.0 + i as f64, 1.5)
            })
            .collect();
        let global = blue.analyse(&background(), &obs).unwrap();
        let localized = blue
            .analyse_localized(&background(), &obs, &Localization::for_radius(400.0))
            .unwrap();
        let max_dev = global
            .values()
            .iter()
            .zip(localized.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_dev <= 0.1, "max deviation {max_dev} dB");
    }

    #[test]
    fn localized_result_is_thread_count_invariant() {
        let blue = Blue::new(4.0, 400.0);
        let obs = vec![
            PointObservation::new(GeoPoint::PARIS, 62.0, 2.0),
            PointObservation::new(
                GeoPoint::from_local_xy(GeoPoint::PARIS, 2_000.0, 1_000.0),
                45.0,
                2.0,
            ),
        ];
        let loc = Localization::for_radius(400.0);
        let one = blue
            .analyse_localized(&background(), &obs, &loc.threads(1))
            .unwrap();
        let four = blue
            .analyse_localized(&background(), &obs, &loc.threads(4))
            .unwrap();
        assert_eq!(one, four, "tiles are disjoint and deterministic");
    }

    #[test]
    fn localized_far_tiles_keep_background() {
        // With a tight cutoff, tiles far from the lone observation have
        // no local observations and must return the background verbatim.
        let blue = Blue::new(4.0, 200.0);
        let obs = vec![PointObservation::new(GeoPoint::PARIS, 70.0, 1.0)];
        let localized = blue
            .analyse_localized(&background(), &obs, &Localization::new(1_000.0).tile(4))
            .unwrap();
        let far = GeoPoint::from_local_xy(GeoPoint::PARIS, 8_000.0, 0.0);
        if let Some(v) = localized.sample(far) {
            assert_eq!(v, 50.0, "untouched tile must equal the background");
        }
    }

    #[test]
    fn localized_errors_match_global_contract() {
        let blue = Blue::new(4.0, 800.0);
        let loc = Localization::for_radius(800.0);
        assert_eq!(
            blue.analyse_localized(&background(), &[], &loc)
                .unwrap_err(),
            AssimError::NoObservations
        );
        let outside = vec![PointObservation::new(GeoPoint::new(0.0, 0.0), 60.0, 2.0)];
        assert!(matches!(
            blue.analyse_localized(&background(), &outside, &loc),
            Err(AssimError::ObservationOutsideGrid { .. })
        ));
    }

    #[test]
    fn sharded_tiles_merge_to_the_full_analysis() {
        let blue = Blue::new(4.0, 400.0);
        let obs: Vec<PointObservation> = (0..9)
            .map(|i| {
                let at = GeoPoint::from_local_xy(
                    GeoPoint::PARIS,
                    ((i % 3) as f64 - 1.0) * 2_500.0,
                    ((i / 3) as f64 - 1.0) * 2_500.0,
                );
                PointObservation::new(at, 50.0 + i as f64, 1.5)
            })
            .collect();
        let loc = Localization::for_radius(400.0).tile(4);
        let full = blue.analyse_localized(&background(), &obs, &loc).unwrap();
        for shards in [1, 2, 3, 5] {
            let partials: Vec<Grid> = (0..shards)
                .map(|s| {
                    blue.analyse_localized(&background(), &obs, &loc.shard(s, shards))
                        .unwrap()
                })
                .collect();
            let merged = Blue::merge_shards(&background(), &partials);
            assert_eq!(merged, full, "{shards} shards");
        }
    }

    #[test]
    fn more_shards_than_tiles_still_merge() {
        // A 24×24 grid with 24-cell tiles has exactly one tile; shards
        // beyond the first own nothing and return the background.
        let blue = Blue::new(4.0, 400.0);
        let obs = vec![PointObservation::new(GeoPoint::PARIS, 62.0, 2.0)];
        let loc = Localization::for_radius(400.0).tile(24);
        let full = blue.analyse_localized(&background(), &obs, &loc).unwrap();
        let partials: Vec<Grid> = (0..4)
            .map(|s| {
                blue.analyse_localized(&background(), &obs, &loc.shard(s, 4))
                    .unwrap()
            })
            .collect();
        assert_eq!(partials[1], background(), "unowned shard is background");
        assert_eq!(Blue::merge_shards(&background(), &partials), full);
    }

    #[test]
    #[should_panic(expected = "shard 2 of 2")]
    fn shard_index_must_be_in_range() {
        let _ = Localization::new(100.0).shard(2, 2);
    }

    #[test]
    #[should_panic(expected = "cutoff radius must be positive")]
    fn localization_rejects_zero_cutoff() {
        let _ = Localization::new(0.0);
    }

    #[test]
    fn innovation_stats_measure_bias() {
        let field = background();
        let obs = vec![
            PointObservation::new(GeoPoint::PARIS, 53.0, 1.0),
            PointObservation::new(
                GeoPoint::from_local_xy(GeoPoint::PARIS, 1_000.0, 0.0),
                53.0,
                1.0,
            ),
        ];
        let (mean, rms) = Blue::innovation_stats(&field, &obs);
        assert!((mean - 3.0).abs() < 1e-9);
        assert!((rms - 3.0).abs() < 1e-9);
        assert_eq!(Blue::innovation_stats(&field, &[]), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn observation_rejects_zero_sigma() {
        let _ = PointObservation::new(GeoPoint::PARIS, 60.0, 0.0);
    }
}
