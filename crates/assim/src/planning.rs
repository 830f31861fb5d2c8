//! Sensing planning and crowd-based inference (Section 8).
//!
//! Two of the paper's closing research directions, implemented on top of
//! the BLUE machinery:
//!
//! * "the sensing times and locations could be chosen accordingly, with
//!   the objective of collecting the most informative data while limiting
//!   energy consumption" — [`SensingPlanner`] greedily picks the
//!   locations where the analysis is most uncertain (maximum BLUE
//!   posterior variance), updating the uncertainty after each pick;
//! * "some missing data for one individual user may also be inferred from
//!   the crowd measurements" — [`infer_exposure`] reads a user's expected
//!   exposure along a trajectory off the crowd's hourly analysis, filling
//!   the gaps their own phone did not measure.

use crate::blue::{Blue, PointObservation};
use crate::hourly::DiurnalField;
use crate::matrix::Matrix;
use crate::AssimError;
use mps_types::{GeoPoint, SoundLevel};

/// Posterior-variance view of a BLUE analysis: how uncertain the analysed
/// field remains at each point, given the observation set.
///
/// For BLUE with background covariance `B` and innovation covariance
/// `S = H B Hᵀ + R`, the analysis-error variance at a point `p` is
/// `σ_b² − k(p)ᵀ S⁻¹ k(p)` with `k(p)_i = cov(p, obs_i)`.
#[derive(Debug, Clone)]
pub struct PosteriorVariance {
    blue: Blue,
    locations: Vec<GeoPoint>,
    /// Innovation covariance, refactored on each update (observation
    /// counts in planning are small).
    s: Matrix,
}

impl PosteriorVariance {
    /// Builds the posterior for an observation set.
    ///
    /// # Errors
    ///
    /// Returns [`AssimError::SingularCovariance`] if the innovation
    /// covariance cannot be factored.
    pub fn new(blue: Blue, observations: &[PointObservation]) -> Result<Self, AssimError> {
        let locations: Vec<GeoPoint> = observations.iter().map(|o| o.at).collect();
        let m = observations.len();
        let s = if m == 0 {
            Matrix::zeros(1, 1) // placeholder; variance() special-cases m = 0
        } else {
            let s = Matrix::from_fn(m, m, |i, j| {
                let mut v = blue.covariance(locations[i], locations[j]);
                if i == j {
                    v += observations[i].sigma_db * observations[i].sigma_db;
                }
                v
            });
            // Validate factorability once up front.
            s.solve_spd(&vec![0.0; m])?;
            s
        };
        Ok(Self { blue, locations, s })
    }

    /// Number of observations constraining the posterior.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether no observations constrain the posterior.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Analysis-error variance at `p` (dB²). Equals the background
    /// variance far from every observation and shrinks toward zero next
    /// to a trusted one.
    pub fn variance_at(&self, p: GeoPoint) -> f64 {
        let prior = self.blue.covariance(p, p);
        if self.locations.is_empty() {
            return prior;
        }
        let k: Vec<f64> = self
            .locations
            .iter()
            .map(|loc| self.blue.covariance(p, *loc))
            .collect();
        match self.s.solve_spd(&k) {
            Ok(w) => (prior - k.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>()).max(0.0),
            Err(_) => prior,
        }
    }
}

/// Greedy informativeness-driven sensing planner.
#[derive(Debug, Clone, Copy)]
pub struct SensingPlanner {
    /// BLUE parameters of the underlying analysis.
    pub blue: Blue,
    /// Observation error assumed for the *planned* measurements, dB.
    pub sigma_o_db: f64,
}

impl SensingPlanner {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_o_db` is not strictly positive.
    pub fn new(blue: Blue, sigma_o_db: f64) -> Self {
        assert!(sigma_o_db > 0.0, "sigma_o must be positive");
        Self { blue, sigma_o_db }
    }

    /// Picks `n` sensing locations from `candidates`, greedily maximising
    /// the current posterior variance and conditioning on each pick
    /// before the next (so picks spread out instead of clustering).
    ///
    /// # Errors
    ///
    /// Propagates [`AssimError::SingularCovariance`] from posterior
    /// updates.
    pub fn plan(
        &self,
        existing: &[PointObservation],
        candidates: &[GeoPoint],
        n: usize,
    ) -> Result<Vec<GeoPoint>, AssimError> {
        let mut virtual_obs: Vec<PointObservation> = existing.to_vec();
        let mut picks = Vec::with_capacity(n);
        for _ in 0..n.min(candidates.len()) {
            let posterior = PosteriorVariance::new(self.blue, &virtual_obs)?;
            let best = candidates
                .iter()
                .filter(|c| !picks.contains(*c))
                .max_by(|a, b| {
                    posterior
                        .variance_at(**a)
                        .partial_cmp(&posterior.variance_at(**b))
                        .expect("finite variances")
                });
            let Some(best) = best else { break };
            picks.push(*best);
            // Condition on the planned measurement (value irrelevant for
            // variance computations; 0 is a placeholder).
            virtual_obs.push(PointObservation::new(*best, 0.0, self.sigma_o_db));
        }
        Ok(picks)
    }
}

/// Infers a user's noise exposure along a trajectory from the crowd's
/// hourly analysis: for each `(point, hour)` visit the field is sampled,
/// and the visits combine into an energy-equivalent Leq — the crowd
/// filling in what the user's own phone did not measure.
///
/// Returns `None` if no visit falls inside the analysed area.
pub fn infer_exposure(field: &DiurnalField, trajectory: &[(GeoPoint, u32)]) -> Option<SoundLevel> {
    let levels: Vec<SoundLevel> = trajectory
        .iter()
        .filter_map(|(p, hour)| field.sample(*p, *hour).map(SoundLevel::new))
        .collect();
    if levels.is_empty() {
        None
    } else {
        Some(SoundLevel::leq(&levels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityModel;
    use crate::hourly::DiurnalAnalysis;
    use crate::noise::NoiseSimulator;
    use mps_simcore::SimRng;
    use mps_types::GeoBounds;

    fn bounds() -> GeoBounds {
        GeoBounds::paris()
    }

    fn blue() -> Blue {
        Blue::new(4.0, 1_000.0)
    }

    #[test]
    fn posterior_variance_is_prior_without_observations() {
        let posterior = PosteriorVariance::new(blue(), &[]).unwrap();
        assert!(posterior.is_empty());
        let v = posterior.variance_at(GeoPoint::PARIS);
        assert!((v - 16.0).abs() < 1e-9, "prior variance {v}");
    }

    #[test]
    fn observations_reduce_variance_nearby() {
        let obs = vec![PointObservation::new(GeoPoint::PARIS, 55.0, 1.0)];
        let posterior = PosteriorVariance::new(blue(), &obs).unwrap();
        assert_eq!(posterior.len(), 1);
        let at_obs = posterior.variance_at(GeoPoint::PARIS);
        let far = posterior.variance_at(GeoPoint::from_local_xy(GeoPoint::PARIS, 8_000.0, 0.0));
        assert!(at_obs < 2.0, "variance at observation {at_obs}");
        assert!(far > 14.0, "variance far away {far}");
    }

    #[test]
    fn trusted_observations_reduce_variance_more() {
        let precise =
            PosteriorVariance::new(blue(), &[PointObservation::new(GeoPoint::PARIS, 55.0, 0.5)])
                .unwrap()
                .variance_at(GeoPoint::PARIS);
        let noisy =
            PosteriorVariance::new(blue(), &[PointObservation::new(GeoPoint::PARIS, 55.0, 6.0)])
                .unwrap()
                .variance_at(GeoPoint::PARIS);
        assert!(precise < noisy);
    }

    #[test]
    fn planner_spreads_picks() {
        // Candidates on a line; one existing observation at the west end.
        let west = bounds().lerp(0.1, 0.5);
        let existing = vec![PointObservation::new(west, 50.0, 1.0)];
        let candidates: Vec<GeoPoint> = (0..10)
            .map(|i| bounds().lerp(0.05 + 0.09 * i as f64, 0.5))
            .collect();
        let picks = SensingPlanner::new(blue(), 2.0)
            .plan(&existing, &candidates, 3)
            .unwrap();
        assert_eq!(picks.len(), 3);
        // First pick is far from the existing observation.
        assert!(west.distance_m(picks[0]) > 5_000.0, "first pick too close");
        // Picks are mutually distant (conditioning prevents clustering).
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(
                    picks[i].distance_m(picks[j]) > 1_500.0,
                    "picks {i} and {j} cluster"
                );
            }
        }
    }

    #[test]
    fn planned_points_reduce_total_uncertainty_more_than_clustered_ones() {
        let existing = vec![PointObservation::new(bounds().lerp(0.5, 0.5), 50.0, 1.0)];
        let candidates: Vec<GeoPoint> = (0..25)
            .map(|i| {
                bounds().lerp(
                    0.1 + 0.8 * (i % 5) as f64 / 4.0,
                    0.1 + 0.8 * (i / 5) as f64 / 4.0,
                )
            })
            .collect();
        let planner = SensingPlanner::new(blue(), 2.0);
        let picks = planner.plan(&existing, &candidates, 4).unwrap();

        let total_variance = |extra: &[GeoPoint]| {
            let mut obs = existing.clone();
            for p in extra {
                obs.push(PointObservation::new(*p, 0.0, 2.0));
            }
            let posterior = PosteriorVariance::new(blue(), &obs).unwrap();
            candidates
                .iter()
                .map(|c| posterior.variance_at(*c))
                .sum::<f64>()
        };
        // Clustered baseline: all four measurements at the same candidate.
        // Compare the *reduction* in summed variance each strategy buys
        // (with a 1 km correlation radius, absolute totals stay dominated
        // by far-away candidates).
        let clustered = vec![candidates[0]; 4];
        let baseline = total_variance(&[]);
        let planned_reduction = baseline - total_variance(&picks);
        let clustered_reduction = baseline - total_variance(&clustered);
        assert!(
            planned_reduction > 1.5 * clustered_reduction,
            "planned reduction {planned_reduction} vs clustered {clustered_reduction}"
        );
    }

    #[test]
    fn plan_handles_degenerate_inputs() {
        let planner = SensingPlanner::new(blue(), 2.0);
        assert!(planner.plan(&[], &[], 3).unwrap().is_empty());
        let one = vec![GeoPoint::PARIS];
        assert_eq!(planner.plan(&[], &one, 5).unwrap().len(), 1);
    }

    #[test]
    fn inferred_exposure_matches_field() {
        // Crowd analysis of a synthetic city; a user walks through it at
        // 18:00 without measuring — their exposure is inferred.
        let mut rng = SimRng::new(51);
        let city = CityModel::synthetic(bounds(), 4, 30, &mut rng);
        let sim = NoiseSimulator::new(city);
        let analysis = DiurnalAnalysis::new(blue(), 12, 12);
        let field = analysis.run(&sim, &[]).unwrap(); // pure model field

        let trajectory: Vec<(GeoPoint, u32)> = (0..8)
            .map(|i| (bounds().lerp(0.2 + 0.07 * i as f64, 0.5), 18))
            .collect();
        let inferred = infer_exposure(&field, &trajectory).unwrap();
        // Energy mean of the sampled levels, recomputed by hand.
        let by_hand = SoundLevel::leq(
            &trajectory
                .iter()
                .map(|(p, h)| SoundLevel::new(field.sample(*p, *h).unwrap()))
                .collect::<Vec<_>>(),
        );
        assert!((inferred.db() - by_hand.db()).abs() < 1e-9);
        assert!(inferred.db() > 30.0 && inferred.db() < 90.0);
    }

    #[test]
    fn inference_outside_area_is_none() {
        let mut rng = SimRng::new(53);
        let city = CityModel::synthetic(bounds(), 3, 10, &mut rng);
        let sim = NoiseSimulator::new(city);
        let field = DiurnalAnalysis::new(blue(), 8, 8).run(&sim, &[]).unwrap();
        assert_eq!(
            infer_exposure(&field, &[(GeoPoint::new(0.0, 0.0), 12)]),
            None
        );
        assert_eq!(infer_exposure(&field, &[]), None);
    }

    #[test]
    fn hourly_field_inference_tracks_time_of_day() {
        let mut rng = SimRng::new(55);
        let city = CityModel::synthetic(bounds(), 4, 30, &mut rng);
        let sim = NoiseSimulator::new(city);
        let field = DiurnalAnalysis::new(blue(), 12, 12).run(&sim, &[]).unwrap();
        let path: Vec<GeoPoint> = (0..5)
            .map(|i| bounds().lerp(0.3 + 0.1 * i as f64, 0.5))
            .collect();
        let day: Vec<(GeoPoint, u32)> = path.iter().map(|p| (*p, 18)).collect();
        let night: Vec<(GeoPoint, u32)> = path.iter().map(|p| (*p, 3)).collect();
        let day_leq = infer_exposure(&field, &day).unwrap();
        let night_leq = infer_exposure(&field, &night).unwrap();
        assert!(day_leq.db() > night_leq.db() + 4.0);
    }

    #[test]
    #[should_panic(expected = "sigma_o must be positive")]
    fn planner_rejects_bad_sigma() {
        let _ = SensingPlanner::new(blue(), 0.0);
    }
}
