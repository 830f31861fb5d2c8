//! Time-varying (hourly) assimilation.
//!
//! The paper's closing research direction: "advanced spatial-temporal
//! processing of all the data can produce unique information about the
//! entire environment, especially in urban areas where complex, fast
//! varying (in time and space) phenomena continuously occur" — and calls
//! for "adapted data assimilation algorithms that merge traditional
//! simulations ... with fixed and mobile observations" (Section 8).
//!
//! [`DiurnalAnalysis`] is the first step on that path: the day is split
//! into 24 hourly windows, each with its own simulated background (the
//! forward model's hourly modulation) corrected by that hour's mobile
//! observations. A static all-day analysis cannot track the diurnal
//! cycle; the hourly analysis does.

use crate::blue::{Blue, PointObservation};
use crate::grid::Grid;
use crate::noise::NoiseSimulator;
use crate::telemetry::telemetry;
use crate::AssimError;
use mps_telemetry::trace::{FlightRecorder, Hop, Outcome, SpanRecord, TraceId};
use mps_telemetry::SpanTimer;
use mps_types::GeoPoint;

/// A timestamped observation for time-varying assimilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourlyObservation {
    /// Where the measurement was taken.
    pub at: GeoPoint,
    /// Measured level, dB(A).
    pub value_db: f64,
    /// Observation-error standard deviation, dB.
    pub sigma_db: f64,
    /// Hour of day of the capture, `0..24`.
    pub hour: u32,
}

/// A field with one analysis per hour of day.
#[derive(Debug, Clone)]
pub struct DiurnalField {
    maps: Vec<Grid>,
}

impl DiurnalField {
    /// The analysis for one hour.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn at_hour(&self, hour: u32) -> &Grid {
        &self.maps[hour as usize]
    }

    /// Samples the field at a point and hour, or `None` outside the grid.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn sample(&self, point: GeoPoint, hour: u32) -> Option<f64> {
        self.maps[hour as usize].sample(point)
    }

    /// RMSE against a reference per-hour truth (24 grids).
    ///
    /// # Panics
    ///
    /// Panics if `truth` does not hold 24 grids of matching shape.
    pub fn rmse_against(&self, truth: &[Grid]) -> f64 {
        assert_eq!(truth.len(), 24, "need 24 hourly truth grids");
        let total: f64 = self
            .maps
            .iter()
            .zip(truth)
            .map(|(a, t)| a.rmse(t).powi(2))
            .sum();
        (total / 24.0).sqrt()
    }
}

/// Hour-by-hour BLUE assimilation against the forward model's hourly
/// backgrounds.
#[derive(Debug, Clone)]
pub struct DiurnalAnalysis {
    blue: Blue,
    nx: usize,
    ny: usize,
}

impl DiurnalAnalysis {
    /// Creates the analysis with BLUE parameters and a grid shape.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn new(blue: Blue, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        Self { blue, nx, ny }
    }

    /// Runs the 24 hourly analyses: the background of hour `h` comes from
    /// `model.simulate_at_hour(h)`, corrected by the observations stamped
    /// with hour `h`. Hours without observations keep their background.
    ///
    /// # Errors
    ///
    /// Propagates BLUE errors (an observation outside the model's grid,
    /// singular covariance).
    pub fn run(
        &self,
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
    ) -> Result<DiurnalField, AssimError> {
        let metrics = telemetry();
        metrics.hourly_runs.inc();
        let _timer = SpanTimer::start(&metrics.hourly_run_seconds);
        let mut maps = Vec::with_capacity(24);
        for hour in 0..24u32 {
            let background = model.simulate_at_hour(self.nx, self.ny, hour);
            let hour_obs: Vec<PointObservation> = observations
                .iter()
                .filter(|o| o.hour == hour)
                .map(|o| PointObservation::new(o.at, o.value_db, o.sigma_db))
                .collect();
            let analysis = if hour_obs.is_empty() {
                background
            } else {
                self.blue.analyse(&background, &hour_obs)?
            };
            maps.push(analysis);
        }
        Ok(DiurnalField { maps })
    }

    /// Runs the 24 hourly analyses like [`DiurnalAnalysis::run`] and
    /// records the **fan-in** of the tracing layer: one `assim_batch`
    /// span in the global [`FlightRecorder`] that links every member
    /// observation's trace — the point where many per-observation traces
    /// converge into one analysis product. The batch gets its own
    /// deterministic trace id (derived from the member set and `now_ms`),
    /// so batch spans never collide with observation traces.
    ///
    /// # Errors
    ///
    /// Propagates BLUE errors; no batch span is recorded for a failed
    /// analysis.
    pub fn run_traced(
        &self,
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
        members: &[TraceId],
        window: &str,
        now_ms: i64,
    ) -> Result<DiurnalField, AssimError> {
        let field = self.run(model, observations)?;
        let fold = members
            .iter()
            .fold(0xa55e_55ed_b47cu64, |acc, t| acc.rotate_left(7) ^ t.raw());
        let mut span = SpanRecord::new(
            TraceId::for_observation(fold, now_ms),
            Hop::AssimBatch,
            now_ms,
        )
        .outcome(Outcome::Ok)
        .attr("window", window)
        .attr("members", members.len().to_string());
        for member in members {
            span = span.link(*member);
        }
        FlightRecorder::global().record(span);
        Ok(field)
    }

    /// Baseline for comparison: one static analysis from the day-reference
    /// background and *all* observations pooled (ignoring their hours),
    /// replicated over the 24 hours.
    ///
    /// # Errors
    ///
    /// Propagates BLUE errors.
    pub fn run_static(
        &self,
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
    ) -> Result<DiurnalField, AssimError> {
        let metrics = telemetry();
        metrics.hourly_runs.inc();
        let _timer = SpanTimer::start(&metrics.hourly_run_seconds);
        let background = model.simulate(self.nx, self.ny);
        let pooled: Vec<PointObservation> = observations
            .iter()
            .map(|o| PointObservation::new(o.at, o.value_db, o.sigma_db))
            .collect();
        let analysis = if pooled.is_empty() {
            background
        } else {
            self.blue.analyse(&background, &pooled)?
        };
        Ok(DiurnalField {
            maps: vec![analysis; 24],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityModel;
    use mps_simcore::SimRng;
    use mps_types::GeoBounds;

    fn setup() -> (NoiseSimulator, NoiseSimulator, Vec<Grid>) {
        // Truth: the full city. Model: a degraded inventory (quieter
        // roads, no venues), so assimilation has real work to do.
        let mut rng = SimRng::new(41);
        let city = CityModel::synthetic(GeoBounds::paris(), 4, 30, &mut rng);
        let truth_sim = NoiseSimulator::new(city.clone());
        let degraded: Vec<crate::Road> = city
            .roads()
            .iter()
            .map(|r| crate::Road {
                a: r.a,
                b: r.b,
                emission_db: r.emission_db - 4.0,
            })
            .collect();
        let model_sim = NoiseSimulator::new(CityModel::new(GeoBounds::paris(), degraded, vec![]));
        let truth: Vec<Grid> = (0..24)
            .map(|h| truth_sim.simulate_at_hour(16, 16, h))
            .collect();
        (truth_sim, model_sim, truth)
    }

    fn observations_of_truth(truth: &[Grid], per_hour: usize, seed: u64) -> Vec<HourlyObservation> {
        let mut rng = SimRng::new(seed);
        let bounds = GeoBounds::paris();
        let mut out = Vec::new();
        for hour in 0..24u32 {
            for _ in 0..per_hour {
                let at = bounds.lerp(rng.uniform_in(0.05, 0.95), rng.uniform_in(0.05, 0.95));
                let level = truth[hour as usize].sample(at).unwrap() + rng.normal(0.0, 1.0);
                out.push(HourlyObservation {
                    at,
                    value_db: level,
                    sigma_db: 1.5,
                    hour,
                });
            }
        }
        out
    }

    #[test]
    fn hourly_analysis_tracks_the_diurnal_cycle() {
        let (_truth_sim, model_sim, truth) = setup();
        let obs = observations_of_truth(&truth, 12, 1);
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);

        let hourly = analysis.run(&model_sim, &obs).unwrap();
        let static_field = analysis.run_static(&model_sim, &obs).unwrap();

        let hourly_rmse = hourly.rmse_against(&truth);
        let static_rmse = static_field.rmse_against(&truth);
        assert!(
            hourly_rmse < static_rmse * 0.75,
            "hourly {hourly_rmse:.2} dB must beat static {static_rmse:.2} dB"
        );
    }

    #[test]
    fn night_and_day_analyses_differ() {
        let (_, model_sim, truth) = setup();
        let obs = observations_of_truth(&truth, 8, 2);
        let field = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16)
            .run(&model_sim, &obs)
            .unwrap();
        let p = GeoBounds::paris().center();
        let day = field.sample(p, 18).unwrap();
        let night = field.sample(p, 3).unwrap();
        assert!(day > night + 4.0, "day {day} vs night {night}");
    }

    #[test]
    fn empty_hours_fall_back_to_background() {
        let (_, model_sim, truth) = setup();
        // Observations only at noon.
        let obs: Vec<HourlyObservation> = observations_of_truth(&truth, 10, 3)
            .into_iter()
            .filter(|o| o.hour == 12)
            .collect();
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);
        let field = analysis.run(&model_sim, &obs).unwrap();
        // Hour 3 equals the raw background (no correction applied).
        let background = model_sim.simulate_at_hour(16, 16, 3);
        assert_eq!(field.at_hour(3), &background);
        // Hour 12 was corrected away from its background.
        let noon_bg = model_sim.simulate_at_hour(16, 16, 12);
        assert!(field.at_hour(12).rmse(&noon_bg) > 0.1);
    }

    #[test]
    fn no_observations_reproduces_the_model() {
        let (_, model_sim, _) = setup();
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_000.0), 16, 16);
        let field = analysis.run(&model_sim, &[]).unwrap();
        let static_field = analysis.run_static(&model_sim, &[]).unwrap();
        assert_eq!(field.at_hour(8), static_field.at_hour(8));
    }

    #[test]
    fn run_traced_records_a_fan_in_span_linking_members() {
        let (_, model_sim, truth) = setup();
        let obs = observations_of_truth(&truth, 2, 4);
        let members: Vec<TraceId> = (0..obs.len() as u64)
            .map(|i| TraceId::for_observation(880_000 + i, 0))
            .collect();
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);
        let field = analysis
            .run_traced(&model_sim, &obs, &members, "day-1", 86_400_000)
            .unwrap();
        assert_eq!(field.at_hour(0).sample(GeoBounds::paris().center()), {
            analysis
                .run(&model_sim, &obs)
                .unwrap()
                .at_hour(0)
                .sample(GeoBounds::paris().center())
        });

        let batch = FlightRecorder::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.hop == Hop::AssimBatch)
            .find(|s| s.links == members)
            .expect("fan-in span recorded");
        assert_eq!(batch.outcome, Outcome::Ok);
        assert_eq!(batch.start_ms, 86_400_000);
        assert!(batch
            .attrs
            .iter()
            .any(|(k, v)| *k == "members" && v == &members.len().to_string()));
        assert!(!members.contains(&batch.trace), "own trace id");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero_grid() {
        let _ = DiurnalAnalysis::new(Blue::new(4.0, 1_000.0), 0, 16);
    }

    #[test]
    #[should_panic(expected = "24 hourly truth grids")]
    fn rmse_checks_truth_length() {
        let (_, model_sim, _) = setup();
        let field = DiurnalAnalysis::new(Blue::new(4.0, 1_000.0), 16, 16)
            .run(&model_sim, &[])
            .unwrap();
        let _ = field.rmse_against(&[]);
    }
}
