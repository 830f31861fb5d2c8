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
//!
//! # How a day is scheduled
//!
//! The day's observations are checked and dealt into 24 buckets in one
//! pass; the 24 backgrounds are copies of the day the simulator keeps
//! ([`NoiseSimulator::simulate_day`]): it measures every cell against
//! every source once per grid shape, on the first call of any of its
//! `simulate` methods, and every later run on that shape reads those
//! maps. The 24 analyses share nothing, so
//! `std::thread::available_parallelism()` workers, the calling thread
//! among them, each take the next unstarted hour from a shared counter
//! until none is left. Which worker solves which hour varies from run to
//! run; nothing else does: every hour's map is the same single-threaded
//! [`Blue::analyse`], maps come back in hour order, and of several failing
//! hours the earliest is reported.

use crate::blue::{available_threads, Blue, PointObservation};
use crate::grid::Grid;
use crate::noise::NoiseSimulator;
use crate::telemetry::telemetry;
use crate::AssimError;
use mps_telemetry::trace::{FlightRecorder, Hop, Outcome, SpanRecord, TraceId};
use mps_telemetry::SpanTimer;
use mps_types::GeoPoint;
use std::sync::atomic::{AtomicUsize, Ordering};

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

impl HourlyObservation {
    /// The hour as an index into the day and the observation as BLUE
    /// takes it, provided the hour is one and the error is one
    /// [`PointObservation::new`] does not panic on.
    fn checked(&self) -> Result<(usize, PointObservation), AssimError> {
        if self.hour < 24 && PointObservation::is_valid_error(self.sigma_db) {
            let point = PointObservation::new(self.at, self.value_db, self.sigma_db);
            Ok((self.hour as usize, point))
        } else {
            Err(AssimError::InvalidObservation {
                hour: self.hour,
                sigma_db: self.sigma_db,
            })
        }
    }
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

    /// Runs the 24 hourly analyses: the background of hour `h` is
    /// `model.simulate_day(..)[h]`, corrected by the observations stamped
    /// with hour `h`. Hours without observations keep their background.
    ///
    /// The hours are independent, so they are solved on as many threads
    /// as the machine offers; the maps do not depend on that number.
    ///
    /// # Errors
    ///
    /// Returns [`AssimError::InvalidObservation`] for the first
    /// observation whose hour is not in `0..24` or whose error is not
    /// positive and finite, before anything is solved. Otherwise
    /// propagates BLUE errors (an observation outside the model's grid,
    /// singular covariance), the earliest failing hour's if several fail.
    pub fn run(
        &self,
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
    ) -> Result<DiurnalField, AssimError> {
        self.run_on(available_threads(), model, observations)
    }

    /// [`DiurnalAnalysis::run`] on at most `workers` threads, the calling
    /// one included.
    fn run_on(
        &self,
        workers: usize,
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
    ) -> Result<DiurnalField, AssimError> {
        let metrics = telemetry();
        metrics.hourly_runs.inc();
        let _timer = SpanTimer::start(&metrics.hourly_run_seconds);
        let mut by_hour: [Vec<PointObservation>; 24] = Default::default();
        for observation in observations {
            let (hour, point) = observation.checked()?;
            by_hour[hour].push(point);
        }
        let mut maps = model.simulate_day(self.nx, self.ny);

        // Each worker takes the next hour nobody has started until none
        // is left. The counter hands out tickets and publishes nothing,
        // so `Relaxed` is enough; the scope's joins publish the results.
        let next_hour = AtomicUsize::new(0);
        let solve_hours = || {
            let mut solved = Vec::new();
            loop {
                let hour = next_hour.fetch_add(1, Ordering::Relaxed);
                if hour >= 24 {
                    return solved;
                }
                if !by_hour[hour].is_empty() {
                    solved.push((hour, self.blue.analyse(&maps[hour], &by_hour[hour])));
                }
            }
        };
        let busy_hours = by_hour.iter().filter(|obs| !obs.is_empty()).count();
        let mut solved = std::thread::scope(|scope| {
            // The caller is a worker too: one thread fewer to start, and
            // one allocator arena fewer to keep.
            let spawned: Vec<_> = (1..workers.min(busy_hours))
                .map(|_| scope.spawn(solve_hours))
                .collect();
            let mut solved = solve_hours();
            for worker in spawned {
                match worker.join() {
                    Ok(theirs) => solved.extend(theirs),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            solved
        });
        solved.sort_by_key(|(hour, _)| *hour);
        for (hour, analysis) in solved {
            maps[hour] = analysis?;
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
    /// Returns [`AssimError::InvalidObservation`] as
    /// [`DiurnalAnalysis::run`] does, and propagates BLUE errors.
    pub fn run_static(
        &self,
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
    ) -> Result<DiurnalField, AssimError> {
        let metrics = telemetry();
        metrics.hourly_runs.inc();
        let _timer = SpanTimer::start(&metrics.hourly_run_seconds);
        let background = model.simulate(self.nx, self.ny);
        let pooled = observations
            .iter()
            .map(|o| o.checked().map(|(_, point)| point))
            .collect::<Result<Vec<_>, _>>()?;
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
    use crate::grid::assert_same_bits;
    use crate::noise::per_cell_map;
    use mps_simcore::check::{check, size};
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

    /// The run written out hour after hour on one thread, each hour
    /// writing its own background cell by cell and picking its
    /// observations out of the day: the oracle for the simulator's day
    /// and the workers.
    fn sequential_reference(
        blue: Blue,
        (nx, ny): (usize, usize),
        model: &NoiseSimulator,
        observations: &[HourlyObservation],
    ) -> Vec<Grid> {
        (0..24u32)
            .map(|hour| {
                let background = per_cell_map(model, nx, ny, hour);
                let hour_obs: Vec<PointObservation> = observations
                    .iter()
                    .filter(|o| o.hour == hour)
                    .map(|o| PointObservation::new(o.at, o.value_db, o.sigma_db))
                    .collect();
                if hour_obs.is_empty() {
                    background
                } else {
                    blue.analyse(&background, &hour_obs).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn run_keeps_the_bits_of_the_sequential_run_on_any_worker_count() {
        check(|r| {
            let city = CityModel::synthetic(GeoBounds::paris(), size(r, 1, 4), size(r, 0, 10), r);
            let model = NoiseSimulator::new(city);
            let shape = (size(r, 2, 9), size(r, 2, 9));
            // A few busy hours, out of order in the input; the rest of
            // the day has nothing and must come back as the background.
            let busy: Vec<u32> = (0..size(r, 0, 5)).map(|_| r.index(24) as u32).collect();
            let observations: Vec<HourlyObservation> = (0..busy.len() * size(r, 1, 8))
                .map(|_| HourlyObservation {
                    at: GeoBounds::paris().lerp(r.uniform(), r.uniform()),
                    value_db: r.uniform_in(35.0, 75.0),
                    sigma_db: r.uniform_in(0.5, 4.0),
                    hour: *r.pick(&busy),
                })
                .collect();
            let blue = Blue::new(r.uniform_in(1.0, 6.0), r.uniform_in(300.0, 2_500.0));
            let analysis = DiurnalAnalysis::new(blue, shape.0, shape.1);
            let reference = sequential_reference(blue, shape, &model, &observations);
            // One worker, and more workers than there are hours to solve.
            for workers in [1, 2, busy.len() + 3] {
                let field = analysis.run_on(workers, &model, &observations).unwrap();
                for (hour, want) in (0u32..).zip(&reference) {
                    let got = field.at_hour(hour);
                    assert_same_bits(got, want, &format!("{workers} workers, hour {hour}"));
                    if !busy.contains(&hour) {
                        assert_eq!(got, &model.simulate_at_hour(shape.0, shape.1, hour));
                    }
                }
            }
        });
    }

    #[test]
    fn the_earliest_failing_hour_is_the_one_reported() {
        let (_, model_sim, truth) = setup();
        let mut obs = observations_of_truth(&truth, 3, 5);
        // Two hours each hold an observation off the grid; the later one
        // comes first in the input and is the cheaper hour to reach.
        let outside = |lat, hour| HourlyObservation {
            at: GeoPoint::new(lat, 0.0),
            value_db: 60.0,
            sigma_db: 1.5,
            hour,
        };
        obs.insert(0, outside(17.0, 17));
        obs.push(outside(5.0, 5));
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);
        for workers in [1, 2, 4, 30] {
            assert_eq!(
                analysis.run_on(workers, &model_sim, &obs).unwrap_err(),
                AssimError::ObservationOutsideGrid { lat: 5.0, lon: 0.0 },
                "{workers} workers"
            );
        }
    }

    #[test]
    fn an_unusable_error_is_an_error_not_a_panic() {
        let (_, model_sim, truth) = setup();
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);
        for sigma_db in [0.0, -1.5, f64::NAN, f64::INFINITY] {
            let mut obs = observations_of_truth(&truth, 2, 6);
            obs[7].sigma_db = sigma_db;
            let hour = obs[7].hour;
            for result in [
                analysis.run(&model_sim, &obs),
                analysis.run_static(&model_sim, &obs),
            ] {
                match result.unwrap_err() {
                    AssimError::InvalidObservation {
                        hour: h,
                        sigma_db: s,
                    } => {
                        assert_eq!(h, hour);
                        assert_eq!(s.to_bits(), sigma_db.to_bits());
                    }
                    other => panic!("sigma {sigma_db}: {other}"),
                }
            }
        }
    }

    #[test]
    fn an_hour_past_the_day_is_an_error_not_dropped() {
        let (_, model_sim, truth) = setup();
        let analysis = DiurnalAnalysis::new(Blue::new(4.0, 1_500.0), 16, 16);
        for hour in [24, 25, u32::MAX] {
            let mut obs = observations_of_truth(&truth, 2, 7);
            obs[3].hour = hour;
            let invalid = AssimError::InvalidObservation {
                hour,
                sigma_db: 1.5,
            };
            assert_eq!(analysis.run(&model_sim, &obs).unwrap_err(), invalid);
            assert_eq!(analysis.run_static(&model_sim, &obs).unwrap_err(), invalid);
        }
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
