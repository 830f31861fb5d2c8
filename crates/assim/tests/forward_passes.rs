//! How often the forward model runs for the calls an hourly analysis
//! batch makes. The count is read from the process-wide registry, so this
//! binary holds this one test and nothing else fills a simulator's day
//! while it counts.

use mps_assim::{Blue, CityModel, DiurnalAnalysis, HourlyObservation, NoiseSimulator, Road};
use mps_simcore::SimRng;
use mps_telemetry::Registry;
use mps_types::GeoBounds;

const NX: usize = 24;
const NY: usize = 20;

fn forward_passes() -> u64 {
    Registry::global()
        .counter_value("assim_forward_passes_total")
        .unwrap_or(0)
}

#[test]
fn a_day_of_hourly_analyses_runs_one_pass_per_simulator() {
    // A truth city and a forward model of it with quieter roads and no
    // venues, as an analysis batch sets them up.
    let bounds = GeoBounds::paris();
    let city = CityModel::synthetic(bounds, 4, 30, &mut SimRng::new(1));
    let quieter: Vec<Road> = city
        .roads()
        .iter()
        .map(|r| Road {
            emission_db: r.emission_db - 4.0,
            ..*r
        })
        .collect();
    let truth = NoiseSimulator::new(city);
    let model = NoiseSimulator::new(CityModel::new(bounds, quieter, vec![]));
    let before = forward_passes();

    let truth_maps: Vec<_> = (0..24).map(|h| truth.simulate_at_hour(NX, NY, h)).collect();
    assert_eq!(forward_passes() - before, 1, "24 truth maps");

    // The background's error, a day of analyses, then one hour's map.
    let mut rng = SimRng::new(2);
    let observations: Vec<HourlyObservation> = (0..48u32)
        .map(|i| {
            let at = bounds.lerp(rng.uniform_in(0.1, 0.9), rng.uniform_in(0.1, 0.9));
            let hour = i % 24;
            HourlyObservation {
                at,
                value_db: truth_maps[hour as usize]
                    .sample(at)
                    .expect("inside the grid"),
                sigma_db: 1.5,
                hour,
            }
        })
        .collect();
    for hour in 0..24 {
        let background = model.simulate_at_hour(NX, NY, hour);
        assert!(background.rmse(&truth_maps[hour as usize]) > 0.0);
    }
    let field = DiurnalAnalysis::new(Blue::new(4.0, 800.0), NX, NY)
        .run(&model, &observations)
        .expect("every observation is on the grid");
    assert_eq!(field.at_hour(23).len(), NX * NY);
    assert_eq!(model.simulate(NX, NY).len(), NX * NY);
    assert_eq!(
        forward_passes() - before,
        2,
        "one truth pass, one model pass"
    );
}
