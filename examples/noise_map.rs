//! Urban noise mapping and data assimilation (the Figure 4/5 workflows).
//!
//! Builds a synthetic city, simulates its noise map, generates noise
//! complaints, then corrects an imperfect background map with calibrated
//! crowd observations via BLUE assimilation — printing ASCII maps along
//! the way.
//!
//! ```sh
//! cargo run --release --example noise_map
//! ```

// Examples exist to print.
#![expect(clippy::print_stdout, reason = "an example reports to stdout")]

use soundcity::assim::{Blue, CityModel, ComplaintProcess, Grid, NoiseSimulator, PointObservation};
use soundcity::core::{CalibrationStrategy, CalibrationStudy};
use soundcity::simcore::SimRng;
use soundcity::types::GeoBounds;

/// Renders a field as ASCII art (quiet `.` to loud `#`).
fn render(map: &Grid) -> String {
    let min = map.values().iter().cloned().fold(f64::INFINITY, f64::min);
    let max = map
        .values()
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let ramp = [' ', '.', ':', '-', '=', '+', '*', '%', '#'];
    let mut out = String::new();
    for iy in (0..map.ny()).rev() {
        for ix in 0..map.nx() {
            let v = map.at(ix, iy);
            let t = if max > min {
                (v - min) / (max - min)
            } else {
                0.0
            };
            let idx = ((t * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1);
            out.push(ramp[idx]);
        }
        out.push('\n');
    }
    out
}

fn main() {
    let mut rng = SimRng::new(42);
    let bounds = GeoBounds::paris();

    // 1. A synthetic city and its simulated noise map.
    let city = CityModel::synthetic(bounds, 5, 50, &mut rng);
    println!(
        "Synthetic city: {} road segments, {} venues",
        city.roads().len(),
        city.venues().len()
    );
    let simulator = NoiseSimulator::new(city);
    let day_map = simulator.simulate(40, 20);
    println!(
        "\nSimulated noise map (day, {:.1}–{:.1} dB(A)):",
        day_map
            .values()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min),
        day_map
            .values()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    );
    print!("{}", render(&day_map));

    let night_map = simulator.simulate_at_hour(40, 20, 3);
    println!(
        "At 03:00 the city-mean level drops from {:.1} to {:.1} dB(A).",
        day_map.mean(),
        night_map.mean()
    );

    // 2. Figure 4: complaints correlate with noise.
    let process = ComplaintProcess::new(52.0, 0.5);
    let complaints = process.sample(&day_map, &mut rng);
    let r = ComplaintProcess::correlation(&day_map, &complaints).unwrap_or(0.0);
    println!(
        "\nFigure 4 workflow: {} complaints sampled, noise/complaint correlation r = {:.2}",
        complaints.len(),
        r
    );

    // 3. Figure 5 workflow: BLUE assimilation of point observations into
    //    a flat (wrong) background.
    let background = Grid::constant(bounds, 40, 20, day_map.mean());
    let blue = Blue::new(4.0, 1_200.0);
    let observations: Vec<PointObservation> = (0..60)
        .map(|_| {
            let at = bounds.lerp(rng.uniform_in(0.05, 0.95), rng.uniform_in(0.05, 0.95));
            PointObservation::new(at, day_map.sample(at).expect("inside"), 2.0)
        })
        .collect();
    let analysis = blue.analyse(&background, &observations).expect("analysis");
    println!(
        "\nBLUE assimilation of {} mobile observations:\n  background RMSE vs truth: {:.2} dB\n  analysis   RMSE vs truth: {:.2} dB",
        observations.len(),
        background.rmse(&day_map),
        analysis.rmse(&day_map)
    );

    // 4. The calibration-granularity ablation (Section 5.2 claim).
    println!("\nCalibration-granularity ablation:");
    let study = CalibrationStudy::new(42);
    for strategy in CalibrationStrategy::ALL {
        println!("  {:<20} {}", strategy.label(), study.run(strategy));
    }
}
