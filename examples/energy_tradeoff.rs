//! The energy-delay tradeoff (Figures 16–17 and the buffering ablation).
//!
//! Runs the paper's battery-depletion lab, then sweeps the client's
//! buffering factor to show the continuous tradeoff the paper's v1.3
//! design point (N = 10) sits on.
//!
//! ```sh
//! cargo run --release --example energy_tradeoff
//! ```

// Examples exist to print.
#![expect(clippy::print_stdout, reason = "an example reports to stdout")]

use soundcity::core::{BatteryLab, BatteryScenario};
use soundcity::mobile::{BatteryModel, BatteryParams, RadioKind};
use soundcity::types::SimDuration;

/// Energy spent (in joules) and mean added delay (in minutes) of one
/// 7-hour sensing day with 1-minute measurements and buffering factor
/// `n`.
fn sweep_point(n: usize) -> (f64, f64) {
    let params = BatteryParams::default();
    let mut battery = BatteryModel::new(params, 1.0);
    let start = battery.soc();
    let minutes = 7 * 60;
    let mut pending = 0usize;
    for _ in 0..minutes {
        battery.drain_idle(SimDuration::from_mins(1));
        battery.drain_measurement(true);
        pending += 1;
        if pending >= n {
            battery.drain_transfer(RadioKind::Wifi, pending);
            pending = 0;
        }
    }
    let joules = (start - battery.soc()) * params.capacity_j;
    // A measurement waits on average (n-1)/2 cycles before its batch
    // ships.
    let mean_delay_min = (n as f64 - 1.0) / 2.0;
    (joules, mean_delay_min)
}

fn main() {
    println!("=== Figure 16: battery depletion per scenario ===\n");
    let report = BatteryLab::new().run();
    print!("{report}");

    println!("\nHourly state-of-charge traces (%):");
    for (scenario, _, trace) in &report.rows {
        let cells: Vec<String> = trace.iter().map(|v| format!("{v:5.1}")).collect();
        println!("  {:<20} {}", scenario.label(), cells.join(" "));
    }

    let wifi = report.depletion(BatteryScenario::UnbufferedWifi);
    let threeg = report.depletion(BatteryScenario::Unbuffered3g);
    println!(
        "\nUnbuffered Wi-Fi runs at {:.2}x the no-app baseline; 3G adds another {:.0}%.",
        report.ratio_to_baseline(BatteryScenario::UnbufferedWifi),
        (threeg / wifi - 1.0) * 100.0
    );

    println!("\n=== Buffering-factor ablation (energy vs delay) ===\n");
    println!("{:>6} {:>12} {:>16}", "N", "energy (J)", "mean delay (min)");
    for n in [1usize, 2, 5, 10, 20, 50] {
        let (joules, delay) = sweep_point(n);
        let marker = if n == 10 { "  <- paper's v1.3" } else { "" };
        println!("{n:>6} {joules:>12.0} {delay:>16.1}{marker}");
    }
    println!(
        "\nBuffering amortises the fixed radio wake cost; past N≈10 the energy\n\
         savings flatten while the delay keeps growing — the paper's design point."
    );
}
