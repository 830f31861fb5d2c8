//! Quickstart: replay a small SoundCity deployment end-to-end and print
//! the headline numbers of the paper.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// Examples exist to print.
#![expect(clippy::print_stdout, reason = "an example reports to stdout")]

use soundcity::analytics::{ActivityReport, ModelTable, ProviderByModeReport};
use soundcity::core::{Deployment, ExperimentConfig};
use soundcity::types::{Activity, LocationProvider, SensingMode};

fn main() {
    // A light configuration: the full top-20 model mix, two deployment
    // months, crowd scaled down to ~20 devices.
    let config = ExperimentConfig::quick();
    println!(
        "Replaying {} devices over {} days (seed {})...",
        config.total_devices(),
        config.days(),
        config.seed
    );

    let mut deployment = Deployment::new(config);
    let dataset = deployment.run();

    println!();
    println!("observations captured on phones : {}", dataset.captured);
    println!("observations stored by GoFlow   : {}", dataset.stored());
    println!("still pending in client buffers : {}", dataset.undelivered);
    println!(
        "localized fraction              : {:.1}% (paper: ~40%)",
        dataset.localized_fraction() * 100.0
    );

    let providers = ProviderByModeReport::build(&dataset.observations);
    println!(
        "opportunistic provider mix      : gps {:.0}% / network {:.0}% / fused {:.0}% (paper: 7/86/7)",
        providers.share(SensingMode::Opportunistic, LocationProvider::Gps) * 100.0,
        providers.share(SensingMode::Opportunistic, LocationProvider::Network) * 100.0,
        providers.share(SensingMode::Opportunistic, LocationProvider::Fused) * 100.0,
    );

    let activity = ActivityReport::build(&dataset.observations);
    println!(
        "still / moving / unqualified    : {:.0}% / {:.0}% / {:.0}% (paper: 70 / <10 / 20)",
        activity.share(Activity::Still) * 100.0,
        activity.moving_share() * 100.0,
        activity.unqualified_share() * 100.0,
    );

    println!();
    println!("Top-20 model table (Figure 9 shape):");
    println!("{}", ModelTable::build(&dataset.observations));
}
