//! End-to-end reproduction checks: replay deployments through the full
//! middleware stack and verify the paper's published findings figure by
//! figure. Heavier statistical checks live here; the per-figure numeric
//! tables are produced by the `figures` harness in `mps-bench`.

use soundcity::analytics::{
    AccuracyReport, ActivityReport, DelayReport, DiurnalReport, GrowthReport, ModelTable,
    ProviderByModeReport, ProviderFilter, SplReport,
};
use soundcity::core::{Dataset, Deployment, ExperimentConfig};
use soundcity::types::{Activity, AppVersion, DeviceModel, LocationProvider, SensingMode};
use std::sync::OnceLock;

/// The main replay: full top-20 mix, two months (app v1.1 era).
fn crowd_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| Deployment::new(ExperimentConfig::quick()).run())
}

/// A long replay with several devices of two models: spans all three app
/// versions (Figures 15, 17, 19 need per-user depth or the full
/// timeline).
fn longitudinal_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| longitudinal_replay(ExperimentConfig::quick().seed))
}

fn longitudinal_replay(seed: u64) -> Dataset {
    let config = ExperimentConfig::quick()
        .with_seed(seed)
        .with_months(10)
        .with_scale(0.03)
        .with_models(vec![DeviceModel::OneplusA0001, DeviceModel::SamsungSmG901f]);
    Deployment::new(config).run()
}

// ----- pipeline sanity ------------------------------------------------------

#[test]
fn pipeline_telemetry_is_live() {
    use soundcity::assim::{Blue, Grid, PointObservation};
    use soundcity::telemetry::Registry;
    use soundcity::types::{GeoBounds, GeoPoint};

    // Drive the full broker -> goflow -> docstore stack...
    let ds = crowd_dataset();
    assert!(ds.stored() > 0);
    // ...and one assimilation pass.
    let background = Grid::constant(GeoBounds::paris(), 8, 8, 50.0);
    let obs = vec![PointObservation::new(GeoPoint::PARIS, 62.0, 2.0)];
    Blue::new(4.0, 800.0).analyse(&background, &obs).unwrap();

    // Every layer reported into the shared registry.
    let registry = Registry::global();
    for counter in [
        "broker_core_published_total",
        "goflow_ingest_stored_total",
        "docstore_collection_insert_total",
        "assim_blue_passes_total",
    ] {
        assert!(
            registry.counter_value(counter).expect("registered") > 0,
            "{counter} should be live"
        );
    }
    for histogram in [
        "goflow_ingest_delivery_delay_ms",
        "docstore_collection_insert_seconds",
    ] {
        assert!(
            registry.histogram_count(histogram).expect("registered") > 0,
            "{histogram} should be live"
        );
    }
    // The text exposition carries all of it.
    let text = registry.render_text();
    assert!(text.contains("broker_core_published_total"));
    assert!(text.contains("goflow_ingest_delivery_delay_ms_bucket"));
}

#[test]
fn pipeline_conserves_observations() {
    let ds = crowd_dataset();
    assert!(ds.stored() > 10_000, "stored {}", ds.stored());
    assert_eq!(ds.undecoded, 0, "every stored document decodes");
    assert_eq!(ds.captured, ds.stored() + ds.undelivered);
    // Broker accounting: everything stored was published and acked.
    assert!(ds.broker_metrics.acked >= ds.broker_metrics.published / 2);
    assert_eq!(ds.broker_metrics.unroutable, 0, "no misrouted messages");
}

// ----- Figure 8: contributed observations ------------------------------------

#[test]
fn fig8_growth_is_monotone_and_accelerating() {
    let growth = GrowthReport::build(&crowd_dataset().observations);
    assert!(growth.is_monotone());
    assert!(
        growth.accelerated(),
        "user arrivals must bend the curve upward: {growth}"
    );
    // ~40 % of contributions are localized, matching Figure 8's split.
    let (total, localized) = growth.final_totals();
    let frac = localized as f64 / total as f64;
    assert!((0.35..0.50).contains(&frac), "localized {frac}");
}

// ----- Figure 9: the top-20 table ---------------------------------------------

#[test]
fn fig9_model_table_matches_paper_shape() {
    let table = ModelTable::build(&crowd_dataset().observations);
    let (devices, measurements, _) = table.totals();
    assert_eq!(devices, 20, "quick config: one device per model");
    assert!(measurements > 10_000);
    // Per-model localized fractions track Figure 9 (generous tolerance:
    // one device per model at this scale).
    for row in &table.rows {
        let paper = row.model.paper_stats().localized_fraction();
        assert!(
            (row.localized_fraction() - paper).abs() < 0.15,
            "{}: measured {:.2} vs paper {:.2}",
            row.model,
            row.localized_fraction(),
            paper
        );
    }
    // Overall ≈ 40 %.
    assert!((table.localized_fraction() - 0.41).abs() < 0.06);
}

// ----- Figures 10-13: location accuracy ---------------------------------------

#[test]
fn fig10_accuracy_peaks_in_20_50m_range() {
    let report = AccuracyReport::build(&crowd_dataset().observations, ProviderFilter::All);
    let in_20_50 = report.fraction_in(20.0, 50.0);
    assert!(in_20_50 > 0.35, "20-50 m share {in_20_50}");
    // A visible secondary bump just below 100 m.
    let near_100 = report.fraction_in(50.0, 100.0);
    assert!(near_100 > 0.1, "sub-100 m bump {near_100}");
}

#[test]
fn fig11_gps_is_rare_but_accurate() {
    let obs = &crowd_dataset().observations;
    let gps = AccuracyReport::build(obs, ProviderFilter::Only(LocationProvider::Gps));
    let share = gps.share_of_localized();
    assert!((0.04..0.13).contains(&share), "gps share {share}");
    assert!(
        gps.fraction_in(6.0, 20.0) > 0.5,
        "gps 6-20 m fraction {}",
        gps.fraction_in(6.0, 20.0)
    );
}

#[test]
fn fig12_network_dominates() {
    let obs = &crowd_dataset().observations;
    let network = AccuracyReport::build(obs, ProviderFilter::Only(LocationProvider::Network));
    let share = network.share_of_localized();
    assert!((0.78..0.92).contains(&share), "network share {share}");
    assert!(network.fraction_in(20.0, 50.0) > 0.4);
}

#[test]
fn fig13_fused_is_rare_and_coarse() {
    let obs = &crowd_dataset().observations;
    let fused = AccuracyReport::build(obs, ProviderFilter::Only(LocationProvider::Fused));
    let share = fused.share_of_localized();
    assert!((0.03..0.12).contains(&share), "fused share {share}");
    // "Rather low" accuracy: most fused fixes are beyond 50 m.
    assert!(
        fused.fraction_in(50.0, 5000.0) > 0.5,
        "coarse fused fraction {}",
        fused.fraction_in(50.0, 5000.0)
    );
}

#[test]
fn providers_order_by_accuracy() {
    let obs = &crowd_dataset().observations;
    let median = |p: LocationProvider| {
        let mut acc: Vec<f64> = obs
            .iter()
            .filter_map(|o| o.location.as_ref())
            .filter(|f| f.provider == p)
            .map(|f| f.accuracy_m)
            .collect();
        acc.sort_by(|a, b| a.partial_cmp(b).unwrap());
        acc[acc.len() / 2]
    };
    let gps = median(LocationProvider::Gps);
    let network = median(LocationProvider::Network);
    let fused = median(LocationProvider::Fused);
    assert!(
        gps < network && network < fused,
        "{gps} < {network} < {fused}"
    );
}

// ----- Figures 14-15: SPL heterogeneity ----------------------------------------

#[test]
fn fig14_models_share_shape_but_shift_peaks() {
    let report = SplReport::by_model(&crowd_dataset().observations);
    assert_eq!(report.groups.len(), 20);
    // Every model shows the low-level peak plus an active bump.
    for (label, hist) in &report.groups {
        let peak = hist.peak_center().expect("non-empty");
        assert!((20.0..45.0).contains(&peak), "{label} peak at {peak}");
        assert!(
            report.has_active_bump(label, 55.0, 0.05),
            "{label} lacks the active-environment bump"
        );
    }
    // But the peak positions spread widely across models (heterogeneity).
    assert!(
        report.peak_spread_db() >= 6.0,
        "cross-model peak spread {}",
        report.peak_spread_db()
    );
}

#[test]
fn fig15_same_model_users_align() {
    let obs = &longitudinal_dataset().observations;
    let per_user = SplReport::by_user_of_model(obs, DeviceModel::SamsungSmG901f, 20);
    assert!(
        per_user.groups.len() >= 2,
        "need several users of the model"
    );
    // Same-model users peak within a few dB of each other, far tighter
    // than the cross-model spread.
    assert!(
        per_user.peak_spread_db() <= 5.0,
        "same-model user spread {}",
        per_user.peak_spread_db()
    );
}

// ----- Figure 17: transmission delays -------------------------------------------

/// What holds replay by replay. The longitudinal crowd is five devices,
/// and a device is Wi-Fi-only or not for all ten months, so the masses
/// themselves swing with the draw (the >2 h share of v1.2.9 ran from 0 to
/// 0.51 over twelve seeds); the orderings between versions did not.
#[test]
fn fig17_delay_cdf_shape() {
    let report = DelayReport::build(&longitudinal_dataset().observations);
    // All three versions shipped during the 10 months.
    assert_eq!(report.versions().len(), 3);

    // v1.1's per-send channel setup makes its ≤10 s mass smaller than
    // that of v1.2.9 (unbuffered, optimised).
    let quick = report.cdf_at(AppVersion::V1_2_9, 10.0);
    assert!(
        report.cdf_at(AppVersion::V1_1, 10.0) < quick,
        "v1.1 should be slower than v1.2.9"
    );

    // v1.3 (buffered): almost nothing inside 10 s, most of the non-tail
    // mass within the 50-minute buffering horizon.
    assert!(report.cdf_at(AppVersion::V1_3, 10.0) < 0.15);
    let within_hour = report.cdf_at(AppVersion::V1_3, 3_600.0);
    let v13_tail = report.beyond_two_hours(AppVersion::V1_3);
    assert!(
        within_hour + v13_tail > 0.8,
        "v1.3 mass concentrates at ≤1 h or >2 h: {within_hour} + {v13_tail}"
    );
    // Buffering moderately worsens the tail (paper: 35 % -> 45 %).
    let tail = report.beyond_two_hours(AppVersion::V1_2_9);
    assert!(
        v13_tail > tail - 0.05,
        "buffered tail {v13_tail} vs unbuffered {tail}"
    );
}

/// What holds for the population: the masses of Figure 17 are set by the
/// shares of the connectivity classes, so they are read off eight replays
/// pooled (forty devices), not off one.
#[test]
fn fig17_delay_masses_of_the_pooled_crowd() {
    let seed = ExperimentConfig::quick().seed;
    let mut pooled = longitudinal_dataset().observations.clone();
    for other in 1..8 {
        pooled.extend(longitudinal_replay(seed + other).observations);
    }
    let report = DelayReport::build(&pooled);

    // v1.2.9: a substantial immediate mass and a heavy >2 h
    // disconnection tail.
    let quick = report.cdf_at(AppVersion::V1_2_9, 10.0);
    assert!((0.15..0.50).contains(&quick), "v1.2.9 ≤10 s mass {quick}");
    let tail = report.beyond_two_hours(AppVersion::V1_2_9);
    assert!((0.20..0.55).contains(&tail), "v1.2.9 >2 h mass {tail}");
}

// ----- Figures 18-19: participation across time ----------------------------------

#[test]
fn fig18_population_peaks_10_to_21() {
    let report = DiurnalReport::by_model(&crowd_dataset().observations);
    let day = report.fraction_between(10, 21);
    assert!(day > 0.55, "10:00-21:00 share {day}");
    // Crowd heterogeneity still covers all 24 hours (Section 6.1).
    assert!(report.covers_all_hours());
}

#[test]
fn fig19_individual_users_diverge() {
    let obs = &longitudinal_dataset().observations;
    let report = DiurnalReport::by_user_of_model(obs, DeviceModel::OneplusA0001, 10);
    assert!(report.groups.len() >= 2);
    let peaks: std::collections::BTreeSet<u32> = report.peak_hours().into_values().collect();
    assert!(
        peaks.len() >= 2,
        "users should not all peak at the same hour: {peaks:?}"
    );
}

// ----- Figure 20: providers by sensing mode ---------------------------------------

#[test]
fn fig20_participatory_sensing_boosts_gps() {
    let report = ProviderByModeReport::build(&crowd_dataset().observations);
    assert!(report.total(SensingMode::Opportunistic) > 1_000);
    assert!(report.total(SensingMode::Manual) > 20);
    let manual_gain = report.gps_gain_pts(SensingMode::Manual);
    assert!(
        manual_gain > 12.0,
        "manual GPS gain {manual_gain} pts (paper: >20)"
    );
}

#[test]
fn fig20_journey_mode_boosts_gps_most() {
    let report = ProviderByModeReport::build(&longitudinal_dataset().observations);
    if report.total(SensingMode::Journey) >= 30 {
        let journey_gain = report.gps_gain_pts(SensingMode::Journey);
        let manual_gain = report.gps_gain_pts(SensingMode::Manual);
        assert!(
            journey_gain > manual_gain,
            "journey {journey_gain} vs manual {manual_gain}"
        );
        assert!(journey_gain > 25.0, "journey GPS gain {journey_gain} pts");
    }
}

// ----- Figure 21: activities ----------------------------------------------------

#[test]
fn fig21_activity_shares() {
    let report = ActivityReport::build(&crowd_dataset().observations);
    let still = report.share(Activity::Still);
    assert!((0.65..0.75).contains(&still), "still {still}");
    assert!(
        report.moving_share() < 0.10,
        "moving {}",
        report.moving_share()
    );
    let unqualified = report.unqualified_share();
    assert!(
        (0.15..0.25).contains(&unqualified),
        "unqualified {unqualified}"
    );
}

// ----- Determinism ----------------------------------------------------------------

#[test]
fn replays_are_reproducible() {
    let a = Deployment::new(ExperimentConfig::tiny()).run();
    let b = Deployment::new(ExperimentConfig::tiny()).run();
    assert_eq!(a.observations, b.observations);
}
