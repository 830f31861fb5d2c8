//! Daily contribution distributions (Figures 18–19).

use mps_types::{DeviceModel, Observation, UserId};
use std::collections::BTreeMap;
use std::fmt;

/// Hourly distributions of contributions per group: per model
/// (Figure 18) or per user of one model (Figure 19).
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalReport {
    /// Group label → per-hour counts (24 buckets).
    pub groups: BTreeMap<String, [u64; 24]>,
}

impl DiurnalReport {
    /// Figure 18: per-model hourly distributions.
    /// Grouped by the model itself, labelled once at the end: no label
    /// string per observation.
    pub fn by_model(observations: &[Observation]) -> Self {
        let mut per_model: BTreeMap<DeviceModel, [u64; 24]> = BTreeMap::new();
        for obs in observations {
            let hour = obs.captured_at.hour_of_day() as usize;
            per_model.entry(obs.model).or_insert([0; 24])[hour] += 1;
        }
        let groups = per_model.into_iter();
        Self {
            groups: groups
                .map(|(model, counts)| (model.label().to_owned(), counts))
                .collect(),
        }
    }

    /// Figure 19: hourly distributions of the top `top_n` users (by
    /// volume) owning `model`.
    pub fn by_user_of_model(
        observations: &[Observation],
        model: DeviceModel,
        top_n: usize,
    ) -> Self {
        let mut per_user: BTreeMap<UserId, [u64; 24]> = BTreeMap::new();
        for obs in observations.iter().filter(|o| o.model == model) {
            let hour = obs.captured_at.hour_of_day() as usize;
            per_user.entry(obs.user).or_insert([0; 24])[hour] += 1;
        }
        let mut ranked: Vec<(UserId, [u64; 24])> = per_user.into_iter().collect();
        ranked.sort_by(|a, b| {
            let ta: u64 = a.1.iter().sum();
            let tb: u64 = b.1.iter().sum();
            tb.cmp(&ta).then(a.0.cmp(&b.0))
        });
        ranked.truncate(top_n);
        Self {
            groups: ranked
                .into_iter()
                .map(|(user, counts)| (user.to_string(), counts))
                .collect(),
        }
    }

    /// The pooled hourly distribution over all groups, as fractions
    /// summing to 1 (or all zero when empty).
    pub fn population_fractions(&self) -> [f64; 24] {
        let mut totals = [0u64; 24];
        for counts in self.groups.values() {
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        let total: u64 = totals.iter().sum();
        let mut out = [0.0f64; 24];
        if total > 0 {
            for (o, t) in out.iter_mut().zip(&totals) {
                *o = *t as f64 / total as f64;
            }
        }
        out
    }

    /// Fraction of all contributions captured between `from` (inclusive)
    /// and `to` (exclusive) hours.
    pub fn fraction_between(&self, from: u32, to: u32) -> f64 {
        let fractions = self.population_fractions();
        (from..to).map(|h| fractions[h as usize]).sum()
    }

    /// Per-group peak hours — diversity across users shows here
    /// (Figure 19).
    pub fn peak_hours(&self) -> BTreeMap<String, u32> {
        self.groups
            .iter()
            .filter_map(|(label, counts)| {
                let total: u64 = counts.iter().sum();
                if total == 0 {
                    return None;
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| **c)
                    .map(|(h, _)| (label.clone(), h as u32))
            })
            .collect()
    }

    /// Whether every hour of the day has at least one contribution —
    /// the crowd-coverage claim of Section 6.1.
    pub fn covers_all_hours(&self) -> bool {
        let fractions = self.population_fractions();
        fractions.iter().all(|f| *f > 0.0)
    }
}

impl fmt::Display for DiurnalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fractions = self.population_fractions();
        writeln!(f, "hour  share")?;
        for (h, frac) in fractions.iter().enumerate() {
            writeln!(f, "{h:>4}  {:>6.2}%", frac * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_types::{SimTime, SoundLevel};

    fn obs(user: u64, model: DeviceModel, hour: u32) -> Observation {
        Observation::builder()
            .device(user.into())
            .user(user.into())
            .model(model)
            .captured_at(SimTime::from_hms(3, hour, 0, 0))
            .spl(SoundLevel::new(40.0))
            .build()
    }

    #[test]
    fn by_model_buckets_hours() {
        let set = vec![
            obs(1, DeviceModel::LgeNexus5, 9),
            obs(1, DeviceModel::LgeNexus5, 9),
            obs(2, DeviceModel::SonyD5803, 22),
        ];
        let report = DiurnalReport::by_model(&set);
        assert_eq!(report.groups["LGE NEXUS 5"][9], 2);
        assert_eq!(report.groups["SONY D5803"][22], 1);
        let fractions = report.population_fractions();
        assert!((fractions[9] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_between_sums_range() {
        let set = vec![
            obs(1, DeviceModel::LgeNexus5, 10),
            obs(1, DeviceModel::LgeNexus5, 15),
            obs(1, DeviceModel::LgeNexus5, 23),
            obs(1, DeviceModel::LgeNexus5, 2),
        ];
        let report = DiurnalReport::by_model(&set);
        assert!((report.fraction_between(10, 21) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn by_user_ranks_and_filters() {
        let mut set = Vec::new();
        for _ in 0..5 {
            set.push(obs(1, DeviceModel::OneplusA0001, 9));
        }
        set.push(obs(2, DeviceModel::OneplusA0001, 20));
        set.push(obs(3, DeviceModel::LgeNexus5, 12)); // other model
        let report = DiurnalReport::by_user_of_model(&set, DeviceModel::OneplusA0001, 10);
        assert_eq!(report.groups.len(), 2);
        let peaks = report.peak_hours();
        assert_eq!(peaks["user-1"], 9);
        assert_eq!(peaks["user-2"], 20);
    }

    #[test]
    fn covers_all_hours_detects_gaps() {
        let full: Vec<Observation> = (0..24).map(|h| obs(1, DeviceModel::LgeNexus5, h)).collect();
        assert!(DiurnalReport::by_model(&full).covers_all_hours());
        let partial = vec![obs(1, DeviceModel::LgeNexus5, 5)];
        assert!(!DiurnalReport::by_model(&partial).covers_all_hours());
    }

    #[test]
    fn empty_report_is_zero() {
        let report = DiurnalReport::by_model(&[]);
        assert_eq!(report.population_fractions(), [0.0; 24]);
        assert!(!report.covers_all_hours());
        assert!(report.peak_hours().is_empty());
    }

    #[test]
    fn display_has_24_rows() {
        let report = DiurnalReport::by_model(&[obs(1, DeviceModel::LgeNexus5, 0)]);
        assert_eq!(report.to_string().lines().count(), 25);
    }
}
