//! Raw SPL distributions (Figures 14–15).

use crate::hist::Histogram;
use mps_types::{DeviceModel, Observation, UserId};
use std::collections::BTreeMap;
use std::fmt;

/// Per-group distributions of raw SPL measurements in 1-dB bins, reported
/// in per-mille (‰) as in the paper.
///
/// Figure 14 groups by device model; Figure 15 fixes one model and groups
/// by user. Both come from the same builder.
#[derive(Debug, Clone)]
pub struct SplReport {
    /// Group label → SPL histogram (1-dB bins over 0–100 dB(A)).
    pub groups: BTreeMap<String, Histogram>,
}

impl SplReport {
    fn empty_histogram() -> Histogram {
        Histogram::uniform(0.0, 100.0, 100)
    }

    /// Figure 14: one SPL distribution per device model.
    /// Grouped by the model itself, labelled once at the end: no label
    /// string per observation.
    pub fn by_model(observations: &[Observation]) -> Self {
        let mut per_model: BTreeMap<DeviceModel, Histogram> = BTreeMap::new();
        for obs in observations {
            per_model
                .entry(obs.model)
                .or_insert_with(Self::empty_histogram)
                .push(obs.spl.db());
        }
        let groups = per_model.into_iter();
        Self {
            groups: groups
                .map(|(model, h)| (model.label().to_owned(), h))
                .collect(),
        }
    }

    /// Figure 15: SPL distributions of the top `top_n` users (by volume)
    /// owning one given model.
    pub fn by_user_of_model(
        observations: &[Observation],
        model: DeviceModel,
        top_n: usize,
    ) -> Self {
        let mut per_user: BTreeMap<UserId, Histogram> = BTreeMap::new();
        for obs in observations.iter().filter(|o| o.model == model) {
            per_user
                .entry(obs.user)
                .or_insert_with(Self::empty_histogram)
                .push(obs.spl.db());
        }
        let mut ranked: Vec<(UserId, Histogram)> = per_user.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        ranked.truncate(top_n);
        Self {
            groups: ranked
                .into_iter()
                .map(|(user, h)| (user.to_string(), h))
                .collect(),
        }
    }

    /// Position (dB) of the main peak of each group's distribution.
    pub fn peak_positions(&self) -> BTreeMap<String, f64> {
        self.groups
            .iter()
            .filter_map(|(label, h)| h.peak_center().map(|p| (label.clone(), p)))
            .collect()
    }

    /// Spread (max − min, dB) of the main-peak positions across groups —
    /// large across models (Figure 14), small across same-model users
    /// (Figure 15).
    pub fn peak_spread_db(&self) -> f64 {
        let peaks: Vec<f64> = self.peak_positions().into_values().collect();
        if peaks.is_empty() {
            return 0.0;
        }
        let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = peaks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        max - min
    }

    /// Whether a group's distribution is bimodal in the paper's sense: a
    /// dominant low-level peak plus a secondary active-environment bump
    /// at least `min_bump` of the mass above `split_db`.
    pub fn has_active_bump(&self, label: &str, split_db: f64, min_bump: f64) -> bool {
        let Some(h) = self.groups.get(label) else {
            return false;
        };
        if h.total() == 0 {
            return false;
        }
        let edges = h.edges();
        let above: u64 = h
            .counts()
            .iter()
            .enumerate()
            .filter(|(i, _)| edges[*i] >= split_db)
            .map(|(_, c)| *c)
            .sum();
        (above + h.overflow()) as f64 / h.total() as f64 >= min_bump
    }
}

impl fmt::Display for SplReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (label, h) in &self.groups {
            let peak = h.peak_center().unwrap_or(f64::NAN);
            writeln!(f, "{label}: n={}, peak at {peak:.1} dB(A)", h.total())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_types::{SimTime, SoundLevel};

    fn obs(user: u64, model: DeviceModel, spl: f64) -> Observation {
        Observation::builder()
            .device(user.into())
            .user(user.into())
            .model(model)
            .captured_at(SimTime::EPOCH)
            .spl(SoundLevel::new(spl))
            .build()
    }

    #[test]
    fn by_model_groups_and_peaks() {
        let mut set = Vec::new();
        for _ in 0..10 {
            set.push(obs(1, DeviceModel::LgeNexus5, 30.5));
            set.push(obs(2, DeviceModel::SonyD5803, 38.5));
        }
        set.push(obs(1, DeviceModel::LgeNexus5, 65.0));
        let report = SplReport::by_model(&set);
        assert_eq!(report.groups.len(), 2);
        let peaks = report.peak_positions();
        assert_eq!(peaks["LGE NEXUS 5"], 30.5);
        assert_eq!(peaks["SONY D5803"], 38.5);
        assert_eq!(report.peak_spread_db(), 8.0);
    }

    #[test]
    fn by_user_filters_model_and_ranks() {
        let mut set = Vec::new();
        for i in 0..5 {
            // User 1 contributes the most, user 3 the least.
            for _ in 0..(10 - i) {
                set.push(obs(1, DeviceModel::SamsungSmG901f, 31.0));
            }
        }
        for _ in 0..8 {
            set.push(obs(2, DeviceModel::SamsungSmG901f, 32.0));
        }
        set.push(obs(3, DeviceModel::SamsungSmG901f, 33.0));
        set.push(obs(4, DeviceModel::LgeNexus4, 90.0)); // other model: excluded
        let report = SplReport::by_user_of_model(&set, DeviceModel::SamsungSmG901f, 2);
        assert_eq!(report.groups.len(), 2);
        assert!(report.groups.contains_key("user-1"));
        assert!(report.groups.contains_key("user-2"));
        assert!(!report.groups.contains_key("user-4"));
        // Same-model users peak close together.
        assert!(report.peak_spread_db() <= 2.0);
    }

    #[test]
    fn active_bump_detection() {
        let mut set = Vec::new();
        for _ in 0..80 {
            set.push(obs(1, DeviceModel::LgeNexus5, 30.0));
        }
        for _ in 0..20 {
            set.push(obs(1, DeviceModel::LgeNexus5, 66.0));
        }
        let report = SplReport::by_model(&set);
        assert!(report.has_active_bump("LGE NEXUS 5", 55.0, 0.1));
        assert!(!report.has_active_bump("LGE NEXUS 5", 55.0, 0.5));
        assert!(!report.has_active_bump("GHOST MODEL", 55.0, 0.0));
    }

    #[test]
    fn empty_report() {
        let report = SplReport::by_model(&[]);
        assert!(report.groups.is_empty());
        assert_eq!(report.peak_spread_db(), 0.0);
    }

    #[test]
    fn display_lists_groups() {
        let set = vec![obs(1, DeviceModel::LgeNexus5, 30.0)];
        let s = SplReport::by_model(&set).to_string();
        assert!(s.contains("LGE NEXUS 5"));
        assert!(s.contains("n=1"));
    }
}
