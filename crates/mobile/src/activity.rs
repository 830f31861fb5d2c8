//! User-activity model (Figure 21).
//!
//! The paper reports that the crowd is still ~70 % of the time, moving
//! (foot / bicycle / vehicle) for less than 10 %, and that ~20 % of
//! observations cannot be qualified (recognition confidence below 80 %).
//! A sticky Markov chain over the seven activity classes with that target
//! stationary distribution generates per-observation activity labels with
//! realistic temporal persistence.

use mps_simcore::{MarkovChain, SimRng};
use mps_types::Activity;

/// Target stationary shares for the seven activity classes, in
/// [`Activity::ALL`] order (undefined, unknown, tilting, still, foot,
/// bicycle, vehicle). Matches Figure 21: 20 % unqualified, 70 % still,
/// < 10 % moving.
pub const TARGET_ACTIVITY_SHARES: [f64; 7] = [0.08, 0.12, 0.03, 0.70, 0.04, 0.01, 0.02];

/// Stickiness of the chain: the probability mass kept on the current
/// state beyond its stationary share. Activities persist across adjacent
/// 5-minute samples.
const STICKINESS: f64 = 0.75;

/// Builds the activity Markov chain.
///
/// The transition matrix is the "lazy" mixture `P = s·I + (1-s)·1·πᵀ`,
/// whose stationary distribution is exactly `π` for any stickiness `s`.
///
/// # Examples
///
/// ```
/// use mps_mobile::activity_chain;
///
/// let chain = activity_chain();
/// let pi = chain.stationary(100);
/// assert!((pi[3] - 0.70).abs() < 1e-9); // still
/// ```
#[expect(
    clippy::expect_used,
    reason = "rows form a square stochastic matrix by construction, which MarkovChain::new accepts"
)]
pub fn activity_chain() -> MarkovChain<Activity> {
    let n = Activity::ALL.len();
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<f64> = TARGET_ACTIVITY_SHARES
            .iter()
            .map(|p| (1.0 - STICKINESS) * p)
            .collect();
        row[i] += STICKINESS;
        rows.push(row);
    }
    MarkovChain::new(Activity::ALL.to_vec(), rows).expect("valid by construction")
}

/// Stateful per-user activity process.
#[derive(Debug, Clone)]
pub struct ActivityModel {
    chain: MarkovChain<Activity>,
    state: usize,
}

impl ActivityModel {
    /// Creates a model starting from a stationary draw.
    pub fn new(rng: &mut SimRng) -> Self {
        let chain = activity_chain();
        let state = rng.weighted_index(&TARGET_ACTIVITY_SHARES);
        Self { chain, state }
    }

    /// The current activity.
    pub fn current(&self) -> Activity {
        *self.chain.state(self.state)
    }

    /// Advances one sampling step and returns the new activity.
    pub fn step(&mut self, rng: &mut SimRng) -> Activity {
        self.state = self.chain.step(self.state, rng);
        self.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = TARGET_ACTIVITY_SHARES.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_matches_targets() {
        let pi = activity_chain().stationary(500);
        for (i, target) in TARGET_ACTIVITY_SHARES.iter().enumerate() {
            assert!(
                (pi[i] - target).abs() < 1e-9,
                "state {i}: {} vs {target}",
                pi[i]
            );
        }
    }

    #[test]
    fn figure_21_aggregates() {
        // Still ≈ 70 %, moving < 10 %, unqualified ≈ 20 %.
        let shares = TARGET_ACTIVITY_SHARES;
        let still = shares[3];
        let moving = shares[4] + shares[5] + shares[6];
        let unqualified = shares[0] + shares[1];
        assert!((still - 0.70).abs() < 1e-12);
        assert!(moving < 0.10);
        assert!((unqualified - 0.20).abs() < 1e-12);
    }

    #[test]
    fn empirical_distribution_converges() {
        let mut rng = SimRng::new(5);
        let mut model = ActivityModel::new(&mut rng);
        let n = 200_000;
        let mut counts = [0usize; 7];
        for _ in 0..n {
            let a = model.step(&mut rng);
            counts[Activity::ALL.iter().position(|x| *x == a).unwrap()] += 1;
        }
        for (i, target) in TARGET_ACTIVITY_SHARES.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - target).abs() < 0.015,
                "{:?}: {freq} vs {target}",
                Activity::ALL[i]
            );
        }
    }

    #[test]
    fn activities_persist() {
        // With stickiness 0.75 the chance of staying put exceeds 3/4 for
        // every state; check empirically on `still`.
        let mut rng = SimRng::new(9);
        let chain = activity_chain();
        let still_index = 3;
        let n = 50_000;
        let stays = (0..n)
            .filter(|_| chain.step(still_index, &mut rng) == still_index)
            .count() as f64
            / n as f64;
        // 0.75 + 0.25 * 0.70 = 0.925.
        assert!((stays - 0.925).abs() < 0.01, "stay prob {stays}");
    }

    #[test]
    fn model_starts_in_valid_state() {
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let model = ActivityModel::new(&mut rng);
            assert!(Activity::ALL.contains(&model.current()));
        }
    }
}
