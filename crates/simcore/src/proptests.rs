//! In-crate property tests over the kernel's invariants: seeded loops
//! over [`SimRng`], so they run wherever the unit tests do.

use crate::check::check;
use crate::stats::{cdf_at, percentile, Running};
use crate::{EventQueue, MarkovChain, SimRng};
use mps_types::SimTime;

/// `min..max` floats, each uniform in `lo..hi`.
fn floats(r: &mut SimRng, min: usize, max: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..min + r.index(max - min))
        .map(|_| r.uniform_in(lo, hi))
        .collect()
}

#[test]
fn queue_pops_sorted() {
    check(|r| {
        let mut q = EventQueue::new();
        for _ in 0..r.index(100) {
            q.push(SimTime::from_millis(r.index(2_000) as i64 - 1_000), ());
        }
        let mut last = i64::MIN;
        while let Some((t, ())) = q.pop() {
            assert!(t.as_millis() >= last);
            last = t.as_millis();
        }
        assert!(q.is_empty());
    });
}

#[test]
fn running_merge_is_associative_enough() {
    check(|r| {
        let a = floats(r, 0, 30, -100.0, 100.0);
        let b = floats(r, 0, 30, -100.0, 100.0);
        let c = floats(r, 0, 30, -100.0, 100.0);
        let mut left: Running = a.iter().copied().collect();
        let mid: Running = b.iter().copied().collect();
        let right: Running = c.iter().copied().collect();
        left.merge(&mid);
        left.merge(&right);

        let all: Running = a.iter().chain(&b).chain(&c).copied().collect();
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-7);
    });
}

#[test]
fn percentile_returns_member_range() {
    check(|r| {
        let mut values = floats(r, 1, 50, -1e5, 1e5);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = percentile(&values, q).unwrap();
            assert!(p >= values[0] - 1e-9 && p <= values[values.len() - 1] + 1e-9);
        }
    });
}

#[test]
fn cdf_is_monotone() {
    check(|r| {
        let mut values = floats(r, 1, 50, -100.0, 100.0);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (t1, t2) = (r.uniform_in(-120.0, 120.0), r.uniform_in(-120.0, 120.0));
        assert!(cdf_at(&values, t1.min(t2)) <= cdf_at(&values, t1.max(t2)));
    });
}

#[test]
fn rng_samplers_stay_in_domain() {
    check(|rng| {
        for _ in 0..50 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.exponential(2.0) >= 0.0);
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
            let x = rng.pareto_bounded(1.0, 50.0, 1.1);
            assert!((1.0..=50.0).contains(&x));
            let i = rng.weighted_index(&[1.0, 2.0, 3.0]);
            assert!(i < 3);
        }
    });
}

#[test]
fn lazy_chain_stationary_is_target() {
    check(|r| {
        // Normalise two weights into a target distribution.
        let (s0, s1) = (r.uniform_in(0.05, 0.9), r.uniform_in(0.05, 0.9));
        let total = s0 + s1;
        let pi = [s0 / total, s1 / total];
        let stickiness = 0.6;
        let rows = vec![
            vec![
                stickiness + (1.0 - stickiness) * pi[0],
                (1.0 - stickiness) * pi[1],
            ],
            vec![
                (1.0 - stickiness) * pi[0],
                stickiness + (1.0 - stickiness) * pi[1],
            ],
        ];
        let chain = MarkovChain::new(vec!['a', 'b'], rows).unwrap();
        let stationary = chain.stationary(300);
        assert!((stationary[0] - pi[0]).abs() < 1e-9);
    });
}
