//! Property tests over the substrates' core invariants: seeded loops
//! over [`SimRng`], so they run with the rest of tier-1.

use soundcity::analytics::Histogram;
use soundcity::broker::{topic_matches, Broker};
use soundcity::docstore::{compare_values, get_path, Collection, Filter, Update};
use soundcity::simcore::check::{check, text, vec};
use soundcity::simcore::{stats::percentile, EventQueue, SimRng};
use soundcity::types::{GeoPoint, SimDuration, SimTime, SoundLevel};
use std::cmp::Ordering;

// ----- generators ------------------------------------------------------------

/// Uniform in `lo..hi`.
fn int(r: &mut SimRng, lo: i64, hi: i64) -> i64 {
    lo + r.index((hi - lo) as usize) as i64
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

fn word(r: &mut SimRng) -> String {
    text(r, b"abcdefghijklmnopqrstuvwxyz0123456789", 1, 4)
}

fn routing_key(r: &mut SimRng) -> String {
    vec(r, 1, 5, word).join(".")
}

fn pattern(r: &mut SimRng) -> String {
    vec(r, 1, 5, |r| match r.index(3) {
        0 => word(r),
        1 => "*".to_owned(),
        _ => "#".to_owned(),
    })
    .join(".")
}

/// Reference topic matcher: naive recursive implementation, used to
/// validate the production dynamic-programming matcher.
fn reference_matches(pat: &[&str], key: &[&str]) -> bool {
    match (pat.first(), key.first()) {
        (None, None) => true,
        (Some(&"#"), _) => {
            reference_matches(&pat[1..], key)
                || (!key.is_empty() && reference_matches(pat, &key[1..]))
        }
        (Some(&"*"), Some(_)) => reference_matches(&pat[1..], &key[1..]),
        (Some(w), Some(k)) if w == k => reference_matches(&pat[1..], &key[1..]),
        _ => false,
    }
}

// ----- broker ------------------------------------------------------------------

#[test]
fn topic_matcher_agrees_with_reference() {
    check(|r| {
        let (pat, key) = (pattern(r), routing_key(r));
        let pat_words: Vec<&str> = pat.split('.').collect();
        let key_words: Vec<&str> = key.split('.').collect();
        assert_eq!(
            topic_matches(&pat, &key),
            reference_matches(&pat_words, &key_words),
            "pattern {pat} key {key}"
        );
    });
}

#[test]
fn hash_only_pattern_matches_everything() {
    check(|r| assert!(topic_matches("#", &routing_key(r))));
}

#[test]
fn literal_pattern_matches_itself_only() {
    check(|r| {
        let (a, b) = (routing_key(r), routing_key(r));
        assert!(topic_matches(&a, &a));
        assert_eq!(topic_matches(&a, &b), a == b);
    });
}

#[test]
fn broker_conserves_messages() {
    check(|r| {
        let keys = vec(r, 1, 30, routing_key);
        let broker = Broker::new();
        broker.declare_exchange("e").unwrap();
        broker.declare_queue("q").unwrap();
        broker.bind_queue("e", "q", "#").unwrap();
        for key in &keys {
            broker.publish("e", key, key.as_bytes()).unwrap();
        }
        let deliveries = broker.consume("q", keys.len() + 10).unwrap();
        assert_eq!(deliveries.len(), keys.len());
        // FIFO, payloads intact.
        for (d, key) in deliveries.iter().zip(&keys) {
            assert_eq!(d.payload().as_ref(), key.as_bytes());
        }
        let m = broker.metrics();
        assert_eq!(m.published, keys.len() as u64);
        assert_eq!(m.routed, keys.len() as u64);
    });
}

// ----- event queue -------------------------------------------------------------

#[test]
fn event_queue_is_a_stable_sort() {
    check(|r| {
        let times = vec(r, 0, 200, |r| int(r, 0, 1000));
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.push(SimTime::from_millis(*t), i);
        }
        let mut expected: Vec<(i64, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        expected.sort_by_key(|(t, i)| (*t, *i)); // stable by insertion order
        let popped: Vec<(i64, usize)> = std::iter::from_fn(|| queue.pop())
            .map(|(t, i)| (t.as_millis(), i))
            .collect();
        assert_eq!(popped, expected);
    });
}

// ----- sound levels ------------------------------------------------------------

#[test]
fn combining_never_lowers_the_loudest() {
    check(|r| {
        let levels = vec(r, 1, 10, |r| r.uniform_in(0.0, 100.0));
        let loudest = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let combined = SoundLevel::combine(levels.iter().map(|l| SoundLevel::new(*l)));
        assert!(combined.db() >= loudest - 1e-9);
        // And never exceeds loudest + 10*log10(n).
        let bound = loudest + 10.0 * (levels.len() as f64).log10();
        assert!(combined.db() <= bound + 1e-9);
    });
}

#[test]
fn leq_lies_between_min_and_max() {
    check(|r| {
        let levels = vec(r, 1, 20, |r| r.uniform_in(0.0, 100.0));
        let min = levels.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let samples: Vec<SoundLevel> = levels.iter().map(|l| SoundLevel::new(*l)).collect();
        let leq = SoundLevel::leq(&samples);
        assert!(leq.db() >= min - 1e-9 && leq.db() <= max + 1e-9);
    });
}

// ----- docstore ----------------------------------------------------------------

#[test]
fn value_ordering_is_total_and_antisymmetric() {
    check(|r| {
        let (a, b) = (int(r, -1000, 1000), int(r, -1000, 1000));
        let va = serde_json::json!(a);
        let vb = serde_json::json!(b);
        let ab = compare_values(&va, &vb).unwrap();
        let ba = compare_values(&vb, &va).unwrap();
        assert_eq!(ab, ba.reverse());
        assert_eq!(ab == Ordering::Equal, a == b);
    });
}

#[test]
fn filter_range_equals_scan() {
    check(|r| {
        let values = vec(r, 1, 60, |r| int(r, -100, 100));
        let (a, b) = (int(r, -100, 100), int(r, -100, 100));
        let (lo, hi) = (a.min(b), a.max(b));
        let collection = Collection::new();
        for v in &values {
            collection.insert_one(serde_json::json!({"v": v})).unwrap();
        }
        let expected = values.iter().filter(|v| (lo..=hi).contains(v)).count();
        // Scan path.
        let filter = Filter::range("v", lo, hi);
        assert_eq!(collection.count(&filter).unwrap(), expected);
        // Indexed path must agree.
        collection.create_index("v").unwrap();
        assert_eq!(collection.count(&filter).unwrap(), expected);
    });
}

#[test]
fn updates_then_deletes_leave_consistent_counts() {
    // The whole domain, not a sample of it.
    for n in 1usize..40 {
        let collection = Collection::new();
        for i in 0..n {
            collection
                .insert_one(serde_json::json!({"i": i, "flag": false}))
                .unwrap();
        }
        collection.create_index("flag").unwrap();
        let updated = collection
            .update_many(&Filter::lt("i", (n / 2) as i64), &Update::set("flag", true))
            .unwrap();
        assert_eq!(updated, n / 2);
        assert_eq!(collection.count(&Filter::eq("flag", true)).unwrap(), n / 2);
        let deleted = collection.delete_many(&Filter::eq("flag", true)).unwrap();
        assert_eq!(deleted, n / 2);
        assert_eq!(collection.len(), n - n / 2);
    }
}

// ----- analytics ---------------------------------------------------------------

#[test]
fn histogram_conserves_samples() {
    check(|r| {
        let values = vec(r, 0, 200, |r| r.uniform_in(-50.0, 150.0));
        let mut h = Histogram::uniform(0.0, 100.0, 10);
        for v in &values {
            h.push(*v);
        }
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.underflow() + h.overflow(), values.len() as u64);
        let fractions: f64 = h.fractions().iter().sum::<f64>();
        assert!(fractions <= 1.0 + 1e-9);
    });
}

// ----- simcore -----------------------------------------------------------------

#[test]
fn percentile_is_monotone() {
    check(|r| {
        let mut values = vec(r, 1, 100, |r| r.uniform_in(-1e6, 1e6));
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (q1, q2) = (r.uniform(), r.uniform());
        let p_lo = percentile(&values, q1.min(q2)).unwrap();
        let p_hi = percentile(&values, q1.max(q2)).unwrap();
        assert!(p_lo <= p_hi + 1e-9);
        assert!(p_lo >= values[0] - 1e-9);
        assert!(p_hi <= values[values.len() - 1] + 1e-9);
    });
}

#[test]
fn split_streams_are_reproducible() {
    check(|r| {
        let (seed, index) = (r.index(usize::MAX) as u64, r.index(50) as u64);
        let mut a = SimRng::new(seed).split("entity", index);
        let mut b = SimRng::new(seed).split("entity", index);
        for _ in 0..8 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    });
}

// ----- geo ---------------------------------------------------------------------

#[test]
fn local_projection_round_trips() {
    check(|r| {
        let origin = GeoPoint::new(r.uniform_in(48.0, 49.5), r.uniform_in(1.5, 3.0));
        let (dx, dy) = (
            r.uniform_in(-20_000.0, 20_000.0),
            r.uniform_in(-20_000.0, 20_000.0),
        );
        let p = GeoPoint::from_local_xy(origin, dx, dy);
        let (bx, by) = p.to_local_xy(origin);
        assert!((bx - dx).abs() < 1e-6, "{bx} vs {dx}");
        assert!((by - dy).abs() < 1e-6, "{by} vs {dy}");
    });
}

#[test]
fn haversine_triangle_inequality() {
    check(|r| {
        let a = GeoPoint::new(r.uniform_in(48.0, 49.0), r.uniform_in(2.0, 3.0));
        let (dx, dy) = (
            r.uniform_in(-5_000.0, 5_000.0),
            r.uniform_in(-5_000.0, 5_000.0),
        );
        let b = GeoPoint::from_local_xy(a, dx, dy);
        let c = GeoPoint::from_local_xy(a, dx / 2.0, dy / 2.0);
        assert!(a.distance_m(b) <= a.distance_m(c) + c.distance_m(b) + 1e-6);
        assert!((a.distance_m(b) - b.distance_m(a)).abs() < 1e-9);
    });
}

// ----- time --------------------------------------------------------------------

#[test]
fn time_buckets_are_consistent() {
    check(|r| {
        let t = SimTime::from_millis(int(r, -(10i64.pow(12)), 10i64.pow(12)));
        let hour = t.hour_of_day();
        assert!(hour < 24);
        assert!(t.minute_of_hour() < 60);
        // Reconstructing from day/hour/min lands in the same minute.
        let frac = t.fractional_hour();
        assert!((0.0..24.0).contains(&frac));
        assert_eq!(frac as u32, hour);
        // Month is day / 30 with flooring.
        assert_eq!(t.month(), t.day().div_euclid(30));
    });
}

#[test]
fn duration_arithmetic_round_trips() {
    check(|r| {
        let t = SimTime::from_millis(int(r, -(10i64.pow(10)), 10i64.pow(10)));
        let dur = SimDuration::from_millis(int(r, -(10i64.pow(9)), 10i64.pow(9)));
        assert_eq!((t + dur) - dur, t);
        assert_eq!((t + dur).since(t), dur);
    });
}

// ----- docstore filters never panic on arbitrary docs -------------------------

#[test]
fn filters_never_panic_on_arbitrary_documents() {
    check(|r| {
        let (n, s, flag) = (int(r, -1000, 1000), text(r, LOWER, 0, 6), r.chance(0.5));
        let doc = serde_json::json!({
            "n": n, "s": s, "flag": flag,
            "nested": {"n": n}, "arr": [n, s.clone()],
        });
        let filters = [
            Filter::eq("n", n),
            Filter::is_in("s", vec!["x".into(), serde_json::Value::Null]),
            Filter::gt("nested.n", 0),
            Filter::range("n", -10, 10),
            Filter::lte("arr", 1),
            Filter::eq("arr", serde_json::json!([n, s])),
            Filter::eq("flag", serde_json::Value::Null),
            Filter::and(vec![Filter::eq("missing", 1), Filter::lt("n", 0)]),
        ];
        for f in &filters {
            let _ = f.matches(&doc); // must not panic
        }
        // And parsing a filter built from the doc itself round-trips.
        let parsed = Filter::parse(&serde_json::json!({"n": n, "s": s})).unwrap();
        assert!(parsed.matches(&doc));
    });
}

#[test]
fn set_updates_are_idempotent() {
    check(|r| {
        let n = int(r, -1000, 1000);
        let path = vec(r, 1, 4, |r| text(r, LOWER, 1, 4)).join(".");
        let update = Update::set(path.clone(), n);
        let mut once = serde_json::json!({});
        update.apply(&mut once).unwrap();
        let mut twice = once.clone();
        update.apply(&mut twice).unwrap();
        assert_eq!(&once, &twice);
        assert_eq!(get_path(&once, &path), Some(&serde_json::json!(n)));
    });
}

// ----- sound level round trips --------------------------------------------------

#[test]
fn energy_round_trip() {
    check(|r| {
        let db = r.uniform_in(-20.0, 120.0);
        let back = SoundLevel::from_energy(SoundLevel::new(db).energy());
        assert!((back.db() - db).abs() < 1e-9);
    });
}
