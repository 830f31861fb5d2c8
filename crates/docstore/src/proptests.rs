//! In-crate property tests over store invariants: seeded loops over a
//! small splitmix64, so they run wherever the unit tests do.

use crate::value::compare_values;
use crate::{
    Collection, Durability, DurabilityConfig, Filter, FindOptions, SortOrder, Store, Update,
};
use serde_json::{json, Value};
use std::cmp::Ordering;
use std::path::PathBuf;

/// Cases per property.
const CASES: u64 = 256;

/// splitmix64 (Steele, Lea & Flood 2014).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    /// Uniform in `lo..hi`.
    fn size(&mut self, lo: usize, hi: usize) -> usize {
        self.int(lo as i64, hi as i64) as usize
    }

    /// Uniform in `lo..hi`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// `min..=max` letters drawn from `alphabet`.
    fn letters(&mut self, alphabet: &str, min: usize, max: usize) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        (0..self.size(min, max + 1))
            .map(|_| alphabet[self.size(0, alphabet.len())])
            .collect()
    }

    /// `min..max` items drawn by `item`.
    fn vec<T>(&mut self, min: usize, max: usize, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.size(min, max)).map(|_| item(self)).collect()
    }

    fn scalar(&mut self) -> Value {
        match self.size(0, 5) {
            0 => Value::Null,
            1 => Value::from(self.flag()),
            2 => Value::from(self.int(-1000, 1000)),
            3 => Value::from(self.float(-100.0, 100.0)),
            _ => Value::from(self.letters("abcdefghijklmnopqrstuvwxyz", 0, 5)),
        }
    }
}

/// Names the seed of the case that was running when a property panicked.
struct Seed(u64);

impl Drop for Seed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property failed at seed {0}; replay it alone with `property(&mut Rng({0}))`",
                self.0
            );
        }
    }
}

/// Runs `property` once per seed in `0..CASES`.
fn check(property: impl Fn(&mut Rng)) {
    for seed in 0..CASES {
        let _seed = Seed(seed);
        property(&mut Rng(seed));
    }
}

fn collection_of(values: &[i64]) -> Collection {
    let c = Collection::new();
    for v in values {
        c.insert_one(json!({"v": v})).unwrap();
    }
    c
}

#[test]
fn compare_is_reflexive_and_antisymmetric() {
    check(|rng| {
        let (a, b) = (rng.scalar(), rng.scalar());
        assert_eq!(compare_values(&a, &a), Some(Ordering::Equal));
        let ab = compare_values(&a, &b).unwrap();
        let ba = compare_values(&b, &a).unwrap();
        assert_eq!(ab, ba.reverse());
    });
}

#[test]
fn compare_is_transitive() {
    check(|rng| {
        let (a, b, c) = (rng.scalar(), rng.scalar(), rng.scalar());
        let ab = compare_values(&a, &b).unwrap();
        let bc = compare_values(&b, &c).unwrap();
        if ab != Ordering::Greater && bc != Ordering::Greater {
            assert_ne!(compare_values(&a, &c).unwrap(), Ordering::Greater);
        }
    });
}

#[test]
fn sort_produces_ordered_output() {
    check(|rng| {
        let values = rng.vec(0, 40, |r| r.int(-1000, 1000));
        let sorted = collection_of(&values)
            .find_with_options(
                &Filter::True,
                &FindOptions::new().sort("v", SortOrder::Ascending),
            )
            .unwrap();
        let out: Vec<i64> = sorted.iter().map(|d| d["v"].as_i64().unwrap()).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(out, expected);
    });
}

#[test]
fn skip_limit_partition() {
    check(|rng| {
        let values = rng.vec(0, 30, |r| r.int(-100, 100));
        let (skip, limit) = (rng.size(0, 35), rng.size(0, 35));
        let opts = FindOptions::new().skip(skip).limit(limit);
        let page = collection_of(&values)
            .find_with_options(&Filter::True, &opts)
            .unwrap();
        let expected = values.len().saturating_sub(skip).min(limit);
        assert_eq!(page.len(), expected);
    });
}

#[test]
fn delete_plus_remaining_equals_total() {
    check(|rng| {
        let c = collection_of(&rng.vec(0, 40, |r| r.int(-50, 50)));
        let threshold = rng.int(-60, 60);
        let total = c.len();
        let deleted = c.delete_many(&Filter::lt("v", threshold)).unwrap();
        assert_eq!(deleted + c.len(), total);
        assert_eq!(c.count(&Filter::lt("v", threshold)).unwrap(), 0);
    });
}

#[test]
fn inc_accumulates() {
    check(|rng| {
        let deltas = rng.vec(1, 15, |r| r.float(-100.0, 100.0));
        let c = Collection::new();
        let id = c.insert_one(json!({"acc": 0.0})).unwrap();
        for d in &deltas {
            c.update_many(&Filter::True, &Update::inc("acc", *d))
                .unwrap();
        }
        let doc = c.get(id).unwrap();
        let expected: f64 = deltas.iter().sum();
        assert!((doc["acc"].as_f64().unwrap() - expected).abs() < 1e-9);
    });
}

#[test]
fn indexed_and_scan_agree_on_random_filters() {
    check(|rng| {
        let values = rng.vec(0, 40, Rng::scalar);
        let probe = rng.scalar();
        let scan = Collection::new();
        let indexed = Collection::new();
        indexed.create_index("v").unwrap();
        for v in &values {
            scan.insert_one(json!({"v": v})).unwrap();
            indexed.insert_one(json!({"v": v})).unwrap();
        }
        let filter = Filter::eq("v", probe.clone());
        assert_eq!(
            scan.count(&filter).unwrap(),
            indexed.count(&filter).unwrap(),
            "probe {probe:?}"
        );
    });
}

#[test]
fn planner_equals_full_scan_on_conjunctions() {
    // The same conjunction, answered by a full scan, by each single
    // index, and by an index intersection, must return identical
    // documents in identical order.
    check(|rng| {
        let docs = rng.vec(0, 40, |r| (r.letters("abc", 1, 1), r.int(-50, 50)));
        let probe_m = rng.letters("abcd", 1, 1);
        let (lo, span) = (rng.int(-60, 60), rng.int(0, 60));
        let scan = Collection::new();
        let eq_only = Collection::new();
        eq_only.create_index("m").unwrap();
        let both = Collection::new();
        both.create_index("m").unwrap();
        both.create_index("v").unwrap();
        for (m, v) in &docs {
            scan.insert_one(json!({"m": m, "v": v})).unwrap();
            eq_only.insert_one(json!({"m": m, "v": v})).unwrap();
            both.insert_one(json!({"m": m, "v": v})).unwrap();
        }
        let filter = Filter::and(vec![
            Filter::eq("m", probe_m),
            Filter::range("v", lo, lo + span),
        ]);
        let expected = scan.find(&filter).unwrap();
        assert_eq!(eq_only.find(&filter).unwrap(), expected);
        assert_eq!(both.find(&filter).unwrap(), expected);
        assert_eq!(both.count(&filter).unwrap(), expected.len());
    });
}

#[test]
fn windowed_find_equals_materialized_slice() {
    // skip/limit pushdown (and the sorted reference-window path) must
    // agree with slicing the fully materialized result, with and
    // without indexes.
    check(|rng| {
        let docs = rng.vec(0, 40, |r| (r.letters("ab", 1, 1), r.int(-50, 50)));
        let probe_m = rng.letters("ab", 1, 1);
        let (skip, limit, sorted) = (rng.size(0, 45), rng.size(0, 45), rng.flag());
        let c = Collection::new();
        for (m, v) in &docs {
            c.insert_one(json!({"m": m, "v": v})).unwrap();
        }
        let filter = Filter::eq("m", probe_m);
        let full_opts = if sorted {
            FindOptions::new().sort("v", SortOrder::Ascending)
        } else {
            FindOptions::new()
        };
        let opts = full_opts.clone().skip(skip).limit(limit);
        let full = c.find_with_options(&filter, &full_opts).unwrap();
        let expected: Vec<Value> = full.iter().skip(skip).take(limit).cloned().collect();
        assert_eq!(c.find_with_options(&filter, &opts).unwrap(), expected);
        c.create_index("m").unwrap();
        assert_eq!(c.find_with_options(&filter, &opts).unwrap(), expected);
    });
}

/// One mutation of the durable-replay property below.
#[derive(Debug, Clone)]
enum Op {
    Insert(Value),
    Update(i64, f64),
    Delete(i64),
    CreateIndex(String),
    DropIndex(String),
    Clear,
    DropCollection,
}

/// A mutation and the collection (`a` or `b`) it goes to.
fn op(rng: &mut Rng) -> (String, Op) {
    let op = match rng.size(0, 14) {
        0..=4 => Op::Insert(json!({"v": rng.int(-50, 50), "m": rng.letters("abc", 1, 1)})),
        5..=7 => Op::Update(rng.int(-60, 60), rng.float(-10.0, 10.0)),
        8..=9 => Op::Delete(rng.int(-60, 60)),
        10 => Op::CreateIndex(rng.letters("vm", 1, 1)),
        11 => Op::DropIndex(rng.letters("vm", 1, 1)),
        12 => Op::Clear,
        _ => Op::DropCollection,
    };
    (rng.letters("ab", 1, 1), op)
}

fn apply(store: &Store, (name, op): &(String, Op)) {
    let c = store.collection(name);
    match op {
        Op::Insert(doc) => {
            c.insert_one(doc.clone()).unwrap();
        }
        Op::Update(threshold, delta) => {
            c.update_many(&Filter::lt("v", *threshold), &Update::inc("v", *delta))
                .unwrap();
        }
        Op::Delete(threshold) => {
            c.delete_many(&Filter::gt("v", *threshold)).unwrap();
        }
        Op::CreateIndex(p) => c.create_index(p).unwrap(),
        Op::DropIndex(p) => c.drop_index(p).unwrap(),
        Op::Clear => c.clear().unwrap(),
        Op::DropCollection => store.drop_collection(name).unwrap(),
    }
}

fn prop_temp_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-docstore-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The durable-replay property: any op sequence applied to a durable
/// store and to a plain in-memory store leaves both with identical
/// contents — and a store recovered from the log alone exports the
/// very same bytes, with the same index definitions.
#[test]
fn durable_replay_equals_in_memory() {
    check(|rng| {
        let ops = rng.vec(0, 30, op);
        let snapshot_every = if rng.flag() { 5 } else { 0 };
        let dir = prop_temp_dir();
        let config = DurabilityConfig::new(&dir)
            .wal(mps_wal::WalConfig::default().telemetry(false))
            .snapshot_every(snapshot_every);
        let durable = Store::open(Durability::Durable(config.clone())).unwrap();
        let memory = Store::new();
        for op in &ops {
            apply(&durable, op);
            apply(&memory, op);
        }
        assert_eq!(durable.export_json(), memory.export_json());
        drop(durable);

        let recovered = Store::open(Durability::Durable(config)).unwrap();
        assert_eq!(recovered.export_json(), memory.export_json());
        for name in memory.collection_names() {
            for path in ["v", "m"] {
                assert_eq!(
                    recovered.collection(&name).has_index(path),
                    memory.collection(&name).has_index(path),
                    "index {path} on {name}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
