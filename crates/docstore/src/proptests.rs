//! In-crate property tests over store invariants: seeded loops over a
//! small splitmix64, so they run wherever the unit tests do.

use crate::durability::export_value;
use crate::value::{compare_values, DocId};
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

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.size(0, pool.len())]
    }

    /// Any JSON value, nested at most `depth` deep: integers (negative
    /// and beyond `i64`), floats, text and keys that need every escape.
    fn value(&mut self, depth: usize) -> Value {
        let text = |r: &mut Rng| r.letters(WILD, 0, 6);
        match self.size(0, if depth == 0 { 5 } else { 7 }) {
            0 => self.scalar(),
            1 => Value::from(self.next()),
            2 => Value::from(-(self.next() as i64 >> 1)),
            3 => Value::from(self.float(-1e9, 1e9) * 10f64.powi(self.int(-12, 12) as i32)),
            4 => Value::from(text(self)),
            5 => Value::from(self.vec(0, 4, |r| r.value(depth - 1))),
            _ => {
                let members = self.vec(0, 4, |r| (text(r), r.value(depth - 1)));
                Value::Object(members.into_iter().collect())
            }
        }
    }

    /// A document for the op sequences: `v` and `m`, which the filters
    /// and indexes use, beside anything at all.
    fn doc(&mut self) -> Value {
        let mut doc: serde_json::Map<String, Value> = self
            .vec(0, 4, |r| (r.letters(WILD, 1, 4), r.value(2)))
            .into_iter()
            .collect();
        doc.insert("v".to_owned(), Value::from(self.int(-50, 50)));
        doc.insert("m".to_owned(), Value::from(self.letters("abc", 1, 1)));
        Value::Object(doc)
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

/// Letters that between them need every JSON string escape: quote,
/// backslash, the named and the `\u00..` control characters, non-ASCII
/// inside and outside the basic plane.
const WILD: &str = "ab \"\\/\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}é√😀";

/// Collection names and index paths the op sequences draw from.
const NAMES: [&str; 2] = ["a", "b\"\\\n\u{1}é😀"];
const PATHS: [&str; 3] = ["v", "m", "k\"\\\té"];

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

/// One mutation of the durable properties below: between them, all nine
/// kinds.
#[derive(Debug, Clone)]
enum Op {
    Touch,
    Insert(Value),
    InsertMany(Vec<Value>),
    Update(i64, f64),
    Delete(i64),
    CreateIndex(String),
    DropIndex(String),
    Clear,
    DropCollection,
}

impl Op {
    /// The documents an update or a delete goes to.
    fn filter(&self) -> Filter {
        match self {
            Op::Update(threshold, _) => Filter::lt("v", *threshold),
            Op::Delete(threshold) => Filter::gt("v", *threshold),
            _ => Filter::True,
        }
    }
}

/// A mutation and the collection (one of [`NAMES`]) it goes to.
fn op(rng: &mut Rng) -> (String, Op) {
    let op = match rng.size(0, 16) {
        0 => Op::Touch,
        1..=4 => Op::Insert(rng.doc()),
        5 => Op::InsertMany(rng.vec(0, 4, Rng::doc)),
        6..=8 => Op::Update(rng.int(-60, 60), rng.float(-10.0, 10.0)),
        9..=10 => Op::Delete(rng.int(-60, 60)),
        11..=12 => Op::CreateIndex(rng.pick(&PATHS).to_owned()),
        13 => Op::DropIndex(rng.pick(&PATHS).to_owned()),
        14 => Op::Clear,
        _ => Op::DropCollection,
    };
    (rng.pick(&NAMES).to_owned(), op)
}

fn apply(store: &Store, (name, op): &(String, Op)) {
    let c = store.collection(name);
    match op {
        Op::Touch => {}
        Op::Insert(doc) => {
            c.insert_one(doc.clone()).unwrap();
        }
        Op::InsertMany(docs) => {
            c.insert_many(docs.iter().cloned()).unwrap();
        }
        Op::Update(_, delta) => {
            c.update_many(&op.filter(), &Update::inc("v", *delta))
                .unwrap();
        }
        Op::Delete(_) => {
            c.delete_many(&op.filter()).unwrap();
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
            for path in PATHS {
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

/// The streamed export is the tree route's bytes: every collection deep-
/// cloned into one `Value` and serialised, as `export_json` did before.
#[test]
fn streamed_export_equals_the_tree_route() {
    check(|rng| {
        let store = Store::new();
        for name in rng.vec(0, 4, |r| r.letters(WILD, 0, 5)) {
            let c = store.collection(&name);
            // Possibly none: an empty collection, with or without indexes.
            c.insert_many(rng.vec(0, 6, Rng::doc)).unwrap();
            for path in rng.vec(0, 3, |r| r.pick(&PATHS)) {
                c.create_index(path).unwrap();
            }
            if rng.flag() {
                c.delete_many(&Filter::gt("v", rng.int(-60, 60))).unwrap();
            }
        }
        let tree = export_value(&store.collections).to_string();
        assert_eq!(store.export_json(), tree);
    });
}

/// Applies `step` and returns what the tree route logged for it: one
/// `json!` delta per change, stamped with `coll`, through `to_string`.
fn apply_and_expect(store: &Store, step: &(String, Op)) -> Vec<String> {
    let (name, op) = step;
    let mut expected = Vec::new();
    let mut log = |mut delta: Value| {
        let members = delta.as_object_mut().unwrap();
        members.insert("coll".to_owned(), Value::from(name.as_str()));
        expected.push(delta.to_string());
    };
    if !store.has_collection(name) {
        log(json!({"op": "touch"}));
    }
    let c = store.collection(name);
    let first_new = c.inner.lock().next_id;
    let matched: Vec<u64> = c
        .find(&op.filter())
        .unwrap()
        .iter()
        .map(|doc| doc["_id"].as_u64().unwrap())
        .collect();
    let indexed: Vec<&str> = PATHS.into_iter().filter(|p| c.has_index(p)).collect();
    apply(store, step);
    let next_id = c.inner.lock().next_id;
    let doc = |id: u64| c.get(DocId(id)).unwrap();
    match op {
        Op::Touch => {}
        Op::Insert(_) | Op::InsertMany(_) => {
            for id in first_new..next_id {
                log(json!({"op": "insert", "id": id, "doc": doc(id)}));
            }
        }
        Op::Update(..) => {
            for id in matched {
                log(json!({"op": "update", "id": id, "doc": doc(id)}));
            }
        }
        Op::Delete(_) if matched.is_empty() => {}
        Op::Delete(_) => log(json!({"op": "delete", "ids": matched})),
        Op::CreateIndex(path) if indexed.contains(&path.as_str()) => {}
        Op::CreateIndex(path) => log(json!({"op": "create_index", "path": path})),
        Op::DropIndex(path) if !indexed.contains(&path.as_str()) => {}
        Op::DropIndex(path) => log(json!({"op": "drop_index", "path": path})),
        Op::Clear if matched.is_empty() => {}
        Op::Clear => log(json!({"op": "clear"})),
        Op::DropCollection => log(json!({"op": "drop_collection"})),
    }
    expected
}

/// Every mutation kind reaches the log as the bytes the tree route wrote.
#[test]
fn logged_payloads_equal_the_tree_route() {
    check(|rng| {
        let ops = rng.vec(0, 30, op);
        let dir = prop_temp_dir();
        let wal = mps_wal::WalConfig::default().telemetry(false);
        let config = DurabilityConfig::new(&dir)
            .wal(wal.clone())
            .snapshot_every(0);
        let store = Store::open(Durability::Durable(config)).unwrap();
        let expected: Vec<String> = ops
            .iter()
            .flat_map(|step| apply_and_expect(&store, step))
            .collect();
        drop(store);

        let (_wal, recovered) = mps_wal::Wal::open(&dir, wal).unwrap();
        let logged: Vec<&str> = recovered
            .entries
            .iter()
            .map(|(_, payload)| std::str::from_utf8(payload).unwrap())
            .collect();
        assert_eq!(logged, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
