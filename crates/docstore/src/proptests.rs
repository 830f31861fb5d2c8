//! In-crate property tests over store invariants: seeded loops over a
//! small splitmix64, so they run wherever the unit tests do.

use crate::collection::project;
use crate::durability::export_value;
use crate::planner::tests::intersect_sorted;
use crate::planner::{intersect, IdSet};
use crate::row::{Row, Shapes, Slots};
use crate::value::{compare_values, get_path, DocId};
use crate::{
    Collection, Durability, DurabilityConfig, Filter, FindOptions, SortOrder, Store, StoreError,
    Update,
};
use serde_json::{json, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
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

    /// A number within two of ±2⁵³, ±2⁶³ or 2⁶⁴ — where `f64` stops
    /// telling integers apart and where `i64` and `u64` end — as a
    /// non-negative integer, a negative integer or a float (itself or a
    /// neighbour).
    fn edge_number(&mut self) -> Value {
        let base = [1i128 << 53, 1 << 63, 1 << 64][self.size(0, 3)];
        let n = base + i128::from(self.int(-2, 3));
        match self.size(0, 3) {
            0 => Value::from(u64::try_from(n).unwrap_or(u64::MAX)),
            1 => Value::from(i64::try_from(-n).unwrap_or(i64::MIN)),
            _ => {
                let f = if self.flag() { n as f64 } else { -(n as f64) };
                Value::from([f.next_down(), f, f.next_up()][self.size(0, 3)])
            }
        }
    }

    /// What the comparison properties draw: any scalar, or an edge number.
    fn comparable(&mut self) -> Value {
        if self.flag() {
            self.scalar()
        } else {
            self.edge_number()
        }
    }

    /// A document of one of five key sets (the empty one among them), so
    /// that a collection of them interleaves shapes: `v` and `m` are
    /// mostly an integer and a letter, sometimes null, `1.0` or absent.
    fn shaped(&mut self) -> Value {
        let v = match self.size(0, 8) {
            0 => Value::Null,
            1 => json!(1.0),
            _ => Value::from(self.int(-5, 6)),
        };
        let m = match self.size(0, 6) {
            0 => Value::Null,
            _ => Value::from(self.letters("abc", 1, 1)),
        };
        match self.size(0, 5) {
            0 => json!({}),
            1 => json!({"v": v}),
            2 => json!({"v": v, "m": m}),
            3 => json!({"v": v, "m": m, "n": {"x": self.int(-3, 4)}, "t": [1, "a"]}),
            _ => self.doc(),
        }
    }

    /// A value a filter compares against: the kinds [`Rng::shaped`] holds.
    fn probe(&mut self) -> Value {
        match self.size(0, 5) {
            0 => Value::Null,
            1 => json!(1.0),
            2 => Value::from(self.letters("abc", 1, 1)),
            3 => json!({"x": self.int(-3, 4)}),
            _ => Value::from(self.int(-5, 6)),
        }
    }

    /// Any filter, nested at most `depth` deep, over [`READ_PATHS`].
    fn filter(&mut self, depth: usize) -> Filter {
        let path = self.pick(&READ_PATHS).to_owned();
        match self.size(0, if depth == 0 { 8 } else { 11 }) {
            0 => Filter::eq(path, self.probe()),
            1 => Filter::ne(path, self.probe()),
            2 => Filter::eq(path, Value::Null),
            3 => match self.size(0, 4) {
                0 => Filter::gt(path, self.probe()),
                1 => Filter::gte(path, self.probe()),
                2 => Filter::lt(path, self.probe()),
                _ => Filter::lte(path, self.probe()),
            },
            4 => Filter::exists(path, self.flag()),
            5 | 6 => Filter::In {
                path,
                values: self.vec(0, 4, Rng::probe),
                negated: self.flag(),
            },
            7 => Filter::Contains {
                path,
                needle: self.letters("abc", 0, 1),
            },
            8 => Filter::and(self.vec(0, 4, |r| r.filter(depth - 1))),
            9 => Filter::or(self.vec(0, 4, |r| r.filter(depth - 1))),
            _ => Filter::Not(Box::new(self.filter(depth - 1))),
        }
    }

    /// Sort × skip × limit × projection, each present or not.
    fn find_options(&mut self) -> FindOptions {
        let mut options = FindOptions::new();
        if self.flag() {
            let order = [SortOrder::Ascending, SortOrder::Descending][self.size(0, 2)];
            options = options.sort(self.pick(&READ_PATHS), order);
        }
        if self.flag() {
            options = options.skip(self.size(0, 6));
        }
        if self.flag() {
            options = options.limit(self.size(0, 8));
        }
        if self.flag() {
            options = options.project(self.vec(0, 3, |r| r.pick(&READ_PATHS).to_owned()));
        }
        options
    }
}

/// Paths the random filters, sorts and projections read: top-level,
/// nested, an object, absent, through a scalar, absent below an object,
/// and the id.
const READ_PATHS: [&str; 8] = ["v", "m", "n.x", "n", "zz", "v.x", "n.zz", "_id"];

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
        let (a, b) = (rng.comparable(), rng.comparable());
        assert_eq!(compare_values(&a, &a), Some(Ordering::Equal));
        let ab = compare_values(&a, &b).unwrap();
        let ba = compare_values(&b, &a).unwrap();
        assert_eq!(ab, ba.reverse());
        // Two integers order as integers, however large.
        let int = |v: &Value| v.as_u64().map(i128::from).or(v.as_i64().map(i128::from));
        if let (Some(x), Some(y)) = (int(&a), int(&b)) {
            assert_eq!(ab, x.cmp(&y), "{a} against {b}");
        }
    });
}

#[test]
fn compare_is_transitive() {
    check(|rng| {
        // Edge numbers collide often: a case is worth several triples.
        for _ in 0..8 {
            let (a, b, c) = (rng.comparable(), rng.comparable(), rng.comparable());
            let ab = compare_values(&a, &b).unwrap();
            let bc = compare_values(&b, &c).unwrap();
            let ac = compare_values(&a, &c).unwrap();
            if ab != Ordering::Greater && bc != Ordering::Greater {
                assert_ne!(ac, Ordering::Greater, "{a} {b} {c}");
            }
            if ab == Ordering::Equal && bc == Ordering::Equal {
                assert_eq!(ac, Ordering::Equal, "{a} {b} {c}");
            }
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

/// `doc` as a row, its shape guessed from `like`.
fn row_of(doc: &Value, id: Option<DocId>, like: Option<&Row>, shapes: &mut Shapes) -> Row {
    let Value::Object(map) = doc.clone() else {
        panic!("{doc} is not an object")
    };
    Row::from_map(map, id, like, shapes)
}

fn json_of(row: &Row) -> String {
    let mut text = String::new();
    row.write_json(&mut text);
    text
}

/// A row is its document: back to the same `Value`, and written as the
/// same bytes — with the id the caller's, none, or spliced in on the
/// way, and whether or not the shape guess holds.
#[test]
fn rows_round_trip_documents() {
    check(|rng| {
        let mut shapes = Shapes::default();
        let mut rows: Vec<Row> = Vec::new();
        for _ in 0..rng.size(1, 6) {
            let mut doc = match rng.size(0, 3) {
                0 => rng.shaped(),
                1 => rng.doc(),
                // Anything at all under keys that need every escape.
                _ => Value::Object(
                    rng.vec(0, 5, |r| (r.letters(WILD, 0, 4), r.value(2)))
                        .into_iter()
                        .collect(),
                ),
            };
            if rng.flag() {
                let members = doc.as_object_mut().unwrap();
                members.insert("_id".to_owned(), rng.value(1));
            }
            let like = rng.flag().then(|| rows.last()).flatten();
            let row = row_of(&doc, None, like, &mut shapes);
            assert_eq!(row.to_value(), doc);
            assert_eq!(json_of(&row), doc.to_string());

            let id = DocId(rng.next());
            let stamped = row_of(&doc, Some(id), rng.flag().then_some(&row), &mut shapes);
            let members = doc.as_object_mut().unwrap();
            members.insert("_id".to_owned(), Value::from(id.0));
            assert_eq!(stamped.to_value(), doc);
            assert_eq!(json_of(&stamped), doc.to_string());
            rows.extend([row, stamped]);
        }
        // Every row of one key set shares one shape.
        let key_sets: BTreeSet<Vec<String>> = rows
            .iter()
            .map(|row| match row.to_value() {
                Value::Object(map) => map.keys().cloned().collect(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(shapes.len(), key_sets.len());
        for row in rows {
            shapes.release(row);
        }
        assert_eq!(shapes.len(), 0);
    });
}

/// A filter sees in a row — read directly, or through a scan's slot memo
/// as the shape changes from row to row — what it sees in the document.
#[test]
fn filters_match_rows_as_they_match_documents() {
    check(|rng| {
        let mut shapes = Shapes::default();
        let docs = rng.vec(1, 10, Rng::shaped);
        let mut rows: Vec<Row> = Vec::new();
        for doc in &docs {
            let row = row_of(
                doc,
                Some(DocId(rows.len() as u64)),
                rows.last(),
                &mut shapes,
            );
            rows.push(row);
        }
        for _ in 0..4 {
            let filter = rng.filter(2);
            let mut slots = Slots::of(&filter);
            for row in &rows {
                let expected = filter.matches(&row.to_value());
                assert_eq!(filter.matches_doc(row), expected, "{filter:?} on {row:?}");
                assert_eq!(
                    filter.matches_doc(&slots.view(row)),
                    expected,
                    "{filter:?} through slots on {row:?}"
                );
            }
        }
    });
}

/// Probing the other sets for the smallest one's ids gives what merging
/// them pairwise gave: over borrowed and materialised sets, empty ones,
/// disjoint ones (the two id ranges) and a single set.
#[test]
fn probe_intersection_equals_merge_intersection() {
    check(|rng| {
        let sets: Vec<BTreeSet<DocId>> = rng.vec(1, 5, |r| {
            let from = [0, 0, 25, 100][r.size(0, 4)];
            let ids = r.vec(0, 30, |r| DocId(from + r.size(0, 40) as u64));
            ids.into_iter().collect()
        });
        let as_vec = |set: &BTreeSet<DocId>| set.iter().copied().collect::<Vec<_>>();
        let expected = sets
            .iter()
            .map(as_vec)
            .reduce(|a, b| intersect_sorted(&a, &b))
            .unwrap();
        let probed = sets
            .iter()
            .map(|set| match rng.flag() {
                true => IdSet::Borrowed(set),
                false => IdSet::Sorted(as_vec(set)),
            })
            .collect();
        assert_eq!(intersect(probed), expected);
    });
}

/// The naive store: documents in a `Vec`, every query a scan of `Value`s
/// with the public `Filter::matches`. What the collection must equal.
#[derive(Default)]
struct Naive {
    docs: Vec<Value>,
    next_id: u64,
}

impl Naive {
    fn insert(&mut self, mut doc: Value) {
        let members = doc.as_object_mut().unwrap();
        members.insert("_id".to_owned(), Value::from(self.next_id));
        self.next_id += 1;
        self.docs.push(doc);
    }

    /// Stops at the first document the update fails on, as the
    /// collection does, leaving it however far the update got.
    fn update(&mut self, filter: &Filter, update: &Update) {
        for doc in self.docs.iter_mut().filter(|doc| filter.matches(doc)) {
            if update.apply(doc).is_err() {
                break;
            }
        }
    }

    fn find(&self, filter: &Filter, options: &FindOptions) -> Result<Vec<Value>, StoreError> {
        let mut found: Vec<&Value> = self.docs.iter().filter(|d| filter.matches(d)).collect();
        if let Some((path, order)) = &options.sort {
            let key = |doc: &Value| get_path(doc, path).cloned().unwrap_or(Value::Null);
            // Any sort of two or more compares every one of them.
            let compound = |doc: &&Value| key(doc).is_array() || key(doc).is_object();
            if found.len() > 1 && found.iter().any(compound) {
                return Err(StoreError::Unorderable(path.clone()));
            }
            found.sort_by(|a, b| {
                let ordering = compare_values(&key(a), &key(b)).unwrap();
                match order {
                    SortOrder::Ascending => ordering,
                    SortOrder::Descending => ordering.reverse(),
                }
            });
        }
        let window = found
            .into_iter()
            .skip(options.skip)
            .take(options.limit.unwrap_or(usize::MAX));
        Ok(window
            .map(|doc| match &options.projection {
                Some(paths) => project(doc, paths),
                None => doc.clone(),
            })
            .collect())
    }

    fn distinct(&self, path: &str, filter: &Filter) -> Vec<Value> {
        let mut values: Vec<Value> = Vec::new();
        let matching = self.docs.iter().filter(|doc| filter.matches(doc));
        for v in matching.filter_map(|doc| get_path(doc, path)) {
            let seen = |seen: &Value| compare_values(seen, v) == Some(Ordering::Equal);
            if !v.is_array() && !v.is_object() && !values.iter().any(seen) {
                values.push(v.clone());
            }
        }
        values.sort_by(|a, b| compare_values(a, b).unwrap());
        values
    }
}

/// Random inserts, updates, deletes, index changes and clears, over
/// documents of interleaved shapes: after every step the collection
/// answers `all`, `count`, `distinct` and `find_with_options` (sort ×
/// skip × limit × projection) exactly as the naive store does.
#[test]
fn the_collection_equals_a_naive_scan_store() {
    const INDEX_PATHS: [&str; 4] = ["v", "m", "n.x", "k\"\\\té"];
    check(|rng| {
        let c = Collection::new();
        let mut naive = Naive::default();
        for step in 0..rng.size(1, 25) {
            match rng.size(0, 12) {
                0..=3 => {
                    let doc = rng.shaped();
                    naive.insert(doc.clone());
                    c.insert_one(doc).unwrap();
                }
                4 => {
                    let docs = rng.vec(0, 5, Rng::shaped);
                    docs.iter().for_each(|doc| naive.insert(doc.clone()));
                    c.insert_many(docs).unwrap();
                }
                5..=6 => {
                    let update = match rng.size(0, 4) {
                        0 => Update::inc("v", rng.float(-2.0, 2.0)),
                        1 => Update::set("flag", rng.flag()),
                        2 => Update::set("n.x", rng.int(-3, 4)),
                        _ => Update::parse(&json!({"$unset": {"m": 1}})).unwrap(),
                    };
                    let filter = rng.filter(1);
                    naive.update(&filter, &update);
                    // An `$inc` of a null or a `$set` through a scalar
                    // fails part-way on both sides alike.
                    let _ = c.update_many(&filter, &update);
                }
                7..=8 => {
                    let filter = rng.filter(1);
                    let before = naive.docs.len();
                    naive.docs.retain(|doc| !filter.matches(doc));
                    let deleted = c.delete_many(&filter).unwrap();
                    assert_eq!(deleted, before - naive.docs.len());
                }
                9 => c.create_index(rng.pick(&INDEX_PATHS)).unwrap(),
                10 => c.drop_index(rng.pick(&INDEX_PATHS)).unwrap(),
                _ => {
                    naive.docs.clear();
                    c.clear().unwrap();
                }
            }
            assert_eq!(c.all(), naive.docs, "step {step}");
            for _ in 0..2 {
                let (filter, options) = (rng.filter(2), rng.find_options());
                assert_eq!(
                    c.find_with_options(&filter, &options),
                    naive.find(&filter, &options),
                    "step {step}: {filter:?} {options:?}"
                );
                assert_eq!(
                    c.count(&filter).unwrap(),
                    naive.find(&filter, &FindOptions::new()).unwrap().len()
                );
                let path = rng.pick(&READ_PATHS);
                assert_eq!(
                    c.distinct(path, &filter),
                    naive.distinct(path, &filter),
                    "step {step}: distinct {path} where {filter:?}"
                );
            }
        }
    });
}
