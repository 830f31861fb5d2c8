//! In-crate property tests over store invariants: seeded loops over a
//! small splitmix64, so they run wherever the unit tests do.

use crate::collection::{sorted_by_path, Plan};
use crate::index::{intersect, IdSet, Ids, IndexKey, PathIndex};
use crate::row::{Doc, Row, RowRef, Sealed, Shapes};
use crate::value::{compare_values, get_path, DocId};
use crate::{
    Collection, Durability, DurabilityConfig, Filter, FindOptions, SortOrder, Store, StoreError,
    Update,
};
use serde_json::{json, Value};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

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
        let base = EDGES[self.size(0, 3)];
        self.edge_near(base)
    }

    /// [`Rng::edge_number`] at one of the [`EDGES`].
    fn edge_near(&mut self, base: i128) -> Value {
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

    /// Any filter, `$and`s nested at most `depth` deep, over
    /// [`READ_PATHS`].
    fn filter(&mut self, depth: usize) -> Filter {
        let path = self.pick(&READ_PATHS).to_owned();
        match self.size(0, if depth == 0 { 6 } else { 8 }) {
            0 => Filter::eq(path, self.probe()),
            1 => Filter::eq(path, Value::Null),
            2 => self.compare(path, &mut Rng::probe),
            3 => Filter::range(path, self.probe(), self.probe()),
            4 | 5 => Filter::is_in(path, self.vec(0, 4, Rng::probe)),
            _ => Filter::and(self.vec(0, 4, |r| r.filter(depth - 1))),
        }
    }

    /// One of the four ordered comparisons of `path` with what `value`
    /// draws.
    fn compare(&mut self, path: String, value: &mut impl FnMut(&mut Rng) -> Value) -> Filter {
        let ops: [fn(String, Value) -> Filter; 4] =
            [Filter::gt, Filter::gte, Filter::lt, Filter::lte];
        ops[self.size(0, ops.len())](path, value(self))
    }

    /// What [`Rng::timed`] files under `t` at insertion number `at`: mostly
    /// a number that rises with `at` plus jitter — as `day` and
    /// `captured_ms` do in arrival order, which is what makes a block
    /// skippable — as an integer or a float; sometimes an edge number,
    /// `1` or `1.0`; sometimes no number at all (null, a string, a bool,
    /// an array holding the number, an object), or nothing (`None`). With
    /// an `edge`, mostly numbers within two of it, of every kind: a block
    /// then holds neighbours that are one `f64`.
    fn stamp(&mut self, at: u64, edge: Option<i128>) -> Option<Value> {
        if let Some(edge) = edge.filter(|_| self.size(0, 4) > 0) {
            return Some(self.edge_near(edge));
        }
        let rising = at as i64 * 4 + self.int(-6, 7);
        Some(match self.size(0, 16) {
            0 => return None,
            1 => Value::Null,
            2 => Value::from(rising.to_string()),
            3 => Value::from(self.flag()),
            4 => json!([rising]),
            5 => json!({"x": rising}),
            6 => self.edge_number(),
            7 => [json!(1), json!(1.0)][self.size(0, 2)].clone(),
            8..=10 => Value::from(rising as f64 + [0.0, 0.5][self.size(0, 2)]),
            _ => Value::from(rising),
        })
    }

    /// A document of one of four key sets, stamped (see [`Rng::stamp`])
    /// under `t`, with a second, unordered number under `w`.
    fn timed(&mut self, at: u64, edge: Option<i128>) -> Value {
        let mut doc = match self.size(0, 4) {
            0 => json!({}),
            1 => json!({"m": self.letters("abc", 1, 1)}),
            2 => json!({"m": self.letters("abc", 1, 1), "n": {"x": self.int(-3, 4)}}),
            _ => {
                let w = [json!(1), json!(1.0), json!(-2), json!("1")];
                json!({"w": w[self.size(0, 4)]})
            }
        };
        if let Some(t) = self.stamp(at, edge) {
            doc.as_object_mut().unwrap().insert("t".to_owned(), t);
        }
        doc
    }

    /// A document of the one key set `_id`, `m`, `n`, `t`, `u`, `w`: runs
    /// of them fill blocks that seal. `m` holds a few letters, `w` a few
    /// values of mixed types and `n` a few objects (dictionary columns);
    /// `t` is stamped as [`Rng::stamp`] does, a null where it would be
    /// absent (mostly a value column, of every type); `u` is drawn as
    /// [`Rng::word`] does (mostly a number column).
    fn uniform(&mut self, at: u64, edge: Option<i128>) -> Value {
        let w = [json!(1), json!(1.0), json!(-2), json!("1")];
        json!({
            "m": self.letters("abc", 1, 1),
            "n": {"x": self.int(-1, 2)},
            "t": self.stamp(at, edge).unwrap_or(Value::Null),
            "u": self.word(at),
            "w": w[self.size(0, 4)],
        })
    }

    /// What [`Rng::uniform`] files under `u` at insertion number `at`:
    /// one kind of number per eight insertions (a block, under test) —
    /// integers of both signs; integers none negative, some beyond
    /// `i64::MAX`; floats, among them both zeros and integral ones — or
    /// every kind at once, `1` beside `1.0`; and now and then a null.
    fn word(&mut self, at: u64) -> Value {
        if self.size(0, 6) == 0 {
            return Value::Null;
        }
        let small = self.int(-40, 40);
        match at / 8 % 4 {
            0 => Value::from(small),
            1 if self.flag() => Value::from(u64::MAX - small.unsigned_abs()),
            1 => Value::from(small.unsigned_abs()),
            2 => {
                let zeros_and_one = [-0.0, 0.0, 1.0].get(self.size(0, 6)).copied();
                Value::from(zeros_and_one.unwrap_or(small as f64 / 4.0))
            }
            _ => [json!(1), json!(1.0), json!(small), self.edge_number()][self.size(0, 4)].clone(),
        }
    }

    /// A clause on one member alone, as the column pass decides it: an
    /// equality, a comparison, a range or an in-set on one of `uniform`'s
    /// members, the id or a member no document has. `value` draws what it
    /// compares with, beside the kinds [`Rng::probe`] draws.
    fn lone(&mut self, value: &mut impl FnMut(&mut Rng) -> Value) -> Filter {
        let member = self.pick(&["m", "n", "t", "u", "w", "zz", "_id"]);
        self.lone_on(member, value)
    }

    fn lone_on(&mut self, member: &str, value: &mut impl FnMut(&mut Rng) -> Value) -> Filter {
        let member = member.to_owned();
        let mut operand = |rng: &mut Rng| match rng.size(0, 3) {
            0 => value(rng),
            1 => json!("1"),
            _ => rng.probe(),
        };
        match self.size(0, 6) {
            0 => Filter::eq(member, operand(self)),
            1 => self.compare(member, &mut operand),
            2 => Filter::range(member, operand(self), operand(self)),
            3 | 4 => Filter::is_in(member, self.vec(0, 4, &mut operand)),
            _ => Filter::eq(member, Value::Null),
        }
    }

    /// One comparison with `value`, of the five kinds that let a scan
    /// skip blocks — of `t`, or at times of `t.x`, which a dotted path
    /// must keep from doing so.
    fn versus(&mut self, value: Value) -> Filter {
        let path = ["t", "t", "t", "t.x"][self.size(0, 4)];
        match self.size(0, 5) {
            0 => Filter::eq(path, value),
            1 => Filter::gt(path, value),
            2 => Filter::gte(path, value),
            3 => Filter::lt(path, value),
            _ => Filter::lte(path, value),
        }
    }

    /// A filter that lets a scan skip blocks — a conjunction holding one
    /// to three comparisons of `t` (so bounds repeat on the path) against
    /// values drawn by `value`, one of `w` at times — among conjuncts
    /// that must not: any filter at all, over any path.
    fn skipping(&mut self, value: &mut impl FnMut(&mut Rng) -> Value) -> Filter {
        let mut conjuncts = self.vec(1, 4, |r| {
            let value = value(r);
            r.versus(value)
        });
        if self.flag() {
            conjuncts.push(Filter::gte(
                "w",
                [json!(1), json!(1.5)][self.size(0, 2)].clone(),
            ));
        }
        conjuncts.extend(self.vec(0, 3, |r| r.filter(1)));
        // Nested, as an `$and` of `$and`s, or flat: one conjunction.
        match self.flag() {
            true => Filter::and(conjuncts),
            false => Filter::and(vec![Filter::and(conjuncts), Filter::True]),
        }
    }

    /// Sort × limit, each present or not.
    fn find_options(&mut self) -> FindOptions {
        let mut options = FindOptions::new();
        if self.flag() {
            let order = [SortOrder::Ascending, SortOrder::Descending][self.size(0, 2)];
            options = options.sort(self.pick(&READ_PATHS), order);
        }
        if self.flag() {
            options = options.limit(self.size(0, 8));
        }
        options
    }
}

/// Where `f64` stops telling integers apart, and where `i64` and `u64` end.
const EDGES: [i128; 3] = [1 << 53, 1 << 63, 1 << 64];

/// Paths the random filters and sorts read: top-level,
/// nested, an object, absent, through a scalar, absent below an object,
/// the id, and the stamp of [`Rng::timed`] with what may lie below it.
const READ_PATHS: [&str; 10] = ["v", "m", "n.x", "n", "zz", "v.x", "n.zz", "_id", "t", "t.x"];

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
    // documents in identical order: those the filter matches one by one.
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
        let mut clauses = vec![Filter::eq("m", probe_m), Filter::range("v", lo, lo + span)];
        // Bounds repeated on the path — looser, tighter or equal, strict
        // or not, an integer or the same number as a float — before,
        // between and after: each probes on its own, and the sets meet.
        for _ in 0..rng.size(0, 4) {
            let bound = match (rng.int(-60, 60), rng.flag()) {
                (bound, true) => Value::from(bound),
                (bound, false) => Value::from(bound as f64),
            };
            let clause = match rng.size(0, 4) {
                0 => Filter::gt("v", bound),
                1 => Filter::gte("v", bound),
                2 => Filter::lt("v", bound),
                _ => Filter::lte("v", bound),
            };
            clauses.insert(rng.size(0, clauses.len() + 1), clause);
        }
        let filter = Filter::and(clauses);
        let expected = scan.find(&filter).unwrap();
        let walked = scan.all().into_iter().filter(|doc| filter.matches(doc));
        assert_eq!(walked.collect::<Vec<_>>(), expected);
        assert_eq!(eq_only.find(&filter).unwrap(), expected);
        assert_eq!(both.find(&filter).unwrap(), expected);
        assert_eq!(both.count(&filter).unwrap(), expected.len());
    });
}

#[test]
fn windowed_find_equals_materialized_slice() {
    // limit pushdown (and the sorted reference-window path) must agree
    // with slicing the fully materialized result, with and without
    // indexes.
    check(|rng| {
        let docs = rng.vec(0, 40, |r| (r.letters("ab", 1, 1), r.int(-50, 50)));
        let probe_m = rng.letters("ab", 1, 1);
        let (limit, sorted) = (rng.size(0, 45), rng.flag());
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
        let opts = full_opts.clone().limit(limit);
        let full = c.find_with_options(&filter, &full_opts).unwrap();
        let expected: Vec<Value> = full.iter().take(limit).cloned().collect();
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
    let op = match rng.size(0, 17) {
        0 => Op::Touch,
        1..=4 => Op::Insert(rng.doc()),
        5 => Op::InsertMany(rng.vec(0, 4, Rng::doc)),
        // A run of one key set: the blocks it fills seal, its `u` (see
        // `Rng::word`) of one kind throughout.
        16 => {
            let kind = rng.next() % 4 * 8;
            Op::InsertMany(rng.vec(8, 24, |r| r.uniform(kind, None)))
        }
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
        Op::Update(_, value) => {
            c.update_many(&op.filter(), &Update::set("v", *value))
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
/// very same bytes, with the same index definitions, and answers scans
/// that skip blocks (its summaries are rebuilt by the replay, the other
/// store's carry its history) with the same documents.
#[test]
fn durable_replay_equals_in_memory() {
    // Cases run with automatic snapshots, and those that crossed one.
    let (snapshotting, crossed) = (Cell::new(0), Cell::new(0));
    // Blocks sealed by replay, and sealed blocks a replayed update or
    // delete unsealed.
    let (resealed, unsealed) = (Cell::new(0), Cell::new(0));
    check(|rng| {
        let mut ops = rng.vec(0, 30, op);
        // Stamp what is inserted (see `Rng::stamp`): blocks can be told
        // apart by `t`.
        let mut at = 0;
        for (_, op) in &mut ops {
            let docs = match op {
                Op::Insert(doc) => std::slice::from_mut(doc),
                Op::InsertMany(docs) => docs.as_mut_slice(),
                _ => continue,
            };
            for doc in docs {
                at += 1;
                if let Some(t) = rng.stamp(at, None) {
                    doc.as_object_mut().unwrap().insert("t".to_owned(), t);
                }
            }
        }
        let mut aim = |rng: &mut Rng| Value::from(rng.int(-8, at as i64 * 4 + 8));
        let far = |rng: &mut Rng| match rng.size(0, 3) {
            0 => Update::set("t", Value::Null),
            _ => Update::set("t", rng.int(-1000, 1000)),
        };
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
        // Logged too, so replayed below: stamps moved outside the bounds
        // of their blocks, and documents deleted, where a scan that
        // skips blocks finds them.
        for name in memory.collection_names() {
            let (moved, gone, update) = (rng.skipping(&mut aim), rng.skipping(&mut aim), far(rng));
            for store in [&durable, &memory] {
                store
                    .collection(&name)
                    .update_many(&moved, &update)
                    .unwrap();
                store.collection(&name).delete_many(&gone).unwrap();
            }
        }
        assert_eq!(durable.export_json(), memory.export_json());
        drop(durable);
        snapshotting.set(snapshotting.get() + u32::from(snapshot_every != 0));
        let report = mps_wal::inspect(&dir).unwrap();
        crossed.set(crossed.get() + u32::from(!report.snapshots.is_empty()));

        let recovered = Store::open(Durability::Durable(config)).unwrap();
        assert_eq!(recovered.export_json(), memory.export_json());
        for name in memory.collection_names() {
            let seals = recovered.collection(&name).inner.lock().seals();
            resealed.set(resealed.get() + seals.0);
            unsealed.set(unsealed.get() + seals.1);
            let (replayed, kept) = (recovered.collection(&name), memory.collection(&name));
            for path in PATHS {
                assert_eq!(
                    replayed.has_index(path),
                    kept.has_index(path),
                    "index {path} on {name}"
                );
            }
            for _ in 0..3 {
                let (filter, options) = (rng.skipping(&mut aim), rng.find_options());
                assert_eq!(replayed.count(&filter), kept.count(&filter), "{filter:?}");
                assert_eq!(
                    replayed.find_with_options(&filter, &options),
                    kept.find_with_options(&filter, &options),
                    "{filter:?} {options:?}"
                );
                assert_eq!(replayed.distinct("t", &filter), kept.distinct("t", &filter));
            }
            let (moved, gone, update) = (rng.skipping(&mut aim), rng.skipping(&mut aim), far(rng));
            assert_eq!(
                replayed.update_many(&moved, &update),
                kept.update_many(&moved, &update)
            );
            assert_eq!(replayed.delete_many(&gone), kept.delete_many(&gone));
        }
        assert_eq!(recovered.export_json(), memory.export_json());
        std::fs::remove_dir_all(&dir).unwrap();
    });
    // Few of these streams only insert: enough of them supersede half of
    // what they logged for recovery from a snapshot to stay covered.
    let (snapshotting, crossed) = (snapshotting.get(), crossed.get());
    assert!(
        3 * crossed >= snapshotting,
        "{crossed} of {snapshotting} cases crossed a snapshot"
    );
    let (resealed, unsealed) = (resealed.get(), unsealed.get());
    assert!(
        resealed > 16 && unsealed > 4,
        "replay sealed {resealed}, unsealed {unsealed}"
    );
}

/// The same state as a deep-cloned tree: the route `export_json` took
/// before it streamed, kept verbatim as the reference the property tests
/// hold the streamed bytes to.
fn export_value(store: &Store) -> Value {
    let mut collections = serde_json::Map::new();
    for (name, collection) in store.collections.lock().iter() {
        let inner = collection.inner.lock();
        let docs: Vec<Value> = inner.rows().map(|(_, row)| row.to_value()).collect();
        let indexes: Vec<String> = inner.indexes.paths.keys().cloned().collect();
        collections.insert(
            name.clone(),
            json!({
                "next_id": inner.next_id,
                "indexes": indexes,
                "docs": docs,
            }),
        );
    }
    Value::Object({
        let mut root = serde_json::Map::new();
        root.insert("collections".to_owned(), Value::Object(collections));
        root
    })
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
        let tree = export_value(&store).to_string();
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
        let mut logged = Vec::new();
        recovered
            .entries
            .replay(|_, payload| {
                logged.push(String::from_utf8(payload.to_vec()).unwrap());
                Ok::<_, mps_wal::WalError>(())
            })
            .unwrap();
        assert_eq!(logged, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// `doc` as a row, its shape guessed from `like`.
fn row_of(doc: &Value, id: Option<DocId>, like: Option<&Row>, shapes: &mut Shapes) -> Row {
    let Value::Object(map) = doc.clone() else {
        panic!("{doc} is not an object")
    };
    Row::from_map(map, id, like.map(Row::shape), shapes)
}

fn json_of(row: &Row) -> String {
    let mut text = String::new();
    RowRef::Open(row).write_json(&mut text);
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
            assert_eq!(RowRef::Open(&row).to_value(), doc);
            assert_eq!(json_of(&row), doc.to_string());

            let id = DocId(rng.next());
            let stamped = row_of(&doc, Some(id), rng.flag().then_some(&row), &mut shapes);
            let members = doc.as_object_mut().unwrap();
            members.insert("_id".to_owned(), Value::from(id.0));
            assert_eq!(RowRef::Open(&stamped).to_value(), doc);
            assert_eq!(json_of(&stamped), doc.to_string());
            rows.extend([row, stamped]);
        }
        // Every row of one key set shares one shape.
        let key_sets: BTreeSet<Vec<String>> = rows
            .iter()
            .map(|row| {
                let value = RowRef::Open(row).to_value();
                value.as_object().unwrap().keys().cloned().collect()
            })
            .collect();
        assert_eq!(shapes.len(), key_sets.len());
        for row in rows {
            shapes.release(row);
        }
        assert_eq!(shapes.len(), 0);
    });
}

/// A filter sees in a row — read directly, or through a read's plan, whose
/// slot memo follows the shape from row to row — what it sees in the
/// document.
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
            let plan = Plan::of(&filter);
            for row in &rows {
                let row = RowRef::Open(row);
                let expected = filter.matches(&row.to_value());
                assert_eq!(filter.matches_doc(&row), expected, "{filter:?} on {row:?}");
                assert_eq!(
                    plan.holds(row),
                    expected,
                    "{filter:?} through the plan on {row:?}"
                );
            }
        }
    });
}

/// A sealed number column gives back the very numbers it was made of:
/// over runs of documents whose `u` holds one kind of number per block
/// (see [`Rng::word`]) and nulls, every document reads back as its own
/// text — both zeros, `1` and `1.0`, the ends of `i64` and `u64` — and a
/// filter on `u` counts what it counts in the documents. Fails if no
/// column was ever kept packed.
#[test]
fn number_columns_give_back_their_numbers() {
    let columns = Cell::new(0);
    check(|rng| {
        let c = Collection::new();
        let docs: Vec<Value> = (0..rng.size(8, 80) as u64)
            .map(|at| rng.uniform(at, None))
            .collect();
        c.insert_many(docs.iter().cloned()).unwrap();
        columns.set(columns.get() + c.inner.lock().offset_widths().len());
        let stored: Vec<String> = c.all().iter().map(Value::to_string).collect();
        let expected: Vec<String> = (0u64..)
            .zip(&docs)
            .map(|(id, doc)| {
                let mut doc = doc.clone();
                doc.as_object_mut().unwrap().insert("_id".into(), json!(id));
                doc.to_string()
            })
            .collect();
        assert_eq!(stored, expected);
        for _ in 0..8 {
            let filter = rng.lone_on("u", &mut Rng::edge_number);
            let counted = docs.iter().filter(|doc| filter.matches(doc)).count();
            assert_eq!(c.count(&filter).unwrap(), counted, "{filter:?}");
        }
    });
    assert!(columns.get() > 256, "{} number columns", columns.get());
}

/// `ids` as an index holds them, if there are any: one inline, more in a
/// set.
fn posting(ids: &BTreeSet<DocId>) -> Option<Ids> {
    match ids.len() {
        0 => None,
        1 => ids.first().copied().map(Ids::One),
        _ => Some(Ids::Many(Box::new(ids.clone()))),
    }
}

/// Probing the other sets for the smallest one's ids gives the ids they
/// all hold, as std's `BTreeSet` intersection finds them: over borrowed
/// and materialised sets, empty ones, disjoint ones (the two id ranges)
/// and a single set.
#[test]
fn probe_intersection_equals_merge_intersection() {
    check(|rng| {
        let sets: Vec<BTreeSet<DocId>> = rng.vec(1, 5, |r| {
            let from = [0, 0, 25, 100][r.size(0, 4)];
            let ids = r.vec(0, 30, |r| DocId(from + r.size(0, 40) as u64));
            ids.into_iter().collect()
        });
        let as_vec = |set: &BTreeSet<DocId>| set.iter().copied().collect::<Vec<_>>();
        let common = sets.iter().cloned().reduce(|a, b| &a & &b).unwrap();
        let expected = as_vec(&common);
        // An index holds no empty posting: an empty set is a range's.
        let postings: Vec<Option<Ids>> = sets.iter().map(posting).collect();
        let probed = sets
            .iter()
            .zip(&postings)
            .map(|(set, posting)| match (rng.flag(), posting) {
                (true, Some(ids)) => IdSet::Borrowed(ids),
                _ => IdSet::Sorted(as_vec(set)),
            })
            .collect();
        assert_eq!(intersect(probed), expected);
    });
}

/// What the index-key property draws: any comparable value, or one of
/// those where a key could part from `compare_values` — zeros of both
/// signs, an integer and its float, integers one `f64` apart, the ends of
/// `i64` and `u64` — or a string, a bool or null.
fn key_value(rng: &mut Rng) -> Value {
    let two_53 = 1u64 << 53;
    let pinned = [
        json!(0),
        json!(0.0),
        json!(-0.0),
        json!(1),
        json!(1.0),
        json!(two_53),
        json!(two_53 + 1),
        json!(two_53 as f64),
        json!(i64::MIN),
        json!(i64::MIN as f64),
        json!(u64::MAX),
        json!(u64::MAX as f64),
        json!(""),
        json!("a"),
        json!("1"),
        json!(false),
        json!(true),
        Value::Null,
    ];
    match rng.flag() {
        true => pinned[rng.size(0, pinned.len())].clone(),
        false => rng.comparable(),
    }
}

#[test]
fn index_keys_order_as_compare_values() {
    check(|rng| {
        for _ in 0..8 {
            let (a, b) = (key_value(rng), key_value(rng));
            let (ka, kb) = (IndexKey::new(&a).unwrap(), IndexKey::new(&b).unwrap());
            let expected = compare_values(&a, &b).unwrap();
            assert_eq!(ka.cmp(&kb), expected, "{a} against {b}");
            assert_eq!(ka.partial_cmp(&kb), Some(expected), "{a} against {b}");
            assert_eq!(ka == kb, expected == Ordering::Equal, "{a} == {b}");
            // A key gives back the value it was made from, kind and all.
            assert_eq!(ka.value().to_string(), a.to_string());
        }
    });
}

/// Random inserts and removes of a few ids under a few keys: the index
/// holds what a naive map of sets holds, with a posting inline exactly
/// when it has one id, and no key that has none.
#[test]
fn path_index_equals_a_map_of_sets() {
    // Postings seen going from one id to two, from two to one, and away.
    let (grew, shrank, emptied) = (Cell::new(0), Cell::new(0), Cell::new(0));
    check(|rng| {
        let mut index = PathIndex::new();
        let mut model: BTreeMap<IndexKey, BTreeSet<DocId>> = BTreeMap::new();
        // `1` and `1.0` are one key, as are `0` and `-0.0`; an array none.
        let values = [
            json!(1),
            json!(1.0),
            json!(0),
            json!(-0.0),
            json!("a"),
            json!(true),
            Value::Null,
            json!([1]),
        ];
        for _ in 0..rng.size(0, 60) {
            let value = &values[rng.size(0, values.len())];
            let id = DocId(rng.size(0, 5) as u64);
            let key = IndexKey::new(value);
            let held = |model: &BTreeMap<IndexKey, BTreeSet<DocId>>| {
                let ids = key.as_ref().and_then(|key| model.get(key));
                ids.map_or(0, BTreeSet::len)
            };
            let before = held(&model);
            if rng.size(0, 3) > 0 {
                index.insert(value, id);
                if let Some(key) = &key {
                    model.entry(key.clone()).or_default().insert(id);
                }
            } else {
                index.remove(value, id);
                if let Some(ids) = key.as_ref().and_then(|key| model.get_mut(key)) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        model.remove(key.as_ref().unwrap());
                    }
                }
            }
            match (before, held(&model)) {
                (1, 2) => grew.set(grew.get() + 1),
                (2, 1) => shrank.set(shrank.get() + 1),
                (1, 0) => emptied.set(emptied.get() + 1),
                _ => {}
            }
            assert_eq!(index.keys().count(), model.len());
            for (key, ids) in &model {
                assert_eq!(index.eq_set(key), posting(ids).as_ref(), "{key:?}");
            }
            let all: Vec<DocId> = model.values().flatten().copied().collect();
            assert_eq!(index.lookup_range(&None, &None), all);
        }
    });
    let (grew, shrank, emptied) = (grew.get(), shrank.get(), emptied.get());
    assert!(
        grew > 256 && shrank > 64 && emptied > 64,
        "{grew} grew, {shrank} shrank, {emptied} emptied"
    );
}

/// A sorted find keeps only the first `limit` rows: they must be
/// the head of the full stable sort, for every length of window — none,
/// some, all and beyond — either way round, over keys that tie heavily
/// (`1` and `1.0`, `0` and `-0.0`, missing and null are one key each).
#[test]
fn a_sorted_window_is_the_head_of_the_stable_sort() {
    check(|rng| {
        let keys = [
            json!(1),
            json!(1.0),
            json!(0),
            json!(-0.0),
            Value::Null,
            json!("a"),
            json!(2.5),
            json!(true),
        ];
        let docs: Vec<Value> = (0..rng.size(0, 24))
            .map(|i| match rng.size(0, 6) {
                0 => json!({ "i": i }),
                _ => json!({ "i": i, "k": keys[rng.size(0, keys.len())] }),
            })
            .collect();
        let key = |doc: &Value| get_path(doc, "k").cloned().unwrap_or(Value::Null);
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let mut stable: Vec<&Value> = docs.iter().collect();
            stable.sort_by(|a, b| {
                let ordering = compare_values(&key(a), &key(b)).unwrap();
                match order {
                    SortOrder::Ascending => ordering,
                    SortOrder::Descending => ordering.reverse(),
                }
            });
            for keep in 0..=docs.len() + 2 {
                let window = sorted_by_path(docs.iter(), "k", order, keep).unwrap();
                assert_eq!(window, stable[..keep.min(docs.len())], "{order:?}, {keep}");
            }
            let c = Collection::new();
            c.insert_many(docs.iter().cloned()).unwrap();
            let limit = rng.size(0, docs.len() + 3);
            let options = FindOptions::new().sort("k", order).limit(limit);
            // Document `i` is stored at `_id` `i`.
            let stored = |doc: &&Value| c.get(DocId(doc["i"].as_u64().unwrap())).unwrap();
            let expected: Vec<Value> = stable.iter().take(limit).map(stored).collect();
            assert_eq!(
                c.find_with_options(&Filter::True, &options).unwrap(),
                expected
            );
        }
    });
}

/// The numbers filed under `t`, block of eight `_id`s by block (the block
/// size under test), each block's in ascending order: what the filters of
/// the property below aim at.
fn stamps_by_block(c: &Collection) -> Vec<Vec<Value>> {
    let mut blocks: Vec<(u64, Vec<Value>)> = Vec::new();
    for doc in c.all() {
        let block = doc["_id"].as_u64().unwrap() / 8;
        if blocks.last().is_none_or(|(last, _)| *last != block) {
            blocks.push((block, Vec::new()));
        }
        if let Some(t @ Value::Number(_)) = doc.get("t") {
            blocks.last_mut().unwrap().1.push(t.clone());
        }
    }
    let mut blocks: Vec<Vec<Value>> = blocks.into_iter().map(|(_, stamps)| stamps).collect();
    for stamps in &mut blocks {
        stamps.sort_by(|a, b| compare_values(a, b).unwrap());
    }
    blocks
}

/// Block summaries and the column pass never change an answer: after any
/// history of inserts — runs of one key set among them, whose full blocks
/// seal — updates that move a value outside its block's old bounds (or
/// take the number away, or unseal a block), deletes that empty whole
/// blocks, and clears, `matches` yields exactly the ids, in the order, of
/// a walk over every row — for filters whose bounds sit on the blocks'
/// own smallest and largest numbers, inclusive and exclusive, on numbers
/// `f64` cannot tell apart, beside every kind of clause that must rule
/// no block out, and beside or instead of clauses the column pass
/// decides on one column: equalities, comparisons, ranges and `$in`, on
/// dictionary and value columns of mixed types and on members the shape
/// lacks. And both do work: most rows of those scans
/// are never visited, sealed blocks are passed over, and rows are known
/// to match without a re-check.
#[test]
fn pruned_scans_equal_unpruned_scans() {
    use std::cell::Cell;
    let (visited, stored) = (Cell::new(0usize), Cell::new(0usize));
    let (sealed, unsealed, known) = (Cell::new(0usize), Cell::new(0usize), Cell::new(0usize));
    check(|rng| {
        let c = Collection::new();
        // One case in three lives at an edge of the number kinds.
        let edge = (rng.size(0, 3) == 0).then(|| EDGES[rng.size(0, 3)]);
        let edge_number = |rng: &mut Rng| match edge {
            Some(edge) => rng.edge_near(edge),
            None => rng.edge_number(),
        };
        let mut at = 0u64;
        let mut timed = |rng: &mut Rng, uniform: bool| {
            at += 1;
            match uniform {
                true => rng.uniform(at, edge),
                false => rng.timed(at, edge),
            }
        };
        for step in 0..rng.size(1, 10) {
            let stamps = stamps_by_block(&c);
            // A number a filter compares `t` with: a block's smallest or
            // largest, one near or among the rest, or an edge number.
            let mut aim = |rng: &mut Rng| {
                let held = stamps.iter().filter(|block| !block.is_empty());
                let held: Vec<&Vec<Value>> = held.collect();
                if held.is_empty() || rng.size(0, 8) == 0 {
                    return edge_number(rng);
                }
                let block = held[rng.size(0, held.len())];
                match rng.size(0, 4) {
                    0 => block[0].clone(),
                    1 => block[block.len() - 1].clone(),
                    2 => block[rng.size(0, block.len())].clone(),
                    _ => {
                        let near = block[0].as_f64().unwrap() as i64;
                        Value::from(near.saturating_add(rng.int(-9, 10)))
                    }
                }
            };
            let next_id = c.inner.lock().next_id;
            let ids = |rng: &mut Rng| {
                // Whole blocks, or a few documents of one.
                let from = rng.int(0, next_id as i64 / 8 + 1) * 8;
                let to = from + [3, 8, 8, 24][rng.size(0, 4)];
                Filter::range("_id", from, to - 1)
            };
            match rng.size(0, 24) {
                0..=5 => {
                    c.insert_many(rng.vec(1, 30, |r| timed(r, false))).unwrap();
                }
                6..=7 => {
                    c.insert_one(timed(rng, false)).unwrap();
                }
                8..=12 => {
                    // A new type for `t` (a null among them) unseals a
                    // block whose column held another.
                    let update = match rng.size(0, 5) {
                        0 => Update::set("t", rng.int(-1000, 1000)),
                        1 => Update::set("t", edge_number(rng)),
                        2 => Update::set("t", rng.probe()),
                        3 => Update::set("t.x", rng.int(-1000, 1000)),
                        _ => Update::set("t", Value::Null),
                    };
                    let filter = match rng.flag() {
                        true => ids(rng),
                        false => rng.skipping(&mut aim),
                    };
                    // A `$set` through a `t` that is no object fails
                    // part-way.
                    let _ = c.update_many(&filter, &update);
                }
                13..=18 => {
                    let filter = match rng.flag() {
                        true => ids(rng),
                        false => rng.skipping(&mut aim),
                    };
                    c.delete_many(&filter).unwrap();
                }
                19..=22 => {
                    c.insert_many(rng.vec(8, 40, |r| timed(r, true))).unwrap();
                }
                _ => c.clear().unwrap(),
            }

            let stamps = stamps_by_block(&c);
            let mut aim = |rng: &mut Rng| match stamps.iter().flatten().count() {
                0 => edge_number(rng),
                _ => loop {
                    let block = &stamps[rng.size(0, stamps.len())];
                    if let Some(last) = block.last() {
                        break [&block[0], last, &block[rng.size(0, block.len())]][rng.size(0, 3)]
                            .clone();
                    }
                },
            };
            let inner = c.inner.lock();
            let (now_sealed, now_unsealed) = inner.seals();
            sealed.set(sealed.get() + now_sealed);
            unsealed.set(unsealed.get() + now_unsealed);
            let walk = |filter: &Filter| -> Vec<DocId> {
                let rows = inner.rows().filter(|(_, row)| filter.matches_doc(row));
                rows.map(|(id, _)| id).collect()
            };
            for _ in 0..6 {
                let lone = |rng: &mut Rng, aim: &mut _| rng.vec(1, 4, |r| r.lone(aim));
                let filter = match rng.size(0, 3) {
                    0 => rng.skipping(&mut aim),
                    1 => {
                        let mut conjuncts = lone(rng, &mut aim);
                        conjuncts.push(rng.skipping(&mut aim));
                        Filter::and(conjuncts)
                    }
                    _ => Filter::and(lone(rng, &mut aim)),
                };
                let found: Vec<DocId> = inner.matches(&filter).map(|(id, _)| id).collect();
                assert_eq!(found, walk(&filter), "step {step}: {filter:?}");
                let scanned: Vec<bool> = inner
                    .scan(Rc::new(Plan::of(&filter)), true)
                    .map(|(.., k)| k)
                    .collect();
                visited.set(visited.get() + scanned.len());
                known.set(known.get() + scanned.iter().filter(|&&k| k).count());
                stored.set(stored.get() + inner.len());
            }
            // The same numbers where no clause bounds `t` by them: no
            // block is ruled out on its summary, and the answer is the
            // walk's.
            let (a, b) = (aim(rng), aim(rng));
            let loose = match rng.size(0, 3) {
                0 => Filter::is_in("t", vec![a, b]),
                1 => Filter::range("t.x", a, b),
                _ => Filter::and(vec![
                    Filter::eq("t", Value::Null),
                    Filter::eq("w", Value::Null),
                ]),
            };
            assert_eq!(inner.ruled_out(&loose), 0, "{loose:?}");
            let found: Vec<DocId> = inner.matches(&loose).map(|(id, _)| id).collect();
            assert_eq!(found, walk(&loose), "step {step}: {loose:?}");
        }
    });
    assert!(
        visited.get() * 2 < stored.get(),
        "scans visited {} of {} rows",
        visited.get(),
        stored.get()
    );
    // Blocks sealed and unsealed, summed over the steps (a block counts
    // at every step it was seen in), and rows the pass alone decided.
    let (sealed, unsealed, known) = (sealed.get(), unsealed.get(), known.get());
    assert!(
        sealed > 256 && unsealed > 64 && known > 256,
        "{sealed} {unsealed} {known}"
    );
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
        let window = found.into_iter().take(options.limit.unwrap_or(usize::MAX));
        Ok(window.cloned().collect())
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
/// limit) exactly as the naive store does.
#[test]
fn the_collection_equals_a_naive_scan_store() {
    const INDEX_PATHS: [&str; 6] = ["v", "m", "n", "n.x", "t", "k\"\\\té"];
    // Blocks seen sealed and unsealed, summed over the steps.
    let (sealed, unsealed) = (Cell::new(0), Cell::new(0));
    check(|rng| {
        let c = Collection::new();
        let mut naive = Naive::default();
        // A shaped document, stamped (see `Rng::stamp`) so that blocks
        // can be told apart by `t`; and half the filters aim there, so
        // that the scans they lead to skip blocks.
        let stamped = |rng: &mut Rng, naive: &Naive| {
            let mut doc = rng.shaped();
            if let Some(t) = rng.stamp(naive.next_id, None) {
                doc.as_object_mut().unwrap().insert("t".to_owned(), t);
            }
            doc
        };
        // Some are equalities with an object or an array on a path that
        // may be indexed, which no index holds a key for.
        let filter = |rng: &mut Rng, naive: &Naive, depth: usize| match rng.size(0, 5) {
            0 | 1 => rng.filter(depth),
            2 if rng.flag() => Filter::eq("n", json!({"x": rng.int(-3, 4)})),
            2 => Filter::eq("t", json!([1, "a"])),
            _ => {
                let top = naive.next_id as i64 * 4 + 8;
                rng.skipping(&mut |rng: &mut Rng| Value::from(rng.int(-8, top)))
            }
        };
        for step in 0..rng.size(1, 25) {
            match rng.size(0, 13) {
                0..=3 => {
                    let doc = stamped(rng, &naive);
                    naive.insert(doc.clone());
                    c.insert_one(doc).unwrap();
                }
                4 => {
                    let mut docs = Vec::new();
                    for _ in 0..rng.size(0, 12) {
                        docs.push(stamped(rng, &naive));
                        naive.insert(docs[docs.len() - 1].clone());
                    }
                    c.insert_many(docs).unwrap();
                }
                5..=6 => {
                    let update = match rng.size(0, 7) {
                        0 => Update::set("v", rng.float(-2.0, 2.0)),
                        1 => Update::set("flag", rng.flag()),
                        2 => Update::set("n.x", rng.int(-3, 4)),
                        3 => Update::set("m", rng.probe()),
                        // Out of the old bounds of the block, or away.
                        4 => Update::set("t", rng.float(-300.0, 300.0).round()),
                        5 => Update::set("t", rng.int(-1000, 1000)),
                        _ => Update::set("t", Value::Null),
                    };
                    let filter = filter(rng, &naive, 1);
                    naive.update(&filter, &update);
                    // A `$set` through a scalar fails part-way on both
                    // sides alike.
                    let _ = c.update_many(&filter, &update);
                }
                7..=8 => {
                    let filter = filter(rng, &naive, 1);
                    let before = naive.docs.len();
                    naive.docs.retain(|doc| !filter.matches(doc));
                    let deleted = c.delete_many(&filter).unwrap();
                    assert_eq!(deleted, before - naive.docs.len());
                }
                9 => c.create_index(rng.pick(&INDEX_PATHS)).unwrap(),
                10 => c.drop_index(rng.pick(&INDEX_PATHS)).unwrap(),
                // A run of one key set: the blocks it fills seal.
                12 => {
                    let docs = rng.vec(8, 40, |r| r.uniform(naive.next_id, None));
                    for doc in &docs {
                        naive.insert(doc.clone());
                    }
                    c.insert_many(docs).unwrap();
                }
                _ => {
                    naive.docs.clear();
                    c.clear().unwrap();
                }
            }
            assert_eq!(c.all(), naive.docs, "step {step}");
            let seals = c.inner.lock().seals();
            sealed.set(sealed.get() + seals.0);
            unsealed.set(unsealed.get() + seals.1);
            for _ in 0..2 {
                let (filter, options) = (filter(rng, &naive, 2), rng.find_options());
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
    let (sealed, unsealed) = (sealed.get(), unsealed.get());
    assert!(
        sealed > 256 && unsealed > 64,
        "{sealed} sealed, {unsealed} unsealed"
    );
}

/// The numbers a typed compare must tell apart: small integers of both
/// signs, the ends of `i64` and `u64`, integers either side of 2⁵³ that
/// one `f64` stands for, and floats — fractional, both zeros, integral
/// ones, and ones beyond every `i64`.
fn typed_edge(rng: &mut Rng) -> Value {
    const TWO_53: i64 = 1 << 53;
    match rng.size(0, 12) {
        0 => Value::from(i64::MIN + rng.int(0, 2)),
        1 => Value::from(i64::MAX - rng.int(0, 2)),
        2 => Value::from(u64::MAX - rng.int(0, 2) as u64),
        3 => Value::from(TWO_53 + rng.int(-1, 2)),
        4 => Value::from(-TWO_53 + rng.int(-1, 2)),
        5 => Value::from([-0.0, 0.0][rng.size(0, 2)]),
        6 => Value::from(rng.int(-3, 4) as f64 + [0.0, 0.5][rng.size(0, 2)]),
        7 => Value::from([TWO_53 as f64, 9.3e18, -9.3e18, 1.9e19][rng.size(0, 4)]),
        _ => Value::from(rng.int(-3, 4)),
    }
}

/// What [`typed_compares_agree_with_the_filter`] files under `u` in a
/// block of `kind`: integers of both signs (0), integers none negative,
/// some beyond `i64::MAX` (1), or floats (2) — each near another
/// ([`typed_edge`]) — and now and then a null.
fn typed_word(rng: &mut Rng, kind: usize) -> Value {
    if rng.size(0, 8) == 0 {
        return Value::Null;
    }
    loop {
        let value = typed_edge(rng);
        let fits = match kind {
            0 => value.as_i64().is_some(),
            1 => value.as_u64().is_some(),
            _ => value.as_i64().is_none() && value.as_u64().is_none(),
        };
        if fits {
            return value;
        }
    }
}

/// How far apart a packed block's least and greatest integer lie: either
/// side of where an offset stops fitting 1, 2 and 4 bytes, and all of
/// `i64` (or of `u64`).
const SPANS: [u64; 7] = [
    (1 << 8) - 1,
    1 << 8,
    (1 << 16) - 1,
    1 << 16,
    (1 << 32) - 1,
    1 << 32,
    u64::MAX,
];

/// `n` as JSON: an `i64` if it is one, else a `u64`.
fn integer_value(n: i128) -> Value {
    match (i64::try_from(n), u64::try_from(n)) {
        (Ok(n), _) => Value::from(n),
        (_, Ok(n)) => Value::from(n),
        _ => panic!("{n} is neither an i64 nor a u64"),
    }
}

/// A block (eight rows, under test) of integers whose offsets take each
/// width in turn: one of the [`SPANS`] apart at the least and greatest,
/// of both signs or none negative, some beyond `i64::MAX`, in any row
/// order. Nulls now and then, or in every row but four (the most nulls
/// a number column of eight rows can have: null and four numbers are
/// five distinct values, one more than a dictionary holds under test),
/// or in every row but one (then the member is a dictionary). Also the
/// block's least and greatest, for the bounds ([`near_bound`]).
fn packed_block(rng: &mut Rng) -> (Vec<Value>, (i128, i128)) {
    let span = SPANS[rng.size(0, SPANS.len())];
    let wide = i128::from(span);
    let scale = |rng: &mut Rng| rng.next() >> rng.size(1, 64);
    let least = match (rng.flag(), span) {
        (true, u64::MAX) => i64::MIN.into(),
        (true, _) => i128::from(scale(rng).cast_signed() - (1 << 62)).min(i64::MAX as i128 - wide),
        (false, u64::MAX) => 0,
        (false, _) => (i128::from(scale(rng)) + (1 << 63)).min(u64::MAX as i128 - wide),
    };
    let mut values = vec![least, least + wide];
    values.extend((2..8).map(|_| match span {
        u64::MAX => least + i128::from(rng.next()),
        _ => least + i128::from(rng.next() % (span + 1)),
    }));
    let kept = match rng.size(0, 6) {
        0 => 1,
        1 => 4,
        _ => 8,
    };
    let mut block: Vec<Value> = values
        .iter()
        .enumerate()
        .map(|(at, &n)| {
            let null = at >= kept || (at >= 2 && rng.size(0, 8) == 0);
            if null {
                Value::Null
            } else {
                integer_value(n)
            }
        })
        .collect();
    for at in (1..block.len()).rev() {
        block.swap(at, rng.size(0, at + 1));
    }
    (block, (least, least + wide))
}

/// A bound near one of `ends` — a block's least or greatest integer —
/// within one of it, or beyond it either way by a width's span or more:
/// an integer, clamped to where `i64` and `u64` end, or a float a half
/// off it.
fn near_bound(rng: &mut Rng, ends: &[(i128, i128)]) -> Value {
    let (least, most) = ends[rng.size(0, ends.len())];
    let end = if rng.flag() { least } else { most };
    let far = [0, 1, 1 << 8, 1 << 16, 1 << 32, 1 << 63][rng.size(0, 6)];
    let n = end + rng.int(-1, 2) as i128 + if rng.flag() { far } else { -far };
    let n = n.clamp(i64::MIN.into(), u64::MAX.into());
    match rng.size(0, 4) {
        0 => Value::from(n as f64 + [-0.5, 0.5][rng.size(0, 2)]),
        _ => integer_value(n),
    }
}

/// Packed number columns seen, by the bytes an offset takes.
#[derive(Default)]
struct Widths(Cell<[usize; 9]>);

impl Widths {
    fn count(&self, widths: impl IntoIterator<Item = usize>) {
        let mut seen = self.0.get();
        for width in widths {
            seen[width] += 1;
        }
        self.0.set(seen);
    }

    /// Fails unless more than 32 columns had each width.
    fn assert_each_seen(&self) {
        let seen = self.0.get();
        for width in [1, 2, 4, 8] {
            assert!(seen[width] > 32, "{seen:?} columns by offset bytes");
        }
    }
}

/// The column pass decides `$eq`, `$gt`, `$gte`, `$lt` and `$lte` against
/// a number on a number column by comparing packed offsets: on columns of
/// every kind and every width, with null rows, against integer and
/// fractional bounds, `-0.0`, 2⁵³ ± 1, `i64::MIN` and `u64::MAX`, and
/// bounds within one of a block's least or greatest and far beyond them,
/// a read keeps exactly the rows the filter matches one by one — alone,
/// as a range's two ends, and beside an index on another member.
#[test]
fn typed_compares_agree_with_the_filter() {
    let widths = Widths::default();
    check(|rng| {
        let c = Collection::new();
        if rng.flag() {
            c.create_index("m").unwrap();
        }
        // One kind of number per block of eight (the block size under
        // test), and a row past the last, so that they all seal.
        let mut us = Vec::new();
        let mut ends = Vec::new();
        for _ in 0..rng.size(1, 7) {
            match rng.size(0, 5) {
                kind @ 0..=2 => us.extend((0..8).map(|_| typed_word(rng, kind))),
                _ => {
                    let (block, block_ends) = packed_block(rng);
                    us.extend(block);
                    ends.push(block_ends);
                }
            }
        }
        us.push(typed_word(rng, 0));
        let docs = us
            .into_iter()
            .map(|u| json!({"m": rng.letters("ab", 1, 1), "u": u}));
        c.insert_many(docs).unwrap();
        let inner = c.inner.lock();
        widths.count(inner.offset_widths());
        for _ in 0..16 {
            let mut compare = |rng: &mut Rng| {
                let ops: [fn(String, Value) -> Filter; 5] =
                    [Filter::eq, Filter::gt, Filter::gte, Filter::lt, Filter::lte];
                let bound = match ends.is_empty() || rng.flag() {
                    true => typed_edge(rng),
                    false => near_bound(rng, &ends),
                };
                ops[rng.size(0, ops.len())]("u".to_owned(), bound)
            };
            let mut conjuncts = rng.vec(1, 3, &mut compare);
            if rng.flag() {
                conjuncts.push(Filter::eq("m", "a"));
            }
            let filter = Filter::and(conjuncts);
            let found: Vec<DocId> = inner.matches(&filter).map(|(id, _)| id).collect();
            let walked = inner.rows().filter(|(_, row)| filter.matches_doc(row));
            assert_eq!(
                found,
                walked.map(|(id, _)| id).collect::<Vec<_>>(),
                "{filter:?}"
            );
        }
    });
    widths.assert_each_seen();
}

/// A sealed block reads back exactly as its rows did while open, at
/// every width and with any nulls: each row's `write_json`, the values
/// `each_at` hands out (each distinct one once, of a dictionary), and the
/// rows `into_rows` gives back — what unsealing stores — byte for byte.
#[test]
fn sealed_blocks_read_back_as_their_open_rows() {
    let widths = Widths::default();
    check(|rng| {
        let mut shapes = Shapes::default();
        let (packed, _) = packed_block(rng);
        let kind = rng.size(0, 3);
        let rows: Vec<Row> = (0..8)
            .zip(packed)
            .map(|(id, u)| {
                let doc = json!({"f": typed_word(rng, kind), "m": rng.letters("ab", 1, 1), "u": u});
                let Value::Object(map) = doc else {
                    panic!("{doc} is an object")
                };
                Row::from_map(map, Some(DocId(id)), None, &mut shapes)
            })
            .collect();
        let text = |row: RowRef<'_>| {
            let mut text = String::new();
            row.write_json(&mut text);
            text
        };
        let open: Vec<String> = rows.iter().map(|row| text(RowRef::Open(row))).collect();
        let at = |path: &str| -> Vec<String> {
            let values = rows.iter().filter_map(|row| RowRef::Open(row).at(path));
            values.map(|value| value.to_string()).collect()
        };
        let open_at: Vec<(&str, Vec<String>)> =
            ["_id", "f", "m", "u"].map(|path| (path, at(path))).into();
        let shape = Arc::clone(rows[0].shape());
        let sealed = Sealed::new(shape, rows.into_iter());
        widths.count(sealed.offset_widths());
        let read: Vec<String> = (0..8).map(|at| text(RowRef::Sealed(&sealed, at))).collect();
        assert_eq!(read, open);
        for (path, mut expected) in open_at {
            let mut values = Vec::new();
            sealed.each_at(path, |value| values.push(value.to_string()));
            if values.len() < expected.len() {
                // A dictionary hands out each distinct value once.
                expected.sort();
                expected.dedup();
                values.sort();
            }
            assert_eq!(values, expected, "{path}");
        }
        let back: Vec<String> = sealed
            .into_rows()
            .map(|row| text(RowRef::Open(&row)))
            .collect();
        assert_eq!(back, open);
    });
    widths.assert_each_seen();
}

/// Distinct scalar values at `path` over `docs`, told apart as the store
/// orders them (`1` and `1.0` are one).
fn distinct_at(docs: &[Value], path: &str) -> usize {
    let mut values: Vec<&Value> = docs.iter().filter_map(|doc| get_path(doc, path)).collect();
    values.retain(|v| !v.is_array() && !v.is_object());
    values.sort_by(|a, b| compare_values(a, b).unwrap());
    values.dedup_by(|a, b| compare_values(a, b) == Some(Ordering::Equal));
    values.len()
}

/// After any history — indexes made before and after blocks seal,
/// inserts that seal them, updates and deletes that unseal them, index
/// drops and clears — every index holds exactly the open rows, its
/// cardinality is the distinct count over every row, open or sealed, and
/// a read an index serves keeps exactly the rows the filter matches.
#[test]
fn indexes_hold_the_open_rows_through_any_history() {
    const INDEXED: [&str; 5] = ["m", "t", "u", "w", "n.x"];
    let (sealed, unsealed) = (Cell::new(0), Cell::new(0));
    check(|rng| {
        let c = Collection::new();
        let mut at = 0u64;
        for step in 0..rng.size(1, 12) {
            let next_id = c.inner.lock().next_id as i64;
            match rng.size(0, 12) {
                0..=3 => {
                    let docs = rng.vec(8, 30, |r| {
                        at += 1;
                        r.uniform(at, None)
                    });
                    c.insert_many(docs).unwrap();
                }
                4 => {
                    at += 1;
                    c.insert_one(rng.timed(at, None)).unwrap();
                }
                5 | 6 => {
                    let from = rng.int(0, next_id + 1);
                    let filter = Filter::range("_id", from, from + rng.int(0, 10));
                    let update = match rng.size(0, 3) {
                        0 => Update::set(rng.pick(&["m", "u", "t"]), rng.probe()),
                        1 => Update::set("n.x", rng.int(-2, 3)),
                        // The indexed `n.x` gone where `n` is no object.
                        _ => Update::set("n", rng.probe()),
                    };
                    let _ = c.update_many(&filter, &update);
                }
                7 | 8 => {
                    let from = rng.int(0, next_id + 1);
                    let filter = Filter::range("_id", from, from + rng.int(0, 4));
                    c.delete_many(&filter).unwrap();
                }
                9 | 10 => c.create_index(rng.pick(&INDEXED)).unwrap(),
                _ => match rng.flag() {
                    true => c.drop_index(rng.pick(&INDEXED)).unwrap(),
                    false => c.clear().unwrap(),
                },
            }
            let all = c.all();
            let inner = c.inner.lock();
            let seals = inner.seals();
            sealed.set(sealed.get() + seals.0);
            unsealed.set(unsealed.get() + seals.1);
            assert!(inner.indexes_hold_the_open_rows(), "step {step}");
            let paths: Vec<String> = inner.indexes.paths.keys().cloned().collect();
            for path in &paths {
                let cardinality = inner.index_cardinality(path);
                assert_eq!(
                    cardinality,
                    Some(distinct_at(&all, path)),
                    "step {step}: {path}"
                );
            }
            for _ in 0..4 {
                let path = rng.pick(&INDEXED).to_owned();
                let value = rng.probe();
                let filter = match rng.size(0, 3) {
                    0 => Filter::eq(path, value),
                    1 => Filter::and(vec![Filter::gte(path.clone(), value), Filter::eq("w", 1)]),
                    _ => Filter::range(path, rng.int(-6, 0), rng.int(0, 6)),
                };
                let found: Vec<DocId> = inner.matches(&filter).map(|(id, _)| id).collect();
                let walked = inner.rows().filter(|(_, row)| filter.matches_doc(row));
                let walked: Vec<DocId> = walked.map(|(id, _)| id).collect();
                assert_eq!(found, walked, "step {step}: {filter:?}");
            }
        }
    });
    let (sealed, unsealed) = (sealed.get(), unsealed.get());
    assert!(
        sealed > 256 && unsealed > 64,
        "{sealed} sealed, {unsealed} unsealed"
    );
}

/// One block's worth (eight documents, under test) of one key set whose
/// members end, between them, as every kind of column, most only after
/// more than [`DICTIONARY_MAX`](crate::row) distinct values have arrived:
/// `d` a few letters and null (a dictionary); `p` integers whose offsets
/// take each width, in any order (a number column that rebases and
/// widens as they come); `k` numbers of one kind — integers of both
/// signs, integers none negative with some beyond `i64::MAX`, or floats
/// with both zeros — and nulls, now and then one row of another kind (a
/// value column from there on); `s` integers none negative or some
/// negative, and at times one beyond `i64::MAX` in any row (an integer
/// column made `u64`, or a value column); `v` any scalar.
fn stream_block(rng: &mut Rng) -> Vec<Value> {
    let (packed, _) = packed_block(rng);
    let kind = rng.size(0, 3);
    let stray = (rng.size(0, 4) == 0).then(|| rng.size(0, 8));
    let negative = rng.flag();
    let huge_at = rng.size(0, 12);
    let letters = [json!("a"), json!("b"), Value::Null];
    let rows = packed.into_iter().enumerate();
    rows.map(|(row, p)| {
        let k = match stray {
            Some(at) if at == row => typed_edge(rng),
            _ => typed_word(rng, kind),
        };
        let s = match row {
            row if row == huge_at => Value::from(u64::MAX - rng.next() % 1_000),
            _ if negative => Value::from(rng.int(-300, 300)),
            _ => Value::from(rng.int(0, 70_000)),
        };
        let d = letters[rng.size(0, 3)].clone();
        json!({"d": d, "k": k, "p": p, "s": s, "v": rng.scalar()})
    })
    .collect()
}

/// `doc`'s members.
fn members(doc: &Value) -> serde_json::Map<String, Value> {
    doc.as_object().cloned().unwrap()
}

/// Whether `block`'s first rows read as `rows`: each one's JSON, and the
/// values `each_at` hands out at every member (a dictionary's distinct
/// ones once each).
fn reads_as(block: &Sealed, rows: &[Row]) -> bool {
    let text = |row: RowRef<'_>| {
        let mut text = String::new();
        row.write_json(&mut text);
        text
    };
    let held = (0..block.len()).map(|at| text(block.row(at).unwrap()));
    let open = rows.iter().map(|row| text(RowRef::Open(row)));
    let same_members = ["_id", "d", "k", "p", "s", "v"].iter().all(|path| {
        let mut handed = Vec::new();
        block.each_at(path, |value| handed.push(value.to_string()));
        let at = rows.iter().filter_map(|row| RowRef::Open(row).at(path));
        let mut expected: Vec<String> = at.map(|value| value.to_string()).collect();
        if handed.len() < expected.len() {
            expected.sort();
            expected.dedup();
            handed.sort();
        }
        handed == expected
    });
    block.len() == rows.len() && held.eq(open) && same_members
}

/// A block filled one document at a time is, once closed — full, or
/// short where a stream stops continuing it — the very block
/// `Sealed::new` makes of its rows at once: column for column the same
/// variant, a dictionary's values in the order met and its codes, a
/// number column's kind, base, width, offsets and null rows, a value
/// column's values. At every fill before that it reads as its rows do.
/// Documents carry their `_id` (a replay) or are given one (an insert);
/// one of another key set never fits, nor does any once it is closed.
#[test]
fn a_block_filled_by_appends_is_the_block_sealed_at_once() {
    let widths = Widths::default();
    // Columns that ended as numbers and as values, over all cases.
    let (numbers, values) = (Cell::new(0), Cell::new(0));
    check(|rng| {
        let mut shapes = Shapes::default();
        let replayed = rng.flag();
        let docs: Vec<serde_json::Map<String, Value>> = stream_block(rng)
            .iter()
            .enumerate()
            .map(|(id, doc)| {
                let mut doc = members(doc);
                if replayed {
                    doc.insert("_id".to_owned(), json!(id));
                }
                doc
            })
            .collect();
        let id = |at: usize| (!replayed).then_some(DocId(at as u64));
        // A third of the blocks close short.
        let len = match rng.size(0, 3) {
            0 => rng.size(1, docs.len()),
            _ => docs.len(),
        };
        let rows: Vec<Row> = (docs[..len].iter().enumerate())
            .map(|(at, doc)| Row::from_map(doc.clone(), id(at), None, &mut shapes))
            .collect();
        let first = Row::from_map(docs[0].clone(), id(0), None, &mut shapes);
        let mut block = Sealed::open(first);
        for (at, doc) in docs[..len].iter().enumerate().skip(1) {
            assert!(reads_as(&block, &rows[..at]), "after {at} rows");
            let mut other = doc.clone();
            other.insert("e".to_owned(), json!(1));
            assert!(!block.fits(&other, !replayed));
            other.remove("e");
            other.remove("d");
            assert!(!block.fits(&other, !replayed));
            assert!(block.fits(doc, !replayed));
            block.append(doc.clone(), id(at), |_, _| {});
        }
        assert_eq!(block.filling(), len < docs.len());
        block.close();
        assert!(!block.filling());
        assert!(len == docs.len() || !block.fits(&docs[len], !replayed));
        assert!(reads_as(&block, &rows));
        widths.count(block.offset_widths());
        let kinds = block.column_kinds();
        numbers.set(numbers.get() + kinds.1);
        values.set(values.get() + kinds.2);
        let shape = Arc::clone(rows[0].shape());
        let oracle = Sealed::new(shape, rows.into_iter());
        assert!(block.same_columns(&oracle), "{block:#?}\n{oracle:#?}");
    });
    widths.assert_each_seen();
    let (numbers, values) = (numbers.get(), values.get());
    assert!(numbers > 512 && values > 256, "{numbers} {values}");
}

/// Every read over a stream — its blocks filling, sealing, closed short
/// by a document of another key set, made rows by a write into them,
/// replayed from the log or from a snapshot with the ids deleted before
/// it missing — answers as the naive store does: `all`, `get`,
/// `find_with_options`, `count` and `distinct` under filters the column
/// pass decides. And every closed block is the one `Sealed::new` makes
/// of its rows.
#[test]
fn reads_over_filling_blocks_equal_the_naive_store() {
    const MEMBERS: [&str; 7] = ["d", "k", "p", "s", "v", "zz", "_id"];
    // Filling blocks read, full and short closed blocks held to the
    // oracle, and reopens from a snapshot whose ids had a gap.
    let (filling, sealed, gaps) = (Cell::new(0), Cell::new(0), Cell::new(0));
    let short = Cell::new(0);
    check(|rng| {
        let dir = prop_temp_dir();
        let wal = mps_wal::WalConfig::default().telemetry(false).fsync(false);
        let config = DurabilityConfig::new(&dir).wal(wal).snapshot_every(0);
        let open = || Store::open(Durability::Durable(config.clone())).unwrap();
        let mut store = open();
        if rng.flag() {
            let path = rng.pick(&MEMBERS[..5]);
            store.collection("s").create_index(path).unwrap();
        }
        let mut naive = Naive::default();
        let mut pending: Vec<Value> = Vec::new();
        for step in 0..rng.size(4, 14) {
            let c = store.collection("s");
            match rng.size(0, 10) {
                0..=4 => {
                    let mut docs = Vec::new();
                    for _ in 0..rng.size(1, 10) {
                        if pending.is_empty() {
                            pending = stream_block(rng);
                        }
                        let mut doc = pending.pop().unwrap();
                        if rng.size(0, 16) == 0 {
                            doc.as_object_mut()
                                .unwrap()
                                .insert("e".to_owned(), json!(1));
                        }
                        naive.insert(doc.clone());
                        docs.push(doc);
                    }
                    c.insert_many(docs).unwrap();
                }
                5 | 6 => {
                    // Into the newest block: the filling one, if any.
                    let id = naive.next_id.saturating_sub(rng.size(1, 4) as u64);
                    let filter = Filter::eq("_id", id);
                    if rng.flag() {
                        let update = Update::set("d", "z");
                        naive.update(&filter, &update);
                        c.update_many(&filter, &update).unwrap();
                    } else {
                        naive.docs.retain(|doc| !filter.matches(doc));
                        c.delete_many(&filter).unwrap();
                    }
                }
                7 => {
                    let ids = naive.docs.iter().map(|doc| doc["_id"].as_u64().unwrap());
                    let contiguous = ids.clone().eq(0..naive.docs.len() as u64);
                    gaps.set(gaps.get() + usize::from(!contiguous));
                    store.checkpoint().unwrap();
                    drop((c, store));
                    store = open();
                }
                _ => {
                    drop((c, store));
                    store = open();
                }
            }

            let c = store.collection("s");
            assert_eq!(c.all(), naive.docs, "step {step}");
            for doc in &naive.docs {
                let id = DocId(doc["_id"].as_u64().unwrap());
                assert_eq!(c.get(id).as_ref(), Some(doc));
            }
            let known: Vec<Value> = naive
                .docs
                .iter()
                .flat_map(|doc| doc.as_object().unwrap().values().cloned())
                .collect();
            let mut value = |rng: &mut Rng| match known.len() {
                0 => typed_edge(rng),
                held => match rng.flag() {
                    true => known[rng.size(0, held)].clone(),
                    false => typed_edge(rng),
                },
            };
            for _ in 0..3 {
                let mut lone = |rng: &mut Rng| {
                    let member = rng.pick(&MEMBERS);
                    rng.lone_on(member, &mut value)
                };
                let filter = match rng.size(0, 3) {
                    0 => lone(rng),
                    1 => Filter::and(rng.vec(1, 4, &mut lone)),
                    _ => rng.filter(1),
                };
                let options = rng.find_options();
                assert_eq!(
                    c.find_with_options(&filter, &options),
                    naive.find(&filter, &options),
                    "step {step}: {filter:?} {options:?}"
                );
                let all = naive.find(&filter, &FindOptions::new()).unwrap();
                assert_eq!(c.count(&filter).unwrap(), all.len(), "{filter:?}");
                let path = rng.pick(&MEMBERS);
                assert_eq!(c.distinct(path, &filter), naive.distinct(path, &filter));
            }
            let inner = c.inner.lock();
            for (first, block) in inner.column_blocks() {
                if block.filling() {
                    filling.set(filling.get() + 1);
                    continue;
                }
                let mut shapes = Shapes::default();
                let ids = first..first + block.len() as u64;
                let docs = naive.docs.iter();
                let docs = docs.filter(|doc| ids.contains(&doc["_id"].as_u64().unwrap()));
                let rows: Vec<Row> = docs
                    .map(|doc| Row::from_map(members(doc), None, None, &mut shapes))
                    .collect();
                let shape = Arc::clone(rows[0].shape());
                let oracle = Sealed::new(shape, rows.into_iter());
                assert!(block.same_columns(&oracle), "step {step}: block {first}");
                let closed = if block.len() < 8 { &short } else { &sealed };
                closed.set(closed.get() + 1);
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    });
    let (filling, sealed, gaps) = (filling.get(), sealed.get(), gaps.get());
    let short = short.get();
    assert!(
        filling > 256 && sealed > 256 && short > 64 && gaps > 16,
        "{filling} filling, {sealed} sealed, {short} short, {gaps} gaps"
    );
}
