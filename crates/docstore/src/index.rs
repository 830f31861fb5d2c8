//! Secondary indexes, and the probe that asks them for a query's rows.
//!
//! An index maps the scalar value at one dotted path to the ids of the
//! documents holding that value — of the *open* rows only, those of the
//! blocks that are not sealed: a sealed block's rows leave every index
//! when it seals and come back when a write unseals it (see
//! [`crate::collection`]). A query's clauses reach the indexes through
//! [`probe`]: each equality with a non-null scalar and each interval on
//! an indexed path gives the open rows' ids it may hold for, and the sets
//! are intersected. The sealed blocks answer the same clauses from their
//! summaries and columns.
//!
//! **How an entry lies in memory.** An index is one `BTreeMap` from
//! [`IndexKey`] to [`Ids`]. A key is a scalar of 24 bytes — null, a
//! number as parsed, a boxed string or a bool — not a 32-byte `Value`.
//! Its ids are a *posting*: while one document holds the key, its id
//! lies in the map slot itself (`Ids::One`), and only a second one moves
//! them into a boxed set of their own (`Ids::Many`), which falls back to
//! `One` when all but one leave. A key held by one document, as a
//! capture timestamp is, thus costs 40 bytes in a tree node, not a set
//! and a node of its own besides.
//!
//! Keys order and compare exactly as
//! [`compare_values`](crate::compare_values) does: `1` and `1.0` are one
//! key, and so are `0.0` and `-0.0`; 2⁵³ and 2⁵³ + 1 are two. Indexes are
//! derived state: nothing of them reaches the disk, and a reopen rebuilds
//! them from the open rows.
//!
//! Which indexes served a read is exported as
//! `docstore_query_plans_total{plan=...}` ([`PlanKind`]) — watching
//! `full_scan` climb on a hot collection is the signal that an index is
//! missing, whether or not its scans skip.

use crate::filter::{Clause, Test};
use crate::value::{compare_numbers, DocId};
use serde_json::{Number, Value};
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::ops::Bound;

/// A scalar JSON value, totally ordered as
/// [`compare_values`](crate::compare_values) orders scalars (null <
/// numbers < strings < booleans, numbers by exact value), usable as a
/// B-tree key. Arrays and objects are not indexable and are skipped at
/// insert.
///
/// `==` is that order's equality, so `1` and `1.0` are one key.
///
/// # Examples
///
/// ```
/// use mps_docstore::IndexKey;
/// use serde_json::json;
///
/// let one = IndexKey::new(&json!(1)).unwrap();
/// assert_eq!(one, IndexKey::new(&json!(1.0)).unwrap());
/// assert!(one < IndexKey::new(&json!("1")).unwrap());
/// assert_eq!(one.value(), json!(1));
/// assert!(IndexKey::new(&json!([1])).is_none());
/// ```
#[derive(Debug, Clone)]
pub enum IndexKey {
    /// `null`.
    Null,
    /// A number, of the kind it was parsed as.
    Number(Number),
    /// A string.
    String(Box<str>),
    /// `true` or `false`.
    Bool(bool),
}

impl IndexKey {
    /// The key for a scalar value; `None` for arrays and objects.
    pub fn new(value: &Value) -> Option<IndexKey> {
        Some(match value {
            Value::Null => IndexKey::Null,
            Value::Number(n) => IndexKey::Number(*n),
            Value::String(s) => IndexKey::String(s.as_str().into()),
            Value::Bool(b) => IndexKey::Bool(*b),
            Value::Array(_) | Value::Object(_) => return None,
        })
    }

    /// The value the key was made from.
    pub fn value(&self) -> Value {
        match self {
            IndexKey::Null => Value::Null,
            IndexKey::Number(n) => Value::Number(*n),
            IndexKey::String(s) => Value::from(&**s),
            IndexKey::Bool(b) => Value::Bool(*b),
        }
    }

    /// Position among the types, as `compare_values` ranks them.
    fn rank(&self) -> u8 {
        match self {
            IndexKey::Null => 0,
            IndexKey::Number(_) => 1,
            IndexKey::String(_) => 2,
            IndexKey::Bool(_) => 3,
        }
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            // Every `Number` is finite, so two always compare.
            (IndexKey::Number(x), IndexKey::Number(y)) => {
                compare_numbers(x, y).unwrap_or(Ordering::Equal)
            }
            (IndexKey::String(x), IndexKey::String(y)) => x.cmp(y),
            (IndexKey::Bool(x), IndexKey::Bool(y)) => x.cmp(y),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// The ids of the documents holding one key: a *posting*. One id lies
/// inline; more share a boxed set, which is never left holding one.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Ids {
    One(DocId),
    /// Two or more ids. Boxed, so that a posting is 16 bytes, not 32.
    #[expect(
        clippy::box_collection,
        reason = "a boxed set keeps a posting at 16 bytes"
    )]
    Many(Box<BTreeSet<DocId>>),
}

impl Ids {
    pub(crate) fn len(&self) -> usize {
        match self {
            Ids::One(_) => 1,
            Ids::Many(ids) => ids.len(),
        }
    }

    pub(crate) fn contains(&self, id: &DocId) -> bool {
        match self {
            Ids::One(held) => held == id,
            Ids::Many(ids) => ids.contains(id),
        }
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        let (one, many) = match self {
            Ids::One(id) => (Some(*id), None),
            Ids::Many(ids) => (None, Some(ids.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn insert(&mut self, id: DocId) {
        match self {
            Ids::One(held) if *held == id => {}
            Ids::One(held) => *self = Ids::Many(Box::new(BTreeSet::from([*held, id]))),
            Ids::Many(ids) => {
                ids.insert(id);
            }
        }
    }

    /// Keeps the ids `keep` holds for; returns whether any is left.
    fn retain(&mut self, keep: impl Fn(DocId) -> bool) -> bool {
        match self {
            Ids::One(id) => keep(*id),
            Ids::Many(ids) => {
                ids.retain(|id| keep(*id));
                match (ids.len(), ids.first()) {
                    (0, _) => false,
                    (1, Some(&last)) => {
                        *self = Ids::One(last);
                        true
                    }
                    _ => true,
                }
            }
        }
    }

    /// Removes `id`; returns whether no id is left.
    fn remove(&mut self, id: DocId) -> bool {
        match self {
            Ids::One(held) => *held == id,
            Ids::Many(ids) => {
                ids.remove(&id);
                if let (1, Some(&last)) = (ids.len(), ids.first()) {
                    *self = Ids::One(last);
                }
                false
            }
        }
    }
}

/// A single-path secondary index.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct PathIndex {
    entries: BTreeMap<IndexKey, Ids>,
}

impl PathIndex {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Indexes `id` under `value` (no-op for non-scalar values).
    pub(crate) fn insert(&mut self, value: &Value, id: DocId) {
        if let Some(key) = IndexKey::new(value) {
            match self.entries.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(Ids::One(id));
                }
                Entry::Occupied(mut slot) => slot.get_mut().insert(id),
            }
        }
    }

    /// Removes `id` from under `value`.
    pub(crate) fn remove(&mut self, value: &Value, id: DocId) {
        if let Some(Entry::Occupied(mut slot)) = IndexKey::new(value).map(|k| self.entries.entry(k))
        {
            if slot.get_mut().remove(id) {
                slot.remove();
            }
        }
    }

    /// Removes every id `keep` is false for, in one pass over the index
    /// that builds it anew: cheaper than a removal per id when they are
    /// most of what it holds.
    pub(crate) fn retain(&mut self, keep: impl Fn(DocId) -> bool) {
        let entries = std::mem::take(&mut self.entries).into_iter();
        let kept = entries.filter_map(|(key, mut ids)| ids.retain(&keep).then_some((key, ids)));
        self.entries = kept.collect();
    }

    /// Ids of documents whose indexed value is `key`, borrowed: the
    /// probe walks or probes them where they lie.
    pub(crate) fn eq_set(&self, key: &IndexKey) -> Option<&Ids> {
        self.entries.get(key)
    }

    /// Ids of documents whose indexed value falls within `lo` and `hi`,
    /// each `(value, inclusive)` or unbounded, in key order.
    pub(crate) fn lookup_range(
        &self,
        lo: &Option<(Value, bool)>,
        hi: &Option<(Value, bool)>,
    ) -> Vec<DocId> {
        let bound = |end: &Option<(Value, bool)>| match end {
            None => Some(Bound::Unbounded),
            Some((v, true)) => IndexKey::new(v).map(Bound::Included),
            Some((v, false)) => IndexKey::new(v).map(Bound::Excluded),
        };
        let (Some(lo), Some(hi)) = (bound(lo), bound(hi)) else {
            return Vec::new();
        };
        // Bounds that cross hold nothing, and `BTreeMap::range` panics on
        // them — as it does on one key excluded from both sides.
        let crossed = match (&lo, &hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                l >= h
            }
            _ => false,
        };
        if crossed {
            return Vec::new();
        }
        self.entries
            .range((lo, hi))
            .flat_map(|(_, ids)| ids.iter())
            .collect()
    }

    /// The distinct indexed values, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &IndexKey> {
        self.entries.keys()
    }
}

/// Which indexes served a query's open rows, in increasing order of
/// selectivity: the `plan` label of `docstore_query_plans_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// No usable index: every open row is visited.
    FullScan,
    /// One equality answered by an index.
    IndexEq,
    /// One interval answered by an index.
    IndexRange,
    /// Two or more indexed clauses, candidate sets intersected.
    IndexIntersect,
}

impl PlanKind {
    /// The `plan` label value this kind is exported under.
    pub fn label(self) -> &'static str {
        match self {
            PlanKind::FullScan => "full_scan",
            PlanKind::IndexEq => "index_eq",
            PlanKind::IndexRange => "index_range",
            PlanKind::IndexIntersect => "index_intersect",
        }
    }
}

/// One indexed clause's candidate ids, in ascending `_id` order.
#[derive(Debug)]
pub(crate) enum IdSet<'a> {
    /// An equality's ids, where the index keeps them.
    Borrowed(&'a Ids),
    /// An interval's ids, gathered in key order and sorted by id.
    Sorted(Vec<DocId>),
}

impl IdSet<'_> {
    fn len(&self) -> usize {
        match self {
            IdSet::Borrowed(ids) => ids.len(),
            IdSet::Sorted(ids) => ids.len(),
        }
    }

    fn contains(&self, id: &DocId) -> bool {
        match self {
            IdSet::Borrowed(ids) => ids.contains(id),
            IdSet::Sorted(ids) => ids.binary_search(id).is_ok(),
        }
    }
}

/// The open rows that may satisfy every one of `clauses`, ascending, and
/// the plan that found them. Each clause on an indexed path that the
/// index can enumerate gives a set: an equality with a scalar other than
/// null (null also matches a missing member, and an array or object is
/// no key), or an interval. `None` where no clause does: every open row
/// is then a candidate. Either way the candidates are a superset, which
/// the re-check narrows.
pub(crate) fn probe<'c>(
    indexes: &BTreeMap<String, PathIndex>,
    clauses: impl Iterator<Item = &'c Clause>,
) -> (PlanKind, Option<Vec<DocId>>) {
    let mut sets = Vec::new();
    let mut kind = PlanKind::FullScan;
    for Clause { path, test } in clauses {
        let Some(index) = indexes.get(path) else {
            continue;
        };
        let (set, alone) = match test {
            Test::Eq(value) => match IndexKey::new(value) {
                None | Some(IndexKey::Null) => continue,
                Some(key) => {
                    let ids = index.eq_set(&key).map(IdSet::Borrowed);
                    (ids.unwrap_or(IdSet::Sorted(Vec::new())), PlanKind::IndexEq)
                }
            },
            Test::Range(lo, hi) => {
                let mut ids = index.lookup_range(lo, hi);
                ids.sort_unstable();
                (IdSet::Sorted(ids), PlanKind::IndexRange)
            }
            Test::In(_) => continue,
        };
        kind = match sets.len() {
            0 => alone,
            _ => PlanKind::IndexIntersect,
        };
        sets.push(set);
    }
    (kind, (!sets.is_empty()).then(|| intersect(sets)))
}

/// The ids every one of `sets` holds, ascending: the smallest set is
/// walked, the others are only probed, and none is copied but the result
/// — a 139-id window against a 10 000-id model costs 139 lookups.
pub(crate) fn intersect(mut sets: Vec<IdSet<'_>>) -> Vec<DocId> {
    let Some(smallest) = (0..sets.len()).min_by_key(|&i| sets[i].len()) else {
        return Vec::new();
    };
    let driver = sets.swap_remove(smallest);
    let in_the_rest = |id: &DocId| sets.iter().all(|set| set.contains(id));
    match driver {
        IdSet::Borrowed(ids) => ids.iter().filter(in_the_rest).collect(),
        IdSet::Sorted(mut ids) => {
            ids.retain(in_the_rest);
            ids
        }
    }
}

/// Tests of the indexes, and of query planning: which of a collection's
/// secondary indexes [`probe`] asks for a filter's candidate ids, and
/// which ids they give (a read runs it over its plan's terms; see
/// [`crate::collection`]).
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::filter::Filter;
    use serde_json::json;

    impl PathIndex {
        fn lookup_eq(&self, value: &Value) -> Vec<DocId> {
            let key = IndexKey::new(value).unwrap();
            self.eq_set(&key).into_iter().flat_map(Ids::iter).collect()
        }

        fn cardinality(&self) -> usize {
            self.keys().count()
        }
    }

    #[test]
    fn index_key_rejects_compound() {
        assert!(IndexKey::new(&json!([1])).is_none());
        assert!(IndexKey::new(&json!({"a": 1})).is_none());
        assert!(IndexKey::new(&json!(1)).is_some());
        assert_eq!(IndexKey::new(&json!("s")).unwrap().value(), json!("s"));
    }

    #[test]
    fn index_key_orders_numbers() {
        let a = IndexKey::new(&json!(1)).unwrap();
        let b = IndexKey::new(&json!(2.5)).unwrap();
        assert!(a < b);
    }

    #[test]
    fn an_entry_costs_a_key_and_an_id() {
        assert!(std::mem::size_of::<IndexKey>() <= 24);
        assert!(std::mem::size_of::<Ids>() <= 16);
    }

    #[test]
    fn integers_above_two_to_the_53_get_keys_of_their_own() {
        let mut idx = PathIndex::new();
        idx.insert(&json!(9_007_199_254_740_992u64), DocId(1));
        idx.insert(&json!(9_007_199_254_740_993u64), DocId(2));
        assert_eq!(idx.cardinality(), 2);
        assert_eq!(
            idx.lookup_eq(&json!(9_007_199_254_740_993u64)),
            vec![DocId(2)]
        );
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = PathIndex::new();
        idx.insert(&json!("x"), DocId(1));
        idx.insert(&json!("x"), DocId(2));
        idx.insert(&json!("y"), DocId(3));
        assert_eq!(idx.lookup_eq(&json!("x")), vec![DocId(1), DocId(2)]);
        assert_eq!(idx.lookup_eq(&json!("z")), Vec::<DocId>::new());
        idx.remove(&json!("x"), DocId(1));
        assert_eq!(idx.lookup_eq(&json!("x")), vec![DocId(2)]);
        idx.remove(&json!("x"), DocId(2));
        assert_eq!(idx.cardinality(), 1);
    }

    #[test]
    fn range_lookup_bounds() {
        let mut idx = PathIndex::new();
        for i in 0..10 {
            idx.insert(&json!(i), DocId(i as u64));
        }
        let ids = idx.lookup_range(&Some((json!(3), true)), &Some((json!(6), false)));
        assert_eq!(ids, vec![DocId(3), DocId(4), DocId(5)]);
        let ids = idx.lookup_range(&None, &Some((json!(2), true)));
        assert_eq!(ids, vec![DocId(0), DocId(1), DocId(2)]);
        let ids = idx.lookup_range(&Some((json!(8), false)), &None);
        assert_eq!(ids, vec![DocId(9)]);
    }

    #[test]
    fn crossed_range_bounds_are_empty_not_a_panic() {
        let mut idx = PathIndex::new();
        for i in 0..10 {
            idx.insert(&json!(i), DocId(i as u64));
        }
        let (five, six) = (json!(5), json!(6.0));
        for (lo, hi) in [
            ((&six, true), (&five, true)),
            ((&five, false), (&five, false)),
            ((&five, true), (&five, false)),
            ((&five, false), (&five, true)),
            ((&json!(5.0), false), (&five, true)),
        ] {
            let (lo, hi) = (Some((lo.0.clone(), lo.1)), Some((hi.0.clone(), hi.1)));
            assert!(idx.lookup_range(&lo, &hi).is_empty());
        }
        let ids = idx.lookup_range(&Some((five, true)), &Some((json!(5.0), true)));
        assert_eq!(ids, vec![DocId(5)]);
    }

    #[test]
    fn range_with_compound_bound_is_empty() {
        let mut idx = PathIndex::new();
        idx.insert(&json!(1), DocId(1));
        assert!(idx
            .lookup_range(&Some((json!([1]), true)), &None)
            .is_empty());
    }

    #[test]
    fn non_scalar_values_are_skipped() {
        let mut idx = PathIndex::new();
        idx.insert(&json!([1, 2]), DocId(1));
        assert_eq!(idx.cardinality(), 0);
        idx.remove(&json!([1, 2]), DocId(1)); // no panic
    }

    /// The plan, and its candidate ids, that `filter` probes `indexes` for.
    pub(crate) fn plan(
        filter: &Filter,
        indexes: &BTreeMap<String, PathIndex>,
    ) -> (PlanKind, Option<Vec<DocId>>) {
        probe(indexes, filter.clauses.iter())
    }

    /// An index holding each `(value, id)` of `entries`.
    pub(crate) fn index_on(entries: &[(Value, u64)]) -> PathIndex {
        let mut index = PathIndex::new();
        for (value, id) in entries {
            index.insert(value, DocId(*id));
        }
        index
    }

    /// `DocId`s of `ids`, in the order given.
    pub(crate) fn doc_ids(ids: &[u64]) -> Vec<DocId> {
        ids.iter().map(|&id| DocId(id)).collect()
    }

    #[test]
    fn no_index_means_full_scan() {
        let indexes = BTreeMap::new();
        let plan = plan(&Filter::eq("model", "A"), &indexes);
        assert_eq!(plan, (PlanKind::FullScan, None));
    }

    #[test]
    fn eq_plan_uses_index_in_id_order() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 2), (json!("A"), 0), (json!("B"), 1)]),
        );
        let plan = plan(&Filter::eq("model", "A"), &indexes);
        assert_eq!(plan, (PlanKind::IndexEq, Some(doc_ids(&[0, 2]))));
    }

    #[test]
    fn range_candidates_are_sorted_by_id() {
        // Key order disagrees with id order on purpose.
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "spl".to_owned(),
            index_on(&[(json!(40.0), 3), (json!(55.0), 1), (json!(70.0), 0)]),
        );
        let plan = plan(&Filter::gt("spl", 30.0), &indexes);
        assert_eq!(plan, (PlanKind::IndexRange, Some(doc_ids(&[0, 1, 3]))));
    }

    #[test]
    fn conjunction_intersects_candidate_sets() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 0), (json!("A"), 2), (json!("B"), 1)]),
        );
        indexes.insert(
            "spl".to_owned(),
            index_on(&[(json!(40.0), 0), (json!(55.0), 1), (json!(70.0), 2)]),
        );
        let filter = Filter::and(vec![Filter::eq("model", "A"), Filter::gt("spl", 50.0)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan, (PlanKind::IndexIntersect, Some(doc_ids(&[2]))));
    }

    #[test]
    fn missing_index_on_one_clause_still_uses_the_other() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 0), (json!("B"), 1)]),
        );
        let filter = Filter::and(vec![Filter::eq("model", "A"), Filter::gt("spl", 50.0)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan, (PlanKind::IndexEq, Some(doc_ids(&[0]))));
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let mut indexes = BTreeMap::new();
        indexes.insert("a".to_owned(), index_on(&[(json!(1), 0)]));
        indexes.insert("b".to_owned(), index_on(&[(json!(1), 1)]));
        let filter = Filter::and(vec![Filter::eq("a", 1), Filter::eq("b", 1)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan, (PlanKind::IndexIntersect, Some(Vec::new())));
    }
}
