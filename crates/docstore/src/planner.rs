//! Query planner: choose secondary indexes before touching documents.
//!
//! The planner inspects a [`Filter`](crate::Filter)'s indexable predicates (each non-null
//! equality and each merged range over a top-level `And`) and asks the
//! collection's secondary indexes for each one's candidate ids: an
//! equality's set is *borrowed* from the index, a range's is gathered
//! across its keys and sorted. It then walks the smallest set and probes
//! the others for each of its ids ([`intersect`]) — a 139-id window
//! against a 10 000-id model costs 139 lookups, and the large set is
//! never copied. Executors fetch only the surviving candidates and
//! re-check each against the full filter, so the planner only ever has to
//! be *conservative* (a superset of the true matches is always safe).
//!
//! An index holds the rows of the open blocks only (see
//! [`crate::index`]), so its candidates are open rows, never all of the
//! matches: the executor reads the sealed blocks beside them the way a
//! scan does — their numeric summaries drop whole blocks of `_id`s, the
//! column pass drops rows (see [`crate::collection`]) — and merges the
//! two in `_id` order. Where no index serves, the same mechanisms narrow
//! a full scan. Neither is a plan of its own: the plan, and its label,
//! say only which indexes served the open rows. The filter is taken
//! apart for all of them once per query; the planner is handed its
//! share.
//!
//! Which plan ran is exported as
//! `docstore_query_plans_total{plan=...}` — watching `full_scan` climb on
//! a hot collection is the signal that an index is missing, whether or
//! not its scans skip.

use crate::filter::IndexablePredicate;
use crate::index::{Ids, PathIndex};
use crate::value::DocId;
use std::collections::BTreeMap;

/// Which strategy the planner selected for a query, in increasing order
/// of selectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// No usable index: every document is visited.
    FullScan,
    /// One equality predicate answered by an index.
    IndexEq,
    /// One range predicate answered by an index.
    IndexRange,
    /// Two or more indexed predicates, candidate sets intersected.
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

/// The outcome of planning one query.
#[derive(Debug)]
pub(crate) struct QueryPlan {
    /// Strategy chosen (exported as the `plan` metric label).
    pub(crate) kind: PlanKind,
    /// Candidate ids in ascending `_id` order, or `None` for a full scan.
    pub(crate) candidates: Option<Vec<DocId>>,
}

/// One indexed predicate's candidate ids, in ascending `_id` order.
#[derive(Debug)]
pub(crate) enum IdSet<'a> {
    /// An equality's ids, where the index keeps them.
    Borrowed(&'a Ids),
    /// A range's ids, gathered in key order and sorted by id.
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

/// Plans a filter, by its
/// [`indexable_predicates`](crate::Filter::indexable_predicates), against the
/// collection's `indexes`: every predicate backed by an index contributes
/// a candidate set, the others are left to the execution-time re-check.
pub(crate) fn plan_query(
    predicates: &[IndexablePredicate<'_>],
    indexes: &BTreeMap<String, PathIndex>,
) -> QueryPlan {
    let mut sets: Vec<IdSet<'_>> = Vec::new();
    let mut kind = PlanKind::FullScan;
    for predicate in predicates {
        let (set, alone) = match *predicate {
            IndexablePredicate::Eq { path, value } => match indexes.get(path) {
                Some(index) => {
                    let ids = index.eq_set(value).map(IdSet::Borrowed);
                    (ids.unwrap_or(IdSet::Sorted(Vec::new())), PlanKind::IndexEq)
                }
                None => continue,
            },
            IndexablePredicate::Range((path, lo, hi)) => match indexes.get(path) {
                Some(index) => {
                    // `lookup_range` returns ids in *key* order; the
                    // executor promises `_id` order, so sort here.
                    let mut ids = index.lookup_range(lo, hi);
                    ids.sort_unstable();
                    (IdSet::Sorted(ids), PlanKind::IndexRange)
                }
                None => continue,
            },
        };
        kind = match sets.len() {
            0 => alone,
            _ => PlanKind::IndexIntersect,
        };
        sets.push(set);
    }
    QueryPlan {
        kind,
        candidates: (!sets.is_empty()).then(|| intersect(sets)),
    }
}

/// The ids every one of `sets` holds, ascending: the smallest set is
/// walked, the others are only probed, and none is copied but the result.
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::filter::Filter;
    use serde_json::{json, Value};

    /// Intersection of two ascending id slices, by linear merge: how the
    /// planner intersected before it probed, kept as the tests' reference.
    pub(crate) fn intersect_sorted(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    fn plan(filter: &Filter, indexes: &BTreeMap<String, PathIndex>) -> QueryPlan {
        plan_query(&filter.indexable_predicates(), indexes)
    }

    fn index_on(entries: &[(Value, u64)]) -> PathIndex {
        let mut index = PathIndex::new();
        for (value, id) in entries {
            index.insert(value, DocId(*id));
        }
        index
    }

    #[test]
    fn no_index_means_full_scan() {
        let indexes = BTreeMap::new();
        let plan = plan(&Filter::eq("model", "A"), &indexes);
        assert_eq!(plan.kind, PlanKind::FullScan);
        assert!(plan.candidates.is_none());
    }

    #[test]
    fn eq_plan_uses_index_in_id_order() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 2), (json!("A"), 0), (json!("B"), 1)]),
        );
        let plan = plan(&Filter::eq("model", "A"), &indexes);
        assert_eq!(plan.kind, PlanKind::IndexEq);
        assert_eq!(plan.candidates, Some(vec![DocId(0), DocId(2)]));
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
        assert_eq!(plan.kind, PlanKind::IndexRange);
        assert_eq!(plan.candidates, Some(vec![DocId(0), DocId(1), DocId(3)]));
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
        assert_eq!(plan.kind, PlanKind::IndexIntersect);
        assert_eq!(plan.candidates, Some(vec![DocId(2)]));
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
        assert_eq!(plan.kind, PlanKind::IndexEq);
        assert_eq!(plan.candidates, Some(vec![DocId(0)]));
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let mut indexes = BTreeMap::new();
        indexes.insert("a".to_owned(), index_on(&[(json!(1), 0)]));
        indexes.insert("b".to_owned(), index_on(&[(json!(1), 1)]));
        let filter = Filter::and(vec![Filter::eq("a", 1), Filter::eq("b", 1)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan.kind, PlanKind::IndexIntersect);
        assert_eq!(plan.candidates, Some(Vec::new()));
    }

    #[test]
    fn intersect_sorted_merges() {
        let a: Vec<DocId> = [1u64, 3, 5, 7].iter().map(|&i| DocId(i)).collect();
        let b: Vec<DocId> = [2u64, 3, 7, 9].iter().map(|&i| DocId(i)).collect();
        assert_eq!(intersect_sorted(&a, &b), vec![DocId(3), DocId(7)]);
    }
}
