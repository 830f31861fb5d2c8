//! A small aggregation pipeline (the subset of MongoDB's that GoFlow's
//! analytics use): `$match`, `$group`, `$sort`, `$skip`, `$limit`,
//! `$project` and `$count`.
//!
//! The input is borrowed, never copied: selecting and reordering stages
//! and `$group`'s accumulators work on references, and a document is
//! built only where a stage *outputs* one.

use crate::collection::{project, sorted_by_path, SortOrder};
use crate::filter::Filter;
use crate::index::IndexKey;
use crate::value::{compare_values, get_path};
use crate::StoreError;
use serde_json::{json, Map, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// An accumulator inside a [`GroupSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    /// Number of documents in the group.
    Count,
    /// Sum of the numeric values at a path (missing/non-numeric skipped).
    Sum(String),
    /// Average of the numeric values at a path.
    Avg(String),
    /// Minimum of the orderable values at a path.
    Min(String),
    /// Maximum of the orderable values at a path.
    Max(String),
    /// The first value seen at a path (documents arrive in `_id` order).
    First(String),
}

/// Specification of a `$group` stage: an optional grouping key path and
/// named accumulators.
///
/// # Examples
///
/// ```
/// use mps_docstore::{aggregate, Accumulator, GroupSpec, Stage};
/// use serde_json::json;
///
/// let docs = vec![
///     json!({"model": "A", "spl": 40.0}),
///     json!({"model": "A", "spl": 60.0}),
///     json!({"model": "B", "spl": 50.0}),
/// ];
/// let spec = GroupSpec::by("model").accumulate("mean_spl", Accumulator::Avg("spl".into()));
/// let out = aggregate(&docs, &[Stage::Group(spec)])?;
/// assert_eq!(out.len(), 2);
/// # Ok::<(), mps_docstore::StoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    key: Option<String>,
    accumulators: Vec<(String, Accumulator)>,
}

impl GroupSpec {
    /// Groups by the value at `path`; the output documents carry it as
    /// `_id`.
    pub fn by(path: impl Into<String>) -> Self {
        Self {
            key: Some(path.into()),
            accumulators: Vec::new(),
        }
    }

    /// Collapses all documents into a single group (`_id: null`).
    pub fn all() -> Self {
        Self {
            key: None,
            accumulators: Vec::new(),
        }
    }

    /// Adds a named accumulator.
    pub fn accumulate(mut self, name: impl Into<String>, acc: Accumulator) -> Self {
        self.accumulators.push((name.into(), acc));
        self
    }
}

/// One stage of an aggregation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Keep only documents matching the filter.
    Match(Filter),
    /// Group documents and compute accumulators.
    Group(GroupSpec),
    /// Sort by a dotted path.
    Sort(String, SortOrder),
    /// Skip the first `n` documents.
    Skip(usize),
    /// Keep at most `n` documents.
    Limit(usize),
    /// Keep only the given paths (plus `_id`).
    Project(Vec<String>),
    /// Replace the stream with a single `{name: count}` document.
    Count(String),
}

struct GroupAcc<'a> {
    count: u64,
    sums: Vec<f64>,
    sum_counts: Vec<u64>,
    /// What `Min`, `Max` and `First` hold so far, borrowed from the input.
    picks: Vec<Option<&'a Value>>,
}

/// Runs `stages` over `docs` and returns the resulting documents.
///
/// # Errors
///
/// Returns [`StoreError::Unorderable`] when a `$sort` path holds
/// arrays/objects, and [`StoreError::BadPipeline`] for a group key that is
/// an array/object.
pub fn aggregate(docs: &[Value], stages: &[Stage]) -> Result<Vec<Value>, StoreError> {
    run(docs.iter().collect(), stages)
}

/// Selecting and reordering stages narrow `docs` in place; the first
/// stage that makes new documents hands them to the rest of the pipeline.
fn run(mut docs: Vec<&Value>, stages: &[Stage]) -> Result<Vec<Value>, StoreError> {
    for (i, stage) in stages.iter().enumerate() {
        let made = match stage {
            Stage::Match(filter) => {
                docs.retain(|doc| filter.matches(doc));
                continue;
            }
            Stage::Skip(n) => {
                docs.drain(..docs.len().min(*n));
                continue;
            }
            Stage::Limit(n) => {
                docs.truncate(*n);
                continue;
            }
            Stage::Sort(path, order) => {
                docs = sorted_by_path(docs.into_iter(), path, *order, usize::MAX)?;
                continue;
            }
            Stage::Count(name) => vec![json!({ name.as_str(): docs.len() })],
            Stage::Project(paths) => docs.iter().map(|doc| project(doc, paths)).collect(),
            Stage::Group(spec) => group(&docs, spec)?,
        };
        return match &stages[i + 1..] {
            [] => Ok(made),
            rest => run(made.iter().collect(), rest),
        };
    }
    Ok(docs.into_iter().cloned().collect())
}

/// One output document per distinct key, in key order. Keys group and
/// order as [`IndexKey`]s — the order `distinct`, `$eq` and the indexes
/// use — so `1` and `1.0` are one group (shown as whichever came first)
/// and hour 9 precedes hour 10.
fn group(docs: &[&Value], spec: &GroupSpec) -> Result<Vec<Value>, StoreError> {
    let mut groups: BTreeMap<IndexKey, GroupAcc<'_>> = BTreeMap::new();
    let n_acc = spec.accumulators.len();

    for doc in docs {
        let key = spec.key.as_deref().and_then(|path| get_path(doc, path));
        let key = IndexKey::new(key.unwrap_or(&Value::Null))
            .ok_or_else(|| StoreError::BadPipeline("group key must be a scalar".into()))?;
        let acc = groups.entry(key).or_insert_with(|| GroupAcc {
            count: 0,
            sums: vec![0.0; n_acc],
            sum_counts: vec![0; n_acc],
            picks: vec![None; n_acc],
        });
        acc.count += 1;
        for (i, (_, a)) in spec.accumulators.iter().enumerate() {
            let (path, wanted) = match a {
                Accumulator::Count => continue,
                Accumulator::Sum(path) | Accumulator::Avg(path) => {
                    if let Some(x) = get_path(doc, path).and_then(Value::as_f64) {
                        acc.sums[i] += x;
                        acc.sum_counts[i] += 1;
                    }
                    continue;
                }
                Accumulator::Min(path) => (path, Some(Ordering::Less)),
                Accumulator::Max(path) => (path, Some(Ordering::Greater)),
                Accumulator::First(path) => (path, None),
            };
            // The first value seen, then any that compares as wanted.
            let pick = &mut acc.picks[i];
            if let Some(v) = get_path(doc, path) {
                if pick.is_none_or(|held| wanted.is_some() && compare_values(v, held) == wanted) {
                    *pick = Some(v);
                }
            }
        }
    }

    Ok(groups
        .into_iter()
        .map(|(key, acc)| {
            let mut out = Map::new();
            out.insert("_id".to_owned(), key.value());
            for (i, (name, a)) in spec.accumulators.iter().enumerate() {
                let value = match a {
                    Accumulator::Count => Value::from(acc.count),
                    Accumulator::Sum(_) => Value::from(acc.sums[i]),
                    Accumulator::Avg(_) => {
                        if acc.sum_counts[i] == 0 {
                            Value::Null
                        } else {
                            Value::from(acc.sums[i] / acc.sum_counts[i] as f64)
                        }
                    }
                    Accumulator::Min(_) | Accumulator::Max(_) | Accumulator::First(_) => {
                        acc.picks[i].cloned().unwrap_or(Value::Null)
                    }
                };
                out.insert(name.clone(), value);
            }
            Value::Object(out)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Value> {
        vec![
            json!({"_id": 0, "model": "A", "spl": 40.0, "hour": 9}),
            json!({"_id": 1, "model": "B", "spl": 55.0, "hour": 10}),
            json!({"_id": 2, "model": "A", "spl": 70.0, "hour": 9}),
            json!({"_id": 3, "model": "C", "spl": 62.0, "hour": 22}),
        ]
    }

    #[test]
    fn match_then_count() {
        let out = aggregate(
            &docs(),
            &[
                Stage::Match(Filter::gt("spl", 50.0)),
                Stage::Count("n".into()),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![json!({"n": 3})]);
    }

    #[test]
    fn group_by_key_with_all_accumulators() {
        let spec = GroupSpec::by("model")
            .accumulate("n", Accumulator::Count)
            .accumulate("total", Accumulator::Sum("spl".into()))
            .accumulate("mean", Accumulator::Avg("spl".into()))
            .accumulate("lo", Accumulator::Min("spl".into()))
            .accumulate("hi", Accumulator::Max("spl".into()))
            .accumulate("first_hour", Accumulator::First("hour".into()));
        let out = aggregate(&docs(), &[Stage::Group(spec)]).unwrap();
        assert_eq!(out.len(), 3);
        let a = out.iter().find(|d| d["_id"] == json!("A")).unwrap();
        assert_eq!(a["n"], json!(2));
        assert_eq!(a["total"], json!(110.0));
        assert_eq!(a["mean"], json!(55.0));
        assert_eq!(a["lo"], json!(40.0));
        assert_eq!(a["hi"], json!(70.0));
        assert_eq!(a["first_hour"], json!(9));
    }

    #[test]
    fn group_all_collapses() {
        let spec = GroupSpec::all().accumulate("n", Accumulator::Count);
        let out = aggregate(&docs(), &[Stage::Group(spec)]).unwrap();
        assert_eq!(out, vec![json!({"_id": null, "n": 4})]);
    }

    #[test]
    fn group_missing_key_buckets_as_null() {
        let docs = vec![json!({"a": 1}), json!({"k": "x", "a": 2})];
        let spec = GroupSpec::by("k").accumulate("n", Accumulator::Count);
        let out = aggregate(&docs, &[Stage::Group(spec)]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|d| d["_id"].is_null() && d["n"] == json!(1)));
    }

    #[test]
    fn group_keys_merge_as_equal_values_do() {
        // `1` and `1.0` are one value to `$eq`, `distinct` and the
        // indexes, so they are one group; it shows the first seen.
        let docs = vec![
            json!({"k": 1, "a": 1}),
            json!({"k": 1.0, "a": 2}),
            json!({"k": "1", "a": 4}),
            json!({"k": 1, "a": 8}),
        ];
        let spec = GroupSpec::by("k").accumulate("total", Accumulator::Sum("a".into()));
        let out = aggregate(&docs, &[Stage::Group(spec)]).unwrap();
        assert_eq!(
            out,
            vec![
                json!({"_id": 1, "total": 11.0}),
                json!({"_id": "1", "total": 4.0}),
            ]
        );
    }

    #[test]
    fn groups_come_out_in_key_order_not_text_order() {
        // Hours 0-23, met in a scrambled order: "10" sorts before "9" as
        // text, 10 after 9 as a number.
        let docs: Vec<Value> = (0..48).map(|i| json!({"hour": (i * 7) % 24})).collect();
        let spec = GroupSpec::by("hour").accumulate("n", Accumulator::Count);
        let out = aggregate(&docs, &[Stage::Group(spec)]).unwrap();
        let hours: Vec<i64> = out.iter().map(|g| g["_id"].as_i64().unwrap()).collect();
        assert_eq!(hours, (0..24).collect::<Vec<_>>());
        assert!(out.iter().all(|g| g["n"] == json!(2)));
    }

    #[test]
    fn group_rejects_compound_key() {
        let docs = vec![json!({"k": [1]})];
        let spec = GroupSpec::by("k");
        assert!(matches!(
            aggregate(&docs, &[Stage::Group(spec)]),
            Err(StoreError::BadPipeline(_))
        ));
    }

    #[test]
    fn avg_of_no_numeric_values_is_null() {
        let docs = vec![json!({"m": "x"})];
        let spec = GroupSpec::all().accumulate("mean", Accumulator::Avg("spl".into()));
        let out = aggregate(&docs, &[Stage::Group(spec)]).unwrap();
        assert_eq!(out[0]["mean"], Value::Null);
    }

    #[test]
    fn sort_skip_limit_pipeline() {
        let out = aggregate(
            &docs(),
            &[
                Stage::Sort("spl".into(), SortOrder::Descending),
                Stage::Skip(1),
                Stage::Limit(2),
                Stage::Project(vec!["spl".into()]),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], json!({"_id": 3, "spl": 62.0}));
        assert_eq!(out[1], json!({"_id": 1, "spl": 55.0}));
    }

    #[test]
    fn sort_error_on_compound() {
        let docs = vec![json!({"v": [1]}), json!({"v": 2})];
        assert!(matches!(
            aggregate(&docs, &[Stage::Sort("v".into(), SortOrder::Ascending)]),
            Err(StoreError::Unorderable(_))
        ));
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let d = docs();
        assert_eq!(aggregate(&d, &[]).unwrap(), d);
    }

    #[test]
    fn group_then_sort_chains() {
        // Per-hour counts sorted by hour — the shape of the Fig 18 query.
        let spec = GroupSpec::by("hour").accumulate("n", Accumulator::Count);
        let out = aggregate(
            &docs(),
            &[
                Stage::Group(spec),
                Stage::Sort("_id".into(), SortOrder::Ascending),
            ],
        )
        .unwrap();
        assert_eq!(out[0]["_id"], json!(9));
        assert_eq!(out[0]["n"], json!(2));
        assert_eq!(out[2]["_id"], json!(22));
    }
}
