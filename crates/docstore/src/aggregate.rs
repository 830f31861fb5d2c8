//! A small aggregation pipeline (the subset of MongoDB's that GoFlow's
//! analytics use): `$match`, `$group`, `$sort`, `$skip`, `$limit`,
//! `$project` and `$count`.

use crate::collection::{compare_at_path, project, SortOrder};
use crate::filter::Filter;
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

#[derive(Default)]
struct GroupAcc {
    count: u64,
    sums: Vec<f64>,
    sum_counts: Vec<u64>,
    mins: Vec<Option<Value>>,
    maxs: Vec<Option<Value>>,
    firsts: Vec<Option<Value>>,
}

/// Runs `stages` over `docs` and returns the resulting documents.
///
/// # Errors
///
/// Returns [`StoreError::Unorderable`] when a `$sort` path holds
/// arrays/objects, and [`StoreError::BadPipeline`] for a group key that is
/// an array/object.
pub fn aggregate(docs: &[Value], stages: &[Stage]) -> Result<Vec<Value>, StoreError> {
    let mut current: Vec<Value> = docs.to_vec();
    for stage in stages {
        current = apply_stage(current, stage)?;
    }
    Ok(current)
}

fn apply_stage(docs: Vec<Value>, stage: &Stage) -> Result<Vec<Value>, StoreError> {
    match stage {
        Stage::Match(filter) => Ok(docs.into_iter().filter(|d| filter.matches(d)).collect()),
        Stage::Skip(n) => Ok(docs.into_iter().skip(*n).collect()),
        Stage::Limit(n) => Ok(docs.into_iter().take(*n).collect()),
        Stage::Count(name) => Ok(vec![json!({ name.as_str(): docs.len() })]),
        Stage::Sort(path, order) => {
            let mut docs = docs;
            let mut unorderable = false;
            docs.sort_by(|a, b| compare_at_path(path, *order, a, b, &mut unorderable));
            if unorderable {
                return Err(StoreError::Unorderable(path.clone()));
            }
            Ok(docs)
        }
        Stage::Project(paths) => Ok(docs.iter().map(|doc| project(doc, paths)).collect()),
        Stage::Group(spec) => group(docs, spec),
    }
}

fn group(docs: Vec<Value>, spec: &GroupSpec) -> Result<Vec<Value>, StoreError> {
    // Group key -> (representative _id value, accumulator state). BTreeMap
    // on the serialized key keeps output order deterministic.
    let mut groups: BTreeMap<String, (Value, GroupAcc)> = BTreeMap::new();
    let n_acc = spec.accumulators.len();

    for doc in &docs {
        let key_value = match &spec.key {
            Some(path) => get_path(doc, path).cloned().unwrap_or(Value::Null),
            None => Value::Null,
        };
        if key_value.is_array() || key_value.is_object() {
            return Err(StoreError::BadPipeline("group key must be a scalar".into()));
        }
        let map_key = key_value.to_string();
        let entry = groups.entry(map_key).or_insert_with(|| {
            (
                key_value.clone(),
                GroupAcc {
                    count: 0,
                    sums: vec![0.0; n_acc],
                    sum_counts: vec![0; n_acc],
                    mins: vec![None; n_acc],
                    maxs: vec![None; n_acc],
                    firsts: vec![None; n_acc],
                },
            )
        });
        let acc = &mut entry.1;
        acc.count += 1;
        for (i, (_, a)) in spec.accumulators.iter().enumerate() {
            match a {
                Accumulator::Count => {}
                Accumulator::Sum(path) | Accumulator::Avg(path) => {
                    if let Some(x) = get_path(doc, path).and_then(Value::as_f64) {
                        acc.sums[i] += x;
                        acc.sum_counts[i] += 1;
                    }
                }
                Accumulator::Min(path) => {
                    if let Some(v) = get_path(doc, path) {
                        let better = match &acc.mins[i] {
                            None => true,
                            Some(cur) => compare_values(v, cur) == Some(Ordering::Less),
                        };
                        if better {
                            acc.mins[i] = Some(v.clone());
                        }
                    }
                }
                Accumulator::Max(path) => {
                    if let Some(v) = get_path(doc, path) {
                        let better = match &acc.maxs[i] {
                            None => true,
                            Some(cur) => compare_values(v, cur) == Some(Ordering::Greater),
                        };
                        if better {
                            acc.maxs[i] = Some(v.clone());
                        }
                    }
                }
                Accumulator::First(path) => {
                    if acc.firsts[i].is_none() {
                        acc.firsts[i] = get_path(doc, path).cloned();
                    }
                }
            }
        }
    }

    Ok(groups
        .into_values()
        .map(|(key_value, acc)| {
            let mut out = Map::new();
            out.insert("_id".to_owned(), key_value);
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
                    Accumulator::Min(_) => acc.mins[i].clone().unwrap_or(Value::Null),
                    Accumulator::Max(_) => acc.maxs[i].clone().unwrap_or(Value::Null),
                    Accumulator::First(_) => acc.firsts[i].clone().unwrap_or(Value::Null),
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
