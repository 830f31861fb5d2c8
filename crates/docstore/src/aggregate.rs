//! Aggregation: `$group` by one member, with the counts and means that
//! the analyses compute per hour or per model.
//!
//! The input is borrowed, never copied: the accumulators read the
//! documents in place, and a document is built only per group.

use crate::index::IndexKey;
use crate::value::get_path;
use crate::StoreError;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// An accumulator inside a [`GroupSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    /// Number of documents in the group.
    Count,
    /// Average of the numeric values at a path (missing/non-numeric
    /// skipped; null where there is none).
    Avg(String),
}

/// Specification of a `$group` stage: a grouping key path and named
/// accumulators.
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
/// assert_eq!(out, vec![
///     json!({"_id": "A", "mean_spl": 50.0}),
///     json!({"_id": "B", "mean_spl": 50.0}),
/// ]);
/// # Ok::<(), mps_docstore::StoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    key: String,
    accumulators: Vec<(String, Accumulator)>,
}

impl GroupSpec {
    /// Groups by the value at `path`; the output documents carry it as
    /// `_id`.
    pub fn by(path: impl Into<String>) -> Self {
        Self {
            key: path.into(),
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
    /// Group documents and compute accumulators.
    Group(GroupSpec),
}

/// A group's count, and per accumulator the sum and count of the
/// numbers an `Avg` met.
struct GroupAcc {
    count: u64,
    sums: Vec<(f64, u64)>,
}

/// Runs `stages` over `docs` and returns the resulting documents: each
/// stage's output is the next one's input, and no stage is `docs`.
///
/// # Errors
///
/// Returns [`StoreError::BadPipeline`] for a group key that is an
/// array/object.
pub fn aggregate(docs: &[Value], stages: &[Stage]) -> Result<Vec<Value>, StoreError> {
    let Some((Stage::Group(first), rest)) = stages.split_first() else {
        return Ok(docs.to_vec());
    };
    let mut out = group(docs, first)?;
    for Stage::Group(spec) in rest {
        out = group(&out, spec)?;
    }
    Ok(out)
}

/// One output document per distinct key, in key order. Keys group and
/// order as [`IndexKey`]s — the order `distinct`, `$eq` and the indexes
/// use — so `1` and `1.0` are one group (shown as whichever came first)
/// and hour 9 precedes hour 10. A missing key groups as null.
fn group(docs: &[Value], spec: &GroupSpec) -> Result<Vec<Value>, StoreError> {
    let mut groups: BTreeMap<IndexKey, GroupAcc> = BTreeMap::new();
    for doc in docs {
        let key = get_path(doc, &spec.key).unwrap_or(&Value::Null);
        let key = IndexKey::new(key)
            .ok_or_else(|| StoreError::BadPipeline("group key must be a scalar".into()))?;
        let acc = groups.entry(key).or_insert_with(|| GroupAcc {
            count: 0,
            sums: vec![(0.0, 0); spec.accumulators.len()],
        });
        acc.count += 1;
        for ((_, a), (sum, n)) in spec.accumulators.iter().zip(&mut acc.sums) {
            if let Accumulator::Avg(path) = a {
                if let Some(x) = get_path(doc, path).and_then(Value::as_f64) {
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    Ok(groups
        .into_iter()
        .map(|(key, acc)| {
            let mut out = Map::new();
            out.insert("_id".to_owned(), key.value());
            for ((name, a), &(sum, n)) in spec.accumulators.iter().zip(&acc.sums) {
                let value = match a {
                    Accumulator::Count => Value::from(acc.count),
                    Accumulator::Avg(_) if n == 0 => Value::Null,
                    Accumulator::Avg(_) => Value::from(sum / n as f64),
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
    use serde_json::json;

    fn docs() -> Vec<Value> {
        vec![
            json!({"_id": 0, "model": "A", "spl": 40.0, "hour": 9}),
            json!({"_id": 1, "model": "B", "spl": 55.0, "hour": 10}),
            json!({"_id": 2, "model": "A", "spl": 70.0, "hour": 9}),
            json!({"_id": 3, "model": "C", "spl": 62.0, "hour": 22}),
        ]
    }

    #[test]
    fn group_by_key_with_all_accumulators() {
        let spec = GroupSpec::by("model")
            .accumulate("n", Accumulator::Count)
            .accumulate("mean", Accumulator::Avg("spl".into()));
        let out = aggregate(&docs(), &[Stage::Group(spec)]).unwrap();
        assert_eq!(out.len(), 3);
        let a = out.iter().find(|d| d["_id"] == json!("A")).unwrap();
        assert_eq!(a["n"], json!(2));
        assert_eq!(a["mean"], json!(55.0));
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
        let spec = GroupSpec::by("k").accumulate("mean", Accumulator::Avg("a".into()));
        let out = aggregate(&docs, &[Stage::Group(spec)]).unwrap();
        assert_eq!(
            out,
            vec![
                json!({"_id": 1, "mean": 11.0 / 3.0}),
                json!({"_id": "1", "mean": 4.0}),
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
        let spec = GroupSpec::by("m").accumulate("mean", Accumulator::Avg("spl".into()));
        let out = aggregate(&docs, &[Stage::Group(spec)]).unwrap();
        assert_eq!(out[0]["mean"], Value::Null);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let d = docs();
        assert_eq!(aggregate(&d, &[]).unwrap(), d);
    }

    #[test]
    fn groups_chain() {
        // Per-hour counts, then how many hours share each count.
        let by_hour = GroupSpec::by("hour").accumulate("n", Accumulator::Count);
        let by_count = GroupSpec::by("n").accumulate("hours", Accumulator::Count);
        let out = aggregate(&docs(), &[Stage::Group(by_hour), Stage::Group(by_count)]).unwrap();
        assert_eq!(
            out,
            vec![json!({"_id": 1, "hours": 2}), json!({"_id": 2, "hours": 1})]
        );
    }
}
