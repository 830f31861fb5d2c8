//! Filter documents: the queries GoFlow makes of its store, a conjunction
//! of clauses that each test the value at one path.

use crate::row::Doc;
use crate::value::{compare_values, NumberEnd};
use crate::StoreError;
use serde_json::{json, Map, Value};
use std::cmp::Ordering;

/// A parsed query filter: a conjunction of clauses, each an equality, an
/// interval or an in-set on one dotted path.
///
/// Filters are usually written as Mongo-style JSON documents and parsed
/// with [`Filter::parse`]; a typed builder API ([`Filter::eq`],
/// [`Filter::range`], [`Filter::and`], …) is provided for programmatic
/// construction. Either way the filter is flat: `$and` and
/// [`Filter::and`] splice their operands' clauses in, and the two ends of
/// an interval on one path are one clause.
///
/// Supported operators: implicit equality, `$eq`, `$gt`, `$gte`, `$lt`,
/// `$lte`, `$in` and `$and`. Any other is [`StoreError::BadFilter`].
///
/// Semantics follow MongoDB where GoFlow depends on them: an equality
/// against `null` matches missing fields, and ordered comparisons never
/// match missing fields or values of another type.
///
/// # Examples
///
/// ```
/// use mps_docstore::Filter;
/// use serde_json::json;
///
/// let filter = Filter::parse(&json!({
///     "model": "LGE NEXUS 5",
///     "location.accuracy": {"$lte": 50},
/// }))?;
/// assert!(filter.matches(&json!({
///     "model": "LGE NEXUS 5",
///     "location": {"accuracy": 35.0},
/// })));
/// # Ok::<(), mps_docstore::StoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    pub(crate) clauses: Vec<Clause>,
}

/// One conjunct of a [`Filter`]: a test of the value at `path`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Clause {
    /// Dotted document path.
    pub(crate) path: String,
    pub(crate) test: Test,
}

/// What a [`Clause`] asks of the value at its path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Test {
    /// Equal to the value; a missing member equals null.
    Eq(Value),
    /// On the right side of each end present, `(value, inclusive)`, and
    /// of that end's type.
    Range(Option<(Value, bool)>, Option<(Value, bool)>),
    /// Equal to one of the values.
    In(Vec<Value>),
}

fn values_equal(a: &Value, b: &Value) -> bool {
    if let (Value::String(a), Value::String(b)) = (a, b) {
        // Lengths first: most unequal strings are never read.
        return a == b;
    }
    match compare_values(a, b) {
        Some(ord) => ord == Ordering::Equal,
        None => a == b, // deep equality for arrays/objects
    }
}

/// Whether `value` is on the right side of `end` (`None`: unbounded),
/// the side away from `outside`. Ordered comparisons only match
/// same-type scalars (Mongo semantics: cross-type never matches a range
/// predicate).
fn within(value: &Value, end: &Option<(Value, bool)>, outside: Ordering) -> bool {
    let Some((end, inclusive)) = end else {
        return true;
    };
    std::mem::discriminant(value) == std::mem::discriminant(end)
        && compare_values(value, end)
            .is_some_and(|ord| ord != outside && (*inclusive || ord != Ordering::Equal))
}

impl Test {
    /// Where the test holds for numbers alone — an equality with a
    /// number, or an interval whose ends are numbers or absent — the
    /// interval it holds for: then it holds for a value exactly when that
    /// is a number within.
    pub(crate) fn numbers(&self) -> Option<(NumberEnd<'_>, NumberEnd<'_>)> {
        fn number(end: &Option<(Value, bool)>) -> Option<NumberEnd<'_>> {
            match end {
                None => Some(None),
                Some((Value::Number(n), inclusive)) => Some(Some((n, *inclusive))),
                Some(_) => None,
            }
        }
        match self {
            Test::Eq(Value::Number(n)) => Some((Some((n, true)), Some((n, true)))),
            Test::Range(lo, hi) => Some((number(lo)?, number(hi)?)),
            Test::Eq(_) | Test::In(_) => None,
        }
    }
}

impl Clause {
    /// Whether the clause holds of `found`, the value at its path
    /// (`None`: there is none).
    pub(crate) fn holds(&self, found: Option<&Value>) -> bool {
        match (&self.test, found) {
            (Test::Eq(value), Some(v)) => values_equal(v, value),
            // Equality with null matches a missing field.
            (Test::Eq(value), None) => value.is_null(),
            (Test::Range(lo, hi), Some(v)) => {
                within(v, lo, Ordering::Less) && within(v, hi, Ordering::Greater)
            }
            (Test::Range(..), None) => false,
            (Test::In(values), Some(v)) => {
                values.iter().any(|candidate| values_equal(v, candidate))
            }
            (Test::In(values), None) => values.iter().any(Value::is_null),
        }
    }

    fn to_doc(&self) -> Value {
        let mut ops = Map::new();
        match &self.test {
            Test::Eq(value) => {
                ops.insert("$eq".to_owned(), value.clone());
            }
            Test::Range(lo, hi) => {
                let ends = [(lo, "$gt", "$gte"), (hi, "$lt", "$lte")];
                for (end, exclusive, inclusive) in ends {
                    if let Some((value, closed)) = end {
                        let op = if *closed { inclusive } else { exclusive };
                        ops.insert(op.to_owned(), value.clone());
                    }
                }
            }
            Test::In(values) => {
                ops.insert("$in".to_owned(), Value::Array(values.clone()));
            }
        }
        let mut doc = Map::new();
        doc.insert(self.path.clone(), Value::Object(ops));
        Value::Object(doc)
    }
}

impl Filter {
    /// Matches every document (the empty filter `{}`).
    #[allow(
        non_upper_case_globals,
        reason = "reads as the filter it names, where a variant stood"
    )]
    pub const True: Filter = Filter {
        clauses: Vec::new(),
    };

    // ----- builders --------------------------------------------------------

    fn of(path: impl Into<String>, test: Test) -> Filter {
        Filter {
            clauses: vec![Clause {
                path: path.into(),
                test,
            }],
        }
    }

    /// Equality on a path.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::of(path, Test::Eq(value.into()))
    }

    /// Strictly-greater comparison on a path.
    pub fn gt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::of(path, Test::Range(Some((value.into(), false)), None))
    }

    /// Greater-or-equal comparison on a path.
    pub fn gte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::of(path, Test::Range(Some((value.into(), true)), None))
    }

    /// Strictly-less comparison on a path.
    pub fn lt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::of(path, Test::Range(None, Some((value.into(), false))))
    }

    /// Less-or-equal comparison on a path.
    pub fn lte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::of(path, Test::Range(None, Some((value.into(), true))))
    }

    /// Inclusive range `lo <= path <= hi`.
    pub fn range(path: impl Into<String>, lo: impl Into<Value>, hi: impl Into<Value>) -> Filter {
        let (lo, hi) = (Some((lo.into(), true)), Some((hi.into(), true)));
        Filter::of(path, Test::Range(lo, hi))
    }

    /// Membership test on a path.
    pub fn is_in(path: impl Into<String>, values: Vec<Value>) -> Filter {
        Filter::of(path, Test::In(values))
    }

    /// Conjunction of filters: their clauses, in order.
    pub fn and(filters: Vec<Filter>) -> Filter {
        let mut all = Filter::True;
        for clause in filters.into_iter().flat_map(|filter| filter.clauses) {
            all.push(clause);
        }
        all
    }

    /// Appends `clause`, or merges it into the last clause where both are
    /// intervals on one path with no end given twice: `$gte` and `$lte`
    /// on a path, a range, are one clause.
    fn push(&mut self, clause: Clause) {
        match (self.clauses.last_mut(), clause) {
            (
                Some(Clause {
                    path,
                    test: Test::Range(lo, hi),
                }),
                Clause {
                    path: new_path,
                    test: Test::Range(new_lo, new_hi),
                },
            ) if *path == new_path
                && (lo.is_none() || new_lo.is_none())
                && (hi.is_none() || new_hi.is_none()) =>
            {
                *lo = lo.take().or(new_lo);
                *hi = hi.take().or(new_hi);
            }
            (_, clause) => self.clauses.push(clause),
        }
    }

    // ----- parsing ----------------------------------------------------------

    /// Parses a Mongo-style filter document.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadFilter`] when the document is not an
    /// object, uses an operator outside the grammar above, or gives an
    /// operator a malformed argument.
    pub fn parse(doc: &Value) -> Result<Filter, StoreError> {
        let map = doc
            .as_object()
            .ok_or_else(|| StoreError::BadFilter("filter must be an object".into()))?;
        let mut filter = Filter::True;
        for (key, value) in map {
            match key.as_str() {
                "$and" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| StoreError::BadFilter("$and expects an array".into()))?;
                    for item in items {
                        for clause in Filter::parse(item)?.clauses {
                            filter.push(clause);
                        }
                    }
                }
                op if op.starts_with('$') => {
                    return Err(StoreError::BadFilter(format!("unknown operator {op}")))
                }
                path => filter.parse_path_clause(path, value)?,
            }
        }
        Ok(filter)
    }

    fn parse_path_clause(&mut self, path: &str, value: &Value) -> Result<(), StoreError> {
        let mut push = |test| {
            self.push(Clause {
                path: path.to_owned(),
                test,
            });
        };
        // An object that contains no $-operators is an implicit deep
        // equality against that object.
        let ops = match value.as_object() {
            Some(ops) if ops.keys().any(|k| k.starts_with('$')) => ops,
            _ => {
                push(Test::Eq(value.clone()));
                return Ok(());
            }
        };
        for (op, arg) in ops {
            let end = |inclusive| Some((arg.clone(), inclusive));
            let test = match op.as_str() {
                "$eq" => Test::Eq(arg.clone()),
                "$gt" => Test::Range(end(false), None),
                "$gte" => Test::Range(end(true), None),
                "$lt" => Test::Range(None, end(false)),
                "$lte" => Test::Range(None, end(true)),
                "$in" => Test::In(
                    arg.as_array()
                        .ok_or_else(|| StoreError::BadFilter("$in expects an array".into()))?
                        .clone(),
                ),
                other => {
                    return Err(StoreError::BadFilter(format!(
                        "unknown operator {other} on path {path}"
                    )))
                }
            };
            push(test);
        }
        Ok(())
    }

    // ----- encoding ---------------------------------------------------------

    /// Encodes this filter back into a Mongo-style filter document, the
    /// inverse of [`Filter::parse`]: `Filter::parse(&f.to_doc())` always
    /// succeeds and yields this very filter. Remote transports use this
    /// to carry typed filters over the wire without a bespoke codec.
    ///
    /// A clause encodes as `{path: {op: value, ..}}`, and a filter of
    /// several clauses as their `$and`.
    pub fn to_doc(&self) -> Value {
        match &self.clauses[..] {
            [] => json!({}),
            [clause] => clause.to_doc(),
            clauses => json!({"$and": clauses.iter().map(Clause::to_doc).collect::<Vec<_>>()}),
        }
    }

    // ----- evaluation -------------------------------------------------------

    /// Whether this filter matches `doc`.
    pub fn matches(&self, doc: &Value) -> bool {
        self.matches_doc(&doc)
    }

    /// [`Filter::matches`] over any document representation. A
    /// collection's reads ask [`Clause::holds`] the same through their
    /// plan, which resolves the paths once per key list.
    pub(crate) fn matches_doc<'v>(&self, doc: &impl Doc<'v>) -> bool {
        let mut clauses = self.clauses.iter();
        clauses.all(|clause| clause.holds(doc.at(&clause.path).as_deref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::{doc_ids, index_on, plan};
    use crate::index::PlanKind;
    use std::collections::BTreeMap;

    fn doc() -> Value {
        json!({
            "model": "SONY D5803",
            "spl": 61.5,
            "location": {"provider": "gps", "accuracy": 12.0},
            "tags": ["noise", "paris"],
            "shared": true,
        })
    }

    #[test]
    fn empty_filter_matches_everything() {
        let f = Filter::parse(&json!({})).unwrap();
        assert_eq!(f, Filter::True);
        assert!(f.matches(&doc()));
    }

    #[test]
    fn implicit_equality() {
        let f = Filter::parse(&json!({"model": "SONY D5803"})).unwrap();
        assert!(f.matches(&doc()));
        let f = Filter::parse(&json!({"model": "OTHER"})).unwrap();
        assert!(!f.matches(&doc()));
    }

    #[test]
    fn nested_path_equality() {
        let f = Filter::parse(&json!({"location.provider": "gps"})).unwrap();
        assert!(f.matches(&doc()));
    }

    #[test]
    fn numeric_equality_is_value_based() {
        let f = Filter::parse(&json!({"spl": 61.5})).unwrap();
        assert!(f.matches(&doc()));
        // Integer vs float representing the same number must be equal.
        let f = Filter::parse(&json!({"n": 1})).unwrap();
        assert!(f.matches(&json!({"n": 1.0})));
    }

    #[test]
    fn range_operators() {
        let d = doc();
        assert!(Filter::parse(&json!({"spl": {"$gt": 60}}))
            .unwrap()
            .matches(&d));
        assert!(Filter::parse(&json!({"spl": {"$gte": 61.5}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"spl": {"$gt": 61.5}}))
            .unwrap()
            .matches(&d));
        assert!(Filter::parse(&json!({"spl": {"$lt": 62}}))
            .unwrap()
            .matches(&d));
        assert!(Filter::parse(&json!({"spl": {"$lte": 61.5}}))
            .unwrap()
            .matches(&d));
        assert!(Filter::parse(&json!({"spl": {"$gt": 60, "$lt": 62}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"spl": {"$gt": 60, "$lt": 61}}))
            .unwrap()
            .matches(&d));
    }

    #[test]
    fn range_on_missing_or_cross_type_never_matches() {
        let d = doc();
        assert!(!Filter::parse(&json!({"missing": {"$gt": 0}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"model": {"$gt": 0}}))
            .unwrap()
            .matches(&d));
        // Each end is held to its own type.
        assert!(!Filter::parse(&json!({"spl": {"$gt": 0, "$lt": "z"}}))
            .unwrap()
            .matches(&d));
    }

    #[test]
    fn null_equality_matches_missing() {
        let d = doc();
        assert!(Filter::parse(&json!({"missing": null}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"model": null})).unwrap().matches(&d));
    }

    #[test]
    fn in_and_nin() {
        let d = doc();
        let f = Filter::parse(&json!({"model": {"$in": ["A", "SONY D5803"]}})).unwrap();
        assert!(f.matches(&d));
        let f = Filter::parse(&json!({"model": {"$in": ["A", "B"]}})).unwrap();
        assert!(!f.matches(&d));
        // Missing path: $in matches only if the list contains null.
        let f = Filter::parse(&json!({"missing": {"$in": [null]}})).unwrap();
        assert!(f.matches(&d));
        // `$nin` is not in the grammar.
        assert!(Filter::parse(&json!({"model": {"$nin": ["A", "B"]}})).is_err());
    }

    #[test]
    fn logical_combinators() {
        // `$and` is the one combinator, and it nests into one flat
        // conjunction, as `Filter::and` does.
        let d = doc();
        let f = Filter::parse(&json!({
            "$and": [{"shared": true}, {"$and": [{"spl": {"$lt": 60}}]}]
        }))
        .unwrap();
        assert!(!f.matches(&d));
        assert_eq!(
            f,
            Filter::and(vec![
                Filter::eq("shared", true),
                Filter::and(vec![Filter::lt("spl", 60)])
            ])
        );
        assert_eq!(f.clauses.len(), 2);
        for removed in ["$or", "$not", "$nor"] {
            let error = Filter::parse(&json!({ removed: [{"model": "X"}] })).unwrap_err();
            assert_eq!(
                error,
                StoreError::BadFilter(format!("unknown operator {removed}"))
            );
        }
    }

    #[test]
    fn multiple_top_level_keys_are_anded() {
        let d = doc();
        let f = Filter::parse(&json!({"shared": true, "spl": {"$gt": 60}})).unwrap();
        assert!(f.matches(&d));
        let f = Filter::parse(&json!({"shared": true, "spl": {"$gt": 70}})).unwrap();
        assert!(!f.matches(&d));
    }

    #[test]
    fn deep_equality_of_objects_and_arrays() {
        let d = doc();
        let f = Filter::parse(&json!({"tags": ["noise", "paris"]})).unwrap();
        assert!(f.matches(&d));
        let f = Filter::parse(&json!({"location": {"provider": "gps", "accuracy": 12.0}})).unwrap();
        assert!(f.matches(&d));
        let f = Filter::parse(&json!({"tags": ["paris", "noise"]})).unwrap();
        assert!(!f.matches(&d), "array equality is ordered");
    }

    #[test]
    fn parse_errors() {
        assert!(Filter::parse(&json!("not an object")).is_err());
        assert!(Filter::parse(&json!({"$bogus": []})).is_err());
        assert!(Filter::parse(&json!({"a": {"$bogus": 1}})).is_err());
        assert!(Filter::parse(&json!({"$and": "not array"})).is_err());
        assert!(Filter::parse(&json!({"$and": [5]})).is_err());
        assert!(Filter::parse(&json!({"a": {"$in": 5}})).is_err());
        assert!(Filter::parse(&json!({"a": {"$gt": 1, "b": 2}})).is_err());
    }

    #[test]
    fn builder_equivalence() {
        let parsed = Filter::parse(&json!({"spl": {"$gte": 10, "$lte": 20}})).unwrap();
        let built = Filter::range("spl", 10, 20);
        assert_eq!(parsed, built, "a range is one clause either way");
        assert_eq!(
            Filter::and(vec![Filter::gte("spl", 10), Filter::lte("spl", 20)]),
            built
        );
        let probe = json!({"spl": 15});
        assert_eq!(parsed.matches(&probe), built.matches(&probe));
        let probe = json!({"spl": 25});
        assert_eq!(parsed.matches(&probe), built.matches(&probe));
    }

    fn clause(path: &str, test: Test) -> Clause {
        let path = path.to_owned();
        Clause { path, test }
    }

    #[test]
    fn indexable_eq_extraction() {
        let f = Filter::parse(&json!({"model": "X", "spl": {"$gt": 3}})).unwrap();
        assert!(f.clauses.contains(&clause("model", Test::Eq(json!("X")))));
        let indexes = BTreeMap::from([(
            "model".to_owned(),
            index_on(&[(json!("X"), 0), (json!("Y"), 1)]),
        )]);
        assert_eq!(plan(&f, &indexes), (PlanKind::IndexEq, Some(doc_ids(&[0]))));
    }

    #[test]
    fn indexable_range_extraction() {
        let f = Filter::parse(&json!({"spl": {"$gte": 10, "$lt": 20}})).unwrap();
        let interval = Test::Range(Some((json!(10), true)), Some((json!(20), false)));
        assert_eq!(f.clauses, vec![clause("spl", interval)]);
        let indexes = BTreeMap::from([(
            "spl".to_owned(),
            index_on(&[
                (json!(5), 3),
                (json!(10), 2),
                (json!(15), 1),
                (json!(20), 0),
            ]),
        )]);
        assert_eq!(
            plan(&f, &indexes),
            (PlanKind::IndexRange, Some(doc_ids(&[1, 2])))
        );
    }

    #[test]
    fn indexable_predicates_collects_all_clauses() {
        let f =
            Filter::parse(&json!({"model": "X", "spl": {"$gte": 10, "$lt": 20}, "city": "paris"}))
                .unwrap();
        assert_eq!(f.clauses.len(), 3);
        let model = (
            "model",
            [("X", 0), ("X", 1), ("Y", 2), ("X", 3)].map(|(v, id)| (json!(v), id)),
        );
        let spl = (
            "spl",
            [(15, 0), (15, 1), (15, 2), (25, 3)].map(|(v, id)| (json!(v), id)),
        );
        let city = (
            "city",
            [("paris", 0), ("london", 1), ("paris", 2), ("paris", 3)].map(|(v, id)| (json!(v), id)),
        );
        // Each clause alone is probed through its index...
        for ((path, entries), kind) in [
            (&model, PlanKind::IndexEq),
            (&spl, PlanKind::IndexRange),
            (&city, PlanKind::IndexEq),
        ] {
            let indexes = BTreeMap::from([(path.to_string(), index_on(entries))]);
            assert_eq!(plan(&f, &indexes).0, kind, "{path}");
        }
        // ...and all three together, intersected.
        let indexes =
            [model, spl, city].map(|(path, entries)| (path.to_owned(), index_on(&entries)));
        assert_eq!(
            plan(&f, &BTreeMap::from(indexes)),
            (PlanKind::IndexIntersect, Some(doc_ids(&[0])))
        );
    }

    #[test]
    fn indexable_predicates_skips_null_eq_and_or() {
        // `eq null` also matches missing fields — never indexable.
        let f = Filter::parse(&json!({"loc": null})).unwrap();
        let indexes = BTreeMap::from([("loc".to_owned(), index_on(&[(json!(null), 0)]))]);
        assert_eq!(plan(&f, &indexes), (PlanKind::FullScan, None));
        // Neither is a set of values, which no single probe answers.
        let f = Filter::parse(&json!({"a": {"$in": [1, 2]}})).unwrap();
        let indexes = BTreeMap::from([("a".to_owned(), index_on(&[(json!(1), 0), (json!(2), 1)]))]);
        assert_eq!(plan(&f, &indexes), (PlanKind::FullScan, None));
    }

    #[test]
    fn indexable_predicates_merges_ranges_per_path() {
        let f = Filter::parse(&json!({"spl": {"$gt": 5}, "acc": {"$lte": 30}})).unwrap();
        assert_eq!(f.clauses.len(), 2, "one range per path");
        // Consecutive bounds on one path are one interval, probed once.
        let f =
            Filter::parse(&json!({"$and": [{"spl": {"$gt": 5}}, {"spl": {"$lte": 30}}]})).unwrap();
        let interval = Test::Range(Some((json!(5), false)), Some((json!(30), true)));
        assert_eq!(f.clauses, vec![clause("spl", interval)]);
        let indexes = BTreeMap::from([(
            "spl".to_owned(),
            index_on(&[(json!(5), 0), (json!(20), 1), (json!(40), 2)]),
        )]);
        assert_eq!(
            plan(&f, &indexes),
            (PlanKind::IndexRange, Some(doc_ids(&[1])))
        );
    }

    #[test]
    fn to_doc_round_trips_through_parse() {
        let docs = [
            json!({}),
            json!({"$and": [
                {"spl": {"$gte": 40}},
                {"spl": {"$lt": 80.5}},
                {"location.provider": {"$eq": "gps"}},
            ]}),
            json!({"model": {"$in": ["SONY D5803", "LG G3"]}, "spl": {"$gt": 1, "$gte": 2}}),
            json!({"$and": [{"t": {"$lte": 9}}, {"t": {"$gte": 1, "$lt": 8}}]}),
            json!({"tags": ["a", {"b": 1}]}),
        ];
        for doc in docs {
            let filter = Filter::parse(&doc).unwrap();
            let encoded = filter.to_doc();
            let reparsed = Filter::parse(&encoded).unwrap();
            assert_eq!(reparsed, filter, "for {doc}");
            // The canonical encoding is a fixed point: encoding the
            // reparsed filter reproduces it byte for byte.
            assert_eq!(reparsed.to_doc(), encoded, "for {doc}");
        }
        assert_eq!(
            Filter::range("spl", 40, 80).to_doc(),
            json!({"spl": {"$gte": 40, "$lte": 80}})
        );
    }

    #[test]
    fn to_doc_agrees_with_evaluation() {
        let filter = Filter::parse(&json!({
            "spl": {"$gt": 50},
            "location.provider": "gps",
        }))
        .unwrap();
        let reparsed = Filter::parse(&filter.to_doc()).unwrap();
        assert!(reparsed.matches(&doc()));
        assert!(!reparsed.matches(&json!({"spl": 10})));
    }
}
