//! Mongo-style filter documents.

use crate::row::Doc;
use crate::value::compare_values;
use crate::StoreError;
use serde_json::Value;
use std::cmp::Ordering;

/// Inclusive/exclusive range bound used by the query planner:
/// `(value, inclusive)`.
pub(crate) type RangeBound<'a> = (&'a Value, bool);
/// Planner view of a range predicate: `(path, lower, upper)`.
pub(crate) type RangePredicate<'a> = (&'a str, Option<RangeBound<'a>>, Option<RangeBound<'a>>);

/// One predicate of a filter that a secondary index could answer,
/// extracted by [`Filter::indexable_predicates`] for the query planner.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IndexablePredicate<'a> {
    /// Equality against a non-null scalar (`eq null` also matches missing
    /// fields, which no index can enumerate).
    Eq {
        /// Dotted document path.
        path: &'a str,
        /// Matched value.
        value: &'a Value,
    },
    /// A (half-)bounded range on one path.
    Range(RangePredicate<'a>),
}

/// A comparison operator on a document path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[doc(hidden)]
#[allow(
    missing_docs,
    reason = "hidden; the operator names are the documentation"
)]
pub enum CmpOp {
    Eq,
    Ne,
    Gt,
    Gte,
    Lt,
    Lte,
}

/// A parsed query filter.
///
/// Filters are usually written as Mongo-style JSON documents and parsed
/// with [`Filter::parse`]; a typed builder API ([`Filter::eq`],
/// [`Filter::range`], [`Filter::and`], …) is provided for programmatic
/// construction.
///
/// Supported operators: implicit equality, `$eq`, `$ne`, `$gt`, `$gte`,
/// `$lt`, `$lte`, `$in`, `$nin`, `$exists`, `$contains` (substring test on
/// strings), and the combinators `$and`, `$or`, `$not`.
///
/// Semantics follow MongoDB where GoFlow depends on them: an equality
/// against `null` matches missing fields, ordered comparisons never match
/// missing fields, and `$ne` is the negation of equality.
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
pub enum Filter {
    /// Matches every document (the empty filter `{}`).
    True,
    /// All sub-filters must match.
    And(Vec<Filter>),
    /// At least one sub-filter must match.
    Or(Vec<Filter>),
    /// The sub-filter must not match.
    Not(Box<Filter>),
    /// Comparison of the value at `path` against a constant.
    #[doc(hidden)]
    Cmp {
        /// Dotted document path.
        path: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand constant.
        value: Value,
    },
    /// The value at `path` equals one of `values`.
    #[doc(hidden)]
    In {
        /// Dotted document path.
        path: String,
        /// Accepted values.
        values: Vec<Value>,
        /// True for `$nin` (negated membership).
        negated: bool,
    },
    /// The path is present (or absent, when `expected` is false).
    #[doc(hidden)]
    Exists {
        /// Dotted document path.
        path: String,
        /// Expected presence.
        expected: bool,
    },
    /// The string at `path` contains `needle` as a substring.
    #[doc(hidden)]
    Contains {
        /// Dotted document path.
        path: String,
        /// Substring to search for.
        needle: String,
    },
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

impl Filter {
    // ----- builders --------------------------------------------------------

    /// Equality on a path.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Cmp {
            path: path.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Inequality on a path.
    pub fn ne(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Cmp {
            path: path.into(),
            op: CmpOp::Ne,
            value: value.into(),
        }
    }

    /// Strictly-greater comparison on a path.
    pub fn gt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Cmp {
            path: path.into(),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// Greater-or-equal comparison on a path.
    pub fn gte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Cmp {
            path: path.into(),
            op: CmpOp::Gte,
            value: value.into(),
        }
    }

    /// Strictly-less comparison on a path.
    pub fn lt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Cmp {
            path: path.into(),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// Less-or-equal comparison on a path.
    pub fn lte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Cmp {
            path: path.into(),
            op: CmpOp::Lte,
            value: value.into(),
        }
    }

    /// Inclusive range `lo <= path <= hi`.
    pub fn range(path: impl Into<String>, lo: impl Into<Value>, hi: impl Into<Value>) -> Filter {
        let path = path.into();
        Filter::And(vec![Filter::gte(path.clone(), lo), Filter::lte(path, hi)])
    }

    /// Membership test on a path.
    pub fn is_in(path: impl Into<String>, values: Vec<Value>) -> Filter {
        Filter::In {
            path: path.into(),
            values,
            negated: false,
        }
    }

    /// Presence test on a path.
    pub fn exists(path: impl Into<String>, expected: bool) -> Filter {
        Filter::Exists {
            path: path.into(),
            expected,
        }
    }

    /// Conjunction of filters.
    pub fn and(filters: Vec<Filter>) -> Filter {
        Filter::And(filters)
    }

    /// Disjunction of filters.
    pub fn or(filters: Vec<Filter>) -> Filter {
        Filter::Or(filters)
    }

    // ----- parsing ----------------------------------------------------------

    /// Parses a Mongo-style filter document.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadFilter`] when the document is not an
    /// object, uses an unknown operator, or gives an operator a malformed
    /// argument.
    pub fn parse(doc: &Value) -> Result<Filter, StoreError> {
        let map = doc
            .as_object()
            .ok_or_else(|| StoreError::BadFilter("filter must be an object".into()))?;
        if map.is_empty() {
            return Ok(Filter::True);
        }
        let mut clauses = Vec::with_capacity(map.len());
        for (key, value) in map {
            if let Some(op) = key.strip_prefix('$') {
                clauses.push(Self::parse_logical(op, value)?);
            } else {
                clauses.push(Self::parse_path_clause(key, value)?);
            }
        }
        Ok(match clauses.pop() {
            Some(single) if clauses.is_empty() => single,
            Some(last) => {
                clauses.push(last);
                Filter::And(clauses)
            }
            None => Filter::True,
        })
    }

    fn parse_logical(op: &str, value: &Value) -> Result<Filter, StoreError> {
        match op {
            "and" | "or" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| StoreError::BadFilter(format!("${op} expects an array")))?;
                let parsed: Result<Vec<Filter>, StoreError> =
                    items.iter().map(Self::parse).collect();
                let parsed = parsed?;
                Ok(if op == "and" {
                    Filter::And(parsed)
                } else {
                    Filter::Or(parsed)
                })
            }
            "not" => Ok(Filter::Not(Box::new(Self::parse(value)?))),
            other => Err(StoreError::BadFilter(format!("unknown operator ${other}"))),
        }
    }

    fn parse_path_clause(path: &str, value: &Value) -> Result<Filter, StoreError> {
        let Some(obj) = value.as_object() else {
            return Ok(Filter::eq(path, value.clone()));
        };
        // An object that contains no $-operators is an implicit deep
        // equality against that object.
        if !obj.keys().any(|k| k.starts_with('$')) {
            return Ok(Filter::eq(path, value.clone()));
        }
        let mut clauses = Vec::with_capacity(obj.len());
        for (op, arg) in obj {
            let filter = match op.as_str() {
                "$eq" => Filter::eq(path, arg.clone()),
                "$ne" => Filter::ne(path, arg.clone()),
                "$gt" => Filter::gt(path, arg.clone()),
                "$gte" => Filter::gte(path, arg.clone()),
                "$lt" => Filter::lt(path, arg.clone()),
                "$lte" => Filter::lte(path, arg.clone()),
                "$in" | "$nin" => {
                    let values = arg
                        .as_array()
                        .ok_or_else(|| StoreError::BadFilter(format!("{op} expects an array")))?
                        .clone();
                    Filter::In {
                        path: path.to_owned(),
                        values,
                        negated: op == "$nin",
                    }
                }
                "$exists" => {
                    let expected = arg
                        .as_bool()
                        .ok_or_else(|| StoreError::BadFilter("$exists expects a boolean".into()))?;
                    Filter::exists(path, expected)
                }
                "$contains" => {
                    let needle = arg
                        .as_str()
                        .ok_or_else(|| StoreError::BadFilter("$contains expects a string".into()))?
                        .to_owned();
                    Filter::Contains {
                        path: path.to_owned(),
                        needle,
                    }
                }
                other => {
                    return Err(StoreError::BadFilter(format!(
                        "unknown operator {other} on path {path}"
                    )))
                }
            };
            clauses.push(filter);
        }
        Ok(match clauses.pop() {
            Some(single) if clauses.is_empty() => single,
            Some(last) => {
                clauses.push(last);
                Filter::And(clauses)
            }
            None => Filter::True,
        })
    }

    // ----- encoding ---------------------------------------------------------

    /// Encodes this filter back into a Mongo-style filter document, the
    /// inverse of [`Filter::parse`]: `Filter::parse(&f.to_doc())` always
    /// succeeds and yields a filter that matches exactly the same
    /// documents. Remote transports use this to carry typed filters over
    /// the wire without a bespoke codec.
    ///
    /// The encoding is canonical rather than source-preserving — e.g. a
    /// filter built with [`Filter::range`] encodes as an `$and` of two
    /// comparison clauses.
    pub fn to_doc(&self) -> Value {
        use serde_json::{json, Map};
        match self {
            Filter::True => json!({}),
            Filter::And(filters) => {
                json!({"$and": filters.iter().map(Filter::to_doc).collect::<Vec<_>>()})
            }
            Filter::Or(filters) => {
                json!({"$or": filters.iter().map(Filter::to_doc).collect::<Vec<_>>()})
            }
            Filter::Not(inner) => json!({"$not": inner.to_doc()}),
            Filter::Cmp { path, op, value } => {
                let op = match op {
                    CmpOp::Eq => "$eq",
                    CmpOp::Ne => "$ne",
                    CmpOp::Gt => "$gt",
                    CmpOp::Gte => "$gte",
                    CmpOp::Lt => "$lt",
                    CmpOp::Lte => "$lte",
                };
                let mut doc = Map::new();
                doc.insert(path.clone(), json!({ op: value.clone() }));
                Value::Object(doc)
            }
            Filter::In {
                path,
                values,
                negated,
            } => {
                let op = if *negated { "$nin" } else { "$in" };
                let mut doc = Map::new();
                doc.insert(path.clone(), json!({ op: values.clone() }));
                Value::Object(doc)
            }
            Filter::Exists { path, expected } => {
                let mut doc = Map::new();
                doc.insert(path.clone(), json!({"$exists": expected}));
                Value::Object(doc)
            }
            Filter::Contains { path, needle } => {
                let mut doc = Map::new();
                doc.insert(path.clone(), json!({"$contains": needle}));
                Value::Object(doc)
            }
        }
    }

    // ----- evaluation -------------------------------------------------------

    /// Whether this filter matches `doc`.
    pub fn matches(&self, doc: &Value) -> bool {
        self.matches_doc(&doc)
    }

    /// [`Filter::matches`] over any document representation: the one
    /// evaluator.
    pub(crate) fn matches_doc<'v>(&self, doc: &impl Doc<'v>) -> bool {
        match self {
            Filter::True => true,
            Filter::And(filters) => filters.iter().all(|f| f.matches_doc(doc)),
            Filter::Or(filters) => filters.iter().any(|f| f.matches_doc(doc)),
            Filter::Not(inner) => !inner.matches_doc(doc),
            Filter::Cmp { path, op, value } => {
                let found = doc.at(path);
                let found = found.as_deref();
                match op {
                    CmpOp::Eq => match found {
                        Some(v) => values_equal(v, value),
                        // Equality with null matches a missing field.
                        None => value.is_null(),
                    },
                    CmpOp::Ne => match found {
                        Some(v) => !values_equal(v, value),
                        None => !value.is_null(),
                    },
                    CmpOp::Gt | CmpOp::Gte | CmpOp::Lt | CmpOp::Lte => {
                        // Ordered comparisons only match same-type scalars
                        // (Mongo semantics: cross-type never matches a
                        // range predicate).
                        let Some(v) = found else { return false };
                        match compare_values(v, value) {
                            Some(ord)
                                if std::mem::discriminant(v) == std::mem::discriminant(value) =>
                            {
                                match op {
                                    CmpOp::Gt => ord == Ordering::Greater,
                                    CmpOp::Gte => ord != Ordering::Less,
                                    CmpOp::Lt => ord == Ordering::Less,
                                    CmpOp::Lte => ord != Ordering::Greater,
                                    // Eq/Ne are handled by the outer arms.
                                    CmpOp::Eq | CmpOp::Ne => false,
                                }
                            }
                            _ => false,
                        }
                    }
                }
            }
            Filter::In {
                path,
                values,
                negated,
            } => {
                let hit = match doc.at(path) {
                    Some(v) => values.iter().any(|candidate| values_equal(&v, candidate)),
                    None => values.iter().any(Value::is_null),
                };
                hit != *negated
            }
            Filter::Exists { path, expected } => doc.at(path).is_some() == *expected,
            Filter::Contains { path, needle } => doc
                .at(path)
                .is_some_and(|v| v.as_str().is_some_and(|s| s.contains(needle.as_str()))),
        }
    }

    /// Visits every path this filter reads — the very `&str`s evaluation
    /// will ask a document for, which is how
    /// [`Slots`](crate::row::Slots) recognises them.
    pub(crate) fn each_path<'a>(&'a self, visit: &mut impl FnMut(&'a str)) {
        match self {
            Filter::True => {}
            Filter::And(filters) | Filter::Or(filters) => {
                filters.iter().for_each(|f| f.each_path(visit));
            }
            Filter::Not(inner) => inner.each_path(visit),
            Filter::Cmp { path, .. }
            | Filter::In { path, .. }
            | Filter::Exists { path, .. }
            | Filter::Contains { path, .. } => visit(path),
        }
    }

    /// Every predicate of this filter that a secondary index could
    /// answer: each non-null equality, plus one merged range per path,
    /// looking through conjunctions at any depth (`Filter::parse` nests
    /// multi-operator path objects as an inner `And`).
    ///
    /// Bounds repeated on the same side of the same path keep the tighter
    /// one (see `tighten`); what is extracted is always a superset of the
    /// matches, because candidates are re-checked against the full filter.
    pub(crate) fn indexable_predicates(&self) -> Vec<IndexablePredicate<'_>> {
        /// Replaces `kept` by `new` where `new` is the tighter bound: for
        /// a lower bound the `Greater` one, for an upper the `Less`, and
        /// of two equal ones the exclusive. Bounds of different types do
        /// not compare (no value satisfies both): the first stays, the
        /// other is left to the re-check.
        fn tighten<'a>(
            kept: &mut Option<RangeBound<'a>>,
            new: Option<RangeBound<'a>>,
            tighter: Ordering,
        ) {
            let (Some((old, old_inclusive)), Some((value, inclusive))) = (*kept, new) else {
                *kept = kept.or(new);
                return;
            };
            let same_type = std::mem::discriminant(old) == std::mem::discriminant(value);
            let replace = match compare_values(value, old) {
                Some(Ordering::Equal) => old_inclusive && !inclusive,
                Some(ordering) => same_type && ordering == tighter,
                None => false,
            };
            if replace {
                *kept = new;
            }
        }
        fn range_of(f: &Filter) -> Option<RangePredicate<'_>> {
            match f {
                Filter::Cmp { path, op, value } => match op {
                    CmpOp::Gt => Some((path, Some((value, false)), None)),
                    CmpOp::Gte => Some((path, Some((value, true)), None)),
                    CmpOp::Lt => Some((path, None, Some((value, false)))),
                    CmpOp::Lte => Some((path, None, Some((value, true)))),
                    _ => None,
                },
                _ => None,
            }
        }
        fn collect<'a>(
            clauses: &'a [Filter],
            eqs: &mut Vec<IndexablePredicate<'a>>,
            ranges: &mut Vec<RangePredicate<'a>>,
        ) {
            for clause in clauses {
                match clause {
                    Filter::And(inner) => collect(inner, eqs, ranges),
                    Filter::Cmp {
                        path,
                        op: CmpOp::Eq,
                        value,
                    } if !value.is_null() => {
                        eqs.push(IndexablePredicate::Eq { path, value });
                    }
                    _ => {
                        if let Some((path, lo, hi)) = range_of(clause) {
                            match ranges.iter_mut().find(|(p, _, _)| *p == path) {
                                Some((_, mlo, mhi)) => {
                                    tighten(mlo, lo, Ordering::Greater);
                                    tighten(mhi, hi, Ordering::Less);
                                }
                                None => ranges.push((path, lo, hi)),
                            }
                        }
                    }
                }
            }
        }
        let mut predicates: Vec<IndexablePredicate<'_>> = Vec::new();
        let mut ranges: Vec<RangePredicate<'_>> = Vec::new();
        collect(std::slice::from_ref(self), &mut predicates, &mut ranges);
        predicates.extend(ranges.into_iter().map(IndexablePredicate::Range));
        predicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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
    }

    #[test]
    fn ne_semantics() {
        let d = doc();
        assert!(Filter::parse(&json!({"model": {"$ne": "X"}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"model": {"$ne": "SONY D5803"}}))
            .unwrap()
            .matches(&d));
        // Missing field is "not equal" to any non-null value.
        assert!(Filter::parse(&json!({"missing": {"$ne": 1}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"missing": {"$ne": null}}))
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
        let f = Filter::parse(&json!({"model": {"$nin": ["A", "B"]}})).unwrap();
        assert!(f.matches(&d));
        let f = Filter::parse(&json!({"model": {"$in": ["A", "B"]}})).unwrap();
        assert!(!f.matches(&d));
        // Missing path: $in matches only if the list contains null.
        let f = Filter::parse(&json!({"missing": {"$in": [null]}})).unwrap();
        assert!(f.matches(&d));
    }

    #[test]
    fn exists() {
        let d = doc();
        assert!(Filter::parse(&json!({"location": {"$exists": true}}))
            .unwrap()
            .matches(&d));
        assert!(Filter::parse(&json!({"ghost": {"$exists": false}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"ghost": {"$exists": true}}))
            .unwrap()
            .matches(&d));
    }

    #[test]
    fn contains() {
        let d = doc();
        assert!(Filter::parse(&json!({"model": {"$contains": "SONY"}}))
            .unwrap()
            .matches(&d));
        assert!(!Filter::parse(&json!({"model": {"$contains": "HTC"}}))
            .unwrap()
            .matches(&d));
        // Non-string values never $contains.
        assert!(!Filter::parse(&json!({"spl": {"$contains": "6"}}))
            .unwrap()
            .matches(&d));
    }

    #[test]
    fn logical_combinators() {
        let d = doc();
        let f = Filter::parse(&json!({
            "$or": [
                {"model": "X"},
                {"spl": {"$gt": 60}},
            ]
        }))
        .unwrap();
        assert!(f.matches(&d));
        let f = Filter::parse(&json!({
            "$and": [{"shared": true}, {"spl": {"$lt": 60}}]
        }))
        .unwrap();
        assert!(!f.matches(&d));
        let f = Filter::parse(&json!({"$not": {"model": "X"}})).unwrap();
        assert!(f.matches(&d));
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
        assert!(Filter::parse(&json!({"a": {"$in": 5}})).is_err());
        assert!(Filter::parse(&json!({"a": {"$exists": "yes"}})).is_err());
        assert!(Filter::parse(&json!({"a": {"$contains": 5}})).is_err());
    }

    #[test]
    fn builder_equivalence() {
        let parsed = Filter::parse(&json!({"spl": {"$gte": 10, "$lte": 20}})).unwrap();
        let built = Filter::range("spl", 10, 20);
        let probe = json!({"spl": 15});
        assert_eq!(parsed.matches(&probe), built.matches(&probe));
        let probe = json!({"spl": 25});
        assert_eq!(parsed.matches(&probe), built.matches(&probe));
    }

    #[test]
    fn indexable_eq_extraction() {
        let f = Filter::parse(&json!({"model": "X", "spl": {"$gt": 3}})).unwrap();
        assert!(f.indexable_predicates().contains(&IndexablePredicate::Eq {
            path: "model",
            value: &json!("X"),
        }));
    }

    #[test]
    fn indexable_range_extraction() {
        let f = Filter::parse(&json!({"spl": {"$gte": 10, "$lt": 20}})).unwrap();
        let preds = f.indexable_predicates();
        assert_eq!(
            preds,
            vec![IndexablePredicate::Range((
                "spl",
                Some((&json!(10), true)),
                Some((&json!(20), false)),
            ))]
        );
    }

    #[test]
    fn indexable_predicates_collects_all_clauses() {
        let f =
            Filter::parse(&json!({"model": "X", "spl": {"$gte": 10, "$lt": 20}, "city": "paris"}))
                .unwrap();
        let preds = f.indexable_predicates();
        assert_eq!(preds.len(), 3);
        assert!(preds.contains(&IndexablePredicate::Eq {
            path: "model",
            value: &json!("X"),
        }));
        assert!(preds.contains(&IndexablePredicate::Eq {
            path: "city",
            value: &json!("paris"),
        }));
        assert!(preds.contains(&IndexablePredicate::Range((
            "spl",
            Some((&json!(10), true)),
            Some((&json!(20), false)),
        ))));
    }

    #[test]
    fn indexable_predicates_skips_null_eq_and_or() {
        // `eq null` also matches missing fields — never indexable.
        let f = Filter::parse(&json!({"loc": null})).unwrap();
        assert!(f.indexable_predicates().is_empty());
        // Disjunctions cannot narrow to one candidate set.
        let f = Filter::parse(&json!({"$or": [{"a": 1}, {"b": 2}]})).unwrap();
        assert!(f.indexable_predicates().is_empty());
    }

    #[test]
    fn indexable_predicates_merges_ranges_per_path() {
        let f = Filter::parse(&json!({"spl": {"$gt": 5}, "acc": {"$lte": 30}})).unwrap();
        let preds = f.indexable_predicates();
        assert_eq!(preds.len(), 2, "one merged range per path");
    }

    #[test]
    fn repeated_bounds_on_one_path_keep_the_tighter() {
        let range_of = |doc: Value| match Filter::parse(&doc).unwrap().indexable_predicates()[..] {
            [IndexablePredicate::Range((_, lo, hi))] => (
                lo.map(|(v, inclusive)| (v.clone(), inclusive)),
                hi.map(|(v, inclusive)| (v.clone(), inclusive)),
            ),
            ref other => panic!("one range expected, got {other:?}"),
        };
        let and = |a: Value, b: Value| json!({"$and": [{"t": a}, {"t": b}]});
        // Whichever comes last: last-wins planned `t >= 1` for the first.
        for (a, b) in [
            (json!({"$gte": 100}), json!({"$gte": 1})),
            (json!({"$gte": 1}), json!({"$gte": 100})),
        ] {
            assert_eq!(range_of(and(a, b)), (Some((json!(100), true)), None));
        }
        assert_eq!(
            range_of(and(
                json!({"$lt": 7, "$gt": 2.5}),
                json!({"$lte": 3, "$gte": 2})
            )),
            (Some((json!(2.5), false)), Some((json!(3), true)))
        );
        // Equal values: the exclusive bound is the tighter, either way
        // round, and `1` against `1.0` is such a tie.
        for (a, b) in [
            (
                json!({"$gt": 1, "$lte": 9}),
                json!({"$gte": 1.0, "$lt": 9.0}),
            ),
            (
                json!({"$gte": 1, "$lt": 9}),
                json!({"$gt": 1.0, "$lte": 9.0}),
            ),
        ] {
            let (lo, hi) = range_of(and(a, b));
            assert_eq!((lo.unwrap().1, hi.unwrap().1), (false, false));
        }
        // Integers `f64` cannot tell apart still order.
        let two_53 = 9_007_199_254_740_992u64;
        assert_eq!(
            range_of(and(json!({"$gt": two_53}), json!({"$gt": two_53 + 1}))).0,
            Some((json!(two_53 + 1), false))
        );
        // Different types do not compare: the first is kept.
        assert_eq!(
            range_of(and(json!({"$gte": 5}), json!({"$gte": "a"}))).0,
            Some((json!(5), true))
        );
        assert_eq!(
            range_of(and(json!({"$lt": "a"}), json!({"$lt": 5}))).1,
            Some((json!("a"), false))
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
            json!({"$or": [
                {"model": {"$in": ["SONY D5803", "LG G3"]}},
                {"$not": {"shared": {"$exists": true}}},
            ]}),
            json!({"tags": {"$contains": "paris"}}),
            json!({"spl": {"$nin": [1, 2]}}),
        ];
        for doc in docs {
            let filter = Filter::parse(&doc).unwrap();
            let encoded = filter.to_doc();
            let reparsed = Filter::parse(&encoded).unwrap();
            // The canonical encoding is a fixed point: encoding the
            // reparsed filter reproduces it byte for byte.
            assert_eq!(reparsed.to_doc(), encoded, "for {doc}");
        }
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
