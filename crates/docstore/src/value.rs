//! JSON value helpers: dotted-path access and a total scalar ordering.

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};
use std::cmp::Ordering;
use std::fmt;

/// Identifier assigned to every stored document (exposed in `_id`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct DocId(pub u64);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc-{}", self.0)
    }
}

/// Reads the value at a dotted path (`"a.b.c"`), if present.
///
/// Path segments index into objects only; arrays are returned whole (there
/// is no positional addressing, which GoFlow does not need).
///
/// # Examples
///
/// ```
/// use mps_docstore::get_path;
/// use serde_json::json;
///
/// let doc = json!({"location": {"accuracy": 35.0}});
/// assert_eq!(get_path(&doc, "location.accuracy"), Some(&json!(35.0)));
/// assert_eq!(get_path(&doc, "location.provider"), None);
/// ```
pub fn get_path<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.')
        .try_fold(doc, |value, segment| value.as_object()?.get(segment))
}

/// Writes `value` at a dotted path, creating intermediate objects as
/// needed. Returns `false` (and leaves the document unchanged) when an
/// intermediate segment exists but is not an object.
///
/// # Examples
///
/// ```
/// use mps_docstore::{get_path, set_path};
/// use serde_json::json;
///
/// let mut doc = json!({});
/// assert!(set_path(&mut doc, "a.b", json!(1)));
/// assert_eq!(get_path(&doc, "a.b"), Some(&json!(1)));
/// ```
pub fn set_path(doc: &mut Value, path: &str, value: Value) -> bool {
    let segments: Vec<&str> = path.split('.').collect();
    let mut current = doc;
    for (i, segment) in segments.iter().enumerate() {
        let Some(map) = current.as_object_mut() else {
            return false;
        };
        if i == segments.len() - 1 {
            map.insert((*segment).to_owned(), value);
            return true;
        }
        current = map
            .entry((*segment).to_owned())
            .or_insert_with(|| Value::Object(serde_json::Map::new()));
    }
    false // unreachable for non-empty paths; empty path has no last segment
}

/// Removes the value at a dotted path. Returns the removed value, if any.
pub fn unset_path(doc: &mut Value, path: &str) -> Option<Value> {
    let (parent_path, leaf) = match path.rsplit_once('.') {
        Some((p, l)) => (Some(p), l),
        None => (None, path),
    };
    let parent = match parent_path {
        Some(p) => {
            // get_path returns a shared ref; walk again mutably.
            let mut current = doc;
            for segment in p.split('.') {
                current = current.as_object_mut()?.get_mut(segment)?;
            }
            current
        }
        None => doc,
    };
    parent.as_object_mut()?.remove(leaf)
}

/// Rank used to order values of different JSON types (Mongo-like:
/// null < numbers < strings < booleans).
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Number(_) => 1,
        Value::String(_) => 2,
        Value::Bool(_) => 3,
        Value::Array(_) => 4,
        Value::Object(_) => 5,
    }
}

/// Totally orders two scalar JSON values; arrays and objects have no
/// defined ordering and return `None`.
///
/// Values of different types order by type rank (null < number < string <
/// bool), matching MongoDB's cross-type sort behaviour closely enough for
/// GoFlow's queries. Numbers compare by exact value whatever their
/// kind: `1 == 1.0`, and two integers above 2⁵³ that differ, differ.
///
/// # Examples
///
/// ```
/// use mps_docstore::compare_values;
/// use serde_json::json;
/// use std::cmp::Ordering;
///
/// assert_eq!(compare_values(&json!(1), &json!(2)), Some(Ordering::Less));
/// assert_eq!(compare_values(&json!(null), &json!(0)), Some(Ordering::Less));
/// assert_eq!(compare_values(&json!([1]), &json!([1])), None);
/// ```
pub fn compare_values(a: &Value, b: &Value) -> Option<Ordering> {
    if matches!(a, Value::Array(_) | Value::Object(_))
        || matches!(b, Value::Array(_) | Value::Object(_))
    {
        return None;
    }
    let (ra, rb) = (type_rank(a), type_rank(b));
    if ra != rb {
        return Some(ra.cmp(&rb));
    }
    match (a, b) {
        (Value::Null, Value::Null) => Some(Ordering::Equal),
        (Value::Number(x), Value::Number(y)) => compare_numbers(x, y),
        (Value::String(x), Value::String(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// `n` if it is an integer, exactly: every JSON integer the parser keeps
/// as one fits `i128`. `None` for a float.
pub(crate) fn integer(n: &Number) -> Option<i128> {
    match n.as_u64() {
        Some(u) => Some(i128::from(u)),
        None => n.as_i64().map(i128::from),
    }
}

/// The smallest `f64` at or above `n` — above it, where the bound is not
/// `inclusive` — as [`compare_numbers`] orders them: of all `f64`s,
/// exactly those from it on satisfy the bound. `None` for a number no
/// `f64` is near, which JSON has not.
pub(crate) fn f64_above(n: &Number, inclusive: bool) -> Option<f64> {
    let f = n.as_f64()?;
    Some(match compare_numbers(&Number::from_f64(f)?, n)? {
        Ordering::Equal if inclusive => f,
        Ordering::Equal | Ordering::Less => f.next_up(),
        Ordering::Greater => f,
    })
}

/// The largest `f64` at or below `n` (below it, where not `inclusive`):
/// [`f64_above`] the other way round.
pub(crate) fn f64_below(n: &Number, inclusive: bool) -> Option<f64> {
    let f = n.as_f64()?;
    Some(match compare_numbers(&Number::from_f64(f)?, n)? {
        Ordering::Equal if inclusive => f,
        Ordering::Equal | Ordering::Greater => f.next_down(),
        Ordering::Less => f,
    })
}

/// One end of an interval of numbers, `(number, inclusive)`; `None`:
/// unbounded.
pub(crate) type NumberEnd<'a> = Option<(&'a Number, bool)>;

/// The `f64`s `lo..=hi` an interval's ends make by [`f64_above`] and
/// [`f64_below`]: an `f64` is within the interval exactly when it is
/// within these.
pub(crate) fn f64_within(lo: NumberEnd<'_>, hi: NumberEnd<'_>) -> Option<(f64, f64)> {
    Some((
        lo.map_or(Some(f64::NEG_INFINITY), |(n, inclusive)| {
            f64_above(n, inclusive)
        })?,
        hi.map_or(Some(f64::INFINITY), |(n, inclusive)| {
            f64_below(n, inclusive)
        })?,
    ))
}

/// The smallest integer at or above `n` (above it, where not
/// `inclusive`), saturating at the ends of `i128`.
pub(crate) fn integer_above(n: &Number, inclusive: bool) -> Option<i128> {
    Some(match (integer(n), inclusive) {
        (Some(i), true) => i,
        (Some(i), false) => i + 1,
        (None, true) => n.as_f64()?.ceil() as i128,
        (None, false) => (n.as_f64()?.floor() as i128).saturating_add(1),
    })
}

/// The largest integer at or below `n` (below it, where not
/// `inclusive`): [`integer_above`] the other way round.
pub(crate) fn integer_below(n: &Number, inclusive: bool) -> Option<i128> {
    Some(match (integer(n), inclusive) {
        (Some(i), true) => i,
        (Some(i), false) => i - 1,
        (None, true) => n.as_f64()?.floor() as i128,
        (None, false) => (n.as_f64()?.ceil() as i128).saturating_sub(1),
    })
}

/// Orders two numbers as the reals they denote, never rounding an
/// integer through `f64` (where 2⁵³ and 2⁵³ + 1 are one value).
pub(crate) fn compare_numbers(x: &Number, y: &Number) -> Option<Ordering> {
    // An integer against a float: against the float's whole part, which
    // `i128` holds exactly inside ±2¹²⁶, then that part against the float.
    // A float beyond that is beyond every integer, as it is beyond zero.
    let int_float = |i: i128, f: f64| match f.trunc() {
        whole if whole.abs() < 2f64.powi(126) => {
            Some(i.cmp(&(whole as i128)).then(whole.total_cmp(&f)))
        }
        _ => 0.0.partial_cmp(&f),
    };
    match (integer(x), integer(y)) {
        (Some(x), Some(y)) => Some(x.cmp(&y)),
        (Some(x), None) => int_float(x, y.as_f64()?),
        (None, Some(y)) => int_float(y, x.as_f64()?).map(Ordering::reverse),
        (None, None) => x.as_f64()?.partial_cmp(&y.as_f64()?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn get_path_nested() {
        let doc = json!({"a": {"b": {"c": 7}}});
        assert_eq!(get_path(&doc, "a.b.c"), Some(&json!(7)));
        assert_eq!(get_path(&doc, "a.b"), Some(&json!({"c": 7})));
        assert_eq!(get_path(&doc, "a.x"), None);
        assert_eq!(get_path(&doc, "a.b.c.d"), None, "scalar has no children");
    }

    #[test]
    fn get_path_single_segment() {
        let doc = json!({"k": "v"});
        assert_eq!(get_path(&doc, "k"), Some(&json!("v")));
    }

    #[test]
    fn set_path_creates_intermediates() {
        let mut doc = json!({});
        assert!(set_path(&mut doc, "x.y.z", json!(true)));
        assert_eq!(doc, json!({"x": {"y": {"z": true}}}));
    }

    #[test]
    fn set_path_overwrites_leaf() {
        let mut doc = json!({"a": 1});
        assert!(set_path(&mut doc, "a", json!(2)));
        assert_eq!(doc, json!({"a": 2}));
    }

    #[test]
    fn set_path_refuses_through_scalar() {
        let mut doc = json!({"a": 5});
        assert!(!set_path(&mut doc, "a.b", json!(1)));
        assert_eq!(doc, json!({"a": 5}));
    }

    #[test]
    fn unset_path_removes_and_returns() {
        let mut doc = json!({"a": {"b": 3}, "c": 4});
        assert_eq!(unset_path(&mut doc, "a.b"), Some(json!(3)));
        assert_eq!(doc, json!({"a": {}, "c": 4}));
        assert_eq!(unset_path(&mut doc, "c"), Some(json!(4)));
        assert_eq!(unset_path(&mut doc, "missing"), None);
        assert_eq!(unset_path(&mut doc, "a.b.c"), None);
    }

    #[test]
    fn compare_same_types() {
        assert_eq!(compare_values(&json!(1.5), &json!(2)), Some(Ordering::Less));
        assert_eq!(
            compare_values(&json!("abc"), &json!("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(
            compare_values(&json!(true), &json!(false)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            compare_values(&json!(null), &json!(null)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn numbers_compare_by_exact_value_across_kinds() {
        let two_53 = 9_007_199_254_740_992u64;
        let less = Some(Ordering::Less);
        // Integers `f64` cannot tell apart.
        assert_eq!(compare_values(&json!(two_53), &json!(two_53 + 1)), less);
        assert_eq!(compare_values(&json!(u64::MAX - 1), &json!(u64::MAX)), less);
        assert_eq!(compare_values(&json!(i64::MIN), &json!(i64::MIN + 1)), less);
        assert_eq!(compare_values(&json!(i64::MIN), &json!(u64::MAX)), less);
        // An integer against a float is not rounded to meet it.
        assert_eq!(
            compare_values(&json!(two_53 as f64), &json!(two_53 + 1)),
            less
        );
        assert_eq!(
            compare_values(&json!(u64::MAX), &json!(2f64.powi(64))),
            less
        );
        assert_eq!(
            compare_values(&json!(-(2f64.powi(64))), &json!(i64::MIN)),
            less
        );
        assert_eq!(
            compare_values(&json!(1e300), &json!(u64::MAX)),
            less.map(Ordering::reverse)
        );
        assert_eq!(compare_values(&json!(0), &json!(0.5)), less);
        assert_eq!(compare_values(&json!(-0.5), &json!(0)), less);
        assert_eq!(compare_values(&json!(-1), &json!(-0.5)), less);
        // Equal values are equal whatever their kind.
        let equal = Some(Ordering::Equal);
        assert_eq!(compare_values(&json!(1), &json!(1.0)), equal);
        assert_eq!(compare_values(&json!(0), &json!(-0.0)), equal);
        assert_eq!(compare_values(&json!(0.0), &json!(-0.0)), equal);
        assert_eq!(
            compare_values(&json!(i64::MIN), &json!(-(2f64.powi(63)))),
            equal
        );
        assert_eq!(compare_values(&json!(two_53), &json!(two_53 as f64)), equal);
    }

    #[test]
    fn compare_cross_types_by_rank() {
        assert_eq!(
            compare_values(&json!(null), &json!(5)),
            Some(Ordering::Less)
        );
        assert_eq!(compare_values(&json!(5), &json!("5")), Some(Ordering::Less));
        assert_eq!(
            compare_values(&json!("x"), &json!(true)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn compare_compound_is_none() {
        assert_eq!(compare_values(&json!([1]), &json!(1)), None);
        assert_eq!(compare_values(&json!({"a": 1}), &json!({"a": 1})), None);
    }

    #[test]
    fn doc_id_display() {
        assert_eq!(DocId(3).to_string(), "doc-3");
    }
}
