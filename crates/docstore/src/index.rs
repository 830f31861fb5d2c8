//! Secondary indexes.
//!
//! An index maps the scalar value at one dotted path to the set of document
//! ids holding that value. The collection's query planner consults indexes
//! for equality and range predicates (see
//! [`Collection::create_index`](crate::Collection::create_index)).

use crate::value::{compare_values, DocId};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// A totally-ordered wrapper over scalar JSON values, usable as a B-tree
/// key. Arrays and objects are not indexable and are skipped at insert.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(Value);

impl IndexKey {
    /// Wraps a scalar value; returns `None` for arrays and objects.
    pub fn new(value: &Value) -> Option<IndexKey> {
        match value {
            Value::Array(_) | Value::Object(_) => None,
            v => Some(IndexKey(v.clone())),
        }
    }

    /// The wrapped value.
    pub fn value(&self) -> &Value {
        &self.0
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
        compare_values(&self.0, &other.0)
            // mps-lint: allow(L003) -- IndexKey construction rejects non-scalars, and same-or-cross-type scalars always compare
            .expect("IndexKey wraps only scalar values")
    }
}

/// A single-path secondary index.
#[derive(Debug, Default)]
pub(crate) struct PathIndex {
    entries: BTreeMap<IndexKey, BTreeSet<DocId>>,
}

impl PathIndex {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Indexes `id` under `value` (no-op for non-scalar values).
    pub(crate) fn insert(&mut self, value: &Value, id: DocId) {
        if let Some(key) = IndexKey::new(value) {
            self.entries.entry(key).or_default().insert(id);
        }
    }

    /// Removes `id` from under `value`.
    pub(crate) fn remove(&mut self, value: &Value, id: DocId) {
        if let Some(key) = IndexKey::new(value) {
            if let Some(set) = self.entries.get_mut(&key) {
                set.remove(&id);
                if set.is_empty() {
                    self.entries.remove(&key);
                }
            }
        }
    }

    /// Ids of documents whose indexed value equals `value`, borrowed:
    /// the planner walks or probes the set where it lies.
    pub(crate) fn eq_set(&self, value: &Value) -> Option<&BTreeSet<DocId>> {
        self.entries.get(&IndexKey::new(value)?)
    }

    /// Ids of documents whose indexed value falls in the given bounds.
    pub(crate) fn lookup_range(
        &self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Vec<DocId> {
        // Bounds that cross hold nothing, and `BTreeMap::range` panics on
        // them — as it does on one value excluded from both sides.
        if let (Some((lo, lo_inclusive)), Some((hi, hi_inclusive))) = (lo, hi) {
            match compare_values(lo, hi) {
                Some(Ordering::Greater) => return Vec::new(),
                Some(Ordering::Equal) if !(lo_inclusive && hi_inclusive) => return Vec::new(),
                _ => {}
            }
        }
        let lo_bound = match lo {
            None => Bound::Unbounded,
            Some((v, inclusive)) => match IndexKey::new(v) {
                None => return Vec::new(),
                Some(k) => {
                    if inclusive {
                        Bound::Included(k)
                    } else {
                        Bound::Excluded(k)
                    }
                }
            },
        };
        let hi_bound = match hi {
            None => Bound::Unbounded,
            Some((v, inclusive)) => match IndexKey::new(v) {
                None => return Vec::new(),
                Some(k) => {
                    if inclusive {
                        Bound::Included(k)
                    } else {
                        Bound::Excluded(k)
                    }
                }
            },
        };
        self.entries
            .range((lo_bound, hi_bound))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Number of distinct indexed values.
    pub(crate) fn cardinality(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    impl PathIndex {
        fn lookup_eq(&self, value: &Value) -> Vec<DocId> {
            self.eq_set(value).into_iter().flatten().copied().collect()
        }
    }

    #[test]
    fn index_key_rejects_compound() {
        assert!(IndexKey::new(&json!([1])).is_none());
        assert!(IndexKey::new(&json!({"a": 1})).is_none());
        assert!(IndexKey::new(&json!(1)).is_some());
        assert_eq!(IndexKey::new(&json!("s")).unwrap().value(), &json!("s"));
    }

    #[test]
    fn index_key_orders_numbers() {
        let a = IndexKey::new(&json!(1)).unwrap();
        let b = IndexKey::new(&json!(2.5)).unwrap();
        assert!(a < b);
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
        let ids = idx.lookup_range(Some((&json!(3), true)), Some((&json!(6), false)));
        assert_eq!(ids, vec![DocId(3), DocId(4), DocId(5)]);
        let ids = idx.lookup_range(None, Some((&json!(2), true)));
        assert_eq!(ids, vec![DocId(0), DocId(1), DocId(2)]);
        let ids = idx.lookup_range(Some((&json!(8), false)), None);
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
        ] {
            assert!(idx.lookup_range(Some(lo), Some(hi)).is_empty());
        }
        let ids = idx.lookup_range(Some((&five, true)), Some((&five, true)));
        assert_eq!(ids, vec![DocId(5)]);
    }

    #[test]
    fn range_with_compound_bound_is_empty() {
        let mut idx = PathIndex::new();
        idx.insert(&json!(1), DocId(1));
        assert!(idx.lookup_range(Some((&json!([1]), true)), None).is_empty());
    }

    #[test]
    fn non_scalar_values_are_skipped() {
        let mut idx = PathIndex::new();
        idx.insert(&json!([1, 2]), DocId(1));
        assert_eq!(idx.cardinality(), 0);
        idx.remove(&json!([1, 2]), DocId(1)); // no panic
    }
}
