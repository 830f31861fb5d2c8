//! Update documents: `$set`, the one operation GoFlow's writes make.

use crate::value::set_path;
use crate::StoreError;
use serde_json::{Map, Value};

/// A parsed update document: an ordered list of `$set` writes, each a
/// value put at a dotted path. Any other operator is
/// [`StoreError::BadUpdate`].
///
/// # Examples
///
/// ```
/// use mps_docstore::Update;
/// use serde_json::json;
///
/// let update = Update::parse(&json!({
///     "$set": {"status": "processed", "meta.retries": 3},
/// }))?;
/// let mut doc = json!({"status": "new"});
/// update.apply(&mut doc)?;
/// assert_eq!(doc, json!({"meta": {"retries": 3}, "status": "processed"}));
/// # Ok::<(), mps_docstore::StoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    sets: Vec<(String, Value)>,
}

impl Update {
    /// Parses an update document.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadUpdate`] if the document is not an object,
    /// uses an operator other than `$set` — checked before any argument —
    /// or gives `$set` something other than an object of paths, or no
    /// path at all.
    pub fn parse(doc: &Value) -> Result<Update, StoreError> {
        let map = doc
            .as_object()
            .ok_or_else(|| StoreError::BadUpdate("update must be an object".into()))?;
        if let Some(op) = map.keys().find(|op| *op != "$set") {
            return Err(StoreError::BadUpdate(format!("unknown operator {op}")));
        }
        let Some(args) = map.get("$set") else {
            return Err(StoreError::BadUpdate("update has no operations".into()));
        };
        let args = args
            .as_object()
            .ok_or_else(|| StoreError::BadUpdate("$set expects an object of paths".into()))?;
        if args.is_empty() {
            return Err(StoreError::BadUpdate("update has no operations".into()));
        }
        let sets = args.iter().map(|(path, v)| (path.clone(), v.clone()));
        let sets = sets.collect();
        Ok(Update { sets })
    }

    /// Builds a single-field `$set` update.
    pub fn set(path: impl Into<String>, value: impl Into<Value>) -> Update {
        Update {
            sets: vec![(path.into(), value.into())],
        }
    }

    /// Encodes the update back to a Mongo-style document — the inverse of
    /// [`Update::parse`]: `{"$set": {path: value, ..}}`, the canonical
    /// update encoding of the wire protocol.
    #[must_use]
    pub fn to_doc(&self) -> Value {
        let sets: Map<String, Value> = self.sets.iter().cloned().collect();
        let mut doc = Map::new();
        doc.insert("$set".to_owned(), Value::Object(sets));
        Value::Object(doc)
    }

    /// Applies the update to `doc` in place.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadUpdate`] if a dotted path runs through a
    /// value that is not an object; the writes before it stay applied.
    pub fn apply(&self, doc: &mut Value) -> Result<(), StoreError> {
        for (path, value) in &self.sets {
            if !set_path(doc, path, value.clone()) {
                return Err(StoreError::BadUpdate(format!(
                    "$set cannot traverse non-object at {path}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn set_creates_and_overwrites() {
        let u = Update::parse(&json!({"$set": {"a.b": 1, "c": "x"}})).unwrap();
        let mut doc = json!({"c": "old"});
        u.apply(&mut doc).unwrap();
        assert_eq!(doc, json!({"a": {"b": 1}, "c": "x"}));
    }

    #[test]
    fn parse_errors() {
        assert!(Update::parse(&json!(5)).is_err());
        assert!(Update::parse(&json!({"$set": 5})).is_err());
        assert!(Update::parse(&json!({"$bogus": {"a": 1}})).is_err());
        assert!(Update::parse(&json!({})).is_err(), "empty update rejected");
        assert!(Update::parse(&json!({"$set": {}})).is_err());
    }

    #[test]
    fn an_unknown_operator_is_refused_whatever_its_arguments() {
        // Beside a good `$set`, with no paths, or with no object: the
        // operator is checked first, so no argument hides it.
        for doc in [
            json!({"$set": {"a": 1}, "$bogus": {}}),
            json!({"$set": {"a": 1}, "$unset": {}}),
            json!({"$nope": {}}),
            json!({"$inc": 5}),
        ] {
            let op = doc.as_object().unwrap().keys().find(|k| *k != "$set");
            assert_eq!(
                Update::parse(&doc),
                Err(StoreError::BadUpdate(format!(
                    "unknown operator {}",
                    op.unwrap()
                ))),
                "{doc}"
            );
        }
    }

    #[test]
    fn set_builder() {
        let mut doc = json!({});
        Update::set("k", 7).apply(&mut doc).unwrap();
        assert_eq!(doc, json!({"k": 7}));
    }

    #[test]
    fn set_through_scalar_fails() {
        let u = Update::set("a.b", 1);
        let mut doc = json!({"a": 3});
        assert!(u.apply(&mut doc).is_err());
        // Part-way: the writes before the failing one stay.
        let u = Update::parse(&json!({"$set": {"a.b": 1, "c": 2, "d.e": 3}})).unwrap();
        let mut doc = json!({"d": 4});
        assert!(u.apply(&mut doc).is_err());
        assert_eq!(doc, json!({"a": {"b": 1}, "c": 2, "d": 4}));
    }

    #[test]
    fn to_doc_round_trips_through_parse() {
        let original = json!({"$set": {"status": "processed", "meta.reason": "ok", "n": 1.5}});
        let update = Update::parse(&original).unwrap();
        let encoded = update.to_doc();
        assert_eq!(encoded, original);
        assert_eq!(Update::parse(&encoded).unwrap(), update);
    }

    #[test]
    fn to_doc_encodes_builders_canonically() {
        assert_eq!(Update::set("k", 7).to_doc(), json!({"$set": {"k": 7}}));
    }
}
