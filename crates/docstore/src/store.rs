//! The store: a namespace of collections.

use crate::durability::{journaled, CollectionMap, DurableCtx, DurableShared};
use crate::telemetry::telemetry;
use crate::Collection;
use crate::StoreError;
use mps_wal::{Rank, Ranked};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A thread-safe namespace of named [`Collection`]s — the substitute for
/// the MongoDB database instance backing the GoFlow server.
///
/// `Store` is a cheaply-cloneable handle; clones share the same data.
///
/// # Examples
///
/// ```
/// use mps_docstore::Store;
/// use serde_json::json;
///
/// let store = Store::new();
/// store.collection("obs").insert_one(json!({"spl": 50.0}))?;
/// assert_eq!(store.collection_names(), vec!["obs".to_string()]);
/// # Ok::<(), mps_docstore::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    pub(crate) collections: CollectionMap,
    /// Present when the store write-ahead-logs its mutations (see
    /// [`crate::durability`]); `None` on the in-memory sim path.
    pub(crate) durable: Option<Arc<DurableShared>>,
}

impl Default for Store {
    fn default() -> Self {
        Self {
            collections: Arc::new(Ranked::new(Rank::StoreMap, BTreeMap::new())),
            durable: None,
        }
    }
}

impl Store {
    /// Creates an empty, in-memory store (use [`Store::open`] for a
    /// durable one).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the collection named `name`, creating it if absent. The
    /// returned handle shares data with every other handle to the same
    /// name.
    pub fn collection(&self, name: &str) -> Collection {
        if let Some(existing) = self.collections.lock().get(name) {
            return existing.clone();
        }
        // A journaled store logs a `touch` so that even an empty
        // collection survives recovery. This call is infallible, so a
        // logging failure (a crash-killed or failing disk) is not
        // reported here: the instance is dead and its next mutation says
        // so.
        let (collection, _logged) = journaled(self.journal(name), |log| {
            if let Some(log) = log {
                log.bare("touch");
            }
            self.get_or_create(name)
        });
        collection
    }

    /// Gets or creates `name` without logging — what [`Store::collection`]
    /// and log replay share. A new collection is linked to this store's
    /// journal, if it has one.
    pub(crate) fn get_or_create(&self, name: &str) -> Collection {
        let mut collections = self.collections.lock();
        if let Some(existing) = collections.get(name) {
            return existing.clone();
        }
        telemetry().store_collections.inc();
        let collection = Collection {
            durable: self
                .durable
                .as_ref()
                .map(|shared| DurableCtx::new(name, shared)),
            ..Collection::default()
        };
        collections.insert(name.to_owned(), collection.clone());
        collection
    }

    pub(crate) fn journal<'a>(&'a self, name: &'a str) -> Option<(&'a DurableShared, &'a str)> {
        self.durable.as_deref().map(|shared| (shared, name))
    }

    /// Whether a collection named `name` exists.
    pub fn has_collection(&self, name: &str) -> bool {
        self.collections.lock().contains_key(name)
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.lock().keys().cloned().collect()
    }

    /// Drops a collection and its documents. A handle to it kept past
    /// this still reads what it held, but every mutation through it is
    /// [`StoreError::CollectionNotFound`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CollectionNotFound`] if no collection has
    /// this name, and [`StoreError::Durability`] when a durable store
    /// cannot log the drop.
    pub fn drop_collection(&self, name: &str) -> Result<(), StoreError> {
        let (removed, logged) = journaled(self.journal(name), |log| {
            let removed = self.collections.lock().remove(name);
            if let Some(collection) = &removed {
                // Under the journal lock: no mutation through a handle
                // kept past this can log between the drop and the mark.
                collection.inner.lock().dropped = Some(name.to_owned());
                telemetry().store_collections.dec();
                if let Some(log) = log {
                    log.bare("drop_collection");
                }
            }
            removed.is_some()
        });
        logged?;
        if removed {
            Ok(())
        } else {
            Err(StoreError::CollectionNotFound(name.to_owned()))
        }
    }

    /// Total number of documents across all collections.
    pub fn total_documents(&self) -> usize {
        self.collections.lock().values().map(Collection::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn collection_auto_creates_and_shares() {
        let store = Store::new();
        let a1 = store.collection("a");
        let a2 = store.collection("a");
        a1.insert_one(json!({"x": 1})).unwrap();
        assert_eq!(a2.len(), 1);
        assert!(store.has_collection("a"));
        assert!(!store.has_collection("b"));
    }

    #[test]
    fn names_are_sorted() {
        let store = Store::new();
        store.collection("zeta");
        store.collection("alpha");
        assert_eq!(store.collection_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn drop_collection_removes() {
        let store = Store::new();
        store.collection("tmp").insert_one(json!({})).unwrap();
        store.drop_collection("tmp").unwrap();
        assert!(!store.has_collection("tmp"));
        assert!(matches!(
            store.drop_collection("tmp"),
            Err(StoreError::CollectionNotFound(_))
        ));
    }

    #[test]
    fn a_handle_kept_past_its_drop_changes_nothing() {
        let store = Store::new();
        let stale = store.collection("tmp");
        stale.insert_one(json!({"a": 1})).unwrap();
        store.drop_collection("tmp").unwrap();
        let gone = Err(StoreError::CollectionNotFound("tmp".to_owned()));
        assert_eq!(stale.insert_one(json!({"a": 2})).map(drop), gone);
        assert_eq!(stale.create_index("a"), gone);
        assert_eq!(stale.clear(), gone);
        assert_eq!(stale.len(), 1);
        assert!(!stale.has_index("a"));
        let fresh = store.collection("tmp");
        assert!(fresh.is_empty());
        fresh.insert_one(json!({"a": 3})).unwrap();
        assert_eq!(stale.delete_many(&crate::Filter::True).map(drop), gone);
        assert_eq!(
            store.export_json(),
            r#"{"collections":{"tmp":{"docs":[{"_id":0,"a":3}],"indexes":[],"next_id":1}}}"#
        );
    }

    #[test]
    fn total_documents_sums() {
        let store = Store::new();
        store.collection("a").insert_one(json!({})).unwrap();
        store
            .collection("b")
            .insert_many([json!({}), json!({})])
            .unwrap();
        assert_eq!(store.total_documents(), 3);
    }

    #[test]
    fn clones_share_namespace() {
        let store = Store::new();
        let clone = store.clone();
        clone.collection("shared");
        assert!(store.has_collection("shared"));
    }
}
