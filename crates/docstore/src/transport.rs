//! The [`DocstoreTransport`] / [`CollectionOps`] traits: the store's
//! client surface as object-safe abstractions, so the embedded store and
//! a remote one (see `mps-net`'s `RemoteStore`) are interchangeable.
//!
//! Consumers hold a [`CollectionHandle`] — a cheap clonable wrapper over
//! `Arc<dyn CollectionOps>` exposing the familiar [`Collection`] method
//! surface. The embedded [`Store`] and [`Collection`] implement the
//! traits by pure delegation; durability controls and aggregation stay
//! on the concrete types (operator concerns of the owning process, not
//! part of the wire contract).
//!
//! Infallible [`Collection`] conveniences (`len`, `all`, `has_index`,
//! `distinct`, …) stay infallible on the handle: a remote handle that
//! cannot reach its server degrades them to the empty/default answer
//! and counts the failure in its own `net_*` metrics. Mutating and
//! querying operations, which already return `Result`, surface
//! connectivity problems as [`StoreError::Transport`].

use crate::collection::{Collection, FindOptions};
use crate::error::StoreError;
use crate::filter::Filter;
use crate::store::Store;
use crate::update::Update;
use crate::value::DocId;
use serde_json::Value;
use std::fmt;
use std::sync::Arc;

/// The per-collection operations a client may perform, over any
/// transport. Object-safe mirror of [`Collection`]'s public API; every
/// method returns `Result` so remote implementations can report
/// connectivity failures ([`StoreError::Transport`]) even for
/// operations the embedded collection answers infallibly.
pub trait CollectionOps: fmt::Debug + Send + Sync {
    /// Inserts one document, returning its id.
    ///
    /// # Errors
    ///
    /// Propagates the store's validation errors, or
    /// [`StoreError::Transport`].
    fn insert_one(&self, doc: Value) -> Result<DocId, StoreError>;

    /// Inserts a batch of documents, returning their ids in order.
    ///
    /// # Errors
    ///
    /// Propagates the store's validation errors, or
    /// [`StoreError::Transport`].
    fn insert_many(&self, docs: Vec<Value>) -> Result<Vec<DocId>, StoreError>;

    /// Fetches a document by id.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn get(&self, id: DocId) -> Result<Option<Value>, StoreError>;

    /// Number of documents in the collection.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn len(&self) -> Result<usize, StoreError>;

    /// Whether the collection holds no documents.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Documents matching a filter.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter errors, or
    /// [`StoreError::Transport`].
    fn find(&self, filter: &Filter) -> Result<Vec<Value>, StoreError>;

    /// Documents matching a filter, with sort/skip/limit/projection.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter/sort errors, or
    /// [`StoreError::Transport`].
    fn find_with_options(
        &self,
        filter: &Filter,
        options: &FindOptions,
    ) -> Result<Vec<Value>, StoreError>;

    /// Number of documents matching a filter.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter errors, or
    /// [`StoreError::Transport`].
    fn count(&self, filter: &Filter) -> Result<usize, StoreError>;

    /// Applies an update to every matching document, returning how many
    /// changed.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter/update errors, or
    /// [`StoreError::Transport`].
    fn update_many(&self, filter: &Filter, update: &Update) -> Result<usize, StoreError>;

    /// Deletes every matching document, returning how many were removed.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter errors, or
    /// [`StoreError::Transport`].
    fn delete_many(&self, filter: &Filter) -> Result<usize, StoreError>;

    /// Creates (or rebuilds) a secondary index on a dotted path.
    ///
    /// # Errors
    ///
    /// Propagates the store's errors, or [`StoreError::Transport`].
    fn create_index(&self, path: &str) -> Result<(), StoreError>;

    /// Drops the index on a dotted path.
    ///
    /// # Errors
    ///
    /// Propagates the store's errors, or [`StoreError::Transport`].
    fn drop_index(&self, path: &str) -> Result<(), StoreError>;

    /// Whether an index exists on a dotted path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn has_index(&self, path: &str) -> Result<bool, StoreError>;

    /// Number of distinct keys in an index, if one exists on the path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn index_cardinality(&self, path: &str) -> Result<Option<usize>, StoreError>;

    /// Distinct values at a dotted path among matching documents.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn distinct(&self, path: &str, filter: &Filter) -> Result<Vec<Value>, StoreError>;

    /// Removes every document (indexes stay declared).
    ///
    /// # Errors
    ///
    /// Propagates the store's errors, or [`StoreError::Transport`].
    fn clear(&self) -> Result<(), StoreError>;

    /// Every document in the collection.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn all(&self) -> Result<Vec<Value>, StoreError>;
}

impl CollectionOps for Collection {
    fn insert_one(&self, doc: Value) -> Result<DocId, StoreError> {
        Collection::insert_one(self, doc)
    }

    fn insert_many(&self, docs: Vec<Value>) -> Result<Vec<DocId>, StoreError> {
        Collection::insert_many(self, docs)
    }

    fn get(&self, id: DocId) -> Result<Option<Value>, StoreError> {
        Ok(Collection::get(self, id))
    }

    fn len(&self) -> Result<usize, StoreError> {
        Ok(Collection::len(self))
    }

    fn find(&self, filter: &Filter) -> Result<Vec<Value>, StoreError> {
        Collection::find(self, filter)
    }

    fn find_with_options(
        &self,
        filter: &Filter,
        options: &FindOptions,
    ) -> Result<Vec<Value>, StoreError> {
        Collection::find_with_options(self, filter, options)
    }

    fn count(&self, filter: &Filter) -> Result<usize, StoreError> {
        Collection::count(self, filter)
    }

    fn update_many(&self, filter: &Filter, update: &Update) -> Result<usize, StoreError> {
        Collection::update_many(self, filter, update)
    }

    fn delete_many(&self, filter: &Filter) -> Result<usize, StoreError> {
        Collection::delete_many(self, filter)
    }

    fn create_index(&self, path: &str) -> Result<(), StoreError> {
        Collection::create_index(self, path)
    }

    fn drop_index(&self, path: &str) -> Result<(), StoreError> {
        Collection::drop_index(self, path)
    }

    fn has_index(&self, path: &str) -> Result<bool, StoreError> {
        Ok(Collection::has_index(self, path))
    }

    fn index_cardinality(&self, path: &str) -> Result<Option<usize>, StoreError> {
        Ok(Collection::index_cardinality(self, path))
    }

    fn distinct(&self, path: &str, filter: &Filter) -> Result<Vec<Value>, StoreError> {
        Ok(Collection::distinct(self, path, filter))
    }

    fn clear(&self) -> Result<(), StoreError> {
        Collection::clear(self)
    }

    fn all(&self) -> Result<Vec<Value>, StoreError> {
        Ok(Collection::all(self))
    }
}

/// A cheap clonable handle over any [`CollectionOps`] implementation,
/// exposing the familiar [`Collection`] method surface.
///
/// The handle keeps the embedded collection's infallible conveniences
/// infallible: when the underlying transport fails, `len` answers `0`,
/// `all` answers the empty vector, and so on — documented degradation,
/// never a panic (the remote implementation counts the failure in its
/// metrics). Operations that return `Result` surface transport failures
/// as [`StoreError::Transport`].
#[derive(Debug, Clone)]
pub struct CollectionHandle {
    ops: Arc<dyn CollectionOps>,
}

impl CollectionHandle {
    /// Wraps any [`CollectionOps`] implementation.
    pub fn new(ops: Arc<dyn CollectionOps>) -> Self {
        Self { ops }
    }

    /// Inserts one document, returning its id.
    ///
    /// # Errors
    ///
    /// Propagates the store's validation errors, or
    /// [`StoreError::Transport`].
    pub fn insert_one(&self, doc: Value) -> Result<DocId, StoreError> {
        self.ops.insert_one(doc)
    }

    /// Inserts a batch of documents, returning their ids in order.
    ///
    /// # Errors
    ///
    /// Propagates the store's validation errors, or
    /// [`StoreError::Transport`].
    pub fn insert_many(
        &self,
        docs: impl IntoIterator<Item = Value>,
    ) -> Result<Vec<DocId>, StoreError> {
        self.ops.insert_many(docs.into_iter().collect())
    }

    /// Fetches a document by id (`None` if missing *or* unreachable).
    pub fn get(&self, id: DocId) -> Option<Value> {
        self.ops.get(id).unwrap_or_default()
    }

    /// Number of documents (`0` when the store is unreachable).
    pub fn len(&self) -> usize {
        self.ops.len().unwrap_or_default()
    }

    /// Whether the collection holds no documents (also `true` when the
    /// store is unreachable — pair with fallible calls where the
    /// distinction matters).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Documents matching a filter.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter errors, or
    /// [`StoreError::Transport`].
    pub fn find(&self, filter: &Filter) -> Result<Vec<Value>, StoreError> {
        self.ops.find(filter)
    }

    /// Documents matching a filter, with sort/skip/limit/projection.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter/sort errors, or
    /// [`StoreError::Transport`].
    pub fn find_with_options(
        &self,
        filter: &Filter,
        options: &FindOptions,
    ) -> Result<Vec<Value>, StoreError> {
        self.ops.find_with_options(filter, options)
    }

    /// Number of documents matching a filter.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter errors, or
    /// [`StoreError::Transport`].
    pub fn count(&self, filter: &Filter) -> Result<usize, StoreError> {
        self.ops.count(filter)
    }

    /// Applies an update to every matching document, returning how many
    /// changed.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter/update errors, or
    /// [`StoreError::Transport`].
    pub fn update_many(&self, filter: &Filter, update: &Update) -> Result<usize, StoreError> {
        self.ops.update_many(filter, update)
    }

    /// Deletes every matching document, returning how many were removed.
    ///
    /// # Errors
    ///
    /// Propagates the store's filter errors, or
    /// [`StoreError::Transport`].
    pub fn delete_many(&self, filter: &Filter) -> Result<usize, StoreError> {
        self.ops.delete_many(filter)
    }

    /// Creates (or rebuilds) a secondary index on a dotted path.
    ///
    /// # Errors
    ///
    /// Propagates the store's errors, or [`StoreError::Transport`].
    pub fn create_index(&self, path: &str) -> Result<(), StoreError> {
        self.ops.create_index(path)
    }

    /// Drops the index on a dotted path.
    ///
    /// # Errors
    ///
    /// Propagates the store's errors, or [`StoreError::Transport`].
    pub fn drop_index(&self, path: &str) -> Result<(), StoreError> {
        self.ops.drop_index(path)
    }

    /// Whether an index exists on a dotted path (`false` when
    /// unreachable).
    pub fn has_index(&self, path: &str) -> bool {
        self.ops.has_index(path).unwrap_or_default()
    }

    /// Number of distinct keys in an index, if one exists on the path
    /// (`None` when unreachable).
    pub fn index_cardinality(&self, path: &str) -> Option<usize> {
        self.ops.index_cardinality(path).unwrap_or_default()
    }

    /// Distinct values at a dotted path among matching documents (empty
    /// when unreachable).
    pub fn distinct(&self, path: &str, filter: &Filter) -> Vec<Value> {
        self.ops.distinct(path, filter).unwrap_or_default()
    }

    /// Removes every document (indexes stay declared).
    ///
    /// # Errors
    ///
    /// Propagates the store's errors, or [`StoreError::Transport`].
    pub fn clear(&self) -> Result<(), StoreError> {
        self.ops.clear()
    }

    /// Every document in the collection (empty when unreachable).
    pub fn all(&self) -> Vec<Value> {
        self.ops.all().unwrap_or_default()
    }
}

impl From<Collection> for CollectionHandle {
    fn from(collection: Collection) -> Self {
        Self::new(Arc::new(collection))
    }
}

/// The store-level operations a client may perform, over any transport.
/// Object-safe mirror of [`Store`]'s public API.
pub trait DocstoreTransport: fmt::Debug + Send + Sync {
    /// A handle to the named collection, created on first use.
    fn collection(&self, name: &str) -> CollectionHandle;

    /// Whether a collection with this name exists (`false` when the
    /// store is unreachable).
    fn has_collection(&self, name: &str) -> bool;

    /// Names of every collection (empty when the store is unreachable).
    fn collection_names(&self) -> Vec<String>;

    /// Removes a collection and its documents.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError::CollectionNotFound`], or
    /// [`StoreError::Transport`].
    fn drop_collection(&self, name: &str) -> Result<(), StoreError>;

    /// Documents across every collection (`0` when the store is
    /// unreachable).
    fn total_documents(&self) -> usize;
}

impl DocstoreTransport for Store {
    fn collection(&self, name: &str) -> CollectionHandle {
        CollectionHandle::from(Store::collection(self, name))
    }

    fn has_collection(&self, name: &str) -> bool {
        Store::has_collection(self, name)
    }

    fn collection_names(&self) -> Vec<String> {
        Store::collection_names(self)
    }

    fn drop_collection(&self, name: &str) -> Result<(), StoreError> {
        Store::drop_collection(self, name)
    }

    fn total_documents(&self) -> usize {
        Store::total_documents(self)
    }
}

/// Shared transports are transports: lets `Arc<Store>` (or any shared
/// remote client) be used directly wherever a [`DocstoreTransport`]
/// bound is expected.
impl<T: DocstoreTransport + ?Sized> DocstoreTransport for Arc<T> {
    fn collection(&self, name: &str) -> CollectionHandle {
        (**self).collection(name)
    }

    fn has_collection(&self, name: &str) -> bool {
        (**self).has_collection(name)
    }

    fn collection_names(&self) -> Vec<String> {
        (**self).collection_names()
    }

    fn drop_collection(&self, name: &str) -> Result<(), StoreError> {
        (**self).drop_collection(name)
    }

    fn total_documents(&self) -> usize {
        (**self).total_documents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn store_implements_transport_by_delegation() {
        let store = Store::new();
        let transport: &dyn DocstoreTransport = &store;
        let obs = transport.collection("obs");
        let id = obs
            .insert_one(json!({"spl": 61.0, "model": "LGE NEXUS 5"}))
            .unwrap();
        obs.insert_many(vec![json!({"spl": 44.0}), json!({"spl": 71.0})])
            .unwrap();
        assert_eq!(obs.len(), 3);
        assert!(!obs.is_empty());
        assert_eq!(obs.get(id).unwrap()["spl"], json!(61.0));
        assert_eq!(obs.find(&Filter::gt("spl", 50.0)).unwrap().len(), 2);
        assert_eq!(obs.count(&Filter::gt("spl", 50.0)).unwrap(), 2);
        assert_eq!(obs.all().len(), 3);

        obs.create_index("model").unwrap();
        assert!(obs.has_index("model"));
        assert_eq!(obs.index_cardinality("model"), Some(1));
        assert_eq!(obs.distinct("model", &Filter::True).len(), 1);

        assert!(transport.has_collection("obs"));
        assert_eq!(transport.collection_names(), vec!["obs".to_owned()]);
        assert_eq!(transport.total_documents(), 3);

        // The handle reaches the same underlying collection as the
        // concrete API.
        assert_eq!(Store::collection(&store, "obs").len(), 3);

        assert_eq!(obs.delete_many(&Filter::gt("spl", 50.0)).unwrap(), 2);
        obs.clear().unwrap();
        assert_eq!(obs.len(), 0);
        transport.drop_collection("obs").unwrap();
        assert!(!transport.has_collection("obs"));
    }

    #[test]
    fn handle_supports_update_and_options() {
        let store = Store::new();
        let transport: &dyn DocstoreTransport = &store;
        let c = transport.collection("t");
        for i in 0..5 {
            c.insert_one(json!({"n": i})).unwrap();
        }
        let changed = c
            .update_many(&Filter::lt("n", 2), &Update::inc("n", 10.0))
            .unwrap();
        assert_eq!(changed, 2);
        let top = c
            .find_with_options(
                &Filter::True,
                &FindOptions::new()
                    .sort("n", crate::collection::SortOrder::Descending)
                    .limit(1),
            )
            .unwrap();
        assert_eq!(top[0]["n"], json!(11.0));
    }

    #[test]
    fn arc_store_is_a_transport() {
        let store = Arc::new(Store::new());
        fn takes_transport(t: &impl DocstoreTransport) -> CollectionHandle {
            t.collection("c")
        }
        let handle = takes_transport(&store);
        handle.insert_one(json!({"x": 1})).unwrap();
        assert_eq!(store.collection("c").len(), 1);
    }
}
