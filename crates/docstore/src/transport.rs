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

/// The store's operation table: every client-facing operation, stated
/// once. A row is what `docs/WIRE_PROTOCOL.md` §6 tabulates — opcode,
/// `NAME`, each argument's Rust type `=>` its wire field, the reply's —
/// plus the method's documentation and, marked `degrades`, whether the
/// embedded answer is infallible (the handle or a remote client then
/// answers the default when the store cannot be reached). The
/// `collection` rows are [`CollectionOps`] — on the wire each carries
/// its collection's name as a leading `string` — and the `store` rows
/// are [`DocstoreTransport`].
///
/// `docstore_ops!(emit, ctx…)` expands to
/// `emit! { [ctx…] collection { rows… } store { rows… } }`, so each
/// crate generates the part it owns: this one the traits, the delegating
/// impls and [`CollectionHandle`]; `mps-net` the opcode constants, the
/// client stubs and the server dispatch. Adding an operation is adding a
/// row (and its `docs/WIRE_PROTOCOL.md` line, which
/// `crates/net/tests/wire_spec.rs` holds the row to).
#[macro_export]
macro_rules! docstore_ops {
    ($emit:path $(, $($ctx:tt)*)?) => {
        $emit! {
            [$($($ctx)*)?]
            collection {
                /// Inserts one document, returning its id.
                ///
                /// # Errors
                ///
                /// Propagates the store's validation errors, or
                /// [`StoreError::Transport`].
                1 INSERT_ONE
                fn insert_one(doc: Value => json) -> DocId => u64;
                /// Inserts a batch of documents, returning their ids in order.
                ///
                /// # Errors
                ///
                /// Propagates the store's validation errors, or
                /// [`StoreError::Transport`].
                2 INSERT_MANY
                fn insert_many(docs: Vec<Value> => seq<json>) -> Vec<DocId> => seq<u64>;
                /// Fetches a document by id (the handle answers `None` if it
                /// is missing *or* the store is unreachable).
                ///
                /// # Errors
                ///
                /// Returns [`StoreError::Transport`] when the store is
                /// unreachable.
                3 GET
                fn get(id: DocId => u64) -> Option<Value> => option<json>, degrades;
                /// Number of documents in the collection (the handle answers
                /// `0` when the store is unreachable).
                ///
                /// # Errors
                ///
                /// Returns [`StoreError::Transport`] when the store is
                /// unreachable.
                4 LEN
                fn len() -> usize => u64, degrades;
                /// Documents matching a filter.
                ///
                /// # Errors
                ///
                /// Propagates the store's filter errors, or
                /// [`StoreError::Transport`].
                5 FIND
                fn find(filter: &Filter => json) -> Vec<Value> => docs;
                /// Documents matching a filter, sorted and limited.
                ///
                /// # Errors
                ///
                /// Propagates the store's filter/sort errors, or
                /// [`StoreError::Transport`].
                6 FIND_WITH_OPTIONS
                fn find_with_options(filter: &Filter => json, options: &FindOptions => json) -> Vec<Value> => docs;
                /// Number of documents matching a filter.
                ///
                /// # Errors
                ///
                /// Propagates the store's filter errors, or
                /// [`StoreError::Transport`].
                7 COUNT
                fn count(filter: &Filter => json) -> usize => u64;
                /// Applies an update to every matching document, returning how
                /// many changed.
                ///
                /// # Errors
                ///
                /// Propagates the store's filter/update errors, or
                /// [`StoreError::Transport`].
                8 UPDATE_MANY
                fn update_many(filter: &Filter => json, update: &Update => json) -> usize => u64;
                /// Deletes every matching document, returning how many were
                /// removed.
                ///
                /// # Errors
                ///
                /// Propagates the store's filter errors, or
                /// [`StoreError::Transport`].
                9 DELETE_MANY
                fn delete_many(filter: &Filter => json) -> usize => u64;
                /// Creates (or rebuilds) a secondary index on a dotted path.
                ///
                /// # Errors
                ///
                /// Propagates the store's errors, or [`StoreError::Transport`].
                10 CREATE_INDEX
                fn create_index(path: &str => string) -> () => empty;
                /// Drops the index on a dotted path.
                ///
                /// # Errors
                ///
                /// Propagates the store's errors, or [`StoreError::Transport`].
                11 DROP_INDEX
                fn drop_index(path: &str => string) -> () => empty;
                /// Whether an index exists on a dotted path (the handle answers
                /// `false` when the store is unreachable).
                ///
                /// # Errors
                ///
                /// Returns [`StoreError::Transport`] when the store is
                /// unreachable.
                12 HAS_INDEX
                fn has_index(path: &str => string) -> bool => bool, degrades;
                /// Number of distinct keys in an index, if one exists on the
                /// path (the handle answers `None` when the store is
                /// unreachable).
                ///
                /// # Errors
                ///
                /// Returns [`StoreError::Transport`] when the store is
                /// unreachable.
                13 INDEX_CARDINALITY
                fn index_cardinality(path: &str => string) -> Option<usize> => option<u64>, degrades;
                /// Distinct values at a dotted path among matching documents
                /// (the handle answers the empty vector when the store is
                /// unreachable).
                ///
                /// # Errors
                ///
                /// Returns [`StoreError::Transport`] when the store is
                /// unreachable.
                14 DISTINCT
                fn distinct(path: &str => string, filter: &Filter => json) -> Vec<Value> => docs, degrades;
                /// Removes every document (indexes stay declared).
                ///
                /// # Errors
                ///
                /// Propagates the store's errors, or [`StoreError::Transport`].
                15 CLEAR
                fn clear() -> () => empty;
                /// Every document in the collection (the handle answers the
                /// empty vector when the store is unreachable).
                ///
                /// # Errors
                ///
                /// Returns [`StoreError::Transport`] when the store is
                /// unreachable.
                16 ALL
                fn all() -> Vec<Value> => docs, degrades;
            }
            store {
                /// Whether a collection with this name exists (`false` when the
                /// store is unreachable).
                17 HAS_COLLECTION
                fn has_collection(name: &str => string) -> bool => bool, degrades;
                /// Names of every collection, sorted (empty when the store is
                /// unreachable).
                18 COLLECTION_NAMES
                fn collection_names() -> Vec<String> => seq<string>, degrades;
                /// Removes a collection and its documents.
                ///
                /// # Errors
                ///
                /// Propagates [`StoreError::CollectionNotFound`], or
                /// [`StoreError::Transport`].
                19 DROP_COLLECTION
                fn drop_collection(name: &str => string) -> () => empty;
                /// Documents across every collection (`0` when the store is
                /// unreachable).
                20 TOTAL_DOCUMENTS
                fn total_documents() -> usize => u64, degrades;
            }
        }
    };
}

/// Picks `then` when the bracket holds a token and `otherwise` when it is
/// empty: how the emitters branch on a row's optional parts (`degrades`,
/// a by-reference argument).
macro_rules! row_if {
    ([] { $($then:tt)* } { $($otherwise:tt)* }) => { $($otherwise)* };
    ([$present:tt] { $($then:tt)* } { $($otherwise:tt)* }) => { $($then)* };
}

/// Emits the [`CollectionOps`] methods: one per `collection` row, each
/// returning `Result` whether or not the embedded answer can fail.
macro_rules! emit_collection_trait {
    ([] collection { $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* } store { $($store:tt)* }) => {
        $($(#[$doc])*
        fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*) -> Result<$ret, StoreError>;)*
    };
}

/// The per-collection operations a client may perform, over any
/// transport — the `collection` rows of
/// [`docstore_ops!`](crate::docstore_ops). Object-safe mirror of
/// [`Collection`]'s public API; every method returns `Result` so remote
/// implementations can report connectivity failures
/// ([`StoreError::Transport`]) even for operations the embedded
/// collection answers infallibly.
pub trait CollectionOps: fmt::Debug + Send + Sync {
    docstore_ops!(emit_collection_trait);

    /// Whether the collection holds no documents.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Transport`] when the store is unreachable.
    fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
}

/// Emits [`Collection`]'s delegation: its inherent method does the work,
/// and an infallible answer is wrapped in `Ok`.
macro_rules! emit_collection_delegate {
    ([] collection { $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* } store { $($store:tt)* }) => {
        $(fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*) -> Result<$ret, StoreError> {
            let answer = Collection::$method(self $(, $arg)*);
            row_if!([$($degrades)?] { Ok(answer) } { answer })
        })*
    };
}

impl CollectionOps for Collection {
    docstore_ops!(emit_collection_delegate);
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

/// Emits [`CollectionHandle`]'s methods: the trait's, with by-value
/// arguments widened to `impl Into<_>` and the `degrades` rows answering
/// their default instead of an error.
macro_rules! emit_handle {
    ([] collection { $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* } store { $($store:tt)* }) => {
        $($(#[$doc])*
        pub fn $method(&self $(, $arg: $(&$rty)? $(impl Into<$vty>)?)*)
            -> row_if!([$($degrades)?] { $ret } { Result<$ret, StoreError> }) {
            let answer = self.ops.$method($(row_if!([$($rty)?] { $arg } { $arg.into() })),*);
            row_if!([$($degrades)?] { answer.unwrap_or_default() } { answer })
        })*
    };
}

impl CollectionHandle {
    /// Wraps any [`CollectionOps`] implementation.
    pub fn new(ops: Arc<dyn CollectionOps>) -> Self {
        Self { ops }
    }

    docstore_ops!(emit_handle);

    /// Whether the collection holds no documents (also `true` when the
    /// store is unreachable — pair with fallible calls where the
    /// distinction matters).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Collection> for CollectionHandle {
    fn from(collection: Collection) -> Self {
        Self::new(Arc::new(collection))
    }
}

/// Emits the [`DocstoreTransport`] methods: one per `store` row.
macro_rules! emit_store_trait {
    ([] collection { $($collection:tt)* } store { $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* }) => {
        $($(#[$doc])*
        fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*)
            -> row_if!([$($degrades)?] { $ret } { Result<$ret, StoreError> });)*
    };
}

/// The store-level operations a client may perform, over any transport
/// — the `store` rows of [`docstore_ops!`](crate::docstore_ops), plus
/// [`collection`](DocstoreTransport::collection), which is no RPC: it
/// names the collection the handle's operations will carry. Object-safe
/// mirror of [`Store`]'s public API.
pub trait DocstoreTransport: fmt::Debug + Send + Sync {
    /// A handle to the named collection, created on first use.
    fn collection(&self, name: &str) -> CollectionHandle;

    docstore_ops!(emit_store_trait);
}

/// Emits every `store` row as a method forwarding to
/// `$target::method(receiver, args…)`, where `receiver` is an expression
/// over `$this` (the method's `self`).
macro_rules! emit_store_delegate {
    ([|$this:ident| $target:ty, $receiver:expr] collection { $($collection:tt)* } store {
        $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* }) => {
        $(fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*)
            -> row_if!([$($degrades)?] { $ret } { Result<$ret, StoreError> }) {
            let $this = self;
            <$target>::$method($receiver $(, $arg)*)
        })*
    };
}

impl DocstoreTransport for Store {
    fn collection(&self, name: &str) -> CollectionHandle {
        CollectionHandle::from(Store::collection(self, name))
    }

    docstore_ops!(emit_store_delegate, |this| Store, this);
}

/// Shared transports are transports: lets `Arc<Store>` (or any shared
/// remote client) be used directly wherever a [`DocstoreTransport`]
/// bound is expected.
impl<T: DocstoreTransport + ?Sized> DocstoreTransport for Arc<T> {
    fn collection(&self, name: &str) -> CollectionHandle {
        (**self).collection(name)
    }

    docstore_ops!(emit_store_delegate, |this| T, &**this);
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
            .update_many(&Filter::lt("n", 2), &Update::set("n", 11))
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
        assert_eq!(top[0]["n"], json!(11));
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
