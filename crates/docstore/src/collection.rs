//! Collections: insert / find / update / delete with indexes.
//!
//! A collection is an ordered map from `_id` to [`Row`] (see
//! [`crate::row`]), its secondary indexes and its shape registry, behind
//! one lock. `Value` documents exist only at the boundary: `insert` takes
//! one apart, `find` / `get` / `all` build one per document *returned*,
//! `update_many` converts the document it changes there and back.
//!
//! **Reads** share one iterator, `CollectionInner::matches`: the
//! planner's candidates (or every row) re-checked against the full
//! filter in `_id` order. `count` consumes it without building anything,
//! an unsorted `find` stops it when the window is full, and a sorted one
//! reads each match's key once, stable-sorts `(key, &Row)` pairs and
//! converts only the window. **Writes** share `Collection::mutate` (see
//! [`crate::durability`]).

use crate::durability::{journaled, DurableCtx, Journal};
use crate::filter::Filter;
use crate::index::PathIndex;
use crate::planner::plan_query;
use crate::row::{Doc, Row, Shapes, Slots};
use crate::telemetry::telemetry;
use crate::update::Update;
use crate::value::{compare_values, set_path, DocId};
use crate::StoreError;
use mps_telemetry::SpanTimer;
use parking_lot::Mutex;
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sort direction for [`FindOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortOrder {
    /// Smallest values first.
    #[default]
    Ascending,
    /// Largest values first.
    Descending,
}

/// Options controlling a [`Collection::find_with_options`] query.
///
/// # Examples
///
/// ```
/// use mps_docstore::{FindOptions, SortOrder};
///
/// let options = FindOptions::new()
///     .sort("spl", SortOrder::Descending)
///     .skip(10)
///     .limit(5);
/// assert_eq!(options.limit, Some(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// Sort by this dotted path, if set.
    pub sort: Option<(String, SortOrder)>,
    /// Skip this many documents after sorting.
    pub skip: usize,
    /// Return at most this many documents.
    pub limit: Option<usize>,
    /// Keep only these dotted paths (plus `_id`), if set.
    pub projection: Option<Vec<String>>,
}

impl FindOptions {
    /// Creates default options: no sort, no skip, no limit, no projection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts results by `path`.
    pub fn sort(mut self, path: impl Into<String>, order: SortOrder) -> Self {
        self.sort = Some((path.into(), order));
        self
    }

    /// Skips the first `n` results.
    pub fn skip(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }

    /// Limits the result count to `n`.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Projects results onto the given dotted paths (plus `_id`).
    pub fn project(mut self, paths: Vec<String>) -> Self {
        self.projection = Some(paths);
        self
    }
}

#[derive(Debug, Default)]
pub(crate) struct CollectionInner {
    pub(crate) docs: BTreeMap<DocId, Row>,
    pub(crate) next_id: u64,
    pub(crate) indexes: BTreeMap<String, PathIndex>,
    shapes: Shapes,
}

impl CollectionInner {
    fn index_doc(&mut self, id: DocId, doc: &Row) {
        for (path, index) in &mut self.indexes {
            if let Some(value) = doc.at(path) {
                index.insert(value, id);
            }
        }
    }

    /// `doc` as a row of this collection — with an `id`, `_id` is set to
    /// it on the way. Only an object can be one.
    pub(crate) fn row_of(&mut self, doc: Value, id: Option<DocId>) -> Result<Row, StoreError> {
        match doc {
            Value::Object(map) => {
                let newest = self.docs.last_key_value().map(|(_, row)| row);
                Ok(Row::from_map(map, id, newest, &mut self.shapes))
            }
            _ => Err(StoreError::NotAnObject),
        }
    }

    /// Stores `row` at `id` without indexing it: what log replay does
    /// (it builds the indexes once, at the end).
    pub(crate) fn put(&mut self, id: DocId, row: Row) {
        if let Some(replaced) = self.docs.insert(id, row) {
            self.shapes.release(replaced);
        }
    }

    /// Indexes `row`, logs it as `op` and stores it at `id`, where no
    /// indexed row may be (see [`take`](Self::take)).
    fn file(&mut self, id: DocId, row: Row, op: &str, log: Option<&mut Journal>) {
        self.index_doc(id, &row);
        if let Some(log) = log {
            log.doc(op, id, &row);
        }
        self.put(id, row);
    }

    /// Takes the row at `id` out of the map and the indexes. The caller
    /// gives it back to the shape registry once it has read it.
    fn take(&mut self, id: DocId) -> Option<Row> {
        let row = self.docs.remove(&id)?;
        for (path, index) in &mut self.indexes {
            if let Some(value) = row.at(path) {
                index.remove(value, id);
            }
        }
        Some(row)
    }

    /// Deletes the row at `id`, if there is one.
    pub(crate) fn discard(&mut self, id: DocId) {
        if let Some(row) = self.take(id) {
            self.shapes.release(row);
        }
    }

    /// Forgets every row (and so every shape); indexes stay defined.
    pub(crate) fn clear(&mut self) {
        self.docs.clear();
        self.shapes = Shapes::default();
        for index in self.indexes.values_mut() {
            *index = PathIndex::new();
        }
    }

    /// Rows matching `filter` in `_id` order — the one read path under
    /// find, count, distinct, update and delete. The planner's candidates
    /// are fetched and re-checked against the full filter; without a
    /// usable index every row is visited. The chosen plan is recorded in
    /// `docstore_query_plans_total{plan=...}`.
    fn matches<'a>(&'a self, filter: &'a Filter) -> impl Iterator<Item = (DocId, &'a Row)> + 'a {
        let plan = plan_query(filter, &self.indexes);
        telemetry().record_plan(plan.kind);
        let scan = plan.candidates.is_none().then(|| self.docs.iter());
        let mut slots = Slots::of(filter);
        plan.candidates
            .into_iter()
            .flatten()
            .filter_map(move |id| self.docs.get_key_value(&id))
            .chain(scan.into_iter().flatten())
            .filter(move |(_, row)| filter.matches_doc(&slots.view(row)))
            .map(|(id, row)| (*id, row))
    }

    fn matching_ids(&self, filter: &Filter) -> Vec<DocId> {
        self.matches(filter).map(|(id, _)| id).collect()
    }

    fn insert(&mut self, doc: Value, log: Option<&mut Journal>) -> Result<DocId, StoreError> {
        let id = DocId(self.next_id);
        let row = self.row_of(doc, Some(id))?;
        telemetry().collection_insert.inc();
        self.next_id += 1;
        self.file(id, row, "insert", log);
        Ok(id)
    }

    /// Builds an index on `path` over the current documents; returns
    /// whether a new index was actually created.
    pub(crate) fn create_index(&mut self, path: &str) -> bool {
        if self.indexes.contains_key(path) {
            return false;
        }
        let mut index = PathIndex::new();
        for (id, doc) in &self.docs {
            if let Some(value) = doc.at(path) {
                index.insert(value, *id);
            }
        }
        self.indexes.insert(path.to_owned(), index);
        true
    }
}

/// `docs` in the order of the value at `path`, a missing value sorting as
/// null. Each document's key is read once; the sort is stable, so ties
/// stay in arrival (`_id`) order either way round. Arrays and objects
/// have no order: meeting one in a comparison is
/// [`StoreError::Unorderable`].
pub(crate) fn sorted_by_path<'a, D: Doc>(
    docs: impl Iterator<Item = &'a D>,
    path: &str,
    order: SortOrder,
) -> Result<Vec<&'a D>, StoreError> {
    let mut keyed: Vec<(&Value, &D)> = docs
        .map(|doc| (doc.at(path).unwrap_or(&Value::Null), doc))
        .collect();
    let mut unorderable = false;
    keyed.sort_by(|(a, _), (b, _)| match (compare_values(a, b), order) {
        (Some(ordering), SortOrder::Ascending) => ordering,
        (Some(ordering), SortOrder::Descending) => ordering.reverse(),
        (None, _) => {
            unorderable = true;
            Ordering::Equal
        }
    });
    if unorderable {
        return Err(StoreError::Unorderable(path.to_owned()));
    }
    Ok(keyed.into_iter().map(|(_, doc)| doc).collect())
}

/// A new document holding only `_id` and the given dotted paths of `doc`.
pub(crate) fn project(doc: &impl Doc, paths: &[String]) -> Value {
    let mut projected = Value::Object(serde_json::Map::new());
    for path in std::iter::once("_id").chain(paths.iter().map(String::as_str)) {
        if let Some(value) = doc.at(path) {
            set_path(&mut projected, path, value.clone());
        }
    }
    projected
}

/// Skip, limit and projection, applied in that order to rows that are
/// already in their final order: the only rows a find turns into values.
fn window<'a>(rows: impl Iterator<Item = &'a Row>, options: &FindOptions) -> Vec<Value> {
    rows.skip(options.skip)
        .take(options.limit.unwrap_or(usize::MAX))
        .map(|row| match &options.projection {
            Some(paths) => project(row, paths),
            None => row.to_value(),
        })
        .collect()
}

/// A named collection of JSON documents.
///
/// `Collection` is a cheaply-cloneable handle; clones share the same
/// underlying data (as handles from
/// [`Store::collection`](crate::Store::collection) do). All methods take
/// `&self` and are thread-safe.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    pub(crate) inner: Arc<Mutex<CollectionInner>>,
    /// Present when the owning store write-ahead-logs mutations (see
    /// [`crate::durability`]); `None` on the in-memory sim path.
    pub(crate) durable: Option<Arc<DurableCtx>>,
}

impl Collection {
    /// Creates an empty, unnamed collection (use
    /// [`Store::collection`](crate::Store::collection) for named ones).
    pub fn new() -> Self {
        Self::default()
    }

    /// Every mutation below runs through here: `apply` changes the
    /// collection under its lock and, on a journaled store only, encodes
    /// the deltas that [`journaled`] then makes durable.
    pub(crate) fn mutate<T>(
        &self,
        apply: impl FnOnce(&mut CollectionInner, Option<&mut Journal>) -> T,
    ) -> Result<T, StoreError> {
        let journal = self.durable.as_deref();
        let journal = journal.map(|ctx| (&*ctx.shared, ctx.name.as_str()));
        let (out, logged) = journaled(journal, |log| apply(&mut self.inner.lock(), log));
        logged.map(|()| out)
    }

    /// Inserts a document, assigning and returning its [`DocId`]. The id
    /// is also written into the document's `_id` field.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAnObject`] if `doc` is not a JSON
    /// object, or [`StoreError::Durability`] when a durable store
    /// cannot log the insert.
    pub fn insert_one(&self, doc: Value) -> Result<DocId, StoreError> {
        let _timer = SpanTimer::start(&telemetry().collection_insert_seconds);
        self.mutate(|inner, log| inner.insert(doc, log))?
    }

    /// Inserts many documents; stops at the first error.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAnObject`] on the first non-object
    /// document; earlier documents remain inserted (and, on a durable
    /// store, logged — the whole batch shares one group-committed
    /// fsync).
    pub fn insert_many(
        &self,
        docs: impl IntoIterator<Item = Value>,
    ) -> Result<Vec<DocId>, StoreError> {
        let _timer = SpanTimer::start(&telemetry().collection_insert_seconds);
        self.mutate(|inner, mut log| {
            docs.into_iter()
                .map(|doc| inner.insert(doc, log.as_deref_mut()))
                .collect()
        })?
    }

    /// Fetches a document by id.
    pub fn get(&self, id: DocId) -> Option<Value> {
        self.inner.lock().docs.get(&id).map(Row::to_value)
    }

    /// Number of documents in the collection.
    pub fn len(&self) -> usize {
        self.inner.lock().docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().docs.is_empty()
    }

    /// Returns all documents matching `filter`, in `_id` order.
    ///
    /// # Errors
    ///
    /// Currently infallible (the filter is already parsed); returns
    /// `Result` for parity with the fallible query paths.
    pub fn find(&self, filter: &Filter) -> Result<Vec<Value>, StoreError> {
        self.find_with_options(filter, &FindOptions::new())
    }

    /// Returns documents matching `filter` with sorting, paging and
    /// projection applied (in that order).
    ///
    /// The query planner consults secondary indexes first (see
    /// `crate::planner`); unsorted queries additionally stop visiting
    /// documents once `skip + limit` results have been produced, and
    /// sorted queries read each match's sort key once, order references,
    /// and build documents only for the requested window (and of it only
    /// the projected paths).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unorderable`] when sorting on a path that
    /// holds arrays or objects.
    pub fn find_with_options(
        &self,
        filter: &Filter,
        options: &FindOptions,
    ) -> Result<Vec<Value>, StoreError> {
        let metrics = telemetry();
        metrics.collection_find.inc();
        let _timer = SpanTimer::start(&metrics.collection_find_seconds);
        let inner = self.inner.lock();
        let matches = inner.matches(filter).map(|(_, row)| row);
        let Some((path, order)) = &options.sort else {
            // Matches arrive in `_id` order: the scan stops once the
            // window is full.
            return Ok(window(matches, options));
        };
        let sorted = sorted_by_path(matches, path, *order)?;
        Ok(window(sorted.into_iter(), options))
    }

    /// Counts documents matching `filter`.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for parity with `find`.
    pub fn count(&self, filter: &Filter) -> Result<usize, StoreError> {
        Ok(self.inner.lock().matches(filter).count())
    }

    /// Applies `update` to every document matching `filter`; returns the
    /// number of documents updated.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError::BadUpdate`] from applying the update; any
    /// documents updated before the failure stay updated (and logged).
    /// A durable store returns [`StoreError::Durability`] when the
    /// update cannot be logged.
    pub fn update_many(&self, filter: &Filter, update: &Update) -> Result<usize, StoreError> {
        let metrics = telemetry();
        metrics.collection_update.inc();
        let _timer = SpanTimer::start(&metrics.collection_update_seconds);
        self.mutate(|inner, mut log| {
            let ids = inner.matching_ids(filter);
            for id in &ids {
                // Ids were collected under this same lock, so the lookup
                // cannot miss; skipping is still safer than panicking.
                let Some(old) = inner.take(*id) else {
                    continue;
                };
                let mut doc = old.to_value();
                let result = update.apply(&mut doc);
                // Re-index and log whatever state the document is in,
                // then propagate any error. The old row goes once the new
                // one holds their shape, if they share it.
                let row = inner.row_of(doc, None);
                inner.shapes.release(old);
                inner.file(*id, row?, "update", log.as_deref_mut());
                result?;
            }
            Ok(ids.len())
        })?
    }

    /// Deletes every document matching `filter`; returns how many were
    /// removed.
    ///
    /// # Errors
    ///
    /// Infallible in memory; a durable store returns
    /// [`StoreError::Durability`] when the delete cannot be logged.
    pub fn delete_many(&self, filter: &Filter) -> Result<usize, StoreError> {
        telemetry().collection_delete.inc();
        self.mutate(|inner, log| {
            let ids = inner.matching_ids(filter);
            for id in &ids {
                inner.discard(*id);
            }
            if let (Some(log), false) = (log, ids.is_empty()) {
                log.delete(&ids);
            }
            ids.len()
        })
    }

    /// Creates a secondary index on `path`, indexing existing documents.
    /// Creating an existing index is a no-op.
    ///
    /// # Errors
    ///
    /// Infallible in memory; a durable store returns
    /// [`StoreError::Durability`] when the definition cannot be logged.
    pub fn create_index(&self, path: &str) -> Result<(), StoreError> {
        self.mutate(|inner, log| {
            if let (true, Some(log)) = (inner.create_index(path), log) {
                log.index("create_index", path);
            }
        })
    }

    /// Drops the index on `path`, if present.
    ///
    /// # Errors
    ///
    /// Infallible in memory; a durable store returns
    /// [`StoreError::Durability`] when the drop cannot be logged.
    pub fn drop_index(&self, path: &str) -> Result<(), StoreError> {
        self.mutate(|inner, log| {
            if let (Some(_), Some(log)) = (inner.indexes.remove(path), log) {
                log.index("drop_index", path);
            }
        })
    }

    /// Whether an index exists on `path`.
    pub fn has_index(&self, path: &str) -> bool {
        self.inner.lock().indexes.contains_key(path)
    }

    /// Distinct indexed values on `path`, if an index exists there.
    pub fn index_cardinality(&self, path: &str) -> Option<usize> {
        self.inner.lock().indexes.get(path).map(|i| i.cardinality())
    }

    /// Distinct scalar values at `path` among documents matching
    /// `filter`, in ascending order (arrays/objects at the path are
    /// skipped; MongoDB's `distinct` with our scalar ordering).
    pub fn distinct(&self, path: &str, filter: &Filter) -> Vec<serde_json::Value> {
        let inner = self.inner.lock();
        let mut values: Vec<&Value> = inner
            .matches(filter)
            .filter_map(|(_, row)| row.at(path))
            .filter(|v| !v.is_array() && !v.is_object())
            .collect();
        // Stable, so of several equal values (1 and 1.0) the one from the
        // lowest `_id` is the one kept.
        values.sort_by(|a, b| compare_values(a, b).unwrap_or(Ordering::Equal));
        values.dedup_by(|b, a| compare_values(a, b) == Some(Ordering::Equal));
        values.into_iter().cloned().collect()
    }

    /// Removes every document (indexes stay defined, but empty).
    ///
    /// # Errors
    ///
    /// Infallible in memory; a durable store returns
    /// [`StoreError::Durability`] when the clear cannot be logged.
    pub fn clear(&self) -> Result<(), StoreError> {
        self.mutate(|inner, log| {
            if let (false, Some(log)) = (inner.docs.is_empty(), log) {
                log.bare("clear");
            }
            inner.clear();
        })
    }

    /// Snapshot of all documents, in `_id` order.
    pub fn all(&self) -> Vec<Value> {
        self.inner.lock().docs.values().map(Row::to_value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn seeded() -> Collection {
        let c = Collection::new();
        c.insert_many([
            json!({"model": "A", "spl": 40.0, "loc": {"acc": 10.0}}),
            json!({"model": "B", "spl": 55.0, "loc": {"acc": 30.0}}),
            json!({"model": "A", "spl": 70.0}),
            json!({"model": "C", "spl": 62.0, "loc": {"acc": 90.0}}),
        ])
        .unwrap();
        c
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let c = Collection::new();
        let id1 = c.insert_one(json!({"a": 1})).unwrap();
        let id2 = c.insert_one(json!({"a": 2})).unwrap();
        assert_eq!(id1, DocId(0));
        assert_eq!(id2, DocId(1));
        assert_eq!(c.get(id2).unwrap()["_id"], json!(1));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn insert_rejects_non_objects() {
        let c = Collection::new();
        assert_eq!(c.insert_one(json!(5)).unwrap_err(), StoreError::NotAnObject);
        assert_eq!(
            c.insert_one(json!([1, 2])).unwrap_err(),
            StoreError::NotAnObject
        );
    }

    #[test]
    fn find_filters() {
        let c = seeded();
        let r = c.find(&Filter::eq("model", "A")).unwrap();
        assert_eq!(r.len(), 2);
        let r = c.find(&Filter::gt("spl", 60.0)).unwrap();
        assert_eq!(r.len(), 2);
        let r = c.find(&Filter::exists("loc", false)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(c.count(&Filter::True).unwrap(), 4);
    }

    #[test]
    fn find_sorted_and_paged() {
        let c = seeded();
        let opts = FindOptions::new()
            .sort("spl", SortOrder::Descending)
            .limit(2);
        let r = c.find_with_options(&Filter::True, &opts).unwrap();
        assert_eq!(r[0]["spl"], json!(70.0));
        assert_eq!(r[1]["spl"], json!(62.0));

        let opts = FindOptions::new()
            .sort("spl", SortOrder::Ascending)
            .skip(1)
            .limit(2);
        let r = c.find_with_options(&Filter::True, &opts).unwrap();
        assert_eq!(r[0]["spl"], json!(55.0));
        assert_eq!(r[1]["spl"], json!(62.0));
    }

    #[test]
    fn sort_on_missing_path_puts_missing_first() {
        let c = seeded();
        let opts = FindOptions::new().sort("loc.acc", SortOrder::Ascending);
        let r = c.find_with_options(&Filter::True, &opts).unwrap();
        assert_eq!(r[0]["model"], json!("A")); // doc without loc sorts as null
        assert_eq!(r[0]["spl"], json!(70.0));
    }

    #[test]
    fn sort_on_compound_errors() {
        let c = Collection::new();
        c.insert_one(json!({"v": [1]})).unwrap();
        c.insert_one(json!({"v": [2]})).unwrap();
        let opts = FindOptions::new().sort("v", SortOrder::Ascending);
        assert!(matches!(
            c.find_with_options(&Filter::True, &opts),
            Err(StoreError::Unorderable(_))
        ));
    }

    #[test]
    fn projection_keeps_id_and_paths() {
        let c = seeded();
        let opts = FindOptions::new().project(vec!["loc.acc".into()]);
        let r = c
            .find_with_options(&Filter::eq("model", "B"), &opts)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], json!({"_id": 1, "loc": {"acc": 30.0}}));
    }

    #[test]
    fn update_many_applies_and_counts() {
        let c = seeded();
        let n = c
            .update_many(&Filter::eq("model", "A"), &Update::set("flagged", true))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(c.count(&Filter::eq("flagged", true)).unwrap(), 2);
    }

    #[test]
    fn delete_many_removes() {
        let c = seeded();
        let n = c.delete_many(&Filter::lt("spl", 60.0)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn indexed_equality_matches_scan() {
        let c = seeded();
        let scan = c.find(&Filter::eq("model", "A")).unwrap();
        c.create_index("model").unwrap();
        assert!(c.has_index("model"));
        let indexed = c.find(&Filter::eq("model", "A")).unwrap();
        assert_eq!(scan, indexed);
        assert_eq!(c.index_cardinality("model"), Some(3));
    }

    #[test]
    fn indexed_range_matches_scan() {
        let c = seeded();
        let filter = Filter::range("spl", 50.0, 65.0);
        let scan = c.find(&filter).unwrap();
        c.create_index("spl").unwrap();
        let indexed = c.find(&filter).unwrap();
        assert_eq!(scan.len(), 2);
        assert_eq!(scan, indexed);
    }

    #[test]
    fn index_stays_correct_across_updates_and_deletes() {
        let c = seeded();
        c.create_index("model").unwrap();
        c.update_many(&Filter::eq("model", "C"), &Update::set("model", "A"))
            .unwrap();
        assert_eq!(c.count(&Filter::eq("model", "A")).unwrap(), 3);
        assert_eq!(c.count(&Filter::eq("model", "C")).unwrap(), 0);
        c.delete_many(&Filter::eq("model", "A")).unwrap();
        assert_eq!(c.count(&Filter::eq("model", "A")).unwrap(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn intersection_of_two_indexes_matches_scan() {
        let c = seeded();
        let filter = Filter::and(vec![Filter::eq("model", "A"), Filter::gt("spl", 50.0)]);
        let scan = c.find(&filter).unwrap();
        c.create_index("model").unwrap();
        c.create_index("spl").unwrap();
        let planned = c.find(&filter).unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(scan, planned);
    }

    #[test]
    fn indexed_range_returns_id_order() {
        // Index-key order (40, 55, 62) disagrees with insertion order for
        // the matching docs; results must still come back by `_id`.
        let c = seeded();
        c.create_index("spl").unwrap();
        let r = c.find(&Filter::lt("spl", 65.0)).unwrap();
        let ids: Vec<u64> = r.iter().map(|d| d["_id"].as_u64().unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn unsorted_limit_short_circuits_consistently() {
        // The windowed (skip/limit-pushdown) path must agree with the
        // full query on both the scan and the indexed path.
        let c = seeded();
        let opts = FindOptions::new().skip(1).limit(1);
        let filter = Filter::eq("model", "A");
        let full = c.find(&filter).unwrap();
        let window = c.find_with_options(&filter, &opts).unwrap();
        assert_eq!(window.as_slice(), &full[1..2]);
        c.create_index("model").unwrap();
        assert_eq!(c.find_with_options(&filter, &opts).unwrap(), window);
    }

    #[test]
    fn planner_backed_delete_matches_scan_delete() {
        let c = seeded();
        c.create_index("spl").unwrap();
        let n = c.delete_many(&Filter::lt("spl", 60.0)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.count(&Filter::lt("spl", 60.0)).unwrap(), 0);
    }

    #[test]
    fn integers_above_two_to_the_53_are_told_apart() {
        // As `f64` these two device ids are one number: `$eq` matched the
        // neighbour's documents and an index filed both under one key.
        let (mine, neighbour) = (9_007_199_254_740_993u64, 9_007_199_254_740_992u64);
        let c = Collection::new();
        c.insert_many([json!({"device": mine}), json!({"device": neighbour})])
            .unwrap();
        let filter = Filter::parse(&json!({"device": {"$eq": mine}})).unwrap();
        let scanned = c.find(&filter).unwrap();
        assert_eq!(scanned, vec![json!({"_id": 0, "device": mine})]);
        c.create_index("device").unwrap();
        assert_eq!(c.index_cardinality("device"), Some(2));
        assert_eq!(c.find(&filter).unwrap(), scanned);
        assert_eq!(c.distinct("device", &Filter::True).len(), 2);
    }

    #[test]
    fn eq_null_does_not_use_index() {
        // `eq null` matches docs missing the path; the planner must scan.
        let c = seeded();
        c.create_index("loc.acc").unwrap();
        let r = c.find(&Filter::eq("loc.acc", Value::Null)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0]["spl"], json!(70.0));
    }

    #[test]
    fn drop_index_falls_back_to_scan() {
        let c = seeded();
        c.create_index("model").unwrap();
        c.drop_index("model").unwrap();
        assert!(!c.has_index("model"));
        assert_eq!(c.find(&Filter::eq("model", "A")).unwrap().len(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_index_definitions() {
        let c = seeded();
        c.create_index("model").unwrap();
        c.clear().unwrap();
        assert!(c.is_empty());
        assert!(c.has_index("model"));
        assert_eq!(c.index_cardinality("model"), Some(0));
        c.insert_one(json!({"model": "Z"})).unwrap();
        assert_eq!(c.count(&Filter::eq("model", "Z")).unwrap(), 1);
    }

    #[test]
    fn clones_share_data() {
        let c = seeded();
        let c2 = c.clone();
        c2.insert_one(json!({"model": "D"})).unwrap();
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn all_returns_in_id_order() {
        let c = seeded();
        let all = c.all();
        let ids: Vec<u64> = all.iter().map(|d| d["_id"].as_u64().unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn distinct_values_sorted_and_deduped() {
        let c = seeded();
        let models = c.distinct("model", &Filter::True);
        assert_eq!(models, vec![json!("A"), json!("B"), json!("C")]);
        // With a filter.
        let models = c.distinct("model", &Filter::gt("spl", 50.0));
        assert_eq!(models, vec![json!("A"), json!("B"), json!("C")]);
        let models = c.distinct("model", &Filter::lt("spl", 50.0));
        assert_eq!(models, vec![json!("A")]);
        // Missing path and compound values yield nothing.
        assert!(c.distinct("ghost", &Filter::True).is_empty());
        c.insert_one(json!({"model": ["array"]})).unwrap();
        let models = c.distinct("model", &Filter::True);
        assert_eq!(models.len(), 3, "compound values skipped");
    }

    #[test]
    fn distinct_dedupes_numerically() {
        let c = Collection::new();
        c.insert_one(json!({"v": 1})).unwrap();
        c.insert_one(json!({"v": 1.0})).unwrap();
        c.insert_one(json!({"v": 2})).unwrap();
        assert_eq!(c.distinct("v", &Filter::True).len(), 2);
    }

    #[test]
    fn distinct_is_the_same_with_and_without_an_index() {
        let c = seeded();
        let filters = [
            Filter::eq("model", "A"),
            Filter::gt("spl", 50.0),
            Filter::and(vec![Filter::eq("model", "A"), Filter::gt("spl", 50.0)]),
        ];
        let scanned: Vec<_> = filters.iter().map(|f| c.distinct("spl", f)).collect();
        assert_eq!(scanned[0], vec![json!(40.0), json!(70.0)]);
        c.create_index("model").unwrap();
        c.create_index("spl").unwrap();
        let indexed: Vec<_> = filters.iter().map(|f| c.distinct("spl", f)).collect();
        assert_eq!(scanned, indexed);
    }

    #[test]
    fn concurrent_inserts_count() {
        let c = Collection::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        c.insert_one(json!({"t": t, "i": i})).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.len(), 2000);
        // Ids are unique.
        let mut ids: Vec<u64> = c.all().iter().map(|d| d["_id"].as_u64().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000);
    }
}
