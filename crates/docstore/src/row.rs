//! Stored documents: shape-shared rows.
//!
//! A collection keeps a document not as a [`Value`] tree but as a
//! [`Row`]: its top-level member *values* in one exact-size slice, and an
//! [`Arc`] to the [`Shape`] that names them — the member names in `str`
//! order (the order `serde_json::Map` iterates) with each name's `"key":`
//! JSON text, escaped once. Every document of the collection with the
//! same key set shares one shape (its [`Shapes`] registry sees to that),
//! so a stored observation costs its values and a pointer, not a tree of
//! nodes and nineteen key strings. `Value` stays the type at the API
//! boundary and only there; in between, everything reads through
//! [`Doc`], which both representations implement, so filters, paths,
//! sorting and projection each have a single body.
//!
//! **Why bytes cannot differ.** [`Row::write_json`] writes members in
//! shape order, which is `str` order, which is `Map` order; the key text
//! was produced by `Value`'s own writer when the shape was made, and the
//! values go through it. A row therefore serialises to exactly the text
//! of the `Value` it was made from.
//!
//! **Scans.** [`Slots`] resolves each of a filter's paths to a slot once
//! per (query, shape) — it remembers the last shape it saw — so a scan
//! pays one pointer comparison per row and an indexed load per
//! predicate; nested segments continue through the `Value` in the slot.

use crate::filter::Filter;
use crate::telemetry::telemetry;
use crate::value::DocId;
use serde_json::{Map, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// What every reader of a document needs: one top-level member by name.
pub(crate) trait Doc {
    /// The top-level member `key`, if the document has it.
    fn member(&self, key: &str) -> Option<&Value>;

    /// The value at a dotted `path`: the first segment is the document's
    /// to resolve, the rest walk the `Value` found there.
    fn at(&self, path: &str) -> Option<&Value> {
        let (head, rest) = split_head(path);
        descend(self.member(head)?, rest)
    }
}

/// A path's first segment, and the segments after it if it has any.
fn split_head(path: &str) -> (&str, Option<&str>) {
    match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    }
}

fn descend<'a>(mut value: &'a Value, rest: Option<&str>) -> Option<&'a Value> {
    for segment in rest.into_iter().flat_map(|rest| rest.split('.')) {
        value = value.as_object()?.get(segment)?;
    }
    Some(value)
}

impl Doc for Value {
    fn member(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }
}

/// A key set: member names in `str` order, and their JSON text.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Shared with the registry, which finds the shape by them.
    keys: Arc<[String]>,
    /// `"k0":` then `,"k1":` … concatenated; `ends[i]` closes member `i`.
    json: Box<str>,
    ends: Box<[usize]>,
    /// `{k0: null, k1: null, …}`, made when a row of this shape is first
    /// turned back into a `Value`: cloning a map and filling it is half
    /// the price of building one from pairs (which collects and sorts).
    blank: OnceLock<Map<String, Value>>,
}

impl Shape {
    fn new(keys: Arc<[String]>) -> Self {
        let mut json = String::new();
        let mut ends = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            Value::from(key.as_str()).write_json(&mut json);
            json.push(':');
            ends.push(json.len());
        }
        Self {
            keys,
            json: json.into_boxed_str(),
            ends: ends.into_boxed_slice(),
            blank: OnceLock::new(),
        }
    }

    /// Position of member `key`.
    fn slot(&self, key: &str) -> Option<usize> {
        slot_in(&self.keys, key)
    }
}

/// Position of `key` in a key list (ascending, as every shape's is).
pub(crate) fn slot_in(keys: &[String], key: &str) -> Option<usize> {
    keys.binary_search_by(|k| k.as_str().cmp(key)).ok()
}

/// One collection's shapes: exactly those its rows use. A shape enters
/// with its first row and leaves with its last, so a stream of documents
/// that never repeat a key set holds one key list per live document and
/// nothing per deleted one. Counted in the `docstore_row_shapes` gauge.
#[derive(Debug, Default)]
pub(crate) struct Shapes(BTreeMap<Arc<[String]>, Arc<Shape>>);

impl Shapes {
    /// The shape with exactly `keys` (ascending), shared if already known.
    fn intern(&mut self, keys: Vec<String>) -> Arc<Shape> {
        if let Some(known) = self.0.get(keys.as_slice()) {
            return Arc::clone(known);
        }
        let shape = Arc::new(Shape::new(keys.into()));
        self.0.insert(Arc::clone(&shape.keys), Arc::clone(&shape));
        telemetry().shapes.inc();
        shape
    }

    /// Drops a row taken out of the collection, and its shape with it if
    /// no other row uses it. Rows never leave the collection's lock, so
    /// the count is this registry's reference plus one per row.
    pub(crate) fn release(&mut self, row: Row) {
        if Arc::strong_count(&row.shape) == 2 && self.0.remove(&row.shape.keys).is_some() {
            telemetry().shapes.dec();
        }
    }

    /// Number of registered shapes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl Drop for Shapes {
    fn drop(&mut self) {
        telemetry().shapes.sub(self.0.len() as i64);
    }
}

/// One stored document: its shape and, in shape order, its values.
#[derive(Debug)]
pub(crate) struct Row {
    shape: Arc<Shape>,
    values: Box<[Value]>,
}

impl Row {
    /// Takes `map` apart into a row. With an `id`, `_id` is spliced in at
    /// its sorted place (replacing a caller-supplied one) on the way, so
    /// the map is never re-balanced for it. `like` is a guess at the
    /// shape — the collection's newest row: while the members follow it,
    /// as a stream's do, their keys are dropped without being collected
    /// or looked up.
    pub(crate) fn from_map(
        map: Map<String, Value>,
        id: Option<DocId>,
        like: Option<&Row>,
        shapes: &mut Shapes,
    ) -> Row {
        let len = map.len() + usize::from(id.is_some());
        let mut guess = like.map(|row| &row.shape);
        let mut keys = Vec::new();
        let mut values = Vec::with_capacity(len);
        let mut push = |key: Cow<'_, str>, value: Value| {
            if let Some(shape) = guess {
                if shape.keys.get(values.len()).is_some_and(|k| *k == *key) {
                    values.push(value);
                    return;
                }
                // Strayed: own the keys matched so far, and collect on.
                keys.reserve(len);
                keys.extend_from_slice(&shape.keys[..values.len()]);
                guess = None;
            }
            keys.push(key.into_owned());
            values.push(value);
        };
        let mut id = id.map(|id| Value::from(id.0));
        for (key, value) in map {
            if let Some(id) = id.take_if(|_| key.as_str() >= "_id") {
                push(Cow::Borrowed("_id"), id);
                if key == "_id" {
                    continue;
                }
            }
            push(Cow::Owned(key), value);
        }
        if let Some(id) = id {
            push(Cow::Borrowed("_id"), id);
        }
        let shape = match guess {
            Some(shape) if shape.keys.len() == values.len() => Arc::clone(shape),
            Some(shape) => shapes.intern(shape.keys[..values.len()].to_vec()),
            None => shapes.intern(keys),
        };
        Row {
            shape,
            values: values.into_boxed_slice(),
        }
    }

    /// The member names, in `str` order: the list the registry shares.
    pub(crate) fn keys(&self) -> &Arc<[String]> {
        &self.shape.keys
    }

    /// The member values, in the order of [`keys`](Self::keys).
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// The document as a `Value`: what `find`, `get` and `all` return.
    pub(crate) fn to_value(&self) -> Value {
        let keys = &self.shape.keys;
        let blank = self.shape.blank.get_or_init(|| {
            let members = keys.iter().map(|key| (key.clone(), Value::Null));
            members.collect()
        });
        let mut map = blank.clone();
        for (key, value) in keys.iter().zip(self.values.iter()) {
            if let Some(member) = map.get_mut(key) {
                *member = value.clone();
            }
        }
        Value::Object(map)
    }

    /// Appends the document's compact JSON text — byte for byte what
    /// `to_value().to_string()` gives (see the module docs).
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut start = 0;
        for (&end, value) in self.shape.ends.iter().zip(self.values.iter()) {
            out.push_str(&self.shape.json[start..end]);
            value.write_json(out);
            start = end;
        }
        out.push('}');
    }
}

impl Doc for Row {
    fn member(&self, key: &str) -> Option<&Value> {
        Some(&self.values[self.shape.slot(key)?])
    }
}

/// A query's paths, their first segments resolved against the shape of
/// the row in hand — once per run of same-shaped rows, not once per row.
#[derive(Debug)]
pub(crate) struct Slots<'a> {
    /// Each path as the query will ask for it (matched by address), with
    /// the segments after its first.
    paths: Vec<(&'a str, Option<&'a str>)>,
    shape: Option<&'a Shape>,
    slots: Vec<Option<usize>>,
}

impl<'a> Slots<'a> {
    /// For the paths `filter` reads.
    pub(crate) fn of(filter: &'a Filter) -> Self {
        let mut paths = Vec::new();
        filter.each_path(&mut |path| paths.push((path, split_head(path).1)));
        Self {
            slots: Vec::with_capacity(paths.len()),
            paths,
            shape: None,
        }
    }

    /// `row`, with the remembered slots in front of its key search.
    pub(crate) fn view<'s>(&'s mut self, row: &'a Row) -> View<'s> {
        let shape: &'a Shape = &row.shape;
        if !self.shape.is_some_and(|known| std::ptr::eq(known, shape)) {
            self.shape = Some(shape);
            self.slots.clear();
            let heads = self.paths.iter().map(|(path, _)| split_head(path).0);
            self.slots.extend(heads.map(|head| shape.slot(head)));
        }
        View {
            row,
            paths: &self.paths,
            slots: &self.slots,
        }
    }
}

/// A row read through a query's [`Slots`].
#[derive(Debug)]
pub(crate) struct View<'s> {
    row: &'s Row,
    paths: &'s [(&'s str, Option<&'s str>)],
    slots: &'s [Option<usize>],
}

impl Doc for View<'_> {
    fn member(&self, key: &str) -> Option<&Value> {
        self.row.member(key)
    }

    fn at(&self, path: &str) -> Option<&Value> {
        match self.paths.iter().position(|(p, _)| std::ptr::eq(*p, path)) {
            Some(i) => descend(&self.row.values[self.slots[i]?], self.paths[i].1),
            None => self.row.at(path),
        }
    }
}
