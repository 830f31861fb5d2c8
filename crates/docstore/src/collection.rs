//! Collections: insert / find / update / delete with indexes.
//!
//! A collection is its documents by `_id`, its secondary indexes and its
//! shape registry, behind one lock. The documents lie in blocks of
//! [`BLOCK_IDS`] consecutive `_id`s, each with a summary (`Block`): a
//! block of a stream holds its rows as columns ([`Sealed`], see
//! [`crate::row`]) from its first row on, filling and then closed; the
//! rows of a block past its columns, if any, are open [`Row`]s in one
//! ordered map. Every reader reaches a document through one [`RowRef`],
//! whichever it is. `Value` documents exist only at the boundary:
//! `insert` takes one apart, `find` / `get` / `all` build one per
//! document *returned*, `update_many` converts the document it changes
//! there and back.
//!
//! **Reads** share one iterator, `CollectionInner::matches`, which takes
//! the filter apart once, into a [`Plan`]: one [`Term`] per clause, with
//! its path's head and rest and, where a summary can use it, its numeric
//! bounds as `f64`s. Every stage reads the one plan, and resolves the
//! heads against a key list through its one [`KeySlots`]. The index
//! [`probe`] gives the open rows' candidates, if an index serves; the
//! column blocks are reached as a scan reaches them — summary, then
//! column pass — and the two streams are merged in `_id` order; without
//! an index, a scan reaches both. What is not known to match is
//! re-checked, term by term. The stages are a pull pipeline: `count`
//! consumes it without building anything, an unsorted `find` stops it at
//! the limit, and a sorted one reads each match's key once, selects the
//! `limit` first `(key, arrival, RowRef)` triples, sorts only those and
//! converts only them. **Writes** share
//! `Collection::mutate` (see [`crate::durability`]); each index's path
//! is resolved against a row's shape once per shape, not once per row
//! ([`IndexSlots`]).
//!
//! **Block summaries** are what lets a scan skip: the store is an append
//! log in arrival order, arrival is very nearly capture order, and what
//! reads it asks for a numeric window (a day, an hour, a box). Per block
//! and per key set met there, the collection keeps bounds on the numbers
//! stored at each top-level member — widened as a row is stored or
//! appended, never narrowed, dropped with the block's last row. A
//! scan passes over every block in which no key set can satisfy the
//! filter's numeric equalities and range bounds on undotted paths. Every
//! read walks every summary, so the walk resolves a key set's slots once
//! per query, not once per block, and compares the summary's `f64`s with
//! the terms' bounds made `f64`s once ([`Term`]): a few nanoseconds a
//! block.
//!
//! **Documents land in columns.** An insert, and the replay of one, takes
//! the parsed document apart straight into its block's columns when it
//! continues them: its id is the block's next, and its member names are
//! the block's ([`Sealed::fits`]). The first id of an empty block opens
//! a block of columns for its document. Each value is coded into its
//! column as it arrives ([`Sealed::append`]) — into a dictionary, as a
//! packed number, or as itself — and the document is never a `Row`,
//! never indexed. The block's last row **seals** it: its columns are
//! closed, exactly the columns its rows would make at once. A scan runs
//! the **column pass** ([`Sealed::pass`]) on each column block, filling
//! or sealed, before walking it: every clause on an undotted member is
//! decided on that member's column alone — once per distinct value of a
//! dictionary column, by a compare of packed offsets for a comparison
//! with a number on a number column, once per row of any other — and a
//! block no row of which passes is skipped. The survivors are re-checked
//! against the full filter like any other row unless the pass decided
//! every clause.
//!
//! A document that does not continue the block's columns — another key
//! set, or an id past the next (a replay of sparse ids) — closes them
//! short on the rows they hold, and is stored as an open row past them,
//! as are the block's later documents. So does opening another block of
//! columns while one is still filling: a block the writer left keeps no
//! room for rows it will not get. A write in place of one of the
//! columns' rows — an update, a delete, the replay of either — first
//! **unseals** the block: its columns are copied out into rows, for
//! good, and it is a block of rows from then on.
//!
//! **Indexes hold the open rows only** ([`Indexes`]): those past a
//! block's columns, or of a block without any. A document appended to
//! columns enters no index, and unsealing puts a block's rows into every
//! one; `create_index`, and so replay, index the open rows alone. A
//! column block answers an indexed predicate as it answers a scan, from
//! its summary and its columns, which hold the same values as one-byte
//! codes and packed offsets: an index costs the entries of the blocks
//! written out of order, not the stream's. Open rows — of mixed shapes, or unsealed by a write — keep
//! every row's entry, and read as they did.
//!
//! Like the probe's candidates, summaries and the pass only ever narrow,
//! and they are derived state: no byte on disk, rebuilt by replay through
//! the same appends and rows. A pruned scan is still `PlanKind::FullScan`,
//! and a read an index serves keeps its index plan though it scans the
//! column blocks; `docstore_scan_blocks_{visited,skipped}_total` count
//! what either saved, `docstore_blocks_sealed` the blocks sealed and
//! `docstore_blocks_unsealed_total` the column blocks made rows.

use crate::durability::{journaled, Deltas, DurableCtx};
use crate::filter::{Clause, Filter};
use crate::index::{probe, IndexKey, PathIndex};
use crate::row::{split_head, Doc, IndexSlots, KeySlots, Picked, Row, RowRef, Sealed, Shapes};
use crate::telemetry::telemetry;
use crate::update::Update;
use crate::value::{compare_values, f64_within, DocId};
use crate::StoreError;
use mps_telemetry::SpanTimer;
use mps_wal::{Rank, Ranked};
use serde_json::{Map, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::rc::Rc;
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

/// Options controlling a [`Collection::find_with_options`] query: a
/// sort and a limit, the two GoFlow's reads ask for.
///
/// # Examples
///
/// ```
/// use mps_docstore::{FindOptions, SortOrder};
///
/// let options = FindOptions::new()
///     .sort("spl", SortOrder::Descending)
///     .limit(5);
/// assert_eq!(options.limit, Some(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// Sort by this dotted path, if set.
    pub sort: Option<(String, SortOrder)>,
    /// Return at most this many documents, the first after sorting.
    pub limit: Option<usize>,
}

impl FindOptions {
    /// Creates default options: no sort, no limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts results by `path`.
    pub fn sort(mut self, path: impl Into<String>, order: SortOrder) -> Self {
        self.sort = Some((path.into(), order));
        self
    }

    /// Limits the result count to `n`.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

/// Consecutive `_id`s that share one [`Block`] summary, and are sealed
/// together.
pub(crate) const BLOCK_IDS: u64 = if cfg!(test) { 8 } else { 1024 };

/// Key sets a block tells apart. One that meets more stops summarising
/// and is always visited, so neither an insert nor a scan is ever linear
/// in the key sets of a block.
const BLOCK_KEY_SETS: usize = 8;

/// The first `_id` of the block `id` falls in: the block's key.
fn block_of(id: DocId) -> u64 {
    id.0 - id.0 % BLOCK_IDS
}

/// Bounds on the numbers one member has held, as `f64`s: the smallest
/// and the largest, exactly, of floats and of integers below 2⁵³ (every
/// id, count and timestamp); an integer beyond is bracketed by the
/// `f64`s either side of its own, so bounds there err outward by an ulp
/// and never inward. A query's bounds are compared with them exactly
/// (see [`Term`]). `(∞, −∞)`: no number yet.
type Bounds = (f64, f64);
const NO_NUMBER: Bounds = (f64::INFINITY, f64::NEG_INFINITY);
/// 2⁵³: every integer of smaller magnitude is an `f64`.
const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

/// What a block of `_id`s has held since it was last empty: per key set,
/// per top-level member, [`Bounds`] on the *numbers* stored there. They
/// widen with every row stored and never narrow, so they are a superset
/// of what the block holds now — all a scan needs to skip it safely. And
/// the block's first rows, while they are held as columns.
#[derive(Debug, Default)]
struct Block {
    /// Rows in the block now, in columns or not; the summary goes with
    /// the last.
    rows: u64,
    /// The key sets met. More than [`BLOCK_KEY_SETS`]: the block has
    /// stopped summarising.
    key_sets: Vec<KeySet>,
    /// The block's first rows as columns, filling or closed; the map
    /// holds none of them, and holds the block's later rows.
    sealed: Option<Sealed>,
    /// Whether its columns were made rows: what the tests count.
    #[cfg(test)]
    unsealed: bool,
}

/// A key list (the shape registry's own, never the shape: a block must
/// not keep one alive) and the bounds of its members, in order.
type KeySet = (Arc<[String]>, Box<[Bounds]>);

impl Block {
    /// Takes `row`'s numbers into the bounds of its key set. Out of line:
    /// inlined into `put`, and with it into the insert loop, it cost
    /// `ingest_mem` 3 % beyond its own ~60 ns a row.
    #[inline(never)]
    fn widen(&mut self, row: &Row) {
        if self.key_sets.len() > BLOCK_KEY_SETS {
            return;
        }
        let keys = row.keys();
        // The pointer settles it for a stream; a key set that left the
        // registry and came back has a new list with the old contents.
        let sets = &mut self.key_sets;
        let same = sets.iter().position(|(known, _)| Arc::ptr_eq(known, keys));
        let equal = || sets.iter().position(|(known, _)| **known == **keys);
        let at = same.or_else(equal).unwrap_or_else(|| {
            let members = vec![NO_NUMBER; keys.len()].into_boxed_slice();
            sets.push((Arc::clone(keys), members));
            sets.len() - 1
        });
        for (bounds, value) in sets[at].1.iter_mut().zip(row.values()) {
            hold(bounds, value);
        }
    }

    /// A block of columns holding `row`, stored at its first id.
    fn open(row: Row) -> Block {
        let mut block = Block {
            rows: 1,
            ..Block::default()
        };
        block.widen(&row);
        block.sealed = Some(Sealed::open(row));
        block
    }

    /// Appends `map` at `id` to the block's columns if it is their next
    /// row — the block's next id, of their shape (with `_id` set to `id`
    /// if `stamp`) — its numbers widening the bounds of the block's one
    /// key set on the way; hands it back otherwise.
    fn append(
        &mut self,
        first: u64,
        id: DocId,
        map: Map<String, Value>,
        stamp: bool,
    ) -> Result<(), Map<String, Value>> {
        let (Some(sealed), [(_, bounds)]) = (&mut self.sealed, &mut self.key_sets[..]) else {
            return Err(map);
        };
        if id.0 - first != sealed.len() as u64 || !sealed.fits(&map, stamp) {
            return Err(map);
        }
        sealed.append(map, stamp.then_some(id), |slot, value| {
            hold(&mut bounds[slot], value);
        });
        self.rows += 1;
        Ok(())
    }

    /// Whether a row of the block may satisfy every term of `plan` that
    /// bounds a number: some key set has each such member, with numbers
    /// on the right side of each bound. A member that is absent or has
    /// held no number satisfies none — a number is equal to, and ordered
    /// against, numbers only.
    fn may_hold<'a>(&'a self, plan: &Plan<'a>) -> bool {
        self.key_sets.len() > BLOCK_KEY_SETS
            || self.key_sets.iter().any(|(keys, bounds)| {
                plan.at(keys)
                    .all(|(term, slot)| match (term.numbers, slot) {
                        (None, _) => true,
                        (Some(_), None) => false,
                        (Some((lo, hi)), Some(slot)) => {
                            let (min, max) = bounds[slot];
                            min <= max && max >= lo && min <= hi
                        }
                    })
            })
    }

    /// Whether the block holds rows past its columns, if it has them.
    fn has_rows(&self) -> bool {
        self.rows > self.sealed.as_ref().map_or(0, |sealed| sealed.len() as u64)
    }

    /// Makes way for a row at `at`, the block's `at`th id: one of its
    /// columns' rows unseals them; one past them closes them, if they
    /// are filling — the row does not continue them.
    fn make_way(&mut self, at: u64) -> Option<Sealed> {
        let sealed = self.sealed.as_mut()?;
        if at >= sealed.len() as u64 {
            sealed.close();
            return None;
        }
        self.unseal()
    }

    /// Unseals the block for good: hands back its columns, if it had
    /// them, for [`Indexes::reopen`] to make rows of.
    fn unseal(&mut self) -> Option<Sealed> {
        let sealed = self.sealed.take()?;
        telemetry().blocks_unsealed.inc();
        #[cfg(test)]
        {
            self.unsealed = true;
        }
        Some(sealed)
    }
}

/// Widens `(min, max)` to hold `value`, if it is a number.
fn hold((min, max): &mut Bounds, value: &Value) {
    let Value::Number(n) = value else { return };
    let (lo, hi) = match n.as_f64() {
        Some(f) if f.abs() < EXACT_BELOW => (f, f),
        Some(f) => (f.next_down(), f.next_up()),
        None => (f64::NEG_INFINITY, f64::INFINITY),
    };
    if lo < *min {
        *min = lo;
    }
    if hi > *max {
        *max = hi;
    }
}

/// One clause of a query, taken apart for every stage of its read.
#[derive(Debug)]
pub(crate) struct Term<'a> {
    pub(crate) clause: &'a Clause,
    /// The path's first segment, which a key list resolves, and the
    /// segments after it, which walk the `Value` found there.
    head: &'a str,
    pub(crate) rest: Option<&'a str>,
    /// For an undotted clause that holds for numbers alone, the `f64`s
    /// `lo..=hi` that a summary's [`Bounds`] are compared with
    /// ([`f64_within`]): a summary is on the right side of a bound
    /// exactly when it is on the right side of one of these. Any other
    /// clause — of another type, `$in`, a nested member — rules no block
    /// out.
    numbers: Option<Bounds>,
}

impl<'a> Term<'a> {
    fn of(clause: &'a Clause) -> Self {
        let (head, rest) = split_head(&clause.path);
        let numbers = clause.test.numbers().filter(|_| rest.is_none());
        let numbers = numbers.and_then(|(lo, hi)| f64_within(lo, hi));
        Term {
            clause,
            head,
            rest,
            numbers,
        }
    }
}

/// A filter taken apart once per read: a [`Term`] per clause, which the
/// index probe, the block summaries, the column pass and the re-check
/// all read, and the one memo of where the terms' heads lie in the key
/// list last met.
#[derive(Debug)]
pub(crate) struct Plan<'a> {
    pub(crate) terms: Vec<Term<'a>>,
    slots: KeySlots<'a>,
}

impl<'a> Plan<'a> {
    pub(crate) fn of(filter: &'a Filter) -> Self {
        Plan {
            terms: filter.clauses.iter().map(Term::of).collect(),
            slots: KeySlots::new(filter.clauses.len()),
        }
    }

    /// Each term, with the slot of its head in `keys` (`None`: `keys`
    /// lacks it).
    pub(crate) fn at(
        &self,
        keys: &'a [String],
    ) -> impl Iterator<Item = (&Term<'a>, Option<usize>)> {
        let slots = self.slots.of(keys, self.terms.iter().map(|term| term.head));
        let terms = self.terms.iter();
        terms.zip(slots).map(|(term, slot)| (term, slot.get()))
    }

    /// Whether `row` satisfies every term: the re-check.
    pub(crate) fn holds(&self, row: RowRef<'a>) -> bool {
        let mut terms = self.at(row.keys());
        terms.all(|(term, slot)| term.clause.holds(row.at_slot(slot, term.rest).as_deref()))
    }
}

/// Blocks one scan walked and skipped: added to the counters once, when
/// the scan ends or is abandoned (as a full window abandons it).
#[derive(Debug, Default)]
struct BlockTally {
    visited: u64,
    skipped: u64,
}

impl BlockTally {
    /// Counts one block, walked if `visit`; hands `visit` back.
    fn note(&mut self, visit: bool) -> bool {
        self.visited += u64::from(visit);
        self.skipped += u64::from(!visit);
        visit
    }
}

impl Drop for BlockTally {
    fn drop(&mut self) {
        telemetry().scan_blocks_visited.add(self.visited);
        telemetry().scan_blocks_skipped.add(self.skipped);
    }
}

/// The secondary indexes by path, over the open rows alone (see the
/// module docs), and their paths as slots of the shape last indexed.
#[derive(Debug, Default)]
pub(crate) struct Indexes {
    pub(crate) paths: BTreeMap<String, PathIndex>,
    slots: IndexSlots,
}

impl Indexes {
    /// Hands `each` every index that `row` holds a value at the path of,
    /// with that value.
    fn each(&mut self, row: &Row, mut each: impl FnMut(&mut PathIndex, &Value)) {
        let paths = self.paths.keys().map(String::as_str);
        let slots = self.slots.resolve(row.shape(), paths);
        for ((path, index), &slot) in self.paths.iter_mut().zip(slots) {
            if let Some(value) = row.at_slot(slot, path) {
                each(index, value);
            }
        }
    }

    /// Indexes `row`, stored at `id`.
    fn add(&mut self, id: DocId, row: &Row) {
        self.each(row, |index, value| index.insert(value, id));
    }

    /// Takes `row`, stored at `id`, out of every index.
    fn remove(&mut self, id: DocId, row: &Row) {
        self.each(row, |index, value| index.remove(value, id));
    }

    /// Makes `sealed`, the block at `first`, open rows of `docs` again,
    /// each indexed.
    fn reopen(&mut self, first: u64, sealed: Sealed, docs: &mut BTreeMap<DocId, Row>) {
        for (id, row) in (first..).map(DocId).zip(sealed.into_rows()) {
            self.add(id, &row);
            docs.insert(id, row);
        }
    }
}

/// A row a read yields: its id, the row, and whether it is known to
/// match without a re-check.
type Found<'a> = (DocId, RowRef<'a>, bool);

/// The rows of `a` and `b`, each in `_id` order, in `_id` order.
fn in_id_order<'a>(
    a: impl Iterator<Item = Found<'a>>,
    b: impl Iterator<Item = Found<'a>>,
) -> impl Iterator<Item = Found<'a>> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let Some(next) = a.peek() else {
            return b.next();
        };
        match b.peek() {
            Some(other) if other.0 < next.0 => b.next(),
            _ => a.next(),
        }
    })
}

#[derive(Debug, Default)]
pub(crate) struct CollectionInner {
    /// The open rows: those past a block's columns, or of a block
    /// without any.
    docs: BTreeMap<DocId, Row>,
    /// Rows stored, open and sealed.
    rows: usize,
    pub(crate) next_id: u64,
    pub(crate) indexes: Indexes,
    shapes: Shapes,
    /// A summary per block that holds a row, by [`block_of`]: sparse, so
    /// nothing is sized by an `_id`.
    blocks: BTreeMap<u64, Block>,
    /// The name the collection had when its store dropped it: from then
    /// on every mutation, through any handle, fails and logs nothing.
    pub(crate) dropped: Option<String>,
}

impl CollectionInner {
    /// Number of rows stored.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// The row at `id`, if there is one.
    pub(crate) fn get(&self, id: DocId) -> Option<RowRef<'_>> {
        let first = block_of(id);
        let sealed = self.blocks.get(&first)?.sealed.as_ref();
        let sealed = sealed.and_then(|sealed| sealed.row((id.0 - first) as usize));
        sealed.or_else(|| self.docs.get(&id).map(RowRef::Open))
    }

    /// The rows of the block at `first`, in `_id` order: its columns',
    /// then its open rows.
    fn block_rows<'a>(
        &'a self,
        first: u64,
        block: &'a Block,
    ) -> impl Iterator<Item = (DocId, RowRef<'a>)> + 'a {
        let sealed = block.sealed.as_ref().into_iter().flat_map(move |sealed| {
            let rows = 0..sealed.len();
            rows.map(move |at| (DocId(first + at as u64), RowRef::Sealed(sealed, at)))
        });
        let open = self.open_rows(first, block);
        sealed.chain(open.map(|(id, row)| (*id, RowRef::Open(row))))
    }

    /// The open rows of the block at `first`, in `_id` order: those past
    /// its columns.
    fn open_rows<'a>(
        &'a self,
        first: u64,
        block: &'a Block,
    ) -> impl Iterator<Item = (&'a DocId, &'a Row)> + 'a {
        let rows = block.has_rows().then(|| {
            let last = DocId(first + (BLOCK_IDS - 1));
            self.docs.range(DocId(first)..=last)
        });
        rows.into_iter().flatten()
    }

    /// Every row, in `_id` order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (DocId, RowRef<'_>)> {
        let blocks = self.blocks.iter();
        blocks.flat_map(|(first, block)| self.block_rows(*first, block))
    }

    /// `doc` as a row of this collection. Only an object can be one.
    fn row_of(&mut self, doc: Value) -> Result<Row, StoreError> {
        let Value::Object(map) = doc else {
            return Err(StoreError::NotAnObject);
        };
        Ok(self.row(map, None))
    }

    /// `map` as a row, `_id` set to `id` if one is given. The shape of the
    /// newest row, open or in columns, is the guess at its own.
    fn row(&mut self, map: Map<String, Value>, id: Option<DocId>) -> Row {
        let last = self.blocks.last_key_value().map(|(_, block)| block);
        let sealed = last.filter(|block| !block.has_rows());
        let sealed = sealed.and_then(|block| block.sealed.as_ref());
        let open = || self.docs.last_key_value().map(|(_, row)| row.shape());
        let newest = sealed.map(Sealed::shape).or_else(open);
        Row::from_map(map, id, newest, &mut self.shapes)
    }

    /// Stores `map` at `id` — with `_id` set to `id` if `stamp` — in its
    /// block's columns if it can go there: as their next row, or as the
    /// first of a block of columns opened for it, where `id` is the first
    /// of an empty block. Hands it back otherwise, to be stored as a row.
    /// Nothing is indexed.
    fn append(
        &mut self,
        id: DocId,
        map: Map<String, Value>,
        stamp: bool,
    ) -> Result<(), Map<String, Value>> {
        let first = block_of(id);
        match self.blocks.get_mut(&first) {
            Some(block) => block.append(first, id, map, stamp)?,
            None => {
                self.leave(first);
                if id.0 != first {
                    return Err(map);
                }
                let row = self.row(map, stamp.then_some(id));
                self.blocks.insert(first, Block::open(row));
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Closes the columns of the last block before `first` if they are
    /// still filling: ids only grow, so the writer, storing into the
    /// empty block at `first`, has left it, and a block it left keeps no
    /// room for the rows it never got.
    fn leave(&mut self, first: u64) {
        let last = self.blocks.range_mut(..first).next_back();
        if let Some(sealed) = last.and_then(|(_, block)| block.sealed.as_mut()) {
            sealed.close();
        }
    }

    /// Stores `doc`, which carries its `_id`, at `id` without indexing it:
    /// what log replay does (it builds the indexes once, at the end) — in
    /// its block's columns where it can go there, else as a row.
    pub(crate) fn put_doc(&mut self, id: DocId, doc: Value) -> Result<(), StoreError> {
        let Value::Object(map) = doc else {
            return Err(StoreError::NotAnObject);
        };
        if let Err(map) = self.append(id, map, false) {
            let row = self.row(map, None);
            self.put(id, row);
        }
        Ok(())
    }

    /// Stores `row` at `id` without indexing it: past its block's
    /// columns, which it does not continue, closing them if they were
    /// filling; in place of one of their rows, once they are made rows,
    /// for good. The one place a row is stored.
    fn put(&mut self, id: DocId, row: Row) {
        let first = block_of(id);
        let block = self.blocks.entry(first).or_default();
        if let Some(sealed) = block.make_way(id.0 - first) {
            self.indexes.reopen(first, sealed, &mut self.docs);
        }
        block.widen(&row);
        match self.docs.insert(id, row) {
            Some(replaced) => self.shapes.release(replaced),
            None => {
                block.rows += 1;
                self.rows += 1;
            }
        }
    }

    /// Indexes `row`, logs it as `op` and stores it at `id`, where no
    /// indexed row may be (see [`take`](Self::take)).
    fn file(&mut self, id: DocId, row: Row, op: &str, log: Option<&mut Deltas>) {
        self.indexes.add(id, &row);
        if let Some(log) = log {
            log.doc(op, id, RowRef::Open(&row));
        }
        self.put(id, row);
    }

    /// Takes the row at `id` out of the map and the indexes, its block's
    /// columns made rows first if it is one of theirs. The caller gives it
    /// back to the shape registry once it has read it.
    fn take(&mut self, id: DocId) -> Option<Row> {
        self.get(id)?;
        let first = block_of(id);
        let Entry::Occupied(mut block) = self.blocks.entry(first) else {
            return None;
        };
        if let Some(sealed) = block.get_mut().make_way(id.0 - first) {
            self.indexes.reopen(first, sealed, &mut self.docs);
        }
        let row = self.docs.remove(&id)?;
        block.get_mut().rows -= 1;
        if block.get().rows == 0 {
            block.remove();
        }
        self.rows -= 1;
        self.indexes.remove(id, &row);
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
        self.blocks.clear();
        self.rows = 0;
        self.shapes = Shapes::default();
        self.indexes.slots = IndexSlots::default();
        for index in self.indexes.paths.values_mut() {
            *index = PathIndex::new();
        }
    }

    /// The rows a scan has to look at, in `_id` order, each with whether
    /// it is known to match: of the blocks whose summaries cannot rule out
    /// one of the plan's numeric terms, the column rows the pass keeps —
    /// known to match when it decided every term — and, unless an index
    /// serves them (`open` false), all their open rows.
    pub(crate) fn scan<'a>(
        &'a self,
        plan: Rc<Plan<'a>>,
        open: bool,
    ) -> impl Iterator<Item = Found<'a>> + 'a {
        let mut tally = BlockTally::default();
        let decided = plan.terms.iter().all(|term| term.rest.is_none());
        // Each block the summaries and the pass leave in: its first id,
        // the column rows picked, and whether its open rows are walked.
        let held = move |(&first, block): (&'a u64, &'a Block)| {
            let held = block.may_hold(&plan);
            let sealed = block.sealed.as_ref().filter(|_| held);
            let picked = sealed.and_then(|sealed| Some((sealed, sealed.pass(&plan)?)));
            let walked = held && open && block.has_rows();
            tally
                .note(picked.is_some() || walked)
                .then_some((first, block, picked, walked))
        };
        type Held<'a> = (u64, &'a Block, Option<(&'a Sealed, Picked)>, bool);
        let rows = move |(first, block, picked, walked): Held<'a>| {
            let sealed_rows = picked.into_iter().flat_map(move |(sealed, picked)| {
                let rows = picked.rows();
                rows.map(move |at| {
                    let id = DocId(first + at as u64);
                    (id, RowRef::Sealed(sealed, at), decided)
                })
            });
            let open_rows = walked.then(|| self.open_rows(first, block));
            let open_rows = open_rows.into_iter().flatten();
            sealed_rows.chain(open_rows.map(|(id, row)| (*id, RowRef::Open(row), false)))
        };
        let blocks = self.blocks.iter();
        let blocks = blocks.filter(move |(_, block)| open || block.sealed.is_some());
        blocks.filter_map(held).flat_map(rows)
    }

    /// Rows matching `filter` in `_id` order — the one read path under
    /// find, count, distinct, update and delete. The filter is taken
    /// apart once ([`Plan`]). Where an index serves, the [`probe`]'s
    /// candidates — open rows — are fetched, and merged by `_id` with what
    /// [`scan`](Self::scan) yields of the column blocks; otherwise the
    /// scan yields both. What is not known to match is re-checked. The
    /// plan that ran is recorded in `docstore_query_plans_total{plan=...}`.
    pub(crate) fn matches<'a>(
        &'a self,
        filter: &'a Filter,
    ) -> impl Iterator<Item = (DocId, RowRef<'a>)> + 'a {
        let plan = Rc::new(Plan::of(filter));
        let clauses = plan.terms.iter().map(|term| term.clause);
        let (kind, candidates) = probe(&self.indexes.paths, clauses);
        telemetry().record_plan(kind);
        let scan = self.scan(Rc::clone(&plan), candidates.is_none());
        let indexed = candidates.into_iter().flatten();
        let indexed = indexed.filter_map(move |id| Some((id, self.get(id)?, false)));
        in_id_order(indexed, scan)
            .filter(move |&(_, row, known)| known || plan.holds(row))
            .map(|(id, row, _)| (id, row))
    }

    fn matching_ids(&self, filter: &Filter) -> Vec<DocId> {
        self.matches(filter).map(|(id, _)| id).collect()
    }

    /// Stores `doc` at the next id: in columns, indexed by nothing, where
    /// it continues a stream (see [`append`](Self::append)), else as an
    /// indexed row. Either way the log gets the stored document's text.
    fn insert(&mut self, doc: Value, log: Option<&mut Deltas>) -> Result<DocId, StoreError> {
        let Value::Object(map) = doc else {
            return Err(StoreError::NotAnObject);
        };
        let id = DocId(self.next_id);
        telemetry().collection_insert.inc();
        self.next_id += 1;
        match self.append(id, map, true) {
            Ok(()) => {
                if let (Some(log), Some(row)) = (log, self.get(id)) {
                    log.doc("insert", id, row);
                }
            }
            Err(map) => {
                let row = self.row(map, Some(id));
                self.file(id, row, "insert", log);
            }
        }
        Ok(id)
    }

    /// Builds an index on `path` over the open rows; returns whether a
    /// new index was actually created.
    pub(crate) fn create_index(&mut self, path: &str) -> bool {
        if self.indexes.paths.contains_key(path) {
            return false;
        }
        let mut index = PathIndex::new();
        for (id, row) in &self.docs {
            if let Some(value) = RowRef::Open(row).at(path) {
                index.insert(&value, *id);
            }
        }
        self.indexes.paths.insert(path.to_owned(), index);
        self.indexes.slots = IndexSlots::default();
        true
    }

    /// Drops the index on `path`; returns whether there was one.
    pub(crate) fn drop_index(&mut self, path: &str) -> bool {
        self.indexes.slots = IndexSlots::default();
        self.indexes.paths.remove(path).is_some()
    }

    /// Distinct indexable values at `path` over every row, if an index
    /// exists there: its keys, which are the open rows', and the values
    /// the sealed blocks hold there.
    pub(crate) fn index_cardinality(&self, path: &str) -> Option<usize> {
        let index = self.indexes.paths.get(path)?;
        let mut keys: BTreeSet<IndexKey> = index.keys().cloned().collect();
        for sealed in self
            .blocks
            .values()
            .filter_map(|block| block.sealed.as_ref())
        {
            sealed.each_at(path, |value| keys.extend(IndexKey::new(value)));
        }
        Some(keys.len())
    }
}

#[cfg(test)]
impl CollectionInner {
    /// Blocks sealed — full, their columns closed — and blocks whose
    /// columns were made rows. A block still filling is neither: read it
    /// through [`column_blocks`](Self::column_blocks).
    pub(crate) fn seals(&self) -> (usize, usize) {
        let full = |sealed: &Sealed| sealed.len() == BLOCK_IDS as usize;
        let blocks = self.blocks.values();
        let sealed = blocks
            .filter(|b| b.sealed.as_ref().is_some_and(full))
            .count();
        (sealed, self.blocks.values().filter(|b| b.unsealed).count())
    }

    /// The blocks held as columns, by their first id.
    pub(crate) fn column_blocks(&self) -> impl Iterator<Item = (u64, &Sealed)> {
        let blocks = self.blocks.iter();
        blocks.filter_map(|(first, block)| Some((*first, block.sealed.as_ref()?)))
    }

    /// The bytes an offset takes, for each column of the column blocks
    /// that keeps numbers packed.
    pub(crate) fn offset_widths(&self) -> Vec<usize> {
        let sealed = self.blocks.values().filter_map(|b| b.sealed.as_ref());
        sealed.flat_map(Sealed::offset_widths).collect()
    }

    /// Whether each index holds exactly what one built anew over the
    /// open rows would: every open row, under its value, and nothing of
    /// a block held as columns.
    pub(crate) fn indexes_hold_the_open_rows(&self) -> bool {
        self.indexes.paths.iter().all(|(path, index)| {
            let mut fresh = PathIndex::new();
            for (id, row) in &self.docs {
                if let Some(value) = RowRef::Open(row).at(path) {
                    fresh.insert(&value, *id);
                }
            }
            fresh == *index
        })
    }

    /// Blocks a scan for `filter` skips on their summaries alone.
    pub(crate) fn ruled_out(&self, filter: &Filter) -> usize {
        let plan = Plan::of(filter);
        self.blocks.values().filter(|b| !b.may_hold(&plan)).count()
    }
}

/// A document to sort: its sort key, its place in arrival order, itself.
type Keyed<'v, D> = (Cow<'v, Value>, usize, D);

/// The first `keep` of `docs` in the order of the value at `path`, a
/// missing value sorting as null. Each document's key is read once; ties
/// stay in arrival (`_id`) order either way round, because arrival breaks
/// them: the order is total, so of more than `keep` documents the `keep`
/// first are selected unordered and only they are sorted, and the result
/// is exactly the head of the full stable sort. Arrays and objects have
/// no order: one among two or more keys is [`StoreError::Unorderable`] —
/// found before the sort, which is then never handed a comparison that is
/// no total order (it may panic on one).
pub(crate) fn sorted_by_path<'v, D: Doc<'v>>(
    docs: impl Iterator<Item = D>,
    path: &str,
    order: SortOrder,
    keep: usize,
) -> Result<Vec<D>, StoreError> {
    let mut keyed: Vec<Keyed<'v, D>> = docs
        .enumerate()
        .map(|(at, doc)| (doc.at(path).unwrap_or(Cow::Borrowed(&Value::Null)), at, doc))
        .collect();
    let compound = |(key, _, _): &Keyed<'v, D>| key.is_array() || key.is_object();
    if keyed.len() > 1 && keyed.iter().any(compound) {
        return Err(StoreError::Unorderable(path.to_owned()));
    }
    let rank = |(a, a_at, _): &Keyed<'v, D>, (b, b_at, _): &Keyed<'v, D>| {
        let ordering = compare_values(a, b).unwrap_or(Ordering::Equal);
        match order {
            SortOrder::Ascending => ordering,
            SortOrder::Descending => ordering.reverse(),
        }
        .then(a_at.cmp(b_at))
    };
    if keep < keyed.len() {
        keyed.select_nth_unstable_by(keep, rank);
        keyed.truncate(keep);
    }
    keyed.sort_unstable_by(rank);
    Ok(keyed.into_iter().map(|(_, _, doc)| doc).collect())
}

/// A named collection of JSON documents.
///
/// `Collection` is a cheaply-cloneable handle; clones share the same
/// underlying data (as handles from
/// [`Store::collection`](crate::Store::collection) do). All methods take
/// `&self` and are thread-safe.
#[derive(Debug, Clone)]
pub struct Collection {
    pub(crate) inner: Arc<Ranked<CollectionInner>>,
    /// Present when the owning store write-ahead-logs mutations (see
    /// [`crate::durability`]); `None` on the in-memory sim path.
    pub(crate) durable: Option<Arc<DurableCtx>>,
}

impl Default for Collection {
    fn default() -> Self {
        Self {
            inner: Arc::new(Ranked::new(Rank::Collection, CollectionInner::default())),
            durable: None,
        }
    }
}

impl Collection {
    /// Creates an empty, unnamed collection (use
    /// [`Store::collection`](crate::Store::collection) for named ones).
    pub fn new() -> Self {
        Self::default()
    }

    /// Every mutation below runs through here: `apply` changes the
    /// collection under its lock and, on a journaled store only, encodes
    /// the deltas that [`journaled`] then makes durable. Once the store
    /// has dropped the collection, `apply` does not run: the mutation is
    /// [`StoreError::CollectionNotFound`] and logs nothing.
    pub(crate) fn mutate<T>(
        &self,
        apply: impl FnOnce(&mut CollectionInner, Option<&mut Deltas>) -> T,
    ) -> Result<T, StoreError> {
        let journal = self.durable.as_deref();
        let journal = journal.map(|ctx| (&*ctx.shared, ctx.name.as_str()));
        let (out, logged) = journaled(journal, |log| {
            let mut inner = self.inner.lock();
            match &inner.dropped {
                Some(name) => Err(StoreError::CollectionNotFound(name.clone())),
                None => Ok(apply(&mut inner, log)),
            }
        });
        let out = out?;
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
        self.inner.lock().get(id).map(RowRef::to_value)
    }

    /// Number of documents in the collection.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Returns documents matching `filter`, sorted and then limited as
    /// `options` ask.
    ///
    /// Secondary indexes are probed for the open rows first (see
    /// `crate::index`); unsorted queries additionally stop visiting
    /// documents once `limit` results have been produced, and sorted
    /// queries read each match's sort key once, order references to the
    /// first `limit` only, and build documents only for those.
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
        let keep = options.limit.unwrap_or(usize::MAX);
        let Some((path, order)) = &options.sort else {
            // Matches arrive in `_id` order: the scan stops at the limit.
            return Ok(matches.take(keep).map(RowRef::to_value).collect());
        };
        let sorted = sorted_by_path(matches, path, *order, keep)?;
        Ok(sorted.into_iter().map(RowRef::to_value).collect())
    }

    /// Counts documents matching `filter`.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for parity with `find`.
    pub fn count(&self, filter: &Filter) -> Result<usize, StoreError> {
        let metrics = telemetry();
        metrics.collection_count.inc();
        let _timer = SpanTimer::start(&metrics.collection_count_seconds);
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
                let mut doc = RowRef::Open(&old).to_value();
                let result = update.apply(&mut doc);
                // Re-index and log whatever state the document is in,
                // then propagate any error. The old row goes once the new
                // one holds their shape, if they share it.
                let row = inner.row_of(doc);
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
            if let (true, Some(log)) = (inner.drop_index(path), log) {
                log.index("drop_index", path);
            }
        })
    }

    /// Whether an index exists on `path`.
    pub fn has_index(&self, path: &str) -> bool {
        self.inner.lock().indexes.paths.contains_key(path)
    }

    /// Distinct indexable values on `path` over every document, if an
    /// index exists there.
    pub fn index_cardinality(&self, path: &str) -> Option<usize> {
        self.inner.lock().index_cardinality(path)
    }

    /// Distinct scalar values at `path` among documents matching
    /// `filter`, in ascending order (arrays/objects at the path are
    /// skipped; MongoDB's `distinct` with our scalar ordering).
    pub fn distinct(&self, path: &str, filter: &Filter) -> Vec<serde_json::Value> {
        let inner = self.inner.lock();
        let mut values: Vec<Cow<'_, Value>> = inner
            .matches(filter)
            .filter_map(|(_, row)| row.at(path))
            .filter(|v| !v.is_array() && !v.is_object())
            .collect();
        // Stable, so of several equal values (1 and 1.0) the one from the
        // lowest `_id` is the one kept.
        values.sort_by(|a, b| compare_values(a, b).unwrap_or(Ordering::Equal));
        values.dedup_by(|b, a| compare_values(a, b) == Some(Ordering::Equal));
        values.into_iter().map(Cow::into_owned).collect()
    }

    /// Removes every document (indexes stay defined, but empty).
    ///
    /// # Errors
    ///
    /// Infallible in memory; a durable store returns
    /// [`StoreError::Durability`] when the clear cannot be logged.
    pub fn clear(&self) -> Result<(), StoreError> {
        self.mutate(|inner, log| {
            if let (false, Some(log)) = (inner.len() == 0, log) {
                log.bare("clear");
            }
            inner.clear();
        })
    }

    /// Snapshot of all documents, in `_id` order.
    pub fn all(&self) -> Vec<Value> {
        let inner = self.inner.lock();
        inner.rows().map(|(_, row)| row.to_value()).collect()
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
        let r = c.find(&Filter::eq("loc", Value::Null)).unwrap();
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
            .limit(3);
        let r = c
            .find_with_options(&Filter::gt("spl", 50.0), &opts)
            .unwrap();
        assert_eq!(r.len(), 3);
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
    fn sort_on_compounds_among_scalars_errors_and_never_panics() {
        // "Equal" for every pair with an array in it is no total order,
        // and the standard sort may panic when it notices.
        let c = Collection::new();
        c.insert_many((0..64).map(|i| match i % 3 {
            0 => json!({"v": [i]}),
            _ => json!({"v": (i * 37) % 64}),
        }))
        .unwrap();
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            assert_eq!(
                c.find_with_options(&Filter::True, &FindOptions::new().sort("v", order)),
                Err(StoreError::Unorderable("v".to_owned()))
            );
        }
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
        // The limit-pushdown path must agree with the full query on both
        // the scan and the indexed path.
        let c = seeded();
        let opts = FindOptions::new().limit(1);
        let filter = Filter::eq("model", "A");
        let full = c.find(&filter).unwrap();
        let window = c.find_with_options(&filter, &opts).unwrap();
        assert_eq!(window.as_slice(), &full[..1]);
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

    /// Forty documents, `day` rising one per block of eight (the block
    /// size under test), two key sets interleaved: each block's first
    /// document is its columns, closed by the second, the rest are rows.
    fn days() -> Collection {
        let c = Collection::new();
        c.insert_many((0..40).map(|i| match i % 2 {
            0 => json!({"day": i / 8, "kind": "a"}),
            _ => json!({"day": i / 8, "kind": "b", "note": i}),
        }))
        .unwrap();
        c
    }

    fn visited(c: &Collection, filter: &Value) -> Vec<u64> {
        let filter = Filter::parse(filter).unwrap();
        let inner = c.inner.lock();
        let scanned = inner.scan(Rc::new(Plan::of(&filter)), true);
        let scanned = scanned.map(|(id, _, _)| id.0);
        scanned.collect()
    }

    #[test]
    fn a_scan_visits_only_the_blocks_its_numeric_conjuncts_allow() {
        let c = days();
        let (all, third): (Vec<u64>, Vec<u64>) = ((0..40).collect(), (16..24).collect());
        assert_eq!(visited(&c, &json!({"kind": "a", "day": 2})), third);
        assert_eq!(visited(&c, &json!({"day": {"$gt": 1, "$lt": 3}})), third);
        assert_eq!(
            visited(&c, &json!({"day": {"$gte": 2.0, "$lte": 2.5}})),
            third
        );
        assert_eq!(visited(&c, &json!({"day": {"$gt": 3}})), all[32..]);
        assert_eq!(
            visited(&c, &json!({"day": {"$lt": 1}, "note": {"$gt": 7}})),
            [] as [u64; 0]
        );
        // The block's summary holds a `note` of 7; its columns, no `note`.
        assert_eq!(
            visited(&c, &json!({"day": {"$lt": 1}, "note": {"$gte": 7}})),
            all[1..8]
        );
        assert_eq!(visited(&c, &json!({"day": 7})), [] as [u64; 0]);
        // What is not a number, not at the top, or a set of values rules
        // no block out on its summary — nor does a member's absence from
        // *some* key set. The open rows are all walked.
        for filter in [
            json!({}),
            json!({"kind": "a"}),
            json!({"day": {"$in": [2]}}),
            json!({"day": {"$gt": "2"}}),
            json!({"day.x": 2}),
            json!({"day": null}),
            json!({"note": null}),
        ] {
            let parsed = Filter::parse(&filter).unwrap();
            assert_eq!(c.inner.lock().ruled_out(&parsed), 0, "{filter}");
            let open =
                |ids: Vec<u64>| -> Vec<u64> { ids.into_iter().filter(|id| id % 8 != 0).collect() };
            assert_eq!(open(visited(&c, &filter)), open(all.clone()), "{filter}");
        }
        let filter = Filter::parse(&json!({"kind": "a", "day": 2})).unwrap();
        assert_eq!(c.count(&filter).unwrap(), 4);
        assert_eq!(c.find(&filter).unwrap().len(), 4);
    }

    #[test]
    fn summaries_widen_with_updates_and_go_with_the_last_row() {
        let c = days();
        // A value moved outside its block's bounds is found where it is;
        // the block's columns (its first row, day 0) rule themselves out.
        c.update_many(&Filter::eq("_id", 3), &Update::set("day", 99))
            .unwrap();
        assert_eq!(
            visited(&c, &json!({"day": {"$gte": 50}})),
            (1..8).collect::<Vec<_>>()
        );
        // Bounds never narrow: the block is still visited for what left.
        c.update_many(&Filter::eq("_id", 3), &Update::set("day", 0))
            .unwrap();
        assert_eq!(
            visited(&c, &json!({"day": {"$gte": 50}})),
            (1..8).collect::<Vec<_>>()
        );
        // Until its last row goes, and the summary with it.
        c.delete_many(&Filter::lt("_id", 8)).unwrap();
        assert_eq!(c.inner.lock().blocks.len(), 4);
        assert_eq!(visited(&c, &json!({"day": {"$gte": 50}})), [] as [u64; 0]);
        c.clear().unwrap();
        assert!(c.inner.lock().blocks.is_empty());
        c.insert_one(json!({"day": 50})).unwrap();
        assert_eq!(visited(&c, &json!({"day": {"$gte": 50}})), [40]);
    }

    #[test]
    fn summaries_tell_apart_integers_that_are_one_f64() {
        // Bounds rounded to the nearest `f64` would end at ±2⁵³ and lose
        // the documents one beyond: they are rounded outward.
        let two_53 = 9_007_199_254_740_992i64;
        let c = Collection::new();
        c.insert_many([two_53, two_53 + 1, -two_53, -two_53 - 1].map(|t| json!({"t": t})))
            .unwrap();
        let count = |filter: Value| c.count(&Filter::parse(&filter).unwrap()).unwrap();
        assert_eq!(count(json!({"t": {"$gt": two_53}})), 1);
        assert_eq!(count(json!({"t": {"$gt": two_53 as f64}})), 1);
        assert_eq!(count(json!({"t": two_53 + 1})), 1);
        assert_eq!(count(json!({"t": {"$lt": -two_53}})), 1);
        assert_eq!(count(json!({"t": {"$lte": -two_53 - 1}})), 1);
        // And end within an ulp (two, out here) of there.
        assert!(visited(&c, &json!({"t": {"$gt": two_53 + 2}})).is_empty());
        assert!(visited(&c, &json!({"t": {"$lt": -two_53 - 2}})).is_empty());
        // Below 2⁵³ they end where the numbers do.
        c.clear().unwrap();
        c.insert_many([json!({"t": two_53 - 2}), json!({"t": -1e15 - 0.5})])
            .unwrap();
        assert_eq!(count(json!({"t": {"$gte": two_53 - 2}})), 1);
        assert!(visited(&c, &json!({"t": {"$gt": two_53 - 2}})).is_empty());
        assert!(visited(&c, &json!({"t": {"$lt": -1e15 - 0.5}})).is_empty());
    }

    #[test]
    fn a_block_of_many_key_sets_stops_summarising() {
        // A document given a new member — a new key set — at a time,
        // beside one that keeps the block, and its summary, alive.
        let c = Collection::new();
        c.insert_many([json!({"k0": 0}), json!({"k0": 0})]).unwrap();
        let held = |c: &Collection| c.inner.lock().blocks[&0].key_sets.len();
        for sets in 1..=BLOCK_KEY_SETS + 3 {
            assert_eq!(held(&c), sets.min(BLOCK_KEY_SETS + 1));
            let skipped = visited(&c, &json!({"absent": 7})).is_empty();
            assert_eq!(skipped, sets <= BLOCK_KEY_SETS, "after {sets} key sets");
            c.update_many(&Filter::eq("_id", 1), &Update::set(format!("k{sets}"), 1))
                .unwrap();
        }
    }

    #[test]
    fn scans_count_the_blocks_they_visit_and_skip_once_each() {
        let registry = mps_telemetry::Registry::global();
        let count = |name: &str| registry.counter_value(name).unwrap_or(0);
        let read = || {
            (
                count("docstore_scan_blocks_visited_total"),
                count("docstore_scan_blocks_skipped_total"),
                count("docstore_collection_count_total"),
            )
        };
        let c = days();
        // Other tests scan too: the counters are the process's, so only
        // this scan's own share can be asserted, as a lower bound.
        let before = read();
        let filter = Filter::parse(&json!({"kind": "a", "day": 2})).unwrap();
        assert_eq!(c.count(&filter).unwrap(), 4);
        let after = read();
        assert!(after.0 > before.0, "one block visited");
        assert!(after.1 >= before.1 + 4, "four blocks skipped");
        assert!(after.2 > before.2, "the count is counted");
        // A window that fills early leaves the later blocks uncounted,
        // but counts the ones it passed.
        let first = FindOptions::new().limit(1);
        let before = read();
        let filter = Filter::parse(&json!({"day": {"$gte": 1}})).unwrap();
        assert_eq!(c.find_with_options(&filter, &first).unwrap().len(), 1);
        let after = read();
        assert!(after.0 > before.0 && after.1 > before.1);
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

    /// The open rows' ids an index on `path` holds.
    fn indexed(c: &Collection, path: &str) -> Vec<u64> {
        let inner = c.inner.lock();
        let index = &inner.indexes.paths[path];
        let mut ids: Vec<u64> = index
            .lookup_range(&None, &None)
            .iter()
            .map(|id| id.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn indexes_hold_the_open_rows_and_answer_for_all() {
        // Blocks of eight under test: 0..8 and 8..16 fill and close, 16
        // and 17 fill the third. None of them is a row, nor indexed.
        let c = Collection::new();
        c.create_index("v").unwrap();
        c.insert_many((0..18).map(|i| json!({"v": i % 5, "w": i})))
            .unwrap();
        c.create_index("w").unwrap();
        assert_eq!(c.inner.lock().seals(), (2, 0));
        assert_eq!(indexed(&c, "v"), [] as [u64; 0]);
        assert_eq!(indexed(&c, "w"), [] as [u64; 0]);
        assert_eq!(c.index_cardinality("v"), Some(5));
        assert_eq!(c.index_cardinality("w"), Some(18));
        let ids = |filter: Value| -> Vec<u64> {
            let found = c.find(&Filter::parse(&filter).unwrap()).unwrap();
            found
                .iter()
                .map(|doc| doc["_id"].as_u64().unwrap())
                .collect()
        };
        assert_eq!(ids(json!({"v": 1})), [1, 6, 11, 16]);
        assert_eq!(
            ids(json!({"w": {"$gte": 7, "$lt": 17}})),
            (7..17).collect::<Vec<_>>()
        );
        assert_eq!(ids(json!({"v": 2, "w": {"$gt": 2.5}})), [7, 12, 17]);
        // An update makes its block rows, which enter the indexes: the
        // changed one under its new value.
        c.update_many(&Filter::eq("_id", 3), &Update::set("v", 9))
            .unwrap();
        assert_eq!(c.inner.lock().seals(), (1, 1));
        assert_eq!(indexed(&c, "v"), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(ids(json!({"v": 9})), [3]);
        assert_eq!(ids(json!({"v": 3})), [8, 13]);
        assert_eq!(c.index_cardinality("v"), Some(6));
        // A delete does too, and takes its row out.
        c.delete_many(&Filter::eq("_id", 13)).unwrap();
        assert_eq!(
            indexed(&c, "w"),
            (0..16).filter(|&i| i != 13).collect::<Vec<_>>()
        );
        assert_eq!(ids(json!({"v": 3})), [8]);
        assert!(c.inner.lock().indexes_hold_the_open_rows());
    }

    #[test]
    fn a_stream_fills_columns_until_a_document_does_not_continue_them() {
        let c = Collection::new();
        c.create_index("v").unwrap();
        c.insert_many((0..11).map(|i| json!({"v": i}))).unwrap();
        // One closed block, and the next filling with 8, 9 and 10.
        assert_eq!(c.inner.lock().seals(), (1, 0));
        let columns = |c: &Collection| {
            let inner = c.inner.lock();
            let blocks = inner.column_blocks();
            blocks
                .map(|(first, sealed)| (first, sealed.len(), sealed.filling()))
                .collect::<Vec<_>>()
        };
        assert_eq!(columns(&c), [(0, 8, false), (8, 3, true)]);
        // Another key set: the filling block's columns close on the rows
        // they hold, and it and the block's later documents are rows,
        // indexed; the next block opens as columns again.
        c.insert_one(json!({"v": 11, "x": true})).unwrap();
        c.insert_one(json!({"v": 12})).unwrap();
        assert_eq!(columns(&c), [(0, 8, false), (8, 3, false)]);
        assert_eq!(indexed(&c, "v"), [11, 12]);
        c.insert_many((13..17).map(|i| json!({"v": i}))).unwrap();
        assert_eq!(columns(&c), [(0, 8, false), (8, 3, false), (16, 1, true)]);
        assert_eq!(indexed(&c, "v"), [11, 12, 13, 14, 15]);
        assert_eq!(c.inner.lock().seals(), (1, 0));
        assert!(c.inner.lock().indexes_hold_the_open_rows());
        let all: Vec<Value> = c.all();
        assert_eq!(all.len(), 17);
        assert_eq!(all[11], json!({"_id": 11, "v": 11, "x": true}));
        assert_eq!(c.count(&Filter::gte("v", 9)).unwrap(), 8);
        assert_eq!(c.count(&Filter::eq("x", true)).unwrap(), 1);
        assert_eq!(c.find(&Filter::eq("v", 10)).unwrap().len(), 1);
        // A write into the closed columns makes them rows, for good.
        c.update_many(&Filter::eq("_id", 9), &Update::set("w", 1))
            .unwrap();
        assert_eq!(columns(&c), [(0, 8, false), (16, 1, true)]);
        assert_eq!(indexed(&c, "v"), (8..16).collect::<Vec<_>>());
        assert_eq!(c.inner.lock().seals(), (1, 1));
        assert_eq!(c.all()[9], json!({"_id": 9, "v": 9, "w": 1}));
        assert!(c.inner.lock().indexes_hold_the_open_rows());

        // A replay whose ids skip a block's last ones: the block's columns
        // fill until the writer stores into the next block, then close,
        // short. Replay indexes nothing; the index built after it holds
        // the one open row.
        let c = Collection::new();
        let replay = |ids: std::ops::Range<u64>| {
            for id in ids {
                let doc = json!({"_id": id, "v": id});
                c.inner.lock().put_doc(DocId(id), doc).unwrap();
            }
        };
        replay(0..13);
        assert_eq!(columns(&c), [(0, 8, false), (8, 5, true)]);
        replay(16..18);
        assert_eq!(columns(&c), [(0, 8, false), (8, 5, false), (16, 2, true)]);
        // One past an empty block's first id is a row: the writer has
        // left the block before all the same.
        replay(26..27);
        assert_eq!(columns(&c), [(0, 8, false), (8, 5, false), (16, 2, false)]);
        c.create_index("v").unwrap();
        assert_eq!(indexed(&c, "v"), [26]);
        assert_eq!(c.count(&Filter::gte("v", 11)).unwrap(), 5);
        assert_eq!(c.find(&Filter::eq("v", 26)).unwrap().len(), 1);
        assert!(c.inner.lock().indexes_hold_the_open_rows());
    }

    #[test]
    fn each_read_records_the_plan_its_indexes_gave() {
        use crate::index::PlanKind::{FullScan, IndexEq, IndexIntersect, IndexRange};
        let (c, unindexed) = (seeded(), seeded());
        c.create_index("model").unwrap();
        c.create_index("spl").unwrap();
        let a_then_b =
            |a: Value, b: Value| json!({"$and": [{"spl": a}, {"model": "A"}, {"spl": b}]});
        let table = [
            (json!({"model": "A"}), IndexEq, vec![0, 2]),
            (json!({"spl": {"$gt": 50}}), IndexRange, vec![1, 2, 3]),
            (
                json!({"spl": {"$gte": 40, "$lt": 60}}),
                IndexRange,
                vec![0, 1],
            ),
            // Consecutive bounds on one path are one interval.
            (
                json!({"$and": [{"spl": {"$gte": 40}}, {"spl": {"$lt": 60}}]}),
                IndexRange,
                vec![0, 1],
            ),
            (
                json!({"model": "A", "spl": {"$gt": 50}}),
                IndexIntersect,
                vec![2],
            ),
            (
                json!({"model": "B", "spl": {"$gt": 60}}),
                IndexIntersect,
                vec![],
            ),
            // Bounds apart are two intervals, each probed on its own.
            (
                a_then_b(json!({"$gte": 40}), json!({"$lt": 60})),
                IndexIntersect,
                vec![0],
            ),
            // An unindexed clause leaves the indexed one to serve.
            (
                json!({"model": "A", "loc.acc": {"$gt": 5}}),
                IndexEq,
                vec![0],
            ),
            (json!({"loc.acc": {"$lt": 50}}), FullScan, vec![0, 1]),
            // Null also matches a missing member, and neither a set of
            // values nor an array is a key: no index enumerates them.
            (json!({"model": null}), FullScan, vec![]),
            (
                json!({"model": {"$in": ["A", "B"]}}),
                FullScan,
                vec![0, 1, 2],
            ),
            (json!({"model": ["A"]}), FullScan, vec![]),
        ];
        let ids_of = |c: &Collection, filter: &Filter| -> Vec<u64> {
            let inner = c.inner.lock();
            inner.matches(filter).map(|(id, _)| id.0).collect()
        };
        for (filter, kind, ids) in table {
            let filter = Filter::parse(&filter).unwrap();
            let plan = Plan::of(&filter);
            let clauses = plan.terms.iter().map(|term| term.clause);
            let probed = probe(&c.inner.lock().indexes.paths, clauses).0;
            assert_eq!(probed, kind, "{filter:?}");
            assert_eq!(ids_of(&c, &filter), ids, "{filter:?}");
            assert_eq!(ids_of(&unindexed, &filter), ids, "{filter:?}");
        }
    }

    #[test]
    fn an_array_or_object_equality_reads_the_open_rows_of_an_indexed_path() {
        // No index holds an array or an object, so no probe answers an
        // equality with one: the open rows are read as a scan reads them.
        let c = Collection::new();
        c.insert_many([
            json!({"tags": ["a", "b"], "loc": {"x": 1}}),
            json!({"tags": "a", "loc": 1}),
            json!({"tags": ["a"], "loc": {"x": 2}}),
        ])
        .unwrap();
        let filters = [
            Filter::eq("tags", json!(["a", "b"])),
            Filter::eq("loc", json!({"x": 1})),
            Filter::and(vec![
                Filter::eq("tags", json!(["a", "b"])),
                Filter::eq("loc", json!({"x": 1})),
            ]),
        ];
        let scanned: Vec<_> = filters.iter().map(|f| c.find(f).unwrap()).collect();
        assert!(scanned.iter().all(|docs| docs.len() == 1), "{scanned:?}");
        c.create_index("tags").unwrap();
        c.create_index("loc").unwrap();
        for (filter, scanned) in filters.iter().zip(&scanned) {
            assert_eq!(&c.find(filter).unwrap(), scanned, "{filter:?}");
            assert_eq!(c.count(filter).unwrap(), 1, "{filter:?}");
        }
    }

    #[test]
    fn eq_null_does_not_use_index() {
        // `eq null` matches docs missing the path; no index may serve it.
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
