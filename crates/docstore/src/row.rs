//! Stored documents: shape-shared rows, and sealed blocks of them.
//!
//! A collection keeps a document not as a [`Value`] tree but as a
//! [`Row`]: its top-level member *values* in one exact-size slice, and an
//! [`Arc`] to the [`Shape`] that names them — the member names in `str`
//! order (the order `serde_json::Map` iterates) with each name's `"key":`
//! JSON text, escaped once. Every document of the collection with the
//! same key set shares one shape (its [`Shapes`] registry sees to that),
//! so a stored observation costs its values and a pointer, not a tree of
//! nodes and nineteen key strings.
//!
//! **Sealed blocks.** Once the collection's writer has passed a block of
//! `_id`s whose rows all share one shape (see [`crate::collection`]), the
//! rows become a [`Sealed`] block: one [`Column`] per member, in `_id`
//! order. A member with at most [`DICTIONARY_MAX`] distinct values in the
//! block — a model, an activity, a day — keeps each of them once and a
//! one-byte code per row. Any other member that holds only numbers of one
//! [`Kind`] and null — an id, a timestamp, a level, a coordinate — is a
//! [`Numbers`] column: its null rows as a bitmap, and only the rows that
//! are not null as numbers, packed. An integer is kept as its offset
//! from the block's smallest, all of them in the narrowest of 1, 2, 4 or
//! 8 bytes that holds the largest (frame-of-reference coding: a block's
//! `_id`s take 2 bytes a row, its capture times 4); a float keeps its 8
//! bytes of bits. The null bitmap maps a row to its number by a popcount
//! rank, so a null row costs one bit. A GoFlow observation's ten number
//! members take ~46 bytes together where one 8-byte word a row took 80
//! (its pseudonyms span all of `u64`; its fix is null in three rows of
//! five). The rest keep their values in one contiguous slice.
//!
//! **One read path.** `Value` stays the type at the API boundary and only
//! there; in between, everything reads a stored document through one
//! [`RowRef`] — an open row, or a sealed block and an offset into it —
//! which implements [`Doc`], as `Value` does: filters, paths, sorting,
//! projection, index builds, `to_value` and `write_json` each have a
//! single body for both. A member comes out as a `Cow`: borrowed where a
//! `Value` is stored, and made on the spot — a `Value::Number`, no heap —
//! from a number column's offset.
//!
//! **Why bytes cannot differ.** [`RowRef::write_json`] writes members in
//! shape order, which is `str` order, which is `Map` order; the key text
//! was produced by `Value`'s own writer when the shape was made, and the
//! values go through it. A dictionary keeps a value once per *identity*
//! ([`identical`]: a float by its bits, so `-0.0` is not `0.0` though
//! `Value`'s `==` says so, and `1` is not `1.0`), never once per equality.
//! A number column's offset plus its base is a word that gives back the
//! very `Number` (see [`Kind`]). A row therefore serialises to exactly
//! the text of the `Value` it was made from, sealed or not.
//!
//! **Reads.** A query's plan (see [`crate::collection`]) resolves the
//! first segment of each clause's path against a key list once, through
//! one [`KeySlots`] that remembers the list it last met, by address: a
//! block summary's key set, a sealed block's shape and an open row's
//! shape are one list where they are one key set, so a scan of one
//! stream resolves its paths once, and pays a pointer comparison per
//! row and an indexed load per clause; nested segments continue through
//! the `Value` in the slot. [`IndexSlots`] does the same for the
//! collection's index paths on the write path, holding its shape rather
//! than borrowing it. Before a sealed block is walked, [`Sealed::pass`]
//! decides each clause on an undotted member from that member's column
//! alone (see its docs), with the same evaluator — but for a comparison
//! with a number on a number column, which compares the packed offsets
//! where they lie with bounds made once per block, exact as
//! `compare_numbers` orders. Scans beside an index and without one both
//! run it, so it is also what answers an indexed clause on a sealed
//! block.

use crate::collection::{Plan, BLOCK_IDS};
use crate::filter::{Clause, Test};
use crate::telemetry::telemetry;
use crate::value::{f64_within, integer, integer_above, integer_below, DocId};
use serde_json::{Map, Number, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// What every reader of a document needs: one top-level member by name,
/// borrowed for as long as the document's values live (`'v`) — or, for a
/// number a sealed block keeps packed, made on the spot.
pub(crate) trait Doc<'v> {
    /// The top-level member `key`, if the document has it.
    fn member(&self, key: &str) -> Option<Cow<'v, Value>>;

    /// The value at a dotted `path`: the first segment is the document's
    /// to resolve, the rest walk the `Value` found there.
    fn at(&self, path: &str) -> Option<Cow<'v, Value>> {
        let (head, rest) = split_head(path);
        descend(self.member(head)?, rest)
    }
}

/// A path's first segment, and the segments after it if it has any.
pub(crate) fn split_head(path: &str) -> (&str, Option<&str>) {
    match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    }
}

/// The value at the segments `rest` of `value`, if it has one.
fn walk<'a>(mut value: &'a Value, rest: Option<&str>) -> Option<&'a Value> {
    for segment in rest.into_iter().flat_map(|rest| rest.split('.')) {
        value = value.as_object()?.get(segment)?;
    }
    Some(value)
}

/// [`walk`], from a value that may have been made on the spot: such a
/// value is a number, which has no members.
fn descend<'a>(value: Cow<'a, Value>, rest: Option<&str>) -> Option<Cow<'a, Value>> {
    match (value, rest) {
        (value, None) => Some(value),
        (Cow::Borrowed(value), rest) => walk(value, rest).map(Cow::Borrowed),
        (Cow::Owned(_), Some(_)) => None,
    }
}

impl<'v> Doc<'v> for &'v Value {
    fn member(&self, key: &str) -> Option<Cow<'v, Value>> {
        let value: &'v Value = self;
        value.as_object()?.get(key).map(Cow::Borrowed)
    }
}

/// A key set: member names in `str` order, and their JSON text.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Shared with the registry, which finds the shape by them.
    keys: Arc<[String]>,
    /// Rows of this shape: one made by [`Row::from_map`] counts until it
    /// is handed to [`Shapes::release`], open or sealed — sealing and
    /// unsealing move rows, they neither make nor end one. Only the
    /// collection's lock moves it; atomic because the shape is shared.
    rows: AtomicUsize,
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
            rows: AtomicUsize::new(0),
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
fn slot_in(keys: &[String], key: &str) -> Option<usize> {
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
    /// no other row uses it.
    pub(crate) fn release(&mut self, row: Row) {
        let shape = &row.shape;
        if shape.rows.fetch_sub(1, Relaxed) == 1
            && self
                .0
                .get(&shape.keys)
                .is_some_and(|known| Arc::ptr_eq(known, shape))
        {
            self.0.remove(&shape.keys);
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

/// One stored document, open: its shape and, in shape order, its values.
#[derive(Debug)]
pub(crate) struct Row {
    shape: Arc<Shape>,
    values: Box<[Value]>,
}

impl Row {
    /// Takes `map` apart into a row. With an `id`, `_id` is spliced in at
    /// its sorted place (replacing a caller-supplied one) on the way, so
    /// the map is never re-balanced for it. `like` is a guess at the
    /// shape — the collection's newest: while the members follow it, as a
    /// stream's do, their keys are dropped without being collected or
    /// looked up. The row counts in its shape's rows from here on.
    pub(crate) fn from_map(
        map: Map<String, Value>,
        id: Option<DocId>,
        like: Option<&Arc<Shape>>,
        shapes: &mut Shapes,
    ) -> Row {
        let len = map.len() + usize::from(id.is_some());
        let mut guess = like;
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
        shape.rows.fetch_add(1, Relaxed);
        Row {
            shape,
            values: values.into_boxed_slice(),
        }
    }

    /// The shape: what the next row's [`from_map`](Self::from_map) guesses.
    pub(crate) fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// The member names, in `str` order: the list the registry shares.
    pub(crate) fn keys(&self) -> &Arc<[String]> {
        &self.shape.keys
    }

    /// The member values, in the order of [`keys`](Self::keys).
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at dotted `path`, whose first segment is member `slot`
    /// of this row's shape (as [`IndexSlots`] resolved it).
    pub(crate) fn at_slot(&self, slot: Option<usize>, path: &str) -> Option<&Value> {
        walk(self.values.get(slot?)?, split_head(path).1)
    }
}

/// The collection's index paths, their first segments resolved against
/// the shape of the row last indexed: an insert into a stream of one
/// shape looks no member up by name. Unlike a query's [`KeySlots`], which
/// borrows its key lists, this outlives every borrow of the collection, so
/// it holds the shape itself — an address it remembered could otherwise
/// be a later shape's. Made anew whenever the set of indexes changes.
#[derive(Debug, Default)]
pub(crate) struct IndexSlots {
    shape: Option<Arc<Shape>>,
    slots: Vec<Option<usize>>,
}

impl IndexSlots {
    /// Where each of `paths` — the indexes', in order — starts in `shape`.
    pub(crate) fn resolve<'p>(
        &mut self,
        shape: &Arc<Shape>,
        paths: impl Iterator<Item = &'p str>,
    ) -> &[Option<usize>] {
        if !self
            .shape
            .as_ref()
            .is_some_and(|known| Arc::ptr_eq(known, shape))
        {
            self.slots.clear();
            self.slots
                .extend(paths.map(|path| shape.slot(split_head(path).0)));
            self.shape = Some(Arc::clone(shape));
        }
        &self.slots
    }
}

/// Members with at most this many distinct values in a sealed block keep
/// them in a dictionary; a code is one byte. Four under test, where a
/// block is eight rows, so that both kinds of column occur there.
const DICTIONARY_MAX: usize = if cfg!(test) { 4 } else { 255 };

/// One member of a sealed block, in `_id` order.
#[derive(Debug)]
enum Column {
    /// Each distinct value once, in the order first met, and per row the
    /// position of its own.
    Dictionary {
        values: Box<[Value]>,
        codes: Box<[u8]>,
    },
    /// Numbers of one [`Kind`], packed, and null.
    Numbers(Numbers),
    /// Every row's value.
    Values(Box<[Value]>),
}

impl Column {
    /// The value at row `at`: a number is made from its offset.
    fn get(&self, at: usize) -> Cow<'_, Value> {
        match self {
            Column::Dictionary { values, codes } => Cow::Borrowed(&values[usize::from(codes[at])]),
            Column::Numbers(numbers) => numbers
                .get(at)
                .map_or(Cow::Borrowed(&Value::Null), Cow::Owned),
            Column::Values(values) => Cow::Borrowed(&values[at]),
        }
    }
}

/// What the words of a number column are — the word of a number is its
/// offset plus the column's base. Each kind gives back the very `Number`
/// a word was made from: an integer its sign and digits, a float its bits
/// (`-0.0` stays `-0.0`, and `1.0` never meets `1`).
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Integers that all fit an `i64`, as one.
    Int,
    /// Integers none of them negative, some beyond `i64::MAX`, as `u64`s.
    UInt,
    /// Floats, as their bits.
    Float,
}

impl Kind {
    // What a member's values have been, as flags [`Kind::of`] reads: null;
    // an integer both an `i64` and a `u64` hold, one only a `u64` holds,
    // one only an `i64` holds; a float; anything else.
    const NULL: u8 = 1;
    const SMALL: u8 = 2;
    const NEGATIVE: u8 = 4;
    const HUGE: u8 = 8;
    const FLOAT: u8 = 16;
    const OTHER: u8 = 32;

    /// What `value` adds to a member's [`Kind::of`] flags.
    fn flag(value: &Value) -> u8 {
        let Value::Number(n) = value else {
            return if value.is_null() {
                Kind::NULL
            } else {
                Kind::OTHER
            };
        };
        match (n.as_u64(), n.as_i64()) {
            (Some(_), Some(_)) => Kind::SMALL,
            (Some(_), None) => Kind::HUGE,
            (None, Some(_)) => Kind::NEGATIVE,
            (None, None) => Kind::FLOAT,
        }
    }

    /// The kind that holds every number of a member whose values set
    /// `flags`, if one does and they are all numbers or null.
    fn of(flags: u8) -> Option<Kind> {
        match flags & !Kind::NULL {
            Kind::FLOAT => Some(Kind::Float),
            0 => None,
            numbers if numbers & (Kind::FLOAT | Kind::OTHER) != 0 => None,
            integers if integers & Kind::HUGE == 0 => Some(Kind::Int),
            integers if integers & Kind::NEGATIVE == 0 => Some(Kind::UInt),
            _ => None,
        }
    }

    /// `value`'s word, or `None` for null.
    fn word(self, value: &Value) -> Option<u64> {
        let Value::Number(n) = value else {
            return None;
        };
        match self {
            Kind::Int => n.as_i64().map(i64::cast_unsigned),
            Kind::UInt => n.as_u64(),
            Kind::Float => n.as_f64().map(f64::to_bits),
        }
    }

    /// The number `word` was made from.
    fn value(self, word: u64) -> Value {
        match self {
            Kind::Int => Value::from(word.cast_signed()),
            Kind::UInt => Value::from(word),
            Kind::Float => Value::from(f64::from_bits(word)),
        }
    }

    /// The integer an integer kind's `word` stands for.
    fn integer(self, word: u64) -> i128 {
        match self {
            Kind::Int => word.cast_signed().into(),
            Kind::UInt | Kind::Float => word.into(),
        }
    }

    /// The numbers of this kind that `test` holds for, if it holds for
    /// numbers alone ([`Test::numbers`]): then it holds for a row exactly
    /// when the row's number is within, and never for a null. One closed
    /// interval, as [`compare_numbers`] orders them; `None` also for a
    /// number no `f64` is near.
    ///
    /// [`compare_numbers`]: crate::value::compare_numbers
    fn within(self, test: &Test) -> Option<Words> {
        let (lo, hi) = test.numbers()?;
        Some(match self {
            Kind::Int | Kind::UInt => Words::Integers(
                lo.map_or(Some(i128::MIN), |(n, inclusive)| {
                    integer_above(n, inclusive)
                })?,
                hi.map_or(Some(i128::MAX), |(n, inclusive)| {
                    integer_below(n, inclusive)
                })?,
            ),
            Kind::Float => Words::Float(f64_within(lo, hi)?),
        })
    }
}

/// A number column's offsets, one per row that is not null, in the
/// narrowest width that holds the largest. Each is made with room for
/// every offset, so it is never grown.
#[derive(Debug)]
enum Offsets {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// `$body`, with `$offsets` the slice of an [`Offsets`] of any width.
macro_rules! each_width {
    ($of:expr, $offsets:ident => $body:expr) => {
        match $of {
            Offsets::U8($offsets) => $body,
            Offsets::U16($offsets) => $body,
            Offsets::U32($offsets) => $body,
            Offsets::U64($offsets) => $body,
        }
    };
}

impl Offsets {
    /// Room for `len` offsets, none above `span`.
    fn with_capacity(len: usize, span: u64) -> Offsets {
        if span <= u8::MAX.into() {
            Offsets::U8(Vec::with_capacity(len))
        } else if span <= u16::MAX.into() {
            Offsets::U16(Vec::with_capacity(len))
        } else if span <= u32::MAX.into() {
            Offsets::U32(Vec::with_capacity(len))
        } else {
            Offsets::U64(Vec::with_capacity(len))
        }
    }

    /// Appends `offset`, which the width holds.
    fn push(&mut self, offset: u64) {
        debug_assert!(offset <= self.max(), "{offset} in {self:?}");
        match self {
            Offsets::U8(offsets) => offsets.push(offset as u8),
            Offsets::U16(offsets) => offsets.push(offset as u16),
            Offsets::U32(offsets) => offsets.push(offset as u32),
            Offsets::U64(offsets) => offsets.push(offset),
        }
    }

    /// The offset at `position`.
    fn get(&self, position: usize) -> u64 {
        each_width!(self, offsets => widen(offsets[position]))
    }

    /// The largest offset the width holds.
    fn max(&self) -> u64 {
        match self {
            Offsets::U8(_) => u8::MAX.into(),
            Offsets::U16(_) => u16::MAX.into(),
            Offsets::U32(_) => u32::MAX.into(),
            Offsets::U64(_) => u64::MAX,
        }
    }
}

/// The numbers of a sealed block's member that holds only numbers of one
/// [`Kind`] and null. Only the rows that are not null have a number, in
/// row order; each is kept as its offset from `base` in the narrowest
/// width that holds the largest ([`Offsets`]: frame-of-reference
/// coding). The null rows map a row to its offset's position.
#[derive(Debug)]
struct Numbers {
    kind: Kind,
    /// The word of the block's smallest integer; 0 for floats, whose
    /// offsets are their bits.
    base: u64,
    offsets: Offsets,
    nulls: Option<Box<Nulls>>,
}

impl Numbers {
    /// Room for the numbers of a block of `kind`, whose integers run from
    /// `least` to `most` and whose null rows are `nulls`.
    fn with_room(kind: Kind, least: i128, most: i128, nulls: Picked) -> Numbers {
        // An integer kind's integers are all `i64`s or all `u64`s: the low
        // 64 bits of the least are its word, and `most - least` fits.
        let (base, span) = match kind {
            Kind::Int | Kind::UInt => (least as u64, (most - least) as u64),
            Kind::Float => (0, u64::MAX),
        };
        let len = BLOCK_IDS as usize - nulls.len();
        Numbers {
            kind,
            base,
            offsets: Offsets::with_capacity(len, span),
            nulls: (!nulls.is_empty()).then(|| Box::new(Nulls::new(nulls))),
        }
    }

    /// Takes the next row's value, which is a number of the column's kind
    /// or null.
    fn take(&mut self, value: &Value) {
        match self.kind.word(value) {
            Some(word) => self.offsets.push(word.wrapping_sub(self.base)),
            None => debug_assert!(value.is_null(), "{value} in a {:?} column", self.kind),
        }
    }

    /// The number in row `at`, or `None` for a null row.
    fn get(&self, at: usize) -> Option<Value> {
        let position = match &self.nulls {
            Some(nulls) => nulls.rank(at)?,
            None => at,
        };
        let word = self.base.wrapping_add(self.offsets.get(position));
        Some(self.kind.value(word))
    }

    /// Drops from `picked` the null rows and those whose number is not
    /// `within`, comparing the offsets where they lie with bounds made
    /// once: an integer interval turns into an interval of offsets —
    /// exactly, in `i128`, and clamped to what the width holds.
    fn keep(&self, within: Words, picked: &mut Picked) {
        let nulls = self.nulls.as_deref();
        match within {
            Words::Integers(lo, hi) => {
                let from = self.kind.integer(self.base);
                let lo = lo.saturating_sub(from).max(0);
                let hi = hi.saturating_sub(from).min(self.offsets.max().into());
                if lo > hi {
                    *picked = Picked::none();
                    return;
                }
                each_width!(&self.offsets, offsets => keep_between(offsets, nulls, picked, lo, hi));
            }
            Words::Float((lo, hi)) => {
                let base = self.base;
                each_width!(&self.offsets, offsets => keep_each(offsets, nulls, picked, |offset| {
                    let x = f64::from_bits(base.wrapping_add(widen(offset)));
                    (lo <= x) & (x <= hi)
                }));
            }
        }
    }
}

/// An offset of any width, as a `u64`.
fn widen(offset: impl Into<u64>) -> u64 {
    offset.into()
}

/// Drops from `picked` the null rows and those whose offset is not within
/// `lo..=hi`, which the width `T` holds.
fn keep_between<T>(offsets: &[T], nulls: Option<&Nulls>, picked: &mut Picked, lo: i128, hi: i128)
where
    T: Copy + PartialOrd + TryFrom<i128>,
{
    match (T::try_from(lo), T::try_from(hi)) {
        (Ok(lo), Ok(hi)) => keep_each(offsets, nulls, picked, |offset| {
            (lo <= offset) & (offset <= hi)
        }),
        _ => *picked = Picked::none(),
    }
}

/// Drops from `picked` the null rows, and the rows whose offset — the
/// next of `offsets` for each row that is not null, in order — `holds` is
/// false for, asking for every row of each 64 with one still in.
fn keep_each<T: Copy>(
    offsets: &[T],
    nulls: Option<&Nulls>,
    picked: &mut Picked,
    holds: impl Fn(T) -> bool,
) {
    let Some(nulls) = nulls else {
        picked.and_each(offsets, holds);
        return;
    };
    let mut next = 0;
    for ((word, all), null) in picked.0.iter_mut().zip(Picked::all().0).zip(nulls.rows.0) {
        let present = all & !null;
        let count = present.count_ones() as usize;
        if *word != 0 {
            let mut rest = present;
            let mut kept = 0;
            for &offset in &offsets[next..next + count] {
                kept |= u64::from(holds(offset)) << rest.trailing_zeros();
                rest &= rest - 1;
            }
            *word &= kept;
        }
        next += count;
    }
}

/// A number column's null rows, and how many of them come before each
/// word of the bitmap: a row's offset lies at the row less the null rows
/// before it (a rank by popcount).
#[derive(Debug)]
struct Nulls {
    rows: Picked,
    before: [u16; WORDS],
}

impl Nulls {
    fn new(rows: Picked) -> Nulls {
        let mut before = [0; WORDS];
        let mut count = 0;
        for (before, word) in before.iter_mut().zip(rows.0) {
            *before = count;
            count += word.count_ones() as u16;
        }
        Nulls { rows, before }
    }

    /// The position of row `at`'s offset, or `None` if the row is null.
    fn rank(&self, at: usize) -> Option<usize> {
        let (word, bit) = (self.rows.0[at / 64], at % 64);
        if word >> bit & 1 != 0 {
            return None;
        }
        let below = (word & ((1 << bit) - 1)).count_ones() as usize;
        Some(at - usize::from(self.before[at / 64]) - below)
    }
}

/// The numbers of a number column that one comparison with a number
/// keeps: a closed interval of integers — exact, whatever the column's
/// [`Kind`] holds — or of floats.
#[derive(Debug, Clone, Copy)]
enum Words {
    Integers(i128, i128),
    Float((f64, f64)),
}

/// One member's dictionary while its block is sealed: a code per row —
/// the position of its value among the distinct values, in the order met
/// — and the row each distinct value was first met in, until more than
/// [`DICTIONARY_MAX`] are distinct (then `codes` is `None`, and from then
/// on the coder notes what a number column needs of every value met:
/// [`Coder::see`]). A value is looked up by an identity hash in a table
/// twice the dictionary's size, after a check against the row before
/// (what repeats, repeats in runs). The hash is not keyed, but the table
/// holds at most [`DICTIONARY_MAX`] values: values crafted to collide
/// cost at most that many comparisons each.
struct Coder {
    /// By hash: the row a distinct value was first met in.
    table: [u16; 1 << Coder::BITS],
    codes: Option<Vec<u8>>,
    firsts: Vec<u16>,
    /// The [`Kind::flag`]s of the values seen, the least and the greatest
    /// integer among them, and the rows they were null in.
    kinds: u8,
    least: i128,
    most: i128,
    nulls: Picked,
}

impl Coder {
    const BITS: u32 = 9;
    const EMPTY: u16 = u16::MAX;

    fn new() -> Coder {
        Coder {
            table: [Coder::EMPTY; 1 << Coder::BITS],
            codes: Some(Vec::with_capacity(BLOCK_IDS as usize)),
            firsts: Vec::with_capacity(DICTIONARY_MAX),
            kinds: 0,
            least: i128::MAX,
            most: i128::MIN,
            nulls: Picked::none(),
        }
    }

    /// Notes `value`, the member's value in row `at`.
    fn see(&mut self, at: usize, value: &Value) {
        self.kinds |= Kind::flag(value);
        match value {
            Value::Number(n) => {
                if let Some(n) = integer(n) {
                    self.least = self.least.min(n);
                    self.most = self.most.max(n);
                }
            }
            Value::Null => self.nulls.add(at),
            _ => {}
        }
    }

    /// Codes `value`, the member's value in row `at`; `met(row)` is its
    /// value in an earlier row.
    fn code<'v>(&mut self, at: usize, value: &Value, met: impl Fn(usize) -> &'v Value) {
        let Some(codes) = &mut self.codes else {
            self.see(at, value);
            return;
        };
        if let Some(&code) = codes.last().filter(|_| identical(value, met(at - 1))) {
            codes.push(code);
            return;
        }
        let mut slot = (identity_hash(value) >> (64 - Coder::BITS)) as usize;
        let code = loop {
            match self.table[slot] {
                Coder::EMPTY if self.firsts.len() == DICTIONARY_MAX => break None,
                Coder::EMPTY => {
                    self.table[slot] = at as u16;
                    self.firsts.push(at as u16);
                    break Some(self.firsts.len() as u8 - 1);
                }
                first if identical(met(usize::from(first)), value) => {
                    break Some(codes[usize::from(first)]);
                }
                _ => slot = (slot + 1) % self.table.len(),
            }
        };
        match code {
            Some(code) => codes.push(code),
            None => {
                self.codes = None;
                for earlier in 0..at {
                    self.see(earlier, met(earlier));
                }
                self.see(at, value);
            }
        }
    }
}

/// A number's bits as a float: identical numbers share them (as do a
/// few that are not, `1` and `1.0`, which `==` tells apart).
fn number_bits(n: &Number) -> u64 {
    n.as_f64().map_or(0, f64::to_bits)
}

/// Whether `a` and `b` are one value to the letter — `write_json` prints
/// them alike. `Value`'s `==` is not that: it takes `-0.0` for `0.0`.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y && number_bits(x) == number_bits(y),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| identical(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            let same = |((kx, vx), (ky, vy)): ((&String, &Value), (&String, &Value))| {
                kx == ky && identical(vx, vy)
            };
            x.len() == y.len() && x.iter().zip(y.iter()).all(same)
        }
        _ => a == b,
    }
}

/// A hash that [`identical`] values share (arrays and objects hash by
/// their length alone: rare in a column, and still told apart).
fn identity_hash(value: &Value) -> u64 {
    let mix =
        |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    match value {
        Value::Null => mix(1, 0),
        Value::Bool(b) => mix(2, u64::from(*b)),
        Value::Number(n) => mix(3, number_bits(n)),
        Value::String(s) => s
            .as_bytes()
            .chunks(8)
            .fold(mix(4, s.len() as u64), |hash, chunk| {
                let mut word = [0; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                mix(hash, u64::from_le_bytes(word))
            }),
        Value::Array(items) => mix(5, items.len() as u64),
        Value::Object(members) => mix(6, members.len() as u64),
    }
}

/// A column being made: a dictionary's distinct values and codes, a
/// number column, or every value.
enum Making {
    Dictionary(Vec<Value>, Box<[u8]>),
    Numbers(Numbers),
    Values(Vec<Value>),
}

impl Making {
    /// Takes the next row's value, unless a dictionary already holds it.
    fn take(&mut self, value: Value) {
        match self {
            Making::Dictionary(..) => {}
            Making::Numbers(numbers) => numbers.take(&value),
            Making::Values(values) => values.push(value),
        }
    }

    fn done(self) -> Column {
        match self {
            Making::Dictionary(values, codes) => Column::Dictionary {
                values: values.into_boxed_slice(),
                codes,
            },
            Making::Numbers(numbers) => Column::Numbers(numbers),
            Making::Values(values) => Column::Values(values.into_boxed_slice()),
        }
    }
}

/// A full block of rows of one shape, as one [`Column`] per member. Held
/// on the block's summary; counted in the `docstore_blocks_sealed` gauge
/// from [`Sealed::new`] to its drop.
#[derive(Debug)]
pub(crate) struct Sealed {
    shape: Arc<Shape>,
    columns: Box<[Column]>,
}

impl Sealed {
    /// Makes columns of `rows` — a block's [`BLOCK_IDS`], in `_id` order,
    /// each of `shape`. The rows are read twice, row by row: once to code
    /// every member still a dictionary candidate and to note what each
    /// other member holds — the kinds of value, the least and greatest
    /// integer, the null rows — once to move out the distinct values of
    /// the dictionaries, every number of a member that holds numbers of
    /// one [`Kind`] (and null) as an offset ([`Numbers`]), and every
    /// value of the other columns. Nothing is cloned; what no column
    /// keeps — the repeats a dictionary holds once, the numbers now
    /// offsets — goes with the rows.
    ///
    /// Everything is allocated before the first small chunk is freed (a
    /// repeat): glibc merges every small chunk freed since on the next
    /// request of a kilobyte or more, and with a block's repeats in there
    /// that cost the insert path ~250 ns a row, and the parser the chunks
    /// it would have reused.
    pub(crate) fn new(shape: Arc<Shape>, rows: impl Iterator<Item = Row>) -> Sealed {
        let mut rows: Vec<Row> = rows.collect();
        debug_assert_eq!(rows.len() as u64, BLOCK_IDS);
        let mut coders: Vec<Coder> = shape.keys.iter().map(|_| Coder::new()).collect();
        for (at, row) in rows.iter().enumerate() {
            debug_assert!(Arc::ptr_eq(&row.shape, &shape));
            for (member, (coder, value)) in coders.iter_mut().zip(row.values.iter()).enumerate() {
                coder.code(at, value, |earlier| &rows[earlier].values[member]);
            }
        }
        let mut columns: Vec<Making> = coders
            .into_iter()
            .enumerate()
            .map(
                |(member, coder)| match (coder.codes, Kind::of(coder.kinds)) {
                    (Some(codes), _) => {
                        let firsts = coder.firsts.iter().map(|&at| usize::from(at));
                        let values = firsts.map(|at| std::mem::take(&mut rows[at].values[member]));
                        Making::Dictionary(values.collect(), codes.into_boxed_slice())
                    }
                    (None, Some(kind)) => Making::Numbers(Numbers::with_room(
                        kind,
                        coder.least,
                        coder.most,
                        coder.nulls,
                    )),
                    (None, None) => Making::Values(Vec::with_capacity(rows.len())),
                },
            )
            .collect();
        let mut kept = Vec::with_capacity(columns.len());
        for row in rows {
            for (column, value) in columns.iter_mut().zip(row.values.into_vec()) {
                column.take(value);
            }
        }
        kept.extend(columns.into_iter().map(Making::done));
        telemetry().blocks_sealed.inc();
        Sealed {
            shape,
            columns: kept.into_boxed_slice(),
        }
    }

    /// The shape every row of the block has.
    pub(crate) fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// The block as open rows again, in `_id` order: the values copied
    /// out of the columns. The rows were never released, so the shape's
    /// count already holds them.
    pub(crate) fn into_rows(self) -> impl Iterator<Item = Row> {
        (0..BLOCK_IDS as usize).map(move |at| Row {
            shape: Arc::clone(&self.shape),
            values: self
                .columns
                .iter()
                .map(|c| c.get(at).into_owned())
                .collect(),
        })
    }

    /// Hands `visit` the value at dotted `path` of every row that has one
    /// — of a dictionary column, each distinct value once.
    pub(crate) fn each_at(&self, path: &str, mut visit: impl FnMut(&Value)) {
        let (head, rest) = split_head(path);
        let Some(column) = self.shape.slot(head).map(|slot| &self.columns[slot]) else {
            return;
        };
        match column {
            Column::Dictionary { values, .. } => {
                values.iter().filter_map(|v| walk(v, rest)).for_each(visit);
            }
            column => {
                for at in 0..BLOCK_IDS as usize {
                    if let Some(value) = descend(column.get(at), rest) {
                        visit(&value);
                    }
                }
            }
        }
    }

    /// The rows of the block that may satisfy every clause of `plan` on
    /// an undotted path, or `None` if none can. Each reads one member, so
    /// it is decided on that member's column alone, the cheapest first
    /// ([`Step`]): a member the shape lacks, by [`Clause::holds`] once
    /// for the block; an equality with a number or an interval between
    /// numbers on a number column, by comparing each row's packed offset
    /// with bounds made once for the block ([`Numbers::keep`]); a
    /// dictionary column, by a per-code truth table (or, for fewer rows
    /// still in than it has values, per row); any other column, once per
    /// row still in.
    pub(crate) fn pass<'s>(&'s self, plan: &Plan<'s>) -> Option<Picked> {
        let mut steps: Vec<(Step<'_>, &Clause)> = Vec::with_capacity(plan.terms.len());
        let members = plan
            .at(&self.shape.keys)
            .filter(|(term, _)| term.rest.is_none());
        for (term, slot) in members {
            let clause = term.clause;
            let step = match slot.map(|slot| &self.columns[slot]) {
                None => Step::Absent,
                Some(Column::Dictionary { values, codes }) => Step::Codes(values, codes),
                Some(column @ Column::Numbers(numbers)) => {
                    match numbers.kind.within(&clause.test) {
                        Some(within) => Step::Words(within, numbers),
                        None => Step::Rows(column),
                    }
                }
                Some(column) => Step::Rows(column),
            };
            steps.push((step, clause));
        }
        steps.sort_by_key(|(step, _)| step.cost());
        let mut picked = Picked::all();
        for (step, clause) in steps {
            match step {
                Step::Absent if clause.holds(None) => continue,
                Step::Absent => return None,
                Step::Words(within, numbers) => numbers.keep(within, &mut picked),
                Step::Codes(values, codes) if picked.len() < values.len() => {
                    picked.keep(|at| clause.holds(Some(&values[usize::from(codes[at])])));
                }
                Step::Codes(values, codes) => {
                    let mut truth = [false; 256];
                    for (truth, value) in truth.iter_mut().zip(values) {
                        *truth = clause.holds(Some(value));
                    }
                    picked.and_each(codes, |code| truth[usize::from(code)]);
                }
                Step::Rows(column) => picked.keep(|at| clause.holds(Some(&column.get(at)))),
            }
            if picked.is_empty() {
                return None;
            }
        }
        Some(picked)
    }
}

/// How [`Sealed::pass`] decides one conjunct, in the order it does.
enum Step<'c> {
    /// The shape lacks the member.
    Absent,
    /// A compare of a number column's offsets, but for its null rows.
    Words(Words, &'c Numbers),
    /// A dictionary column's values and codes.
    Codes(&'c [Value], &'c [u8]),
    /// Any other column, row by row.
    Rows(&'c Column),
}

impl Step<'_> {
    fn cost(&self) -> u8 {
        match self {
            Step::Absent => 0,
            Step::Words(..) => 1,
            Step::Codes(..) => 2,
            Step::Rows(_) => 3,
        }
    }
}

/// Where a query's path heads lie in the key list last met, by its
/// address: the block summaries, the column pass and the re-check of a
/// scan over one key set resolve them once, not once per block or row.
/// Cells, so that every stage of a read shares the one memo.
#[derive(Debug)]
pub(crate) struct KeySlots<'k> {
    keys: Cell<Option<&'k [String]>>,
    slots: Box<[Cell<Option<usize>>]>,
}

impl<'k> KeySlots<'k> {
    /// A memo for `heads` heads, resolved against no list yet.
    pub(crate) fn new(heads: usize) -> Self {
        KeySlots {
            keys: Cell::new(None),
            slots: (0..heads).map(|_| Cell::new(None)).collect(),
        }
    }

    /// The slots in `keys` of `heads`, in order (`None`: `keys` lacks
    /// one), as resolved when `keys` was last met.
    pub(crate) fn of<'m>(
        &self,
        keys: &'k [String],
        heads: impl Iterator<Item = &'m str>,
    ) -> &[Cell<Option<usize>>] {
        let known = self.keys.get();
        if !known.is_some_and(|known| std::ptr::eq(known, keys)) {
            for (slot, head) in self.slots.iter().zip(heads) {
                slot.set(slot_in(keys, head));
            }
            self.keys.set(Some(keys));
        }
        &self.slots
    }
}

#[cfg(test)]
impl Sealed {
    /// The bytes an offset takes, for each column that keeps numbers
    /// packed.
    pub(crate) fn offset_widths(&self) -> impl Iterator<Item = usize> + '_ {
        self.columns.iter().filter_map(|column| match column {
            Column::Numbers(numbers) => Some(each_width!(&numbers.offsets, offsets => {
                std::mem::size_of_val(&offsets[0])
            })),
            _ => None,
        })
    }
}

impl Drop for Sealed {
    fn drop(&mut self) {
        telemetry().blocks_sealed.dec();
    }
}

/// Words of a [`Picked`].
const WORDS: usize = (BLOCK_IDS as usize).div_ceil(64);

/// Rows of a sealed block, as one bit per row in `_id` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Picked([u64; WORDS]);

impl Picked {
    /// Every row of a block.
    fn all() -> Picked {
        let mut words = [u64::MAX; WORDS];
        if !BLOCK_IDS.is_multiple_of(64) {
            words[WORDS - 1] = (1u64 << (BLOCK_IDS % 64)) - 1;
        }
        Picked(words)
    }

    /// No row of a block.
    fn none() -> Picked {
        Picked([0; WORDS])
    }

    /// Adds row `at`.
    fn add(&mut self, at: usize) {
        self.0[at / 64] |= 1 << (at % 64);
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    /// How many rows are in.
    fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Drops the rows whose entry in `column` — one per row of the block,
    /// in order — `holds` is false for, asking for every row of each 64
    /// with one still in: a table lookup or a compare, cheaper than
    /// finding the rows still in.
    fn and_each<T: Copy>(&mut self, column: &[T], holds: impl Fn(T) -> bool) {
        for (word, rows) in self.0.iter_mut().zip(column.chunks(64)) {
            if *word != 0 {
                let kept = rows.iter().enumerate();
                *word &= kept.fold(0, |bits, (at, &row)| bits | u64::from(holds(row)) << at);
            }
        }
    }

    /// Drops the rows `holds` is false for, asking only for rows still in.
    fn keep(&mut self, mut holds: impl FnMut(usize) -> bool) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                if !holds(w * 64 + bit as usize) {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// The rows in, ascending.
    pub(crate) fn rows(self) -> impl Iterator<Item = usize> {
        (0..WORDS).flat_map(move |w| {
            let mut rest = self.0[w];
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(w * 64 + bit as usize)
            })
        })
    }
}

/// A stored row as every reader sees it: an open [`Row`], or a row of a
/// [`Sealed`] block by its offset there. Either way it lends out the
/// `Value`s it holds for as long as the collection is borrowed, and makes
/// those of a sealed number column from their offsets.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowRef<'a> {
    Open(&'a Row),
    Sealed(&'a Sealed, usize),
}

impl<'a> From<&'a Row> for RowRef<'a> {
    fn from(row: &'a Row) -> Self {
        RowRef::Open(row)
    }
}

impl<'a> RowRef<'a> {
    fn shape(self) -> &'a Shape {
        match self {
            RowRef::Open(row) => &row.shape,
            RowRef::Sealed(sealed, _) => &sealed.shape,
        }
    }

    /// The member names, in `str` order: the shape's list.
    pub(crate) fn keys(self) -> &'a [String] {
        &self.shape().keys
    }

    /// The value of member `slot` of the shape.
    fn value(self, slot: usize) -> Cow<'a, Value> {
        match self {
            RowRef::Open(row) => Cow::Borrowed(&row.values[slot]),
            RowRef::Sealed(sealed, at) => sealed.columns[slot].get(at),
        }
    }

    /// The value at the segments `rest` of member `slot`, if there is one.
    pub(crate) fn at_slot(self, slot: Option<usize>, rest: Option<&str>) -> Option<Cow<'a, Value>> {
        descend(self.value(slot?), rest)
    }

    /// The member values, in shape order.
    fn values(self) -> impl Iterator<Item = Cow<'a, Value>> {
        (0..self.shape().keys.len()).map(move |slot| self.value(slot))
    }

    /// The document as a `Value`: what `find`, `get` and `all` return.
    pub(crate) fn to_value(self) -> Value {
        let keys = &self.shape().keys;
        let blank = self.shape().blank.get_or_init(|| {
            let members = keys.iter().map(|key| (key.clone(), Value::Null));
            members.collect()
        });
        let mut map = blank.clone();
        for (key, value) in keys.iter().zip(self.values()) {
            if let Some(member) = map.get_mut(key) {
                *member = value.into_owned();
            }
        }
        Value::Object(map)
    }

    /// Appends the document's compact JSON text — byte for byte what
    /// `to_value().to_string()` gives (see the module docs).
    pub(crate) fn write_json(self, out: &mut String) {
        let shape = self.shape();
        out.push('{');
        let mut start = 0;
        for (&end, value) in shape.ends.iter().zip(self.values()) {
            out.push_str(&shape.json[start..end]);
            value.write_json(out);
            start = end;
        }
        out.push('}');
    }
}

impl<'a> Doc<'a> for RowRef<'a> {
    fn member(&self, key: &str) -> Option<Cow<'a, Value>> {
        Some(self.value(self.shape().slot(key)?))
    }
}
