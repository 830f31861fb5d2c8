//! Live heap bytes per stored observation, as the allocator counts them:
//! 100 000 generated observations written by GoFlow's
//! `ObservationRecord::to_document` and inserted in batches of 16 into
//! one collection, without indexes and with the ones GoFlow creates; the
//! difference is what the indexes cost, which for a stream is nothing: its
//! documents land in columns, which no index holds. Deterministic — no
//! `/proc`, no timing — because the allocator is this binary's own and
//! counts the bytes asked for (`counting`); run with `--nocapture` for
//! the numbers. The same count at 1 000 000 documents, the scale the
//! residency target is stated at, is `#[ignore]`d (run it with
//! `--release -- --ignored`). A collection of one batch is weighed too:
//! what a block holds before it fills.

mod counting;
mod observations;

use mps_docstore::Store;
use mps_goflow::ObservationRecord;
use observations::{observation, Draw};
use std::sync::{Mutex, PoisonError};

/// Held by each count: the live bytes are the whole process's, so two
/// counts run side by side (`--include-ignored`) would each see the
/// other's bytes.
static COUNTING: Mutex<()> = Mutex::new(());

const BATCH: u64 = 16;

/// Bytes the store holds per document once `docs` are in, with `indexes`.
fn bytes_per_document(docs: u64, indexes: &[&str]) -> f64 {
    let store = Store::new();
    let observations = store.collection("observations");
    for path in indexes {
        observations.create_index(path).expect("an index");
    }
    let mut draw = Draw(1);
    let before = counting::live_bytes();
    for batch in 0..docs / BATCH {
        let docs = (batch * BATCH..(batch + 1) * BATCH).map(|i| observation(&mut draw, i));
        observations.insert_many(docs).expect("stored");
    }
    let held = counting::live_bytes() - before;
    assert_eq!(observations.len() as u64, docs);
    held as f64 / docs as f64
}

/// Registers the process's telemetry, on first use: not the store's.
fn warm_up() {
    Store::new()
        .collection("warm-up")
        .insert_one(observation(&mut Draw(0), 0))
        .expect("stored");
}

/// Counts `docs` documents without and with GoFlow's indexes, prints the
/// three numbers and holds each to its budget.
fn holds_few_bytes(docs: u64) {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    warm_up();
    let plain = bytes_per_document(docs, &[]);
    let goflow: Vec<_> = ObservationRecord::indexed().collect();
    let indexed = bytes_per_document(docs, &goflow);
    let index = indexed - plain;
    let goflow = goflow.join("/");
    println!("resident bytes per document over {docs} documents: {plain:.1} without indexes, {indexed:.1} with {goflow} indexed, {index:.1} of them the indexes'");
    // Sealed, an observation's nine repetitive members are 1-byte codes,
    // and its ten numeric ones are packed per block: each integer as its
    // offset from the block's smallest in 1, 2, 4 or 8 bytes (the `_id`
    // in 2, the times in 4, the delay in 2, the pseudonyms in 8), each
    // float as 8 bytes, a null as one bit: ~46 bytes of numbers, ~59 in
    // all. The block still filling is columns too, each sized for a whole
    // block as it opens: it adds ~2.7 bytes a document at 100 000, where
    // its rows added ~4. No index holds a document of the stream, so the
    // indexes cost nothing: 59.5 bytes a document with them and without
    // at 100 000, 58.7 at a million.
    assert!(
        plain <= 70.0,
        "{plain:.1} bytes per document without indexes"
    );
    assert!(
        indexed <= 70.0,
        "{indexed:.1} bytes per document with indexes"
    );
    assert!(index <= 4.0, "{index:.1} bytes per document of index");
}

#[test]
fn a_small_collection_holds_one_block_of_room() {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    warm_up();
    let held = bytes_per_document(BATCH, &[]) * BATCH as f64;
    println!("resident bytes of a collection of {BATCH} documents: {held:.0}");
    // Its one block is filling, and each of its 19 columns was sized for
    // a whole block as it opened (room for 255 distinct values and 1 024
    // codes, and a 512-slot table): ~9.7 KB a member, however few
    // documents the collection holds. Bounded, so that the room cannot
    // grow unnoticed.
    assert!(held <= 200_000.0, "{held:.0} bytes for {BATCH} documents");
}

#[test]
fn a_stored_observation_holds_few_bytes() {
    holds_few_bytes(100_000);
}

#[test]
#[ignore = "a million documents: ~8 s in a release build, ten times that in a debug one"]
fn a_million_stored_observations_hold_few_bytes() {
    holds_few_bytes(1_000_000);
}
