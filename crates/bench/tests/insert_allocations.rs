//! The write path's ledger: heap allocations per stored observation, as
//! the allocator counts them. 65 536 generated observations written by
//! GoFlow's `ObservationRecord::to_document` are inserted in batches of 16
//! into one collection, once without indexes and once with the ones
//! GoFlow creates. Each batch is drawn before its count starts, so the
//! count is the store's alone — what `insert_many` asks of the heap, not
//! what making the documents did. Deterministic — no timing; the
//! allocator is this binary's own (`counting`) — so the counts are held
//! exactly; run with `--nocapture` for the numbers. One test, since the
//! counts are the process's.

mod counting;
mod observations;

use mps_docstore::Store;
use mps_goflow::ObservationRecord;
use observations::{observation, Draw};
use serde_json::Value;

/// Documents per count: 64 blocks of 1 024, the last one sealed.
const DOCUMENTS: u64 = 65_536;
const BATCH: u64 = 16;

/// Allocations that inserting `DOCUMENTS` observations makes, with
/// `indexes` defined first.
fn allocations(indexes: &[&str]) -> u64 {
    let store = Store::new();
    let observations = store.collection("observations");
    for path in indexes {
        observations.create_index(path).expect("an index");
    }
    let mut draw = Draw(1);
    let mut counted = 0;
    for batch in 0..DOCUMENTS / BATCH {
        let ids = batch * BATCH..(batch + 1) * BATCH;
        let docs: Vec<Value> = ids.map(|i| observation(&mut draw, i)).collect();
        let before = counting::allocations();
        observations.insert_many(docs).expect("stored");
        counted += counting::allocations() - before;
    }
    assert_eq!(observations.len() as u64, DOCUMENTS);
    counted
}

#[test]
fn an_observation_costs_its_share_of_a_block_and_nothing_per_index() {
    // The process's telemetry registers on first use: not the store's.
    Store::new()
        .collection("warm-up")
        .insert_one(observation(&mut Draw(0), 0))
        .expect("stored");
    let plain = allocations(&[]);
    let goflow: Vec<_> = ObservationRecord::indexed().collect();
    let indexed = allocations(&goflow);
    let per = |count: u64| count as f64 / DOCUMENTS as f64;
    println!(
        "allocations inserting {DOCUMENTS} documents: {plain} without indexes ({:.3} a document), {indexed} with {} indexed ({:.3} a document)",
        per(plain),
        goflow.join("/"),
        per(indexed)
    );
    // A document lands in its block's columns: no row is boxed for it, no
    // index holds it, and a batch's ids reuse the batch's own buffer. What
    // is left is ~70 allocations a block of 1 024: 43 as it opens (two
    // buffers a member, the column list, the dictionary tables, the first
    // document's row), one as each dictionary that overflows becomes a
    // number column and as a number column widens, and 12 as it seals,
    // where a buffer is cut to its rows. Boxed as rows and indexed, as
    // they were before they landed in columns, the same documents made
    // 80 874 and 206 608 (1.234 and 3.153 a document).
    assert_eq!(plain, 4_461, "without indexes");
    assert_eq!(indexed, plain, "with {goflow:?} indexed");
}
