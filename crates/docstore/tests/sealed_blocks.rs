//! Sealed blocks are counted exactly: a test of its own, in a process of
//! its own, because `docstore_blocks_sealed` is one gauge (and
//! `docstore_blocks_unsealed_total` and the scan counters one counter
//! each) for the whole process and this reads them exactly. Outside the
//! crate's own tests a block is 1 024 ids.

use mps_docstore::{Filter, Store, Update};
use mps_telemetry::Registry;
use serde_json::json;

fn sealed() -> i64 {
    Registry::global()
        .gauge_value("docstore_blocks_sealed")
        .unwrap_or(0)
}

fn unsealed() -> u64 {
    Registry::global()
        .counter_value("docstore_blocks_unsealed_total")
        .unwrap_or(0)
}

/// Blocks that scans have visited and skipped so far.
fn blocks() -> (u64, u64) {
    let count = |name: &str| Registry::global().counter_value(name).unwrap_or(0);
    (
        count("docstore_scan_blocks_visited_total"),
        count("docstore_scan_blocks_skipped_total"),
    )
}

#[test]
fn blocks_seal_once_passed_and_unseal_once_written() {
    let store = Store::new();

    // No block is full: nothing seals, though the block fills as columns.
    let few = store.collection("few");
    few.insert_many((0..1_000).map(|i| json!({"i": i, "kind": "a"})))
        .unwrap();
    assert_eq!((sealed(), unsealed()), (0, 0));

    // Four full blocks of one shape: each sealed as its last row arrived,
    // whether or not anything is stored past it.
    let c = store.collection("obs");
    c.insert_many((0..4_096).map(|i| json!({"i": i, "kind": if i < 2_048 { "a" } else { "b" }})))
        .unwrap();
    assert_eq!((sealed(), unsealed()), (4, 0));

    // A count over them: the column pass rules out the two sealed blocks
    // that hold no "b" at all, once per distinct value; the other two are
    // walked.
    let before = blocks();
    assert_eq!(c.count(&Filter::eq("kind", "b")).unwrap(), 2_048);
    let after = blocks();
    assert_eq!((after.0 - before.0, after.1 - before.1), (2, 2));
    assert_eq!(c.count(&Filter::True).unwrap(), 4_096);

    // An update of one row unseals its block, for good; the others stay.
    let changed = c.update_many(&Filter::eq("i", 5), &Update::set("seen", true));
    assert_eq!(changed.unwrap(), 1);
    assert_eq!((sealed(), unsealed()), (3, 1));
    assert_eq!(c.count(&Filter::eq("seen", true)).unwrap(), 1);

    // A delete from a sealed block unseals it as well.
    assert_eq!(c.delete_many(&Filter::eq("i", 1_030)).unwrap(), 1);
    assert_eq!((sealed(), unsealed()), (2, 2));

    // `clear` drops the sealed blocks without unsealing them: the gauge
    // is back to nothing (a block still filling was never in it), the
    // counter keeps what happened.
    c.clear().unwrap();
    assert_eq!((sealed(), unsealed()), (0, 2));

    // Dropping the collection's store drops what it sealed: two full
    // blocks, not the one its last document opened.
    let c = store.collection("again");
    c.insert_many((0..2_048 + 1).map(|i| json!({"i": i})))
        .unwrap();
    assert_eq!(sealed(), 2);
    drop((c, few, store));
    assert_eq!((sealed(), unsealed()), (0, 2));
}
