//! The shape registry — and the block summaries beside it — are bounded
//! by the live documents: a test of its own, in a process of its own,
//! because `docstore_row_shapes` is one gauge (and the block counters one
//! pair) for the whole process and this reads them exactly.

use mps_docstore::{Filter, Store, Update};
use mps_telemetry::Registry;
use serde_json::{json, Map, Value};

fn shapes() -> i64 {
    Registry::global()
        .gauge_value("docstore_row_shapes")
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
fn shapes_live_exactly_as_long_as_their_rows() {
    let store = Store::new();
    let c = store.collection("obs");

    // A stream that never repeats a key set: one shape per document
    // while they live, none once they are gone.
    c.insert_many((0..1_000).map(|i| {
        let mut doc = Map::new();
        doc.insert(format!("k{i}"), Value::from(i));
        Value::Object(doc)
    }))
    .unwrap();
    assert_eq!(shapes(), 1_000);
    assert_eq!(c.delete_many(&Filter::eq("k7", 7)).unwrap(), 1);
    assert_eq!(shapes(), 999);
    assert_eq!(c.delete_many(&Filter::True).unwrap(), 999);
    assert_eq!(shapes(), 0);

    // One key set, however many documents: one shape.
    c.insert_many((0..1_000).map(|i| json!({"v": i, "m": "a"})))
        .unwrap();
    assert_eq!(shapes(), 1);

    // An update moves documents between shapes; the one left empty goes.
    c.update_many(&Filter::lt("v", 10), &Update::set("flag", true))
        .unwrap();
    assert_eq!(shapes(), 2);
    c.update_many(&Filter::gte("v", 10), &Update::set("flag", false))
        .unwrap();
    assert_eq!(shapes(), 1);

    // `clear` forgets them all, and so does dropping the collection —
    // once the last handle to it is gone.
    store
        .collection("other")
        .insert_one(json!({"x": 1}))
        .unwrap();
    assert_eq!(shapes(), 2);
    c.clear().unwrap();
    assert_eq!(shapes(), 1);
    c.insert_one(json!({"v": 1})).unwrap();
    store.drop_collection("obs").unwrap();
    assert_eq!(shapes(), 2, "a live handle keeps the dropped collection");
    drop(c);
    assert_eq!(shapes(), 1);
    drop(store);
    assert_eq!(shapes(), 0);

    // Block summaries are bounded alike. A block (1 024 ids) that meets
    // more than a few key sets stops telling them apart: it is visited
    // whatever is asked, and keeps nothing per key set. Its summary goes
    // with its last row; the rows that come next start a fresh one.
    let store = Store::new();
    let c = store.collection("obs");
    let nowhere = Filter::eq("nowhere", 1);
    let scanned = || {
        let before = blocks();
        assert_eq!(c.count(&nowhere).unwrap(), 0);
        let after = blocks();
        (after.0 - before.0, after.1 - before.1)
    };
    c.insert_many((0..1_000).map(|i| {
        let mut doc = Map::new();
        doc.insert(format!("k{i}"), Value::from(i));
        Value::Object(doc)
    }))
    .unwrap();
    assert_eq!(scanned(), (1, 0), "no longer summarised: visited");
    assert_eq!(c.delete_many(&Filter::True).unwrap(), 1_000);
    assert_eq!(shapes(), 0);
    assert_eq!(scanned(), (0, 0), "no summary outlives its rows");
    c.insert_many((0..10).map(|i| json!({"v": i}))).unwrap();
    assert_eq!(scanned(), (0, 1), "one key set has no such member: skipped");
    c.clear().unwrap();
    assert_eq!(scanned(), (0, 0));
}
