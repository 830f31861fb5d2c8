//! The shape registry is bounded by the live documents: a test of its
//! own, in a process of its own, because `docstore_row_shapes` is one gauge
//! for the whole process and this reads it exactly.

use mps_docstore::{Filter, Store, Update};
use mps_telemetry::Registry;
use serde_json::{json, Map, Value};

fn shapes() -> i64 {
    Registry::global()
        .gauge_value("docstore_row_shapes")
        .unwrap_or(0)
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
    assert_eq!(c.delete_many(&Filter::exists("k7", true)).unwrap(), 1);
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
}
