//! A sealed row is the document it was made from, to the byte: read back
//! as a `Value` and written as JSON, before and after its block seals, at
//! the sizes a build uses (a block is 1 024 ids, a dictionary at most 255
//! distinct values), whether a member becomes a dictionary, a number
//! column or a value column. In a process of its own, to read the
//! sealed-block gauge exactly.

use mps_docstore::{DocId, Filter, FindOptions, Store};
use mps_telemetry::Registry;
use serde_json::{json, Value};

/// Values `Value`'s `==` merges or that print alike only by accident:
/// zero and negative zero, an integer and its float, integers one `f64`
/// cannot tell apart, and text that needs every kind of escape.
fn awkward() -> Vec<Value> {
    let two_53 = 9_007_199_254_740_992u64;
    vec![
        json!(-0.0),
        json!(0.0),
        json!(0),
        json!(1),
        json!(1.0),
        json!(two_53),
        json!(two_53 + 1),
        json!(two_53 as f64),
        json!(-1),
        json!(-1.0),
        Value::Null,
        json!(true),
        json!(false),
        json!(""),
        json!("quote \" backslash \\ slash / newline \n tab \t nul \u{0} bell \u{7}"),
        json!("é √ 😀"),
        json!([-0.0, 0.0, 1, 1.0]),
        json!([0.0, -0.0, 1.0, 1]),
        json!({"a": -0.0, "b": [1]}),
        json!({"a": 0.0, "b": [1.0]}),
    ]
}

/// Document `i`'s numbers, more than 255 distinct of each kind, so that
/// each member keeps them packed: integers out to both ends of `i64`;
/// integers none negative, out to the end of `u64`; floats, among them
/// both zeros, integral ones and the smallest normal ones. A null in
/// every member now and then.
fn numbers(i: u64) -> Value {
    let n = i as i64;
    let int = match i % 4 {
        0 => json!(i64::MIN + n),
        1 => json!(-n),
        2 => json!(i64::MAX - n),
        _ => Value::Null,
    };
    let uint = match i % 4 {
        0 => json!(u64::MAX - i),
        1 => json!(i),
        2 => json!((1u64 << 63) + i),
        _ => Value::Null,
    };
    let float = match i % 5 {
        0 => json!(-0.0),
        1 => json!(0.0),
        2 => json!(i as f64 / 8.0),
        3 => json!(-f64::MIN_POSITIVE * i as f64),
        _ => Value::Null,
    };
    json!({"int": int, "uint": uint, "float": float})
}

/// What the counts below compare: comparisons on each kind of number
/// column, its nulls, and its zeros of both signs.
fn number_filters() -> Vec<Filter> {
    let filters = [
        json!({"int": {"$lt": 0}}),
        json!({"int": {"$gte": i64::MAX - 1_000}}),
        json!({"int": null}),
        json!({"uint": {"$gt": 1u64 << 63}}),
        json!({"uint": {"$lte": 512}}),
        json!({"float": 0}),
        json!({"float": {"$gt": 100.0}}),
        json!({"float": {"$lt": 0}}),
        json!({"float": {"$in": [1, 2.5]}}),
        json!({"float": {"$lte": 0}, "uint": {"$gte": 0}}),
    ];
    filters.iter().map(|f| Filter::parse(f).unwrap()).collect()
}

#[test]
fn sealed_rows_read_back_byte_for_byte() {
    let awkward = awkward();
    // `few` holds the awkward values only (a dictionary column); `many`
    // holds them between more than 255 others (a value column); `int`,
    // `uint` and `float` hold numbers of one kind (number columns).
    let docs: Vec<Value> = (0..1_024u64)
        .map(|i| {
            let few = awkward[i as usize % awkward.len()].clone();
            let many = match i % 3 {
                0 => awkward[(i as usize / 3) % awkward.len()].clone(),
                1 => json!(i as f64 / 8.0),
                _ => json!(format!("row \"{i}\"")),
            };
            let mut doc = numbers(i);
            let members = doc.as_object_mut().unwrap();
            members.insert("few".into(), few);
            members.insert("many".into(), many);
            members.insert("same".into(), json!("x"));
            doc
        })
        .collect();
    let store = Store::new();
    let c = store.collection("c");
    c.insert_many(docs.clone()).unwrap();
    let sealed = || {
        Registry::global()
            .gauge_value("docstore_blocks_sealed")
            .unwrap_or(0)
    };
    assert_eq!(sealed(), 0, "the block is full, but not yet passed");

    let texts =
        |values: Vec<Value>| -> Vec<String> { values.iter().map(Value::to_string).collect() };
    let read = || {
        let first = FindOptions::new().limit(1_024);
        (
            texts(c.all()),
            texts(c.find(&Filter::True).unwrap()),
            texts(c.find_with_options(&Filter::True, &first).unwrap()),
            store.export_json(),
        )
    };
    let (all, found, limited, export) = read();
    // A count reads the columns as a filter reads the documents.
    let counts_agree = || {
        let all = c.all();
        for filter in number_filters() {
            let matched = all.iter().filter(|doc| filter.matches(doc)).count();
            assert_eq!(c.count(&filter).unwrap(), matched, "{filter:?}");
        }
    };
    counts_agree();
    let distinct = || c.distinct("float", &Filter::lt("_id", 1_024));
    let floats = distinct();
    let expected: Vec<String> = docs
        .iter()
        .enumerate()
        .map(|(id, doc)| {
            let mut doc = doc.clone();
            doc.as_object_mut().unwrap().insert("_id".into(), json!(id));
            doc.to_string()
        })
        .collect();
    assert_eq!(all, expected);

    // The next insert passes the block, which seals.
    c.insert_one(json!({"few": 0, "many": 0, "same": "x"}))
        .unwrap();
    assert_eq!(sealed(), 1);
    let (all_after, found_after, limited_after, export_after) = read();
    assert_eq!(all_after[..1_024], all[..]);
    assert_eq!(found_after[..1_024], found[..]);
    assert_eq!(limited_after, limited);
    counts_agree();
    assert_eq!(distinct(), floats);
    // The export written from the columns is the one written from the
    // rows, with the new document after them.
    let docs_end = export.find("],\"indexes\"").unwrap();
    assert_eq!(export_after[..docs_end], export[..docs_end]);
    assert!(export_after[docs_end..].starts_with(",{\"_id\":1024,"));
    for (id, text) in expected.iter().enumerate() {
        let doc = c.get(DocId(id as u64)).unwrap();
        assert_eq!(&doc.to_string(), text);
    }
    // And a filter reads the columns as it read the rows: `-0.0` and `0`
    // are equal numbers, `1` and `1.0` too, the two integers are not.
    let count = |filter: Value| c.count(&Filter::parse(&filter).unwrap()).unwrap();
    assert_eq!(count(json!({"few": 0})), 3 * 1_024 / 20 + 3 + 1);
    assert_eq!(count(json!({"few": 9_007_199_254_740_993u64})), 1_024 / 20);
}
