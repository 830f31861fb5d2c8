//! The stand-ins under `shims/` behave like the crates they stand in for,
//! on the surface the product crates use.
//!
//! Two halves: a JSON corpus (what the parser must accept, reject and
//! write), and round trips of the product's own derived types with the
//! literals `crates/types` asserts in its unit tests — those tests cannot
//! run offline, so the same expectations are held here against the
//! stand-in derive.

use mps_types::{
    Activity, AppId, AppVersion, DeviceId, DeviceModel, GeoPoint, LocationFix, LocationProvider,
    Observation, SensingMode, SimDuration, SimTime, SoundLevel, UserId,
};
use serde_json::{from_slice, from_str, json, to_string, to_vec, Map, Value};

fn parse(text: &str) -> Value {
    from_str(text).unwrap_or_else(|e| panic!("{text:?} should parse: {e}"))
}

fn rejects(text: &str) {
    assert!(
        from_str::<Value>(text).is_err(),
        "{text:?} should be rejected"
    );
}

// ------------------------------------------------------------ JSON corpus

#[test]
fn scalars_and_containers_round_trip_through_text() {
    for text in [
        "null",
        "true",
        "false",
        "0",
        "-1",
        "18446744073709551615",
        "-9223372036854775808",
        "1.5",
        "-0.25",
        "1e-7",
        "1.7976931348623157e308",
        "\"\"",
        "\"plain\"",
        "[]",
        "{}",
        "[1,[2,[3,[]]],{\"a\":{\"b\":null}}]",
        "{\"a\":1,\"b\":[true,false],\"c\":\"x\"}",
    ] {
        let value = parse(text);
        assert_eq!(to_string(&value).unwrap(), text, "writer output for {text}");
        assert_eq!(
            parse(&value.to_string()),
            value,
            "Display round trip for {text}"
        );
    }
}

#[test]
fn whitespace_is_allowed_around_tokens_only() {
    assert_eq!(
        parse(" \t\r\n{ \"a\" : [ 1 , 2 ] } \n"),
        json!({"a": [1, 2]})
    );
    rejects("1 2");
    rejects("{\"a\":1}x");
    rejects("[1,]");
    rejects("{\"a\":1,}");
    rejects("{a:1}");
    rejects("");
    rejects("   ");
    rejects("nul");
    rejects("[1 2]");
    rejects("{\"a\" 1}");
}

#[test]
fn trailing_bytes_after_a_document_are_an_error() {
    assert!(from_slice::<Value>(b"{}").is_ok());
    assert!(from_slice::<Value>(b"{} ").is_ok());
    assert!(from_slice::<Value>(b"{}{}").is_err());
    assert!(from_slice::<Value>(b"{}\0").is_err());
    assert!(from_slice::<Value>(b"\"\xff\"").is_err(), "invalid UTF-8");
}

#[test]
fn number_forms() {
    assert_eq!(parse("0").as_u64(), Some(0));
    assert_eq!(parse("18446744073709551615").as_u64(), Some(u64::MAX));
    assert_eq!(parse("18446744073709551615").as_i64(), None);
    assert_eq!(parse("-9223372036854775808").as_i64(), Some(i64::MIN));
    assert_eq!(parse("-5").as_u64(), None);
    // Beyond 64 bits an integer becomes a float, as in serde_json.
    assert_eq!(
        parse("18446744073709551616").as_f64(),
        Some(18446744073709551616.0)
    );
    assert_eq!(parse("18446744073709551616").as_u64(), None);
    // Float syntax stays a float even when integral.
    assert_eq!(parse("1.0").as_u64(), None);
    assert_eq!(parse("1.0").as_f64(), Some(1.0));
    assert_eq!(parse("1E3").as_f64(), Some(1000.0));
    assert_eq!(parse("1e+3").as_f64(), Some(1000.0));
    assert_eq!(parse("-0").as_f64().map(f64::is_sign_negative), Some(true));
    assert_eq!(parse("62.5").as_f64(), Some(62.5));
    // `1` and `1.0` are different values but the same number.
    assert_ne!(parse("1"), parse("1.0"));
    assert_eq!(parse("1").as_f64(), parse("1.0").as_f64());
    for bad in [
        "01", "-", "+1", "1.", ".5", "1e", "1e+", "0x10", "1e999", "NaN", "Infinity", "--1",
    ] {
        rejects(bad);
    }
}

#[test]
fn non_finite_floats_are_written_as_null() {
    assert_eq!(json!(f64::NAN), Value::Null);
    assert_eq!(Value::from(f64::INFINITY), Value::Null);
    assert_eq!(
        to_string(&json!({"x": f64::NEG_INFINITY})).unwrap(),
        "{\"x\":null}"
    );
}

#[test]
fn string_escapes() {
    assert_eq!(
        parse(r#""\" \\ \/ \b \f \n \r \t""#),
        json!("\" \\ / \u{8} \u{c} \n \r \t")
    );
    assert_eq!(parse(r#""\u0041\u00e9\u20ac""#), json!("Aé€"));
    assert_eq!(
        parse("\"Aé€😀\""),
        json!("Aé€😀"),
        "raw UTF-8 passes through"
    );
    // Written back: quotes, backslashes and control characters escaped,
    // everything else as is.
    assert_eq!(
        to_string(&json!("a\"b\\c\nd\u{1}é😀/")).unwrap(),
        "\"a\\\"b\\\\c\\nd\\u0001é😀/\""
    );
    for bad in [
        "\"unterminated",
        "\"bad \\x escape\"",
        "\"\\u12\"",
        "\"\\u12G4\"",
        "\"raw \u{1} control\"",
        "\"raw \n newline\"",
        "\"\\",
    ] {
        rejects(bad);
    }
}

#[test]
fn surrogate_pairs_join_and_lone_surrogates_are_rejected() {
    assert_eq!(parse(r#""\ud83d\ude00""#), json!("😀"));
    assert_eq!(parse(r#""\uD834\uDD1E""#), json!("𝄞"));
    rejects(r#""\ud83d""#);
    rejects(r#""\ud83d x""#);
    rejects(r#""\ud83d\u0041""#);
    rejects(r#""\ude00""#);
}

#[test]
fn nesting_is_limited_to_128_levels() {
    let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(from_str::<Value>(&nested(128)).is_ok());
    assert!(from_str::<Value>(&nested(129)).is_err());
    let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
    assert!(from_str::<Value>(&objects(128)).is_ok());
    assert!(from_str::<Value>(&objects(129)).is_err());
    // A hostile document fails cleanly instead of overflowing the stack.
    assert!(from_str::<Value>(&"[".repeat(1_000_000)).is_err());
}

#[test]
fn objects_keep_sorted_keys_and_the_last_duplicate() {
    let value = parse("{\"b\":1,\"a\":2,\"b\":3}");
    assert_eq!(to_string(&value).unwrap(), "{\"a\":2,\"b\":3}");
    let keys: Vec<&String> = value.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["a", "b"]);
}

#[test]
fn json_macro_takes_expressions_as_keys_and_values() {
    let op = "$gte";
    let name = String::from("count");
    let docs = [1, 2, 3];
    let missing: Option<&str> = None;
    let value = json!({
        "literal": [1, 2.5, "x", null, true, {"nested": []}],
        op: 40 + 2,
        name.as_str(): docs.len(),
        "option": missing,
        "some": Some(1.5),
        "vec": vec![json!(1), json!("a")],
    });
    assert_eq!(
        to_string(&value).unwrap(),
        "{\"$gte\":42,\"count\":3,\"literal\":[1,2.5,\"x\",null,true,{\"nested\":[]}],\
         \"option\":null,\"some\":1.5,\"vec\":[1,\"a\"]}"
    );
    assert_eq!(json!({}), Value::Object(Map::new()));
    assert_eq!(json!([]), Value::Array(vec![]));
    assert_eq!(json!(null), Value::Null);
}

#[test]
fn value_accessors_and_indexing() {
    let mut value = json!({"a": {"b": [10, 20]}, "s": "text", "n": -3});
    assert_eq!(value["a"]["b"][1], json!(20));
    assert_eq!(value["missing"]["deeper"], Value::Null);
    assert_eq!(value["s"].as_str(), Some("text"));
    assert_eq!(value["n"].as_i64(), Some(-3));
    assert_eq!(value["n"].as_u64(), None);
    assert!(value["a"].is_object() && value["a"]["b"].is_array() && value["zzz"].is_null());
    value
        .as_object_mut()
        .unwrap()
        .entry("new")
        .or_insert_with(|| json!(1));
    assert_eq!(value.get("new"), Some(&json!(1)));
    let fields = value.as_object_mut().unwrap();
    assert_eq!(fields.remove("s"), Some(json!("text")));
    assert!(!fields.contains_key("s") && fields.len() == 3);
}

// ------------------------------------------- the product's derived types

#[test]
fn transparent_newtypes_are_written_as_their_field() {
    // crates/types/src/id.rs `serde_transparent`
    let id = DeviceId::new(9);
    let json = to_string(&id).unwrap();
    assert_eq!(json, "9");
    assert_eq!(from_str::<DeviceId>(&json).unwrap(), id);
    assert_eq!(to_string(&AppId::soundcity()).unwrap(), "\"SC\"");
    assert_eq!(from_str::<AppId>("\"SC\"").unwrap(), AppId::soundcity());

    // crates/types/src/time.rs `serde_round_trip`
    let t = SimTime::from_hms(5, 12, 0, 0);
    assert_eq!(to_string(&t).unwrap(), t.as_millis().to_string());
    assert_eq!(from_str::<SimTime>(&to_string(&t).unwrap()).unwrap(), t);
    assert_eq!(to_string(&SimDuration::from_secs(-2)).unwrap(), "-2000");
    assert_eq!(to_string(&SoundLevel::new(62.5)).unwrap(), "62.5");
    assert_eq!(from_str::<SoundLevel>("58").unwrap(), SoundLevel::new(58.0));

    assert!(from_str::<DeviceId>("-1").is_err());
    assert!(from_str::<DeviceId>("\"9\"").is_err());
    assert!(from_str::<UserId>("1.5").is_err());
}

#[test]
fn rename_all_lowercase_enums() {
    // crates/types/src/activity.rs `serde_uses_lowercase`
    assert_eq!(to_string(&Activity::Still).unwrap(), "\"still\"");
    assert_eq!(
        from_str::<Activity>("\"vehicle\"").unwrap(),
        Activity::Vehicle
    );
    // crates/types/src/location.rs `provider_serde_is_lowercase`
    assert_eq!(to_string(&LocationProvider::Gps).unwrap(), "\"gps\"");
    assert_eq!(to_string(&SensingMode::Journey).unwrap(), "\"journey\"");
    for activity in Activity::ALL {
        let text = to_string(&activity).unwrap();
        assert_eq!(text, text.to_lowercase());
        assert_eq!(from_str::<Activity>(&text).unwrap(), activity);
    }
    assert!(
        from_str::<Activity>("\"Still\"").is_err(),
        "the Rust name is not the wire name"
    );
    assert!(from_str::<Activity>("3").is_err());
}

#[test]
fn enums_without_rename_use_the_variant_name() {
    // crates/types/src/model.rs `serde_round_trip` (variants come from a
    // macro_rules! expansion, which the derive has to see through).
    assert_eq!(to_string(&DeviceModel::SonyD5803).unwrap(), "\"SonyD5803\"");
    for model in DeviceModel::ALL {
        assert_eq!(
            from_str::<DeviceModel>(&to_string(&model).unwrap()).unwrap(),
            model
        );
    }
    assert_eq!(to_string(&AppVersion::V1_2_9).unwrap(), "\"V1_2_9\"");
    assert_eq!(
        from_str::<AppVersion>("\"V1_3\"").unwrap(),
        AppVersion::V1_3
    );
    assert!(from_str::<AppVersion>("\"v1_3\"").is_err());
}

#[test]
fn structs_round_trip_field_by_field() {
    // crates/types/src/location.rs `fix_serde_round_trip`
    let fix = LocationFix::new(GeoPoint::PARIS, 42.0, LocationProvider::Fused);
    let json = to_string(&fix).unwrap();
    assert_eq!(
        json,
        "{\"accuracy_m\":42.0,\"point\":{\"lat\":48.8566,\"lon\":2.3522},\"provider\":\"fused\"}"
    );
    assert_eq!(from_str::<LocationFix>(&json).unwrap(), fix);
    // Integers are accepted where the field is a float.
    assert_eq!(
        from_str::<GeoPoint>("{\"lat\":48,\"lon\":2}").unwrap(),
        GeoPoint::new(48.0, 2.0)
    );
    assert!(
        from_str::<GeoPoint>("{\"lat\":48.0}").is_err(),
        "missing field"
    );
    assert!(from_str::<GeoPoint>("[48.0,2.0]").is_err(), "not an object");
    assert!(
        from_str::<GeoPoint>("{\"lat\":\"48\",\"lon\":2}").is_err(),
        "wrong type"
    );
}

#[test]
fn observation_round_trips_and_absent_options_read_as_none() {
    // crates/types/src/observation.rs `observation_serde_round_trip`
    let fix = LocationFix::new(GeoPoint::PARIS, 35.0, LocationProvider::Network);
    let mut obs = Observation::builder()
        .device(1.into())
        .user(2.into())
        .model(DeviceModel::SamsungGtI9505)
        .captured_at(SimTime::from_hms(0, 12, 0, 0))
        .spl(SoundLevel::new(58.0))
        .location(fix)
        .mode(SensingMode::Journey)
        .build();
    obs.mark_arrived(obs.captured_at + SimDuration::from_mins(50));
    let bytes = to_vec(&obs).unwrap();
    let back: Observation = from_slice(&bytes).unwrap();
    assert_eq!(back, obs);
    assert_eq!(back.delay(), Some(SimDuration::from_mins(50)));

    // `arrived_at` and `location` are `Option`s: null and absent both
    // read as `None`; unknown fields are ignored.
    let mut tree: Value = from_slice(&bytes).unwrap();
    let fields = tree.as_object_mut().unwrap();
    fields.insert("arrived_at".into(), Value::Null);
    fields.remove("location");
    fields.insert("extra".into(), json!([1, 2, 3]));
    let sparse: Observation = from_str(&tree.to_string()).unwrap();
    assert_eq!(sparse.arrived_at, None);
    assert_eq!(sparse.location, None);
    assert_eq!(sparse.device, obs.device);
    // A required field that is absent is an error naming it.
    tree.as_object_mut().unwrap().remove("spl");
    let error = from_str::<Observation>(&tree.to_string()).unwrap_err();
    assert!(error.to_string().contains("spl"), "{error}");
}
