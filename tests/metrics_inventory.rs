//! The metric inventory, read from the registry the process builds.
//!
//! Every layer is driven once — the quick pipeline and a BLUE pass, a
//! durable store, a broker and store with a retrying client and a
//! fault plan, one loopback RPC and one admin call — and
//! `Registry::global().render_text()`
//! is parsed back into one row per series: name, kind, label keys, help.
//! The rows are held to the `<crate>_<subsystem>_<name>[_<unit>|_total]`
//! convention, no two of one kind may be near-duplicates, and
//! `docs/METRICS.md` must be exactly what they render to. The inventory is
//! what the process registers, so it is the same set of counters the
//! benchmark and `xtask obs` read. Regenerate the file with
//! `cargo test --test metrics_inventory -- --ignored`.

use soundcity::assim::{Blue, Grid, PointObservation};
use soundcity::broker::{Broker, BrokerTransport};
use soundcity::core::{Deployment, ExperimentConfig};
use soundcity::docstore::{DocstoreTransport, Durability, DurabilityConfig, Store};
use soundcity::faults::{FaultPlan, FaultSpec};
use soundcity::goflow::{GoFlowServer, Role};
use soundcity::mobile::{BrokerLink, GoFlowClient, RetryPolicy};
use soundcity::net::{
    BrokerService, ClientConfig, RemoteBroker, ServerConfig, WireConn, WireServer, OP_HEALTH,
};
use soundcity::telemetry::Registry;
use soundcity::types::{
    AppId, AppVersion, DeviceModel, GeoBounds, GeoPoint, Observation, SimTime, SoundLevel,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Histogram names end in one of these units.
const UNITS: &[&str] = &["ms", "seconds", "us", "ns", "bytes", "ratio"];

/// One metric name as the registry renders it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Series {
    kind: String,
    labels: BTreeSet<String>,
    help: String,
}

type Inventory = BTreeMap<String, Series>;

fn doc_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/METRICS.md")
}

/// The registry after every layer ran once (driven a single time per
/// process: the registry is global and the tests share it).
fn inventory() -> &'static Inventory {
    static INVENTORY: OnceLock<Inventory> = OnceLock::new();
    INVENTORY.get_or_init(|| {
        drive_every_layer();
        parse(&Registry::global().render_text())
    })
}

fn drive_every_layer() {
    // The quick deployment (devices → broker → GoFlow → docstore) and one
    // BLUE pass, as `tests/end_to_end.rs` drives them.
    assert!(Deployment::new(ExperimentConfig::quick()).run().stored() > 0);
    let background = Grid::constant(GeoBounds::paris(), 8, 8, 50.0);
    let obs = vec![PointObservation::new(GeoPoint::PARIS, 62.0, 2.0)];
    Blue::new(4.0, 800.0).analyse(&background, &obs).unwrap();

    // A durable store: one journaled insert.
    let dir = std::env::temp_dir().join(format!("mps-metrics-inventory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(Durability::Durable(DurabilityConfig::new(&dir))).unwrap();
    store
        .collection("probe")
        .insert_one(serde_json::json!({ "spl": 50 }))
        .unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // A broker and store under GoFlow: one upload, one into an
    // exchange that does not exist (a visible failure the client parks for
    // retry), a delivery nacked into the dead-letter queue, one fault plan.
    let broker = Arc::new(Broker::new());
    let store = Arc::new(Store::new());
    let server = GoFlowServer::over(
        Arc::clone(&broker) as Arc<dyn BrokerTransport>,
        Arc::clone(&store) as Arc<dyn DocstoreTransport>,
    );
    let app = AppId::soundcity();
    server.register_app(&app).unwrap();
    let token = server
        .register_user(&app, 1.into(), Role::Contributor)
        .unwrap();
    let session = server.login(&token).unwrap();
    let key = session.observation_key("noise", "FR75013");
    let mut client = GoFlowClient::new(session.exchange(), key, AppVersion::V1_2_9)
        .with_retry_policy(RetryPolicy::default(), 1);
    let now = SimTime::EPOCH;
    for exchange in [session.exchange(), "no-such-exchange"] {
        client.record(
            Observation::builder()
                .device(1.into())
                .user(1.into())
                .model(DeviceModel::LgeNexus5)
                .captured_at(now)
                .spl(SoundLevel::new(50.0))
                .app_version(AppVersion::V1_2_9)
                .build(),
        );
        client.flush_at(&BrokerLink::new(&*broker, exchange), now);
    }
    let queue = "gf-SC-queue";
    for _ in 0..10 {
        for delivery in broker.consume(queue, 1).unwrap() {
            broker.nack(queue, delivery.tag, true).unwrap();
        }
    }
    server.ingest_pending(&app, now, 64).unwrap();
    FaultPlan::new(1, FaultSpec::none()).decide("probe", now);

    // One loopback RPC (and one that fails), one admin call.
    let mut wire = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(BrokerService::new(broker)),
        ServerConfig::default(),
    )
    .unwrap();
    let remote = RemoteBroker::connect(wire.local_addr().to_string(), ClientConfig::default());
    assert!(remote.queue_depth(queue).is_ok());
    assert!(remote.publish("no-such-exchange", "k", b"").is_err());
    let mut conn = WireConn::connect(wire.local_addr(), &ClientConfig::default()).unwrap();
    assert!(!conn.call(OP_HEALTH, &[], b"").unwrap().is_empty());
    wire.shutdown();
}

/// Parses the text exposition back into one row per metric name.
fn parse(text: &str) -> Inventory {
    let mut inventory = Inventory::new();
    let mut current = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            current = name;
            inventory.entry(name.to_owned()).or_default().help = help.to_owned();
        } else if let Some((_, kind)) = line.strip_prefix("# TYPE ").and_then(|t| t.split_once(' '))
        {
            inventory.entry(current.to_owned()).or_default().kind = kind.to_owned();
        } else if let Some(open) = line.find('{') {
            let labels = label_keys(&line[open + 1..]);
            inventory
                .entry(current.to_owned())
                .or_default()
                .labels
                .extend(labels);
        }
    }
    inventory
}

/// The keys of a rendered `k="v",…}` label set, histogram `le` aside.
fn label_keys(mut rest: &str) -> Vec<String> {
    let mut keys = Vec::new();
    while let Some((key, value)) = rest.split_once("=\"") {
        if key != "le" {
            keys.push(key.to_owned());
        }
        // Skip the value, up to its first unescaped quote.
        let mut escaped = false;
        let end = value
            .char_indices()
            .find(|&(_, c)| {
                let close = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                close
            })
            .map_or(value.len(), |(i, _)| i);
        rest = value[end..].trim_start_matches(['"', ',', '}']);
        if rest.starts_with(' ') {
            break;
        }
    }
    keys
}

/// Why `name` breaks the naming convention, if it does. `crates` are the
/// workspace's crate names, one of which must lead the name.
fn convention_problems(name: &str, series: &Series, crates: &BTreeSet<String>) -> Vec<String> {
    let snake = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut problems = Vec::new();
    if !snake(name) {
        problems.push("name must match [a-z][a-z0-9_]*".to_owned());
    }
    let segments: Vec<&str> = name.split('_').collect();
    if segments.len() < 3 {
        problems.push("name must have three segments: <crate>_<subsystem>_<name>".to_owned());
    }
    if !crates.contains(segments[0]) {
        problems.push(format!("`{}` is not a workspace crate", segments[0]));
    }
    let last = segments[segments.len() - 1];
    match series.kind.as_str() {
        "counter" if last != "total" => problems.push("counters end in `_total`".to_owned()),
        "histogram" if !UNITS.contains(&last) => {
            problems.push(format!("histograms end in a unit ({})", UNITS.join(", ")));
        }
        "gauge" if last == "total" => problems.push("gauges must not end in `_total`".to_owned()),
        _ => {}
    }
    for key in series.labels.iter().filter(|key| !snake(key)) {
        problems.push(format!("label key `{key}` must match [a-z][a-z0-9_]*"));
    }
    problems
}

/// Levenshtein distance.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != *cb);
            cur.push(substitute.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Pairs of one kind whose names differ by one edit or only in their
/// last segment: two names for one series fragment a dashboard.
fn near_duplicates(inventory: &Inventory) -> Vec<(&str, &str)> {
    let stem = |name: &str| name.rsplit_once('_').map(|(stem, _)| stem.to_owned());
    let mut pairs = Vec::new();
    for (i, (a, sa)) in inventory.iter().enumerate() {
        for (b, sb) in inventory.iter().skip(i + 1) {
            let near = edit_distance(a, b) <= 1 || (stem(a).is_some() && stem(a) == stem(b));
            if sa.kind == sb.kind && near {
                pairs.push((a.as_str(), b.as_str()));
            }
        }
    }
    pairs
}

/// Renders `docs/METRICS.md`.
fn render(inventory: &Inventory) -> String {
    let mut out = String::from(
        "# Metric inventory\n\n\
         Generated by `cargo test --test metrics_inventory -- --ignored` — do not edit by \
         hand. `tests/metrics_inventory.rs` drives every pipeline layer once, reads back the \
         series the process registered in the telemetry `Registry`, holds them to the \
         `<crate>_<subsystem>_<name>[_<unit>|_total]` convention, and fails tier-1 when this \
         file is stale.\n\n",
    );
    out.push_str(&format!("{} metrics.\n\n", inventory.len()));
    out.push_str("| Metric | Kind | Labels | Help |\n|---|---|---|---|\n");
    for (name, series) in inventory {
        let labels = if series.labels.is_empty() {
            "—".to_owned()
        } else {
            let keys: Vec<String> = series.labels.iter().map(|k| format!("`{k}`")).collect();
            keys.join(", ")
        };
        let help = series.help.replace('|', "\\|");
        out.push_str(&format!(
            "| `{name}` | {} | {labels} | {help} |\n",
            series.kind
        ));
    }
    out
}

fn workspace_crates() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    std::fs::read_dir(crates)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_series_follows_the_naming_convention() {
    let crates = workspace_crates();
    let problems: Vec<String> = inventory()
        .iter()
        .flat_map(|(name, series)| {
            convention_problems(name, series, &crates)
                .into_iter()
                .map(move |problem| format!("{name}: {problem}"))
        })
        .collect();
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn no_two_series_are_near_duplicates() {
    let pairs = near_duplicates(inventory());
    assert!(pairs.is_empty(), "near-duplicate metric names: {pairs:?}");
}

#[test]
fn metrics_doc_is_current() {
    let rendered = render(inventory());
    let checked_in = std::fs::read_to_string(doc_path()).unwrap_or_default();
    let first_difference = checked_in
        .lines()
        .zip(rendered.lines())
        .find(|(old, new)| old != new);
    assert!(
        checked_in == rendered,
        "docs/METRICS.md is stale (first difference: {first_difference:?}); regenerate it \
         with `cargo test --test metrics_inventory -- --ignored`"
    );
}

fn series(kind: &str, labels: &[&str], help: &str) -> Series {
    Series {
        kind: kind.to_owned(),
        labels: labels.iter().map(|key| (*key).to_owned()).collect(),
        help: help.to_owned(),
    }
}

/// One test per convention rule: the name, of that kind and with those
/// label keys, breaks that rule and no other.
macro_rules! convention_rejects {
    ($($test:ident: $name:literal, $kind:literal, $labels:expr => $rule:literal;)*) => {$(
        #[test]
        fn $test() {
            let series = series($kind, &$labels, "");
            let problems = convention_problems($name, &series, &workspace_crates());
            assert!(matches!(&problems[..], [only] if only.contains($rule)), "{problems:?}");
        }
    )*};
}

convention_rejects! {
    a_counter_without_total: "goflow_ingest_stored", "counter", [] => "`_total`";
    a_histogram_without_a_unit: "goflow_ingest_delay", "histogram", [] => "a unit";
    a_gauge_ending_in_total: "broker_queue_depth_total", "gauge", [] => "gauges";
    an_uppercase_name: "goflow_Ingest_stored_total", "counter", [] => "[a-z]";
    a_name_of_two_segments: "wal_total", "counter", [] => "three segments";
    a_name_led_by_no_crate: "ingest_stored_total", "counter", [] => "not a workspace crate";
    a_bad_label_key: "goflow_ingest_quarantined_total", "counter", ["Reason"] => "label key";
}

fn inventory_of(rows: &[(&str, &str)]) -> Inventory {
    rows.iter()
        .map(|(name, kind)| ((*name).to_owned(), series(kind, &[], "")))
        .collect()
}

#[test]
fn a_one_edit_twin_is_a_near_duplicate() {
    let twins = inventory_of(&[
        ("goflow_ingest_stored_total", "counter"),
        ("goflow_ingest_store_total", "counter"),
    ]);
    assert_eq!(
        near_duplicates(&twins),
        [("goflow_ingest_store_total", "goflow_ingest_stored_total")]
    );
}

#[test]
fn an_equal_stem_twin_is_a_near_duplicate() {
    let twins = inventory_of(&[
        ("wal_appends_total", "counter"),
        ("wal_appends_count", "counter"),
    ]);
    assert_eq!(near_duplicates(&twins).len(), 1);
}

#[test]
fn a_count_and_its_duration_may_share_a_stem() {
    let pair = inventory_of(&[
        ("docstore_collection_find_total", "counter"),
        ("docstore_collection_find_seconds", "histogram"),
    ]);
    assert!(near_duplicates(&pair).is_empty());
}

#[test]
fn a_changed_row_makes_the_doc_stale() {
    let mut mutated = inventory().clone();
    mutated.get_mut("goflow_ingest_stored_total").unwrap().help = "renamed".to_owned();
    assert_ne!(render(&mutated), render(inventory()));
}

#[test]
fn parse_reads_kind_help_and_label_keys() {
    let text = "# HELP a_b_total Things seen\n# TYPE a_b_total counter\n\
                a_b_total{reason=\"late\"} 1\na_b_total{reason=\"gone\",shard=\"2\"} 1\n\
                # HELP a_c_ms Delay (ms)\n# TYPE a_c_ms histogram\n\
                a_c_ms_bucket{le=\"1\"} 0\na_c_ms_sum 0\na_c_ms_count 0\n";
    let parsed = parse(text);
    assert_eq!(parsed.len(), 2);
    assert_eq!(
        parsed["a_b_total"],
        series("counter", &["reason", "shard"], "Things seen")
    );
    assert_eq!(parsed["a_c_ms"], series("histogram", &[], "Delay (ms)"));
}

#[test]
fn render_sorts_rows_and_escapes_pipes() {
    let mut rows = inventory_of(&[("wal_b_total", "counter"), ("wal_a_total", "counter")]);
    rows.get_mut("wal_b_total").unwrap().help = "in | out".to_owned();
    let doc = render(&rows);
    assert!(doc.find("`wal_a_total`").unwrap() < doc.find("`wal_b_total`").unwrap());
    assert!(doc.contains("| in \\| out |"), "{doc}");
}

#[test]
fn label_keys_skip_values_and_le() {
    assert_eq!(
        label_keys(r#"code="21",opcode="a\"b,c=\"d"} 1"#),
        ["code", "opcode"]
    );
    assert_eq!(label_keys(r#"queue="q",le="+Inf"} 4"#), ["queue"]);
}

/// Regenerates `docs/METRICS.md`.
#[test]
#[ignore = "writes docs/METRICS.md; run with --ignored after changing a metric"]
fn write_metrics_doc() {
    std::fs::write(doc_path(), render(inventory())).unwrap();
}
