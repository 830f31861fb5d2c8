//! Durable stores: the deltas behind the one mutation path, and their
//! replay.
//!
//! Every mutation of a [`Store`] or [`Collection`] has one body in both
//! modes: **apply** the change under the collection (or collections-map)
//! lock and — only on a store opened with [`Durability::Durable`] —
//! **encode** one delta per change into the call's `Deltas`, straight
//! from the stored row: nothing is cloned or rebuilt as a tree for it.
//! `journaled` takes the store's [`Journal`] lock *before* the apply, so
//! log order is apply order, and commits the call's records as one
//! group-committed batch (an `insert_many` or `update_many` of any size
//! costs one fsync); `Ok` means applied and durable. In memory the same
//! body runs with no journal, and no delta is encoded.
//!
//! Deltas name their `op` and `coll`: `insert` and `update` carry the
//! `id` and the full resulting `doc`, `delete` the `ids`, `create_index`
//! and `drop_index` the `path`; `touch` (collection created), `clear` and
//! `drop_collection` nothing more. Deltas, snapshots and exports are
//! written by `RowRef::write_json` (see `crate::row`) in the bytes `Value`
//! documents gave, which the golden log and export below pin.
//!
//! [`Store::open`] replays the newest snapshot and the log tail, moving
//! each parsed document's values into its row, and rebuilds the indexes:
//! the same contents, `_id` assignment and index definitions. A snapshot
//! is the [`Store::export_json`] stream, taken when the journal's cadence
//! says half of what a reopen would read is dead — never for a store that
//! only receives documents, as the paper's did ([`Store::checkpoint`]
//! forces one).
//!
//! **Limits.** A durability failure mid-operation leaves memory *ahead*
//! of the log: treat the instance as dead and reopen, as a crashed
//! process would; every later mutation fails too.
//!
//! [`Store::drop_collection`] marks the collection dropped under its
//! lock, inside the drop's own journal section: a handle kept past it
//! reads what the collection held, but every mutation through it is
//! [`StoreError::CollectionNotFound`] and logs nothing, so replay and
//! live state agree.

use crate::collection::Collection;
use crate::row::RowRef;
use crate::telemetry::telemetry;
use crate::value::DocId;
use crate::{Store, StoreError};
use mps_wal::{Journal, Ranked, Recovered};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Weak};

pub use mps_wal::DurabilityConfig;

/// How (and whether) a [`Store`] persists its mutations.
#[derive(Debug, Clone, Default)]
pub enum Durability {
    /// No persistence: the fast, deterministic, in-memory store every
    /// simulation run uses.
    #[default]
    InMemory,
    /// Write-ahead logged to a directory; see the module docs.
    Durable(DurabilityConfig),
}

/// A store's collections by name, at [`Rank::StoreMap`](mps_wal::Rank).
pub(crate) type CollectionMap = Arc<Ranked<BTreeMap<String, Collection>>>;

/// Store-wide durable state shared by every collection handle.
#[derive(Debug)]
pub(crate) struct DurableShared {
    journal: Journal,
    collections: Weak<Ranked<BTreeMap<String, Collection>>>,
}

/// A collection handle's link to its store's durable state.
#[derive(Debug)]
pub(crate) struct DurableCtx {
    pub(crate) name: String,
    pub(crate) shared: Arc<DurableShared>,
}

impl DurableCtx {
    /// The link of collection `name` to `shared`.
    pub(crate) fn new(name: &str, shared: &Arc<DurableShared>) -> Arc<Self> {
        Arc::new(Self {
            name: name.to_owned(),
            shared: Arc::clone(shared),
        })
    }
}

fn corrupt(why: impl std::fmt::Display) -> StoreError {
    StoreError::Durability(format!("log replay failed: {why}"))
}

/// What one mutation call logs: each delta already encoded, as the bytes
/// the log stores. Exists only on a journaled store, so the in-memory
/// path builds none. Members are written in key order (`coll`, `doc`,
/// `id`, `ids`, `op`, `path`) — the order `serde_json` gives an object's
/// members, and so the bytes every existing log holds.
#[derive(Debug)]
pub(crate) struct Deltas {
    /// The collection's name as JSON text, escaped once per call.
    coll: String,
    payloads: Vec<Vec<u8>>,
}

impl Deltas {
    fn new(coll: &str) -> Self {
        Self {
            coll: Value::from(coll).to_string(),
            payloads: Vec::new(),
        }
    }

    /// A record's buffer, `{"coll":…,` written: the members that follow
    /// go in key order.
    fn record(&self) -> String {
        // A batch's records are near one size: the previous one's length
        // saves the next its regrowth.
        let mut text = String::with_capacity(self.payloads.last().map_or(0, Vec::len));
        text.push_str(r#"{"coll":"#);
        text.push_str(&self.coll);
        text.push(',');
        text
    }

    /// One record: `coll`, then `rest` — the other members.
    fn push(&mut self, rest: fmt::Arguments<'_>) {
        let mut text = self.record();
        // Writing to a String cannot fail.
        let _ = write!(text, "{rest}}}");
        self.payloads.push(text.into_bytes());
    }

    /// `insert` / `update`: the id and the full resulting document,
    /// written from the stored row straight into the record.
    pub(crate) fn doc(&mut self, op: &str, id: DocId, doc: RowRef<'_>) {
        let mut text = self.record();
        text.push_str(r#""doc":"#);
        doc.write_json(&mut text);
        let _ = write!(text, r#","id":{},"op":"{op}"}}"#, id.0);
        self.payloads.push(text.into_bytes());
    }

    /// `delete`: the ids removed.
    pub(crate) fn delete(&mut self, ids: &[DocId]) {
        let ids: Vec<u64> = ids.iter().map(|id| id.0).collect();
        self.push(format_args!(r#""ids":{},"op":"delete""#, json!(ids)));
    }

    /// `create_index` / `drop_index`: the indexed path.
    pub(crate) fn index(&mut self, op: &str, path: &str) {
        self.push(format_args!(r#""op":"{op}","path":{}"#, Value::from(path)));
    }

    /// `touch`, `clear` and `drop_collection` carry nothing more.
    pub(crate) fn bare(&mut self, op: &str) {
        self.push(format_args!(r#""op":"{op}""#));
    }
}

/// Runs one mutation of the collection named by `journal` — or of an
/// in-memory store, when there is none. `apply` makes the change under
/// the lock it needs and, given [`Deltas`], records what it changed.
/// Returns `apply`'s result beside the log's: the change is in memory
/// either way, durable only on `Ok`.
///
/// The journal is locked before `apply` runs: the order is
/// [`Rank`](mps_wal::Rank)'s.
pub(crate) fn journaled<T>(
    journal: Option<(&DurableShared, &str)>,
    apply: impl FnOnce(Option<&mut Deltas>) -> T,
) -> (T, Result<(), StoreError>) {
    let Some((shared, coll)) = journal else {
        return (apply(None), Ok(()));
    };
    let mut log = shared.journal.lock();
    let mut deltas = Deltas::new(coll);
    let out = apply(Some(&mut deltas));
    let logged = match shared.collections.upgrade() {
        Some(map) => log.commit(&deltas.payloads, live(&map), || export(&map)),
        // A handle that outlived its store logs on; nothing is left to
        // snapshot, so none is ever due (more live than a reopen reads).
        None => log.commit(&deltas.payloads, u64::MAX, Vec::new),
    };
    (out, logged.map_err(StoreError::from))
}

/// Documents over all collections: what a snapshot taken now holds.
fn live(map: &CollectionMap) -> u64 {
    map.lock().values().map(|c| c.len() as u64).sum()
}

fn export(map: &CollectionMap) -> Vec<u8> {
    export_json(map).into_bytes()
}

/// The full-store state as canonical JSON text,
/// `{"collections":{name:{"docs":[…],"indexes":[…],"next_id":N}}}`:
/// collections sorted by name, documents in `_id` order, index paths
/// sorted — identical state always serialises to identical bytes. Each
/// row is written once, straight into the one buffer, which a
/// collection's first document sizes for the rest.
fn export_json(map: &CollectionMap) -> String {
    // Writing to a String cannot fail.
    let mut out = String::from(r#"{"collections":{"#);
    for (c, (name, collection)) in map.lock().iter().enumerate() {
        let inner = collection.inner.lock();
        let comma = if c > 0 { "," } else { "" };
        let _ = write!(out, r#"{comma}{}:{{"docs":["#, Value::from(name.as_str()));
        for (d, (_, doc)) in inner.rows().enumerate() {
            if d > 0 {
                out.push(',');
            }
            let start = out.len();
            doc.write_json(&mut out);
            if d == 0 {
                out.reserve((out.len() - start + 1) * (inner.len() - 1));
            }
        }
        let indexes: Vec<&str> = inner.indexes.paths.keys().map(String::as_str).collect();
        let next_id = inner.next_id;
        let _ = write!(
            out,
            r#"],"indexes":{},"next_id":{next_id}}}"#,
            json!(indexes)
        );
    }
    out.push_str("}}");
    out
}

/// Removes member `key` from a JSON object, by value.
fn take(object: &mut Value, key: &str) -> Option<Value> {
    object.as_object_mut()?.remove(key)
}

/// Index paths per collection, collected through a replay and built once
/// at its end, over the final documents: what maintaining them through
/// the replay gives, in linear time instead of quadratic.
type IndexPaths = BTreeMap<String, BTreeSet<String>>;

/// Rebuilds collections from a recovered snapshot + log tail. The parsed
/// trees are taken apart by value: every document's values move into its
/// row, none is cloned. The tail is streamed: one segment of it is in
/// memory at a time, one record parsed. Returns how many documents the
/// snapshot held.
fn restore(store: &Store, recovered: Recovered) -> Result<u64, StoreError> {
    let mut index_paths = IndexPaths::new();
    let held = match recovered.snapshot {
        Some(bytes) => restore_snapshot(store, &mut index_paths, bytes)
            .map_err(|why| corrupt(format!("snapshot: {why}")))?,
        None => 0,
    };
    recovered.entries.replay(|lsn, record| {
        apply(store, &mut index_paths, record)
            .map_err(|why| corrupt(format!("record at lsn {lsn}: {why}")))
    })?;
    for (name, paths) in index_paths {
        let Some(collection) = store.collections.lock().get(&name).cloned() else {
            continue;
        };
        let mut inner = collection.inner.lock();
        for path in paths {
            inner.create_index(&path);
        }
    }
    Ok(held)
}

/// Fills `store` from a snapshot; returns the documents it held.
fn restore_snapshot(store: &Store, paths: &mut IndexPaths, bytes: Vec<u8>) -> Result<u64, String> {
    let mut state: Value = serde_json::from_slice(&bytes).map_err(|e| e.to_string())?;
    // Megabytes, and done with: freed before the collections fill.
    drop(bytes);
    let Some(Value::Object(collections)) = take(&mut state, "collections") else {
        return Err("no collections object".into());
    };
    let mut held = 0;
    for (name, mut cstate) in collections {
        let collection = store.get_or_create(&name);
        let mut inner = collection.inner.lock();
        inner.next_id = cstate.get("next_id").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Array(docs)) = take(&mut cstate, "docs") {
            held += docs.len() as u64;
            for doc in docs {
                let id = doc.get("_id").and_then(Value::as_u64);
                let id = id.ok_or("a document without `_id`")?;
                let row = inner.row_of(doc, None).map_err(|e| e.to_string())?;
                inner.put(DocId(id), row);
            }
        }
        let defined = paths.entry(name).or_default();
        if let Some(Value::Array(indexes)) = take(&mut cstate, "indexes") {
            for path in indexes {
                if let Value::String(path) = path {
                    defined.insert(path);
                }
            }
        }
    }
    Ok(held)
}

/// Applies one logged delta to `store`, as the mutation it records did.
fn apply(store: &Store, index_paths: &mut IndexPaths, record: &[u8]) -> Result<(), String> {
    let mut delta: Value = serde_json::from_slice(record).map_err(|e| e.to_string())?;
    let (Some(Value::String(op)), Some(Value::String(name))) =
        (take(&mut delta, "op"), take(&mut delta, "coll"))
    else {
        return Err("no string `op` and `coll`".into());
    };
    let (op, name) = (op.as_str(), name.as_str());
    let collection = || store.get_or_create(name);
    match op {
        "insert" | "update" => {
            let id = delta.get("id").and_then(Value::as_u64).ok_or("no `id`")?;
            let doc = take(&mut delta, "doc").ok_or("no `doc`")?;
            let collection = collection();
            let mut inner = collection.inner.lock();
            let row = inner.row_of(doc, None).map_err(|e| e.to_string())?;
            inner.put(DocId(id), row);
            inner.next_id = inner.next_id.max(id + 1);
        }
        "delete" => {
            let collection = collection();
            let mut inner = collection.inner.lock();
            let ids = delta.get("ids").and_then(Value::as_array);
            for id in ids.into_iter().flatten().filter_map(Value::as_u64) {
                inner.discard(DocId(id));
            }
        }
        "create_index" | "drop_index" => {
            let path = delta.get("path").and_then(Value::as_str);
            let path = path.ok_or("no `path`")?;
            collection();
            let paths = index_paths.entry(name.to_owned()).or_default();
            if op == "create_index" {
                paths.insert(path.to_owned());
            } else {
                paths.remove(path);
            }
        }
        "touch" => drop(collection()),
        "clear" => collection().inner.lock().clear(),
        "drop_collection" => {
            if store.collections.lock().remove(name).is_some() {
                telemetry().store_collections.dec();
            }
            index_paths.remove(name);
        }
        other => return Err(format!("unknown op `{other}`")),
    }
    Ok(())
}

impl Store {
    /// Opens a store with the given durability mode. `InMemory` is
    /// [`Store::new`]; `Durable` opens (or creates) the WAL directory,
    /// replays snapshot + log tail, rebuilds indexes, and logs every
    /// subsequent mutation. See the module docs for the guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Durability`] when the directory cannot be
    /// opened or the log is corrupt beyond torn-tail repair.
    pub fn open(durability: Durability) -> Result<Self, StoreError> {
        let Durability::Durable(config) = durability else {
            return Ok(Self::new());
        };
        // Replayed in memory, then linked to the journal: no handle to a
        // collection exists before this returns.
        let store = Self::new();
        let journal = Journal::open(&config, |recovered| restore(&store, recovered))?;
        let shared = Arc::new(DurableShared {
            journal,
            collections: Arc::downgrade(&store.collections),
        });
        for (name, collection) in store.collections.lock().iter_mut() {
            collection.durable = Some(DurableCtx::new(name, &shared));
        }
        Ok(Self {
            durable: Some(shared),
            ..store
        })
    }

    /// True when this store write-ahead-logs its mutations.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Forces a snapshot + compaction now; returns the covered LSN
    /// (`0` for in-memory stores or an empty log).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Durability`] when the snapshot cannot be
    /// written.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        let Some(shared) = &self.durable else {
            return Ok(0);
        };
        let mut log = shared.journal.lock();
        let live = live(&self.collections);
        Ok(log.snapshot(live, || export(&self.collections))?)
    }

    /// The full store state as canonical JSON: collections sorted by
    /// name, documents in `_id` order, keys sorted. Two stores with
    /// identical contents export identical bytes — the determinism
    /// check the recovery matrix relies on.
    pub fn export_json(&self) -> String {
        export_json(&self.collections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Filter, Update};
    use mps_wal::{KillPoint, Wal, WalConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64 as TestSeq, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: TestSeq = TestSeq::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-docstore-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &PathBuf) -> Durability {
        Durability::Durable(DurabilityConfig::new(dir).wal(WalConfig::default().telemetry(false)))
    }

    fn seed(store: &Store) {
        let obs = store.collection("obs");
        obs.create_index("model").unwrap();
        obs.insert_many([
            json!({"model": "A", "spl": 40.0}),
            json!({"model": "B", "spl": 55.0}),
            json!({"model": "A", "spl": 70.0}),
        ])
        .unwrap();
        obs.update_many(&Filter::eq("model", "A"), &Update::set("flagged", true))
            .unwrap();
        obs.delete_many(&Filter::lt("spl", 50.0)).unwrap();
        store
            .collection("meta")
            .insert_one(json!({"k": "v"}))
            .unwrap();
    }

    #[test]
    fn reopen_reproduces_contents_and_indexes() {
        let dir = temp_dir("reopen");
        let store = Store::open(durable(&dir)).unwrap();
        seed(&store);
        let live = store.export_json();
        drop(store);

        let recovered = Store::open(durable(&dir)).unwrap();
        assert_eq!(recovered.export_json(), live);
        let obs = recovered.collection("obs");
        assert!(obs.has_index("model"));
        // The rebuilt index answers queries identically to a scan.
        assert_eq!(obs.count(&Filter::eq("model", "A")).unwrap(), 1);
        // Recovered id assignment continues where the log left off.
        let id = obs.insert_one(json!({"model": "C"})).unwrap();
        assert_eq!(id, DocId(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_replay_is_byte_identical() {
        let dir = temp_dir("determinism");
        let store = Store::open(durable(&dir)).unwrap();
        seed(&store);
        drop(store);
        let first = Store::open(durable(&dir)).unwrap().export_json();
        let second = Store::open(durable(&dir)).unwrap().export_json();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_and_compaction_preserve_state() {
        let dir = temp_dir("snapshot");
        let config = DurabilityConfig::new(&dir)
            .wal(WalConfig::default().telemetry(false).segment_max_bytes(256))
            .snapshot_every(8);
        let store = Store::open(Durability::Durable(config.clone())).unwrap();
        let c = store.collection("obs");
        for i in 0..64 {
            c.insert_one(json!({"i": i})).unwrap();
        }
        store.checkpoint().unwrap();
        let live = store.export_json();
        drop(store);

        let recovered = Store::open(Durability::Durable(config)).unwrap();
        assert_eq!(recovered.export_json(), live);
        assert_eq!(recovered.collection("obs").len(), 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_and_clear_replay() {
        let dir = temp_dir("dropclear");
        let store = Store::open(durable(&dir)).unwrap();
        seed(&store);
        store.collection("obs").clear().unwrap();
        store.drop_collection("meta").unwrap();
        let live = store.export_json();
        drop(store);

        let recovered = Store::open(durable(&dir)).unwrap();
        assert_eq!(recovered.export_json(), live);
        assert!(recovered.collection("obs").is_empty());
        assert!(recovered.collection("obs").has_index("model"));
        assert!(!recovered.has_collection("meta"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every mutation a collection handle has, through `stale`.
    fn mutations(stale: &Collection) -> Vec<Result<(), StoreError>> {
        let doc = || json!({"model": "Z", "spl": 1.0});
        vec![
            stale.insert_one(doc()).map(drop),
            stale.insert_many([doc(), doc()]).map(drop),
            stale
                .update_many(&Filter::True, &Update::set("x", 1))
                .map(drop),
            stale.delete_many(&Filter::True).map(drop),
            stale.create_index("spl"),
            stale.drop_index("model"),
            stale.clear(),
        ]
    }

    #[test]
    fn a_handle_kept_past_its_drop_changes_and_logs_nothing() {
        let dir = temp_dir("stale");
        let store = Store::open(durable(&dir)).unwrap();
        seed(&store);
        let stale = store.collection("obs");
        let held = stale.all();
        store.drop_collection("obs").unwrap();
        let gone = Err(StoreError::CollectionNotFound("obs".to_owned()));
        assert!(mutations(&stale).into_iter().all(|result| result == gone));
        // It still reads what the collection held; a new one of the name
        // is another collection, and logs as one.
        assert_eq!(stale.all(), held);
        store.collection("obs").insert_one(json!({"k": 1})).unwrap();
        assert_eq!(stale.insert_one(json!({"k": 2})).map(drop), gone);
        let live = store.export_json();
        drop(store);

        let recovered = Store::open(durable(&dir)).unwrap();
        assert_eq!(recovered.export_json(), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_kill_mid_append_loses_only_the_torn_batch() {
        let dir = temp_dir("kill");
        let kill = mps_wal::KillSwitch::new();
        let config = DurabilityConfig::new(&dir)
            .wal(WalConfig::default().telemetry(false).kill(kill.clone()));
        let store = Store::open(Durability::Durable(config)).unwrap();
        let c = store.collection("obs");
        c.insert_one(json!({"i": 0})).unwrap();
        kill.arm(KillPoint::MidAppend, 0);
        let err = c.insert_one(json!({"i": 1})).unwrap_err();
        assert!(matches!(err, StoreError::Durability(_)));
        // The instance is dead: every further mutation fails.
        assert!(c.insert_one(json!({"i": 2})).is_err());
        drop(store);

        let recovered = Store::open(durable(&dir)).unwrap();
        let c = recovered.collection("obs");
        assert_eq!(c.len(), 1, "torn tail truncated, prefix intact");
        assert_eq!(c.get(DocId(0)).unwrap()["i"], json!(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_swallowed_snapshot_failure_is_counted() {
        let registry = mps_telemetry::Registry::global();
        // Other tests snapshot too: lower bounds only.
        let failures = || {
            registry
                .counter_value("wal_snapshot_failures_total")
                .unwrap_or(0)
        };
        let dir = temp_dir("snapfail");
        let kill = mps_wal::KillSwitch::new();
        let config = DurabilityConfig::new(&dir)
            .wal(WalConfig::default().kill(kill.clone()))
            .snapshot_every(2);
        let store = Store::open(Durability::Durable(config)).unwrap();
        let c = store.collection("obs");
        let update = |seen: u64| {
            let changed = c.update_many(&Filter::gte("i", 0), &Update::set("seen", seen));
            assert_eq!(changed.unwrap(), c.len());
        };
        c.insert_one(json!({"i": 0})).unwrap();
        assert_eq!(newest_snapshot(&dir), None, "one document, all of it live");
        let before = failures();
        // The first update leaves two of three records dead: a snapshot
        // is due and fails (its temp path is taken); the update is
        // durable all the same and says so.
        let blocker = dir.join(format!("snap-{:020}.snap.tmp", 3));
        std::fs::create_dir(&blocker).unwrap();
        update(1);
        assert!(failures() > before);
        // Not again at the next record, which would have succeeded, but
        // `snapshot_every` records after the failure.
        update(2);
        assert_eq!(newest_snapshot(&dir), None, "retried one record on");
        update(3);
        assert_eq!(newest_snapshot(&dir), Some(5));
        std::fs::remove_dir(&blocker).unwrap();

        // A snapshot that dies takes the instance with it.
        c.insert_one(json!({"i": 1})).unwrap();
        let before = failures();
        kill.arm(KillPoint::MidSnapshot, 0);
        update(4);
        assert_eq!(kill.dead(), Some(KillPoint::MidSnapshot));
        assert!(failures() > before);
        assert!(c.insert_one(json!({"i": 2})).is_err());
        drop(store);

        let recovered = Store::open(durable(&dir)).unwrap();
        let seen = recovered.collection("obs").find(&Filter::eq("seen", 4));
        assert_eq!(seen.unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The LSN the committed snapshot in `dir` covers through, as the
    /// file system shows it.
    fn newest_snapshot(dir: &PathBuf) -> Option<u64> {
        let report = mps_wal::inspect(dir).unwrap();
        let newest = report.snapshots.first()?;
        assert!(newest.valid);
        Some(newest.lsn)
    }

    /// What [`snapshot_work`] saw reach the disk.
    #[derive(Default)]
    struct Work {
        /// Automatic snapshots taken, and the documents they wrote.
        snapshots: u64,
        documents_written: u64,
        records_logged: u64,
    }

    /// Runs `ops` mutations of one collection at a snapshot floor of
    /// `FLOOR` records and checks the recovery-read bound after every
    /// call: a reopen would read the documents its snapshot holds and the
    /// records logged since, fewer than twice the live documents (or, for
    /// the first `FLOOR` records after a snapshot, than it held) plus the
    /// floor.
    fn snapshot_work(tag: &str, ops: u64, mut mutate: impl FnMut(&Collection, u64)) -> Work {
        let dir = temp_dir(tag);
        let wal = WalConfig::default()
            .telemetry(false)
            .fsync(false)
            .segment_max_bytes(4096);
        let config = DurabilityConfig::new(&dir).wal(wal).snapshot_every(FLOOR);
        let store = Store::open(Durability::Durable(config)).unwrap();
        let c = store.collection("obs");
        let (mut work, mut held, mut newest) = (Work::default(), 0, None);
        for i in 0..ops {
            mutate(&c, i);
            let live = c.len() as u64;
            let report = mps_wal::inspect(&dir).unwrap();
            let now = report.snapshots.first().map(|newest| newest.lsn);
            if now != newest {
                // Taken as the call ended: it holds what is live now.
                work.snapshots += 1;
                work.documents_written += live;
                (held, newest) = (live, now);
            }
            let last = report.segments.last().unwrap();
            work.records_logged = last.start_lsn + last.records as u64 - 1;
            let reads = held + work.records_logged - now.unwrap_or(0);
            assert!(
                reads < (2 * live).max(held) + FLOOR,
                "op {i}: a reopen reads {reads} records for {live} live, {held} held"
            );
        }
        let live = store.export_json();
        drop((c, store));
        assert_eq!(Store::open(durable(&dir)).unwrap().export_json(), live);
        std::fs::remove_dir_all(&dir).unwrap();
        work
    }

    const FLOOR: u64 = 8;

    /// Snapshots follow the dead weight in the log, not its length: a
    /// store that only grows has none and is never rewritten; one whose
    /// documents are superseded is rewritten once half of what a reopen
    /// would read is dead, so a reopen reads at most about twice the live
    /// documents and all snapshots together hold no more documents than
    /// records were logged.
    #[test]
    fn snapshots_track_dead_weight() {
        let insert = |c: &Collection, i: u64| drop(c.insert_one(json!({"i": i})));
        let update = |c: &Collection, i: u64, seen: u64| {
            let changed = c.update_many(&Filter::eq("i", i), &Update::set("seen", seen));
            assert_eq!(changed.unwrap(), 1);
        };

        // Insert-only (the paper's stream): nothing to reclaim. Doubling
        // on bytes took 15 snapshots here, one every floor 64.
        let grown = snapshot_work("grow", 64 * FLOOR, insert);
        assert_eq!(grown.snapshots, 0);

        // Update-only over N documents: each update kills one record, so
        // one snapshot per max(floor, N) of them. (Doubling on bytes: 8
        // and 24 — an update record outweighs the document it rewrites.)
        for (documents, parent) in [(FLOOR / 2, 8), (4 * FLOOR, 24)] {
            let period = documents.max(FLOOR);
            let work = snapshot_work("update", documents + 8 * period, |c, i| {
                match i.checked_sub(documents) {
                    None => insert(c, i),
                    Some(nth) => update(c, nth % documents, i),
                }
            });
            assert_eq!(work.snapshots, 8, "{documents} documents");
            assert!(work.snapshots <= parent);
            assert!(work.documents_written <= work.records_logged);
        }

        // A seeded mix of all four, one document or many at a time.
        let mut state = 20u64;
        let mut next = |below: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % below.max(1)
        };
        let mixed = snapshot_work("mixed", 256 * FLOOR, |c, i| match next(16) {
            0..=3 => insert(c, i),
            4..=10 => drop(c.update_many(&Filter::eq("i", next(i)), &Update::set("seen", i))),
            11 => drop(c.update_many(
                &Filter::gte("i", i - next(i).min(9)),
                &Update::set("seen", i),
            )),
            12..=13 => drop(c.delete_many(&Filter::eq("i", next(i)))),
            14 if next(8) == 0 => drop(c.delete_many(&Filter::lt("i", next(i) / 4))),
            15 if next(32) == 0 => c.clear().unwrap(),
            _ => insert(c, i),
        });
        // Doubling on bytes took 42 snapshots on this stream.
        assert!((2..=42).contains(&mixed.snapshots), "{}", mixed.snapshots);
        assert!(
            mixed.documents_written <= mixed.records_logged,
            "{} documents snapshotted for {} records logged",
            mixed.documents_written,
            mixed.records_logged
        );
    }

    #[test]
    fn the_cadence_survives_a_reopen() {
        const DOCUMENTS: u64 = 2 * FLOOR;
        // A snapshot of DOCUMENTS, then as many updates less one: one
        // short of due. The last is logged by the same instance or by one
        // that reopened the directory, and counted what its snapshot holds.
        let run = |reopen: bool| {
            let dir = temp_dir("cadence-reopen");
            let config = DurabilityConfig::new(&dir)
                .wal(WalConfig::default().telemetry(false))
                .snapshot_every(FLOOR);
            let mut store = Store::open(Durability::Durable(config.clone())).unwrap();
            store
                .collection("obs")
                .insert_many((0..DOCUMENTS).map(|i| json!({"i": i})))
                .unwrap();
            let covered = store.checkpoint().unwrap();
            for i in 0..DOCUMENTS {
                if i == DOCUMENTS - 1 {
                    assert_eq!(newest_snapshot(&dir), Some(covered), "one short of due");
                    if reopen {
                        drop(store);
                        store = Store::open(Durability::Durable(config.clone())).unwrap();
                    }
                }
                let changed = store
                    .collection("obs")
                    .update_many(&Filter::eq("i", i), &Update::set("seen", true));
                assert_eq!(changed.unwrap(), 1);
            }
            let taken = newest_snapshot(&dir).unwrap();
            assert_eq!(taken, covered + DOCUMENTS);
            std::fs::remove_dir_all(&dir).unwrap();
            taken
        };
        assert_eq!(run(true), run(false));
    }

    /// All nine mutations run the one path: whatever each changes is what
    /// a reopen sees, and a crash in its append kills the instance and
    /// loses exactly that mutation. Each logs a single record here, so
    /// the torn tail is the whole of it.
    #[test]
    fn every_mutation_kind_replays_and_dies_cleanly() {
        type Mutation = fn(&Store) -> Result<(), StoreError>;
        let kinds: [(&str, Mutation); 9] = [
            ("insert_one", |s| {
                let doc = json!({"model": "C"});
                s.collection("obs").insert_one(doc).map(drop)
            }),
            ("insert_many", |s| {
                let docs = [json!({"model": "C"})];
                s.collection("obs").insert_many(docs).map(drop)
            }),
            ("update_many", |s| {
                let (filter, update) = (Filter::eq("model", "B"), Update::set("spl", 56.0));
                s.collection("obs").update_many(&filter, &update).map(drop)
            }),
            ("delete_many", |s| {
                let filter = Filter::eq("model", "B");
                s.collection("obs").delete_many(&filter).map(drop)
            }),
            ("create_index", |s| s.collection("obs").create_index("spl")),
            ("drop_index", |s| s.collection("obs").drop_index("model")),
            ("clear", |s| s.collection("obs").clear()),
            ("collection", |s| {
                s.collection("fresh");
                Ok(())
            }),
            ("drop_collection", |s| s.drop_collection("meta")),
        ];
        for (kind, mutate) in kinds {
            let dir = temp_dir(kind);
            let store = Store::open(durable(&dir)).unwrap();
            seed(&store);
            let before = store.export_json();
            mutate(&store).unwrap();
            let live = store.export_json();
            assert_ne!(live, before, "{kind} changes the store");
            drop(store);
            assert_eq!(Store::open(durable(&dir)).unwrap().export_json(), live);
            std::fs::remove_dir_all(&dir).unwrap();

            let kill = mps_wal::KillSwitch::new();
            let config = DurabilityConfig::new(&dir)
                .wal(WalConfig::default().telemetry(false).kill(kill.clone()));
            let store = Store::open(Durability::Durable(config)).unwrap();
            seed(&store);
            let prefix = store.export_json();
            kill.arm(KillPoint::MidAppend, 0);
            match mutate(&store) {
                // `Store::collection` cannot report it; the next call does.
                Ok(()) => assert_eq!(kind, "collection"),
                Err(err) => assert!(matches!(err, StoreError::Durability(_)), "{kind}: {err}"),
            }
            assert_eq!(kill.dead(), Some(KillPoint::MidAppend), "{kind}");
            for _ in 0..2 {
                let later = store.collection("obs").insert_one(json!({}));
                assert!(matches!(later, Err(StoreError::Durability(_))), "{kind}");
            }
            drop(store);
            let reopened = Store::open(durable(&dir)).unwrap().export_json();
            assert_eq!(reopened, prefix, "{kind}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// One literal payload per `op`, as stores have written them since
    /// the log format was introduced.
    const GOLDEN_LOG: [&[u8]; 13] = [
        br#"{"coll":"obs","op":"touch"}"#,
        br#"{"coll":"obs","op":"create_index","path":"model"}"#,
        br#"{"coll":"obs","doc":{"_id":0,"model":"A","spl":40},"id":0,"op":"insert"}"#,
        br#"{"coll":"obs","doc":{"_id":1,"model":"B","spl":55},"id":1,"op":"insert"}"#,
        br#"{"coll":"obs","doc":{"_id":0,"flagged":true,"model":"A","spl":40},"id":0,"op":"update"}"#,
        br#"{"coll":"obs","ids":[1],"op":"delete"}"#,
        br#"{"coll":"obs","op":"create_index","path":"spl"}"#,
        br#"{"coll":"obs","op":"drop_index","path":"spl"}"#,
        br#"{"coll":"tmp","op":"touch"}"#,
        br#"{"coll":"tmp","doc":{"_id":0,"k":"v"},"id":0,"op":"insert"}"#,
        br#"{"coll":"tmp","op":"clear"}"#,
        br#"{"coll":"gone","op":"touch"}"#,
        br#"{"coll":"gone","op":"drop_collection"}"#,
    ];

    const GOLDEN_EXPORT: &str = r#"{"collections":{"obs":{"docs":[{"_id":0,"flagged":true,"model":"A","spl":40}],"indexes":["model"],"next_id":2},"tmp":{"docs":[],"indexes":[],"next_id":1}}}"#;

    #[test]
    fn golden_log_replays_to_the_golden_export() {
        let dir = temp_dir("golden-replay");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
        wal.append_batch(&GOLDEN_LOG.map(<[u8]>::to_vec)).unwrap();
        drop(wal);
        let store = Store::open(durable(&dir)).unwrap();
        assert_eq!(store.export_json(), GOLDEN_EXPORT);
        assert_eq!(store.collection("obs").index_cardinality("model"), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replayed_id_sizes_nothing() {
        // Block summaries are kept by id: in a sparse map, so an id from
        // the log — any `u64` — costs one entry, not a table up to it.
        const FAR: u64 = 1 << 63;
        let dir = temp_dir("far-id");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
        wal.append_batch(&[
            br#"{"coll":"obs","doc":{"_id":3,"day":1},"id":3,"op":"insert"}"#.to_vec(),
            br#"{"coll":"obs","doc":{"_id":9223372036854775808,"day":2},"id":9223372036854775808,"op":"insert"}"#.to_vec(),
        ])
        .unwrap();
        drop(wal);
        let store = Store::open(durable(&dir)).unwrap();
        let obs = store.collection("obs");
        assert_eq!(
            obs.find(&Filter::eq("day", 2)).unwrap(),
            [json!({"_id": FAR, "day": 2})]
        );
        assert_eq!(obs.count(&Filter::gte("_id", FAR)).unwrap(), 1);
        assert_eq!(obs.count(&Filter::lt("_id", FAR)).unwrap(), 1);
        assert_eq!(obs.insert_one(json!({"day": 3})).unwrap(), DocId(FAR + 1));
        assert_eq!(obs.delete_many(&Filter::gte("day", 2)).unwrap(), 2);
        assert_eq!(obs.all(), [json!({"_id": 3, "day": 1})]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_same_mutations_write_the_golden_log() {
        let dir = temp_dir("golden-write");
        let config = DurabilityConfig::new(&dir)
            .wal(WalConfig::default().telemetry(false))
            .snapshot_every(0);
        let store = Store::open(Durability::Durable(config)).unwrap();
        let obs = store.collection("obs");
        obs.create_index("model").unwrap();
        obs.insert_many([
            json!({"model": "A", "spl": 40}),
            json!({"model": "B", "spl": 55}),
        ])
        .unwrap();
        obs.update_many(&Filter::eq("model", "A"), &Update::set("flagged", true))
            .unwrap();
        obs.delete_many(&Filter::eq("model", "B")).unwrap();
        obs.create_index("spl").unwrap();
        obs.drop_index("spl").unwrap();
        let tmp = store.collection("tmp");
        tmp.insert_one(json!({"k": "v"})).unwrap();
        tmp.clear().unwrap();
        store.collection("gone");
        store.drop_collection("gone").unwrap();
        assert_eq!(store.export_json(), GOLDEN_EXPORT);
        drop((store, obs, tmp));

        let (_wal, recovered) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
        let mut written = Vec::new();
        recovered
            .entries
            .replay(|_, payload| {
                written.push(String::from_utf8(payload.to_vec()).unwrap());
                Ok::<_, mps_wal::WalError>(())
            })
            .unwrap();
        let golden = GOLDEN_LOG.map(|payload| std::str::from_utf8(payload).unwrap());
        assert_eq!(written, golden);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every mutation enters through `Collection::mutate` or, for the two
    /// store-level ones, `journaled(store.journal(..))`: in memory both
    /// hand `apply` no journal, so no delta can be built.
    #[test]
    fn the_in_memory_path_builds_no_journal() {
        let memory = Store::new();
        let collection = memory.collection("obs");
        assert_eq!(collection.mutate(|_, log| log.is_none()), Ok(true));
        assert!(journaled(memory.journal("obs"), |log| log.is_none()).0);

        let dir = temp_dir("journal");
        let store = Store::open(durable(&dir)).unwrap();
        let collection = store.collection("obs");
        assert_eq!(collection.mutate(|_, log| log.is_some()), Ok(true));
        assert!(journaled(store.journal("obs"), |log| log.is_some()).0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_open_matches_new() {
        let store = Store::open(Durability::InMemory).unwrap();
        assert!(!store.is_durable());
        assert_eq!(store.checkpoint().unwrap(), 0);
        store.collection("a").insert_one(json!({"x": 1})).unwrap();
        assert_eq!(store.total_documents(), 1);
    }
}
