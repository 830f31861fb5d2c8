//! Durable brokers: write-ahead logging of queue transitions, recovery.
//!
//! A broker opened with [`Broker::open_durable`](crate::Broker::open_durable)
//! assigns every enqueued message copy a **durable id** and logs each
//! queue-state transition to an [`mps_wal::Wal`]: `enqueue` (with key,
//! headers and payload), `ack`, `discard`, `requeue`, `dead_letter`,
//! `purge` and `delete_queue`. A publish fanned out to several queues
//! appends all its enqueue deltas with **one** group-committed fsync.
//!
//! Recovery replays the newest snapshot plus the log tail. Deliveries
//! (`consume`) are deliberately *not* logged: a message that was
//! in-flight (unacked) at the crash is restored as ready and will be
//! redelivered — standard at-least-once semantics — while an acked
//! message is never resurrected, because its `ack` delta survives.
//!
//! **Topology is durable too**: exchange and queue declarations (with
//! capacities), bindings and dead-letter policies are logged as
//! `declare_exchange` / `declare_queue` / `bind_queue` / `bind_exchange`
//! / `unbind_queue` / `delete_exchange` / `dead_letter_policy` deltas
//! and restored *before* queue transitions are replayed, so applications
//! no longer have to re-declare capacities and DLQ policies on startup
//! (re-declaring stays idempotent and harmless).
//!
//! **Snapshots** hold the topology and every message copy still owed
//! (ready or unacked), and are taken when the log's cadence
//! ([`mps_wal::Wal::snapshot_due`]) says half of what a reopen would read
//! is dead: copies acked, discarded or purged, and the records that
//! settled them. A backlog nobody acks is never rewritten, however long
//! it grows; recovery replays it from the log.
//!
//! **Limits.** Per-queue session counters (`enqueued_total`, delivery
//! tags) restart. As with the docstore, a durability failure
//! mid-operation can leave memory ahead of the log; the instance must
//! be discarded and reopened.

use crate::{BrokerError, ExchangeType, Message};
use mps_wal::Recovered;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Mutex as StdMutex, MutexGuard, PoisonError};

/// Configuration for a durable broker.
#[derive(Debug, Clone)]
pub struct BrokerDurabilityConfig {
    /// Directory holding the broker's WAL segments and snapshots.
    pub dir: PathBuf,
    /// The underlying log's tuning (fsync policy, segment size,
    /// telemetry, recovery span, crash-kill switch).
    pub wal: mps_wal::WalConfig,
    /// Take a snapshot (and compact) once at least this many records
    /// were logged since the last one **and**, of the records a reopen
    /// would read, at least this many and at least half are dead
    /// ([`mps_wal::Wal::snapshot_due`]) — a backlog nobody acks is never
    /// rewritten; `0` disables automatic snapshots
    /// ([`Broker::checkpoint`](crate::Broker::checkpoint) still works).
    pub snapshot_every: u64,
}

impl BrokerDurabilityConfig {
    /// Durability in `dir` with default WAL tuning and a snapshot floor
    /// of 4096 logged records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            wal: mps_wal::WalConfig::default(),
            snapshot_every: 4096,
        }
    }

    /// Replaces the WAL tuning.
    pub fn wal(mut self, wal: mps_wal::WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Sets the automatic snapshot floor (`0` = manual only).
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records;
        self
    }
}

/// One message copy in a [`QueueSnapshot`] — enough to compare two
/// recovered brokers for identical queue state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageView {
    /// The store-wide durable id of this copy (0 on in-memory brokers).
    pub durable_id: u64,
    /// Times the copy was already delivered.
    pub deliveries: u32,
    /// Routing key the message was published with.
    pub key: String,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Management view of one queue's full message state, in queue order —
/// the determinism witness used by the recovery matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Queue name.
    pub name: String,
    /// Ready messages, front first.
    pub ready: Vec<MessageView>,
    /// Unacked deliveries, in tag order.
    pub unacked: Vec<MessageView>,
}

/// A message copy reconstructed from the log during recovery.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredEntry {
    pub(crate) id: u64,
    pub(crate) key: String,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) payload: Vec<u8>,
    pub(crate) deliveries: u32,
}

/// Durable topology as recovered from (or encoded into) the log: the
/// declarative broker state that is *not* per-message. Also serves as
/// the snapshot-time view the broker builds from its live state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ReplayedTopology {
    /// Exchange name → type.
    pub(crate) exchanges: BTreeMap<String, ExchangeType>,
    /// Declared queues and their capacity limits.
    pub(crate) queue_capacities: BTreeMap<String, Option<usize>>,
    /// `(exchange, queue, pattern)` bindings, in declaration order.
    pub(crate) queue_bindings: Vec<(String, String, String)>,
    /// `(source, destination, pattern)` exchange-to-exchange bindings.
    pub(crate) exchange_bindings: Vec<(String, String, String)>,
    /// Queue → (max delivery attempts, dead-letter target).
    pub(crate) dead_letters: BTreeMap<String, (u32, String)>,
}

/// The replayed topology and queue contents plus the next durable id.
pub(crate) struct ReplayedState {
    pub(crate) topology: ReplayedTopology,
    pub(crate) queues: BTreeMap<String, VecDeque<RecoveredEntry>>,
    pub(crate) next_id: u64,
    /// Message copies the snapshot held, before the tail was applied.
    pub(crate) snapshot_held: u64,
}

/// Broker-wide durable state: the log plus the snapshot cadence.
///
/// All broker mutations happen under the broker's state lock, which
/// also orders their log appends; the wal mutex is always taken *after*
/// the state lock (state → wal), never the other way around.
#[derive(Debug)]
pub(crate) struct BrokerDurable {
    /// The log and, under the same lock, the message copies its newest
    /// snapshot held when it was taken: what the cadence is asked with.
    log: StdMutex<(mps_wal::Wal, u64)>,
    snapshot_every: u64,
}

impl BrokerDurable {
    pub(crate) fn new(wal: mps_wal::Wal, held: u64, snapshot_every: u64) -> Self {
        Self {
            log: StdMutex::new((wal, held)),
            snapshot_every,
        }
    }

    fn lock_log(&self) -> MutexGuard<'_, (mps_wal::Wal, u64)> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `deltas` as one group-committed batch.
    pub(crate) fn append(&self, deltas: &[Value]) -> Result<(), BrokerError> {
        if deltas.is_empty() {
            return Ok(());
        }
        let mut payloads = Vec::with_capacity(deltas.len());
        for delta in deltas {
            payloads.push(serde_json::to_vec(delta).map_err(corrupt)?);
        }
        self.lock_log().0.append_batch(&payloads).map_err(wal_err)?;
        Ok(())
    }

    /// Whether the log's cadence asks for a snapshot now, of the `live`
    /// message copies one would hold.
    pub(crate) fn snapshot_due(&self, live: u64) -> bool {
        let log = self.lock_log();
        log.0.snapshot_due(self.snapshot_every, log.1, live)
    }

    /// Writes the snapshot bytes, a state of `live` message copies, and
    /// compacts covered segments.
    pub(crate) fn write_snapshot(&self, state: &[u8], live: u64) -> Result<u64, BrokerError> {
        let mut log = self.lock_log();
        let (wal, held) = &mut *log;
        let covered = wal.snapshot_holding(state, *held, live).map_err(wal_err)?;
        *held = live;
        Ok(covered)
    }
}

/// The loggable form of one enqueued message copy.
pub(crate) fn entry_of(message: &Message, deliveries: u32, id: u64) -> RecoveredEntry {
    RecoveredEntry {
        id,
        key: message.routing_key().as_str().to_owned(),
        headers: message
            .headers()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        payload: message.payload().to_vec(),
        deliveries,
    }
}

pub(crate) fn wal_err(e: mps_wal::WalError) -> BrokerError {
    BrokerError::Durability(e.to_string())
}

fn corrupt(why: impl std::fmt::Display) -> BrokerError {
    BrokerError::Durability(format!("log replay failed: {why}"))
}

// ----- payload hex codec (dependency-free, JSON-safe) -------------------

pub(crate) fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

pub(crate) fn from_hex(s: &str) -> Result<Vec<u8>, BrokerError> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    }
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err(corrupt("odd-length hex payload"));
    }
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => out.push((hi << 4) | lo),
            _ => return Err(corrupt("non-hex byte in payload")),
        }
    }
    Ok(out)
}

// ----- delta builders ---------------------------------------------------

fn kind_str(kind: ExchangeType) -> &'static str {
    match kind {
        ExchangeType::Direct => "direct",
        ExchangeType::Fanout => "fanout",
        ExchangeType::Topic => "topic",
    }
}

fn parse_kind(s: &str) -> Result<ExchangeType, BrokerError> {
    match s {
        "direct" => Ok(ExchangeType::Direct),
        "fanout" => Ok(ExchangeType::Fanout),
        "topic" => Ok(ExchangeType::Topic),
        other => Err(corrupt(format!("unknown exchange kind `{other}`"))),
    }
}

pub(crate) fn declare_exchange_delta(name: &str, kind: ExchangeType) -> Value {
    json!({"op": "declare_exchange", "name": name, "kind": kind_str(kind)})
}

pub(crate) fn declare_queue_delta(name: &str, capacity: Option<usize>) -> Value {
    json!({"op": "declare_queue", "name": name, "capacity": capacity})
}

pub(crate) fn bind_queue_delta(exchange: &str, queue: &str, pattern: &str) -> Value {
    json!({"op": "bind_queue", "exchange": exchange, "queue": queue, "pattern": pattern})
}

pub(crate) fn bind_exchange_delta(source: &str, destination: &str, pattern: &str) -> Value {
    json!({"op": "bind_exchange", "source": source, "destination": destination, "pattern": pattern})
}

pub(crate) fn unbind_queue_delta(exchange: &str, queue: &str, pattern: &str) -> Value {
    json!({"op": "unbind_queue", "exchange": exchange, "queue": queue, "pattern": pattern})
}

pub(crate) fn delete_exchange_delta(name: &str) -> Value {
    json!({"op": "delete_exchange", "name": name})
}

pub(crate) fn dead_letter_policy_delta(queue: &str, max_attempts: u32, target: &str) -> Value {
    json!({"op": "dead_letter_policy", "queue": queue, "max_attempts": max_attempts, "target": target})
}

pub(crate) fn enqueue_delta(queue: &str, entry: &RecoveredEntry) -> Value {
    let mut headers = Map::new();
    for (k, v) in &entry.headers {
        headers.insert(k.clone(), Value::String(v.clone()));
    }
    json!({
        "op": "enqueue",
        "queue": queue,
        "id": entry.id,
        "key": entry.key,
        "headers": headers,
        "payload": to_hex(&entry.payload),
        "deliveries": entry.deliveries,
    })
}

pub(crate) fn ack_delta(queue: &str, id: u64) -> Value {
    json!({"op": "ack", "queue": queue, "id": id})
}

pub(crate) fn discard_delta(queue: &str, id: u64) -> Value {
    json!({"op": "discard", "queue": queue, "id": id})
}

pub(crate) fn requeue_delta(queue: &str, id: u64, attempts: u32) -> Value {
    json!({"op": "requeue", "queue": queue, "id": id, "attempts": attempts})
}

pub(crate) fn dead_letter_delta(queue: &str, id: u64, to: &str) -> Value {
    json!({"op": "dead_letter", "queue": queue, "id": id, "to": to})
}

pub(crate) fn purge_delta(queue: &str, ids: &[u64]) -> Value {
    json!({"op": "purge", "queue": queue, "ids": ids})
}

pub(crate) fn delete_queue_delta(queue: &str) -> Value {
    json!({"op": "delete_queue", "queue": queue})
}

// ----- snapshot + replay ------------------------------------------------

/// Encodes the full queue state (ready + unacked folded together, queue
/// order) plus the declared topology as canonical snapshot bytes.
pub(crate) fn encode_snapshot(
    queues: &BTreeMap<String, Vec<RecoveredEntry>>,
    next_id: u64,
    topology: &ReplayedTopology,
) -> Result<Vec<u8>, BrokerError> {
    let mut out = Map::new();
    for (name, entries) in queues {
        let list: Vec<Value> = entries
            .iter()
            .map(|e| {
                let mut headers = Map::new();
                for (k, v) in &e.headers {
                    headers.insert(k.clone(), Value::String(v.clone()));
                }
                json!({
                    "id": e.id,
                    "key": e.key,
                    "headers": headers,
                    "payload": to_hex(&e.payload),
                    "deliveries": e.deliveries,
                })
            })
            .collect();
        out.insert(name.clone(), Value::Array(list));
    }
    let exchanges: Map<String, Value> = topology
        .exchanges
        .iter()
        .map(|(name, kind)| (name.clone(), Value::String(kind_str(*kind).to_owned())))
        .collect();
    let capacities: Map<String, Value> = topology
        .queue_capacities
        .iter()
        .map(|(name, cap)| (name.clone(), json!(cap)))
        .collect();
    let triple = |(a, b, c): &(String, String, String)| json!([a, b, c]);
    let dead_letters: Map<String, Value> = topology
        .dead_letters
        .iter()
        .map(|(queue, (max, target))| {
            (
                queue.clone(),
                json!({"max_attempts": max, "target": target}),
            )
        })
        .collect();
    serde_json::to_vec(&json!({
        "next_id": next_id,
        "queues": out,
        "topology": {
            "exchanges": exchanges,
            "queue_capacities": capacities,
            "queue_bindings": topology.queue_bindings.iter().map(triple).collect::<Vec<_>>(),
            "exchange_bindings": topology.exchange_bindings.iter().map(triple).collect::<Vec<_>>(),
            "dead_letters": dead_letters,
        },
    }))
    .map_err(corrupt)
}

fn parse_triples(
    value: Option<&Value>,
    at: &str,
) -> Result<Vec<(String, String, String)>, BrokerError> {
    let mut out = Vec::new();
    for entry in value.and_then(Value::as_array).into_iter().flatten() {
        let parts = entry
            .as_array()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| corrupt(format!("{at}: binding is not a 3-tuple")))?;
        let mut strings = Vec::with_capacity(3);
        for p in parts {
            strings.push(
                p.as_str()
                    .ok_or_else(|| corrupt(format!("{at}: non-string binding part")))?
                    .to_owned(),
            );
        }
        let c = strings.pop().unwrap_or_default();
        let b = strings.pop().unwrap_or_default();
        let a = strings.pop().unwrap_or_default();
        out.push((a, b, c));
    }
    Ok(out)
}

/// Parses the topology section of a snapshot; snapshots written before
/// topology became durable simply lack the key and recover empty.
fn parse_topology(snapshot: &Value) -> Result<ReplayedTopology, BrokerError> {
    let mut topology = ReplayedTopology::default();
    let Some(section) = snapshot.get("topology") else {
        return Ok(topology);
    };
    for (name, kind) in section
        .get("exchanges")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
    {
        let kind = kind
            .as_str()
            .ok_or_else(|| corrupt(format!("exchange {name}: non-string kind")))?;
        topology.exchanges.insert(name.clone(), parse_kind(kind)?);
    }
    for (name, cap) in section
        .get("queue_capacities")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
    {
        let capacity = if cap.is_null() {
            None
        } else {
            Some(
                cap.as_u64()
                    .ok_or_else(|| corrupt(format!("queue {name}: bad capacity")))?
                    as usize,
            )
        };
        topology.queue_capacities.insert(name.clone(), capacity);
    }
    topology.queue_bindings = parse_triples(section.get("queue_bindings"), "queue_bindings")?;
    topology.exchange_bindings =
        parse_triples(section.get("exchange_bindings"), "exchange_bindings")?;
    for (queue, policy) in section
        .get("dead_letters")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
    {
        let max = policy
            .get("max_attempts")
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt(format!("dead letter on {queue}: missing max_attempts")))?;
        let target = policy
            .get("target")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(format!("dead letter on {queue}: missing target")))?;
        topology
            .dead_letters
            .insert(queue.clone(), (max as u32, target.to_owned()));
    }
    Ok(topology)
}

fn parse_entry(value: &Value, at: &str) -> Result<RecoveredEntry, BrokerError> {
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| corrupt(format!("{at}: missing id")))?;
    let key = value
        .get("key")
        .and_then(Value::as_str)
        .ok_or_else(|| corrupt(format!("{at}: missing key")))?
        .to_owned();
    let payload = from_hex(
        value
            .get("payload")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(format!("{at}: missing payload")))?,
    )?;
    let deliveries = value.get("deliveries").and_then(Value::as_u64).unwrap_or(0) as u32;
    let mut headers = Vec::new();
    for (k, v) in value
        .get("headers")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
    {
        if let Some(v) = v.as_str() {
            headers.push((k.clone(), v.to_owned()));
        }
    }
    Ok(RecoveredEntry {
        id,
        key,
        headers,
        payload,
        deliveries,
    })
}

fn remove_by_id(queue: &mut VecDeque<RecoveredEntry>, id: u64) -> Option<RecoveredEntry> {
    let pos = queue.iter().position(|e| e.id == id)?;
    queue.remove(pos)
}

/// Rebuilds topology and queue contents from a recovered snapshot +
/// log tail.
///
/// Deltas referring to ids the replay no longer holds (e.g. an `ack`
/// logged after a crash-killed `enqueue` append) are ignored: the
/// message was never durably enqueued, so there is nothing to remove.
pub(crate) fn replay(recovered: &Recovered) -> Result<ReplayedState, BrokerError> {
    let mut queues: BTreeMap<String, VecDeque<RecoveredEntry>> = BTreeMap::new();
    let mut topology = ReplayedTopology::default();
    let mut next_id: u64 = 1;
    let mut snapshot_held = 0;

    if let Some(bytes) = &recovered.snapshot {
        let state: Value = serde_json::from_slice(bytes).map_err(corrupt)?;
        next_id = state
            .get("next_id")
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt("snapshot missing next_id"))?;
        topology = parse_topology(&state)?;
        for (name, list) in state
            .get("queues")
            .and_then(Value::as_object)
            .ok_or_else(|| corrupt("snapshot missing queues"))?
        {
            let mut entries = VecDeque::new();
            for value in list.as_array().into_iter().flatten() {
                entries.push_back(parse_entry(value, &format!("snapshot queue {name}"))?);
            }
            snapshot_held += entries.len() as u64;
            queues.insert(name.clone(), entries);
        }
    }

    let field = |delta: &Value, name: &'static str, lsn: &u64| -> Result<String, BrokerError> {
        Ok(delta
            .get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(format!("delta at lsn {lsn} has no {name}")))?
            .to_owned())
    };
    for (lsn, payload) in &recovered.entries {
        let delta: Value = serde_json::from_slice(payload)
            .map_err(|e| corrupt(format!("bad delta at lsn {lsn}: {e}")))?;
        let op = delta
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(format!("delta at lsn {lsn} has no op")))?;

        // Topology deltas carry their own fields; handle them before the
        // queue-transition ops, which all require a `queue` field.
        match op {
            "declare_exchange" => {
                let name = field(&delta, "name", lsn)?;
                let kind = parse_kind(&field(&delta, "kind", lsn)?)?;
                topology.exchanges.insert(name, kind);
                continue;
            }
            "declare_queue" => {
                let name = field(&delta, "name", lsn)?;
                let capacity = match delta.get("capacity") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        corrupt(format!("declare_queue at lsn {lsn}: bad capacity"))
                    })? as usize),
                };
                topology.queue_capacities.entry(name).or_insert(capacity);
                continue;
            }
            "bind_queue" => {
                let binding = (
                    field(&delta, "exchange", lsn)?,
                    field(&delta, "queue", lsn)?,
                    field(&delta, "pattern", lsn)?,
                );
                if !topology.queue_bindings.contains(&binding) {
                    topology.queue_bindings.push(binding);
                }
                continue;
            }
            "bind_exchange" => {
                let binding = (
                    field(&delta, "source", lsn)?,
                    field(&delta, "destination", lsn)?,
                    field(&delta, "pattern", lsn)?,
                );
                if !topology.exchange_bindings.contains(&binding) {
                    topology.exchange_bindings.push(binding);
                }
                continue;
            }
            "unbind_queue" => {
                let binding = (
                    field(&delta, "exchange", lsn)?,
                    field(&delta, "queue", lsn)?,
                    field(&delta, "pattern", lsn)?,
                );
                topology.queue_bindings.retain(|b| *b != binding);
                continue;
            }
            "delete_exchange" => {
                let name = field(&delta, "name", lsn)?;
                topology.exchanges.remove(&name);
                topology
                    .queue_bindings
                    .retain(|(source, _, _)| *source != name);
                topology
                    .exchange_bindings
                    .retain(|(source, destination, _)| *source != name && *destination != name);
                continue;
            }
            "dead_letter_policy" => {
                let queue = field(&delta, "queue", lsn)?;
                let target = field(&delta, "target", lsn)?;
                let max = delta
                    .get("max_attempts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| {
                        corrupt(format!("dead_letter_policy at lsn {lsn}: no max_attempts"))
                    })? as u32;
                topology.dead_letters.insert(queue, (max, target));
                continue;
            }
            _ => {}
        }

        let queue_name = delta
            .get("queue")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(format!("delta at lsn {lsn} has no queue")))?;
        let id = delta.get("id").and_then(Value::as_u64);
        match op {
            "enqueue" => {
                let entry = parse_entry(&delta, &format!("enqueue at lsn {lsn}"))?;
                next_id = next_id.max(entry.id + 1);
                queues
                    .entry(queue_name.to_owned())
                    .or_default()
                    .push_back(entry);
            }
            "ack" | "discard" => {
                let id = id.ok_or_else(|| corrupt(format!("{op} at lsn {lsn} has no id")))?;
                if let Some(queue) = queues.get_mut(queue_name) {
                    remove_by_id(queue, id);
                }
            }
            "requeue" => {
                let id = id.ok_or_else(|| corrupt(format!("requeue at lsn {lsn} has no id")))?;
                let attempts = delta.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32;
                if let Some(queue) = queues.get_mut(queue_name) {
                    if let Some(mut entry) = remove_by_id(queue, id) {
                        entry.deliveries = attempts;
                        queue.push_front(entry);
                    }
                }
            }
            "dead_letter" => {
                let id =
                    id.ok_or_else(|| corrupt(format!("dead_letter at lsn {lsn} has no id")))?;
                let to = delta
                    .get("to")
                    .and_then(Value::as_str)
                    .ok_or_else(|| corrupt(format!("dead_letter at lsn {lsn} has no target")))?
                    .to_owned();
                let moved = queues
                    .get_mut(queue_name)
                    .and_then(|queue| remove_by_id(queue, id));
                if let Some(mut entry) = moved {
                    entry.deliveries = 0;
                    queues.entry(to).or_default().push_back(entry);
                }
            }
            "purge" => {
                if let Some(queue) = queues.get_mut(queue_name) {
                    for id in delta
                        .get("ids")
                        .and_then(Value::as_array)
                        .into_iter()
                        .flatten()
                        .filter_map(Value::as_u64)
                    {
                        remove_by_id(queue, id);
                    }
                }
            }
            "delete_queue" => {
                queues.remove(queue_name);
                topology.queue_capacities.remove(queue_name);
                topology.dead_letters.remove(queue_name);
                topology
                    .queue_bindings
                    .retain(|(_, queue, _)| queue != queue_name);
            }
            other => {
                return Err(corrupt(format!("unknown op `{other}` at lsn {lsn}")));
            }
        }
    }

    Ok(ReplayedState {
        topology,
        queues,
        next_id,
        snapshot_held,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Broker, RoutingKey};

    #[test]
    fn hex_roundtrips() {
        for payload in [&b""[..], &b"\x00\xff\x10observation"[..]] {
            assert_eq!(from_hex(&to_hex(payload)).unwrap(), payload);
        }
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn replay_applies_deltas_in_order() {
        let entry = |id: u64| RecoveredEntry {
            id,
            key: "obs.k".into(),
            headers: vec![("h".into(), "v".into())],
            payload: vec![id as u8],
            deliveries: 0,
        };
        let deltas = [
            enqueue_delta("q", &entry(1)),
            enqueue_delta("q", &entry(2)),
            enqueue_delta("q", &entry(3)),
            ack_delta("q", 1),
            requeue_delta("q", 3, 2),
            dead_letter_delta("q", 2, "dlq"),
        ];
        let recovered = Recovered {
            snapshot: None,
            snapshot_lsn: 0,
            entries: deltas
                .iter()
                .enumerate()
                .map(|(i, d)| (i as u64 + 1, serde_json::to_vec(d).unwrap()))
                .collect(),
            report: Default::default(),
        };
        let state = replay(&recovered).unwrap();
        assert_eq!(state.next_id, 4);
        let q: Vec<u64> = state.queues["q"].iter().map(|e| e.id).collect();
        assert_eq!(
            q,
            vec![3],
            "acked and dead-lettered removed, requeued at front"
        );
        assert_eq!(state.queues["q"][0].deliveries, 2);
        let dlq: Vec<u64> = state.queues["dlq"].iter().map(|e| e.id).collect();
        assert_eq!(dlq, vec![2]);
        assert_eq!(state.queues["dlq"][0].deliveries, 0);
    }

    #[test]
    fn replay_restores_topology_from_deltas() {
        let deltas = [
            declare_exchange_delta("obs", ExchangeType::Topic),
            declare_exchange_delta("doomed", ExchangeType::Fanout),
            declare_queue_delta("q", Some(64)),
            declare_queue_delta("unbounded", None),
            bind_queue_delta("obs", "q", "obs.#"),
            bind_queue_delta("obs", "q", "obs.#"), // idempotent re-bind
            bind_queue_delta("doomed", "q", "#"),
            bind_exchange_delta("obs", "doomed", "#"),
            dead_letter_policy_delta("q", 5, "dlq"),
            unbind_queue_delta("obs", "q", "never.bound"), // no-op
            delete_exchange_delta("doomed"),
        ];
        let recovered = Recovered {
            snapshot: None,
            snapshot_lsn: 0,
            entries: deltas
                .iter()
                .enumerate()
                .map(|(i, d)| (i as u64 + 1, serde_json::to_vec(d).unwrap()))
                .collect(),
            report: Default::default(),
        };
        let state = replay(&recovered).unwrap();
        let topology = &state.topology;
        assert_eq!(
            topology.exchanges,
            BTreeMap::from([("obs".to_owned(), ExchangeType::Topic)]),
            "deleted exchange must not survive replay"
        );
        assert_eq!(topology.queue_capacities["q"], Some(64));
        assert_eq!(topology.queue_capacities["unbounded"], None);
        assert_eq!(
            topology.queue_bindings,
            vec![("obs".to_owned(), "q".to_owned(), "obs.#".to_owned())],
            "duplicate binds collapse; bindings from a deleted exchange drop"
        );
        assert!(topology.exchange_bindings.is_empty());
        assert_eq!(topology.dead_letters["q"], (5, "dlq".to_owned()));
    }

    #[test]
    fn snapshot_roundtrips_topology() {
        let mut topology = ReplayedTopology::default();
        topology.exchanges.insert("obs".into(), ExchangeType::Topic);
        topology.queue_capacities.insert("q".into(), Some(8));
        topology.queue_capacities.insert("dlq".into(), None);
        topology
            .queue_bindings
            .push(("obs".into(), "q".into(), "obs.*.temp".into()));
        topology
            .exchange_bindings
            .push(("obs".into(), "audit".into(), "#".into()));
        topology.dead_letters.insert("q".into(), (3, "dlq".into()));
        let bytes = encode_snapshot(&BTreeMap::new(), 7, &topology).unwrap();
        let recovered = Recovered {
            snapshot: Some(bytes),
            snapshot_lsn: 1,
            entries: vec![],
            report: Default::default(),
        };
        let state = replay(&recovered).unwrap();
        assert_eq!(state.next_id, 7);
        assert_eq!(state.topology, topology);
    }

    #[test]
    fn pre_topology_snapshots_recover_with_empty_topology() {
        let bytes = serde_json::to_vec(&json!({"next_id": 3, "queues": {}})).unwrap();
        let recovered = Recovered {
            snapshot: Some(bytes),
            snapshot_lsn: 1,
            entries: vec![],
            report: Default::default(),
        };
        let state = replay(&recovered).unwrap();
        assert_eq!(state.topology, ReplayedTopology::default());
        assert_eq!(state.next_id, 3);
    }

    /// A fresh directory per test.
    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-broker-golden-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quiet() -> mps_wal::WalConfig {
        mps_wal::WalConfig::default().telemetry(false)
    }

    /// Opens the durable broker in `dir`, automatic snapshots off.
    fn open(dir: &PathBuf) -> Broker {
        let config = BrokerDurabilityConfig::new(dir)
            .wal(quiet())
            .snapshot_every(0);
        Broker::open_durable(config).unwrap()
    }

    /// The calls behind [`GOLDEN_BROKER_LOG`]: every topology and queue
    /// transition a broker logs, each at least once.
    fn golden_calls(b: &Broker) {
        b.declare_exchange("client", ExchangeType::Topic).unwrap();
        b.declare_exchange("app", ExchangeType::Direct).unwrap();
        b.declare_exchange("old", ExchangeType::Fanout).unwrap();
        b.declare_queue_with_capacity("q", 8).unwrap();
        b.declare_queue("dlq").unwrap();
        b.declare_queue("spill").unwrap();
        b.bind_exchange("client", "app", "#").unwrap();
        b.bind_queue("app", "q", "obs.a").unwrap();
        b.bind_queue("client", "spill", "obs.*").unwrap();
        b.unbind_queue("client", "spill", "obs.*").unwrap();
        b.configure_dead_letter("q", 2, "dlq").unwrap();
        b.delete_exchange("old").unwrap();
        let key = RoutingKey::new("obs.a").unwrap();
        let m1 = Message::new(key, &b"m1"[..]).with_header("x-client", "c1");
        b.publish_message("client", m1).unwrap();
        for payload in [&b"m2"[..], b"m3", b"m4", b"m5"] {
            assert_eq!(b.publish("client", "obs.a", payload).unwrap(), 1);
        }
        let d = b.consume("q", 3).unwrap();
        b.ack("q", d[0].tag).unwrap();
        b.nack("q", d[1].tag, true).unwrap();
        b.nack("q", d[2].tag, false).unwrap();
        // m2 again: its second delivery exhausts the policy.
        let d = b.consume("q", 1).unwrap();
        b.nack("q", d[0].tag, true).unwrap();
        assert_eq!(b.purge_queue("q").unwrap(), 2);
        b.delete_queue("spill").unwrap();
        b.publish("client", "obs.a", &b"m6"[..]).unwrap();
        b.publish("client", "obs.a", &[0x00, 0xff][..]).unwrap();
        let d = b.consume("q", 1).unwrap();
        b.nack("q", d[0].tag, true).unwrap();
        // In flight when the broker goes away: a delivery is not logged.
        assert_eq!(b.consume("q", 1).unwrap().len(), 1);
    }

    /// One literal payload per `op` at least, as durable brokers have
    /// written them since topology became durable: what
    /// [`golden_calls`] logs.
    const GOLDEN_BROKER_LOG: [&[u8]; 26] = [
        br#"{"kind":"topic","name":"client","op":"declare_exchange"}"#,
        br#"{"kind":"direct","name":"app","op":"declare_exchange"}"#,
        br#"{"kind":"fanout","name":"old","op":"declare_exchange"}"#,
        br#"{"capacity":8,"name":"q","op":"declare_queue"}"#,
        br#"{"capacity":null,"name":"dlq","op":"declare_queue"}"#,
        br#"{"capacity":null,"name":"spill","op":"declare_queue"}"#,
        br##"{"destination":"app","op":"bind_exchange","pattern":"#","source":"client"}"##,
        br#"{"exchange":"app","op":"bind_queue","pattern":"obs.a","queue":"q"}"#,
        br#"{"exchange":"client","op":"bind_queue","pattern":"obs.*","queue":"spill"}"#,
        br#"{"exchange":"client","op":"unbind_queue","pattern":"obs.*","queue":"spill"}"#,
        br#"{"max_attempts":2,"op":"dead_letter_policy","queue":"q","target":"dlq"}"#,
        br#"{"name":"old","op":"delete_exchange"}"#,
        br#"{"deliveries":0,"headers":{"x-client":"c1"},"id":1,"key":"obs.a","op":"enqueue","payload":"6d31","queue":"q"}"#,
        br#"{"deliveries":0,"headers":{},"id":2,"key":"obs.a","op":"enqueue","payload":"6d32","queue":"q"}"#,
        br#"{"deliveries":0,"headers":{},"id":3,"key":"obs.a","op":"enqueue","payload":"6d33","queue":"q"}"#,
        br#"{"deliveries":0,"headers":{},"id":4,"key":"obs.a","op":"enqueue","payload":"6d34","queue":"q"}"#,
        br#"{"deliveries":0,"headers":{},"id":5,"key":"obs.a","op":"enqueue","payload":"6d35","queue":"q"}"#,
        br#"{"id":1,"op":"ack","queue":"q"}"#,
        br#"{"attempts":1,"id":2,"op":"requeue","queue":"q"}"#,
        br#"{"id":3,"op":"discard","queue":"q"}"#,
        br#"{"id":2,"op":"dead_letter","queue":"q","to":"dlq"}"#,
        br#"{"ids":[4,5],"op":"purge","queue":"q"}"#,
        br#"{"op":"delete_queue","queue":"spill"}"#,
        br#"{"deliveries":0,"headers":{},"id":6,"key":"obs.a","op":"enqueue","payload":"6d36","queue":"q"}"#,
        br#"{"deliveries":0,"headers":{},"id":7,"key":"obs.a","op":"enqueue","payload":"00ff","queue":"q"}"#,
        br#"{"attempts":1,"id":6,"op":"requeue","queue":"q"}"#,
    ];

    /// What a checkpoint after [`golden_calls`] writes. The delivery in
    /// flight is folded back behind the ready copies with its count.
    const GOLDEN_BROKER_SNAPSHOT: &str = r##"{"next_id":8,"queues":{"dlq":[{"deliveries":0,"headers":{},"id":2,"key":"obs.a","payload":"6d32"}],"q":[{"deliveries":0,"headers":{},"id":7,"key":"obs.a","payload":"00ff"},{"deliveries":2,"headers":{},"id":6,"key":"obs.a","payload":"6d36"}]},"topology":{"dead_letters":{"q":{"max_attempts":2,"target":"dlq"}},"exchange_bindings":[["client","app","#"]],"exchanges":{"app":"direct","client":"topic"},"queue_bindings":[["app","q","obs.a"]],"queue_capacities":{"dlq":null,"q":8}}}"##;

    /// A snapshot from before topology became durable, and the one
    /// record a log must hold for it to cover.
    const LEGACY_RECORD: &[u8] = br#"{"deliveries":3,"headers":{"h":"v"},"id":100,"key":"old.k","op":"enqueue","payload":"6f6c64","queue":"legacy"}"#;
    const LEGACY_SNAPSHOT: &str = r#"{"next_id":101,"queues":{"legacy":[{"deliveries":3,"headers":{"h":"v"},"id":100,"key":"old.k","payload":"6f6c64"}]}}"#;

    fn view(durable_id: u64, deliveries: u32, payload: &[u8]) -> MessageView {
        MessageView {
            durable_id,
            deliveries,
            key: "obs.a".to_owned(),
            payload: payload.to_vec(),
        }
    }

    /// What a broker reopened on the golden bytes holds: the topology as
    /// the management views and a publish show it, `q` as given — every
    /// copy ready — and `next_id` the durable id its next copy gets.
    fn assert_golden_state(b: &Broker, q: &[MessageView], next_id: u64) {
        let exchanges: Vec<_> = b
            .exchanges()
            .into_iter()
            .map(|e| (e.name, e.kind, e.bindings))
            .collect();
        let golden = [
            ("app".to_owned(), ExchangeType::Direct, 1),
            ("client".to_owned(), ExchangeType::Topic, 1),
        ];
        assert_eq!(exchanges, golden);
        let queues: Vec<_> = b
            .queues()
            .into_iter()
            .filter(|info| info.name != "legacy")
            .map(|info| (info.name, info.capacity, info.dead_letter_to))
            .collect();
        let golden = [
            ("dlq".to_owned(), None, None),
            ("q".to_owned(), Some(8), Some("dlq".to_owned())),
        ];
        assert_eq!(queues, golden);
        let policy = b.dead_letter_policy("q").unwrap().unwrap();
        assert_eq!(policy.max_delivery_attempts, 2);

        let held = b.queue_snapshot("q").unwrap();
        assert_eq!(held.ready, q);
        assert!(held.unacked.is_empty());
        assert_eq!(b.queue_snapshot("dlq").unwrap().ready, [view(2, 0, b"m2")]);
        let info = b.queues().into_iter().find(|info| info.name == "q");
        assert_eq!(info.unwrap().enqueued_total, q.len() as u64);

        // The bindings, as a publish sees them: `client` feeds `app`,
        // which routes `obs.a` alone, to `q` alone.
        assert_eq!(b.publish("client", "obs.b", &b"unrouted"[..]).unwrap(), 0);
        assert_eq!(b.publish("client", "obs.a", &b"next"[..]).unwrap(), 1);
        let held = b.queue_snapshot("q").unwrap();
        assert_eq!(held.ready.last(), Some(&view(next_id, 0, b"next")));
    }

    #[test]
    fn the_same_calls_write_the_golden_log() {
        let dir = temp_dir("write");
        let b = open(&dir);
        golden_calls(&b);
        drop(b);
        let (_wal, recovered) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        assert!(recovered.snapshot.is_none());
        let written: Vec<&str> = recovered
            .entries
            .iter()
            .map(|(_, payload)| std::str::from_utf8(payload).unwrap())
            .collect();
        let golden = GOLDEN_BROKER_LOG.map(|payload| std::str::from_utf8(payload).unwrap());
        assert_eq!(written, golden);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_log_replays_to_the_golden_state() {
        let from_the_log = [view(6, 1, b"m6"), view(7, 0, &[0x00, 0xff])];

        // The log alone.
        let dir = temp_dir("replay-log");
        let (mut wal, _) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        wal.append_batch(&GOLDEN_BROKER_LOG.map(<[u8]>::to_vec))
            .unwrap();
        drop(wal);
        assert_golden_state(&open(&dir), &from_the_log, 8);
        std::fs::remove_dir_all(&dir).unwrap();

        // Behind a snapshot older than durable topology, and ahead of
        // deltas for ids and queues no replay holds: ignored, as the
        // records of a torn enqueue's survivors are.
        let dir = temp_dir("replay-legacy");
        let (mut wal, _) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        wal.append(LEGACY_RECORD).unwrap();
        wal.snapshot(LEGACY_SNAPSHOT.as_bytes()).unwrap();
        wal.append_batch(&GOLDEN_BROKER_LOG.map(<[u8]>::to_vec))
            .unwrap();
        wal.append(br#"{"id":99,"op":"ack","queue":"q"}"#).unwrap();
        wal.append(br#"{"attempts":4,"id":98,"op":"requeue","queue":"nowhere"}"#)
            .unwrap();
        wal.append(br#"{"ids":[97],"op":"purge","queue":"dlq"}"#)
            .unwrap();
        drop(wal);
        let b = open(&dir);
        assert_golden_state(&b, &from_the_log, 101);
        assert!(!b.queue_exists("nowhere"));
        let legacy = b.consume("legacy", 2).unwrap();
        assert_eq!(legacy.len(), 1);
        assert_eq!(legacy[0].message.header("h"), Some("v"));
        assert_eq!(legacy[0].payload().as_ref(), b"old");
        assert!(legacy[0].redelivered);
        std::fs::remove_dir_all(&dir).unwrap();

        // The golden snapshot alone.
        let dir = temp_dir("replay-snapshot");
        let (mut wal, _) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        wal.append(GOLDEN_BROKER_LOG[0]).unwrap();
        wal.snapshot(GOLDEN_BROKER_SNAPSHOT.as_bytes()).unwrap();
        drop(wal);
        let from_the_snapshot = [view(7, 0, &[0x00, 0xff]), view(6, 2, b"m6")];
        assert_golden_state(&open(&dir), &from_the_snapshot, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_writes_the_golden_snapshot() {
        let dir = temp_dir("checkpoint");
        let b = open(&dir);
        golden_calls(&b);
        assert_eq!(b.checkpoint().unwrap(), GOLDEN_BROKER_LOG.len() as u64);
        drop(b);
        let (_wal, recovered) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        assert!(recovered.entries.is_empty());
        let written = recovered.snapshot.unwrap();
        assert_eq!(
            std::str::from_utf8(&written).unwrap(),
            GOLDEN_BROKER_SNAPSHOT
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_ignores_deltas_for_unknown_ids() {
        let recovered = Recovered {
            snapshot: None,
            snapshot_lsn: 0,
            entries: vec![(1, serde_json::to_vec(&ack_delta("q", 99)).unwrap())],
            report: Default::default(),
        };
        let state = replay(&recovered).unwrap();
        assert!(!state.queues.contains_key("q"));
    }
}
