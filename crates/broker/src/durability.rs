//! Durable brokers: the log's delta vocabulary, and its replay.
//!
//! A broker opened with [`Broker::open_durable`](crate::Broker::open_durable)
//! journals every declaration and queue transition through an
//! [`mps_wal::Journal`]: each call's deltas are **one** group-committed
//! batch (a publish fanned out to several queues costs one fsync), and a
//! snapshot is taken when half of what a reopen would read is dead —
//! copies acked, discarded or purged, and the records that settled them.
//! A backlog nobody acks is never rewritten; recovery replays it from the
//! log.
//!
//! Every enqueued copy of a message gets a **durable id**. The topology's
//! deltas are `declare_exchange`, `declare_queue`, `bind_queue`,
//! `bind_exchange`, `delete_exchange` and `dead_letter_policy`; the
//! queues' are `enqueue` (key, headers, hex payload, deliveries), `ack`,
//! `discard`, `requeue`, `dead_letter`, `purge` and `delete_queue`. A
//! snapshot holds the topology, the next durable id and every copy still
//! owed, those in flight folded back behind the ready ones.
//!
//! **Replay** applies the snapshot, then each delta in log order, straight
//! to the broker's state through the methods the live calls change it
//! with: a dead-letter policy outlives its target queue as it does live,
//! and a delta naming a queue, exchange or id replay no longer holds (a
//! torn batch's survivor) changes nothing. Deliveries are not logged: a
//! copy in flight at the crash comes back ready with its count —
//! at-least-once — while an acked copy never comes back, because its
//! `ack` survives. An integer beyond its field's range is corruption.
//!
//! **Retired records.** A `declare_exchange` still writes `"kind":"topic"`
//! and a `declare_queue` `"capacity":null`, as every GoFlow deployment's
//! log holds them. What named a capability the broker no longer has — a
//! `direct` or `fanout` exchange, a bounded queue, an `unbind_queue` — is
//! refused on reopen with an error naming the record or snapshot entry,
//! never reinterpreted as something else.
//!
//! **Limits.** Per-queue session counters (`enqueued_total`, delivery
//! tags) restart. A durability failure mid-call can leave memory ahead of
//! the log; the instance must be discarded and reopened.

use crate::broker::{Queued, State, Target};
use crate::{BindingPattern, BrokerError, DeadLetterPolicy, Message, RoutingKey};
use mps_wal::Recovered;
use serde_json::{json, Map, Value};
use std::sync::Arc;

pub use mps_wal::DurabilityConfig;

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

fn from_hex(s: &str) -> Parsed<Vec<u8>> {
    let nibble = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".into());
    }
    let pairs = s.as_bytes().chunks_exact(2);
    let bytes = pairs.map(|pair| Some((nibble(pair[0])? << 4) | nibble(pair[1])?));
    bytes
        .collect::<Option<_>>()
        .ok_or_else(|| "non-hex byte in payload".into())
}

// ----- deltas and snapshots ----------------------------------------------

/// The kind every exchange is logged with: the one kind there is.
const TOPIC: &str = "topic";

pub(crate) fn declare_exchange_delta(name: &str) -> Value {
    json!({"op": "declare_exchange", "name": name, "kind": TOPIC})
}

pub(crate) fn declare_queue_delta(name: &str) -> Value {
    json!({"op": "declare_queue", "name": name, "capacity": null})
}

pub(crate) fn bind_queue_delta(exchange: &str, queue: &str, pattern: &str) -> Value {
    json!({"op": "bind_queue", "exchange": exchange, "queue": queue, "pattern": pattern})
}

pub(crate) fn bind_exchange_delta(source: &str, destination: &str, pattern: &str) -> Value {
    json!({"op": "bind_exchange", "source": source, "destination": destination, "pattern": pattern})
}

pub(crate) fn delete_exchange_delta(name: &str) -> Value {
    json!({"op": "delete_exchange", "name": name})
}

pub(crate) fn dead_letter_policy_delta(queue: &str, max_attempts: u32, target: &str) -> Value {
    json!({"op": "dead_letter_policy", "queue": queue, "max_attempts": max_attempts, "target": target})
}

/// A fresh copy of `message` on `queue`, written from the message itself.
pub(crate) fn enqueue_delta(queue: &str, message: &Message, id: u64) -> Value {
    let mut delta = copy(message, 0, id);
    if let Some(members) = delta.as_object_mut() {
        members.insert("op".to_owned(), json!("enqueue"));
        members.insert("queue".to_owned(), json!(queue));
    }
    delta
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

/// One copy as snapshots and `enqueue` deltas hold it.
fn copy(message: &Message, deliveries: u32, id: u64) -> Value {
    let headers: Map<String, Value> = message
        .headers()
        .map(|(name, value)| (name.to_owned(), json!(value)))
        .collect();
    json!({
        "id": id,
        "key": message.routing_key().as_str(),
        "headers": headers,
        "payload": to_hex(message.payload()),
        "deliveries": deliveries,
    })
}

/// The snapshot of `state`: the next durable id, the topology, and each
/// queue's copies still owed — the ready ones, then those in flight in
/// tag order, with the deliveries that count them.
pub(crate) fn encode_snapshot(state: &State) -> Vec<u8> {
    let (mut exchanges, mut queue_bindings, mut exchange_bindings) = (Map::new(), vec![], vec![]);
    for (name, exchange) in &state.exchanges {
        exchanges.insert(name.clone(), json!(TOPIC));
        for binding in &exchange.bindings {
            let (list, to) = match &binding.target {
                Target::Queue(queue) => (&mut queue_bindings, queue),
                Target::Exchange(exchange) => (&mut exchange_bindings, exchange),
            };
            list.push(json!([name, to, binding.pattern.as_str()]));
        }
    }
    let (mut queues, mut capacities, mut dead_letters) = (Map::new(), Map::new(), Map::new());
    for (name, queue) in &state.queues {
        // Every queue is unbounded; the member names the queues.
        capacities.insert(name.clone(), Value::Null);
        if let Some(policy) = &queue.dead_letter {
            let policy =
                json!({"max_attempts": policy.max_delivery_attempts, "target": policy.target});
            dead_letters.insert(name.clone(), policy);
        }
        let owed = queue.ready.iter().chain(queue.unacked.values());
        let copies: Vec<Value> = owed.map(|(m, d, id)| copy(m, *d, *id)).collect();
        if !copies.is_empty() {
            queues.insert(name.clone(), Value::Array(copies));
        }
    }
    let topology = json!({
        "exchanges": exchanges,
        "queue_capacities": capacities,
        "queue_bindings": queue_bindings,
        "exchange_bindings": exchange_bindings,
        "dead_letters": dead_letters,
    });
    let snapshot =
        json!({"next_id": state.next_durable_id, "queues": queues, "topology": topology});
    snapshot.to_string().into_bytes()
}

// ----- replay -----------------------------------------------------------

/// What a record or snapshot held, or why it is corrupt.
type Parsed<T> = Result<T, String>;

/// Rebuilds `state` from a recovered snapshot and log tail, streamed one
/// segment at a time; returns the message copies the snapshot held.
pub(crate) fn replay(state: &mut State, recovered: Recovered) -> Result<u64, BrokerError> {
    // 0 is an in-memory broker's id.
    state.next_durable_id = 1;
    let corrupt = |at: String, why: String| {
        BrokerError::Durability(format!("log replay failed: {at}: {why}"))
    };
    let held = match &recovered.snapshot {
        Some(bytes) => restore(state, bytes).map_err(|why| corrupt("snapshot".into(), why))?,
        None => 0,
    };
    recovered.entries.replay(|lsn, record| {
        apply(state, record).map_err(|why| corrupt(format!("record at lsn {lsn}"), why))
    })?;
    for queue in state.queues.values_mut() {
        queue.enqueued_total = queue.ready.len() as u64;
    }
    Ok(held)
}

/// Applies a snapshot to the empty `state`; returns the copies it held.
fn restore(state: &mut State, bytes: &[u8]) -> Parsed<u64> {
    let snapshot: Value = serde_json::from_slice(bytes).map_err(|e| e.to_string())?;
    state.next_durable_id = required(&snapshot, "next_id")?;
    // A snapshot from before topology was durable has none.
    let section = |name: &str| snapshot.get("topology").and_then(|t| t.get(name));
    let (map, list) = (Map::new(), Vec::new());
    let members = |name: &str| section(name).and_then(Value::as_object).unwrap_or(&map);
    let elements = |name: &str| section(name).and_then(Value::as_array).unwrap_or(&list);
    for (name, kind) in members("exchanges") {
        topic(kind.as_str().unwrap_or_default())
            .map_err(|why| format!("exchange `{name}`: {why}"))?;
        state.declare_exchange(name);
    }
    for (name, capacity) in members("queue_capacities") {
        unbounded(Some(capacity)).map_err(|why| format!("queue `{name}`: {why}"))?;
        state.declare_queue(name);
    }
    let lists = ["queue_bindings", "exchange_bindings"];
    let targets: [fn(String) -> Target; 2] = [Target::Queue, Target::Exchange];
    for (list, target) in lists.into_iter().zip(targets) {
        for binding in elements(list) {
            let parts = binding.as_array().into_iter().flatten().map(Value::as_str);
            let Some(&[from, to, pattern]) = parts.collect::<Option<Vec<_>>>().as_deref() else {
                return Err(format!("binding {binding} is not three strings"));
            };
            let _ = state.bind(from, parse_pattern(pattern)?, target(to.to_owned()));
        }
    }
    for (queue, policy) in members("dead_letters") {
        let _ = state.set_dead_letter(queue, parse_policy(policy)?);
    }
    let queues = snapshot.get("queues").and_then(Value::as_object);
    let mut held = 0;
    for (name, copies) in queues.ok_or("no queues")? {
        // Declared, unless the snapshot is older than durable topology.
        let queue = state.queues.entry(name.clone()).or_default();
        for copy in copies.as_array().into_iter().flatten() {
            queue.ready.push_back(parse_copy(copy)?);
            held += 1;
        }
    }
    Ok(held)
}

/// Applies one logged delta to `state`, as the live call it records did.
fn apply(state: &mut State, record: &[u8]) -> Parsed<()> {
    let delta: Value = serde_json::from_slice(record).map_err(|e| e.to_string())?;
    let field = |key: &str| text(&delta, key);
    match field("op")? {
        "declare_exchange" => {
            topic(field("kind")?)?;
            state.declare_exchange(field("name")?);
        }
        "declare_queue" => {
            unbounded(delta.get("capacity"))?;
            state.declare_queue(field("name")?);
        }
        "bind_queue" => {
            let (pattern, queue) = (parse_pattern(field("pattern")?)?, field("queue")?);
            let _ = state.bind(field("exchange")?, pattern, Target::Queue(queue.to_owned()));
        }
        "bind_exchange" => {
            let (pattern, to) = (parse_pattern(field("pattern")?)?, field("destination")?);
            let _ = state.bind(field("source")?, pattern, Target::Exchange(to.to_owned()));
        }
        "delete_exchange" => {
            let _ = state.delete_exchange(field("name")?);
        }
        "dead_letter_policy" => {
            let _ = state.set_dead_letter(field("queue")?, parse_policy(&delta)?);
        }
        "delete_queue" => {
            let _ = state.delete_queue(field("queue")?);
        }
        "enqueue" => {
            let (message, deliveries, id) = parse_copy(&delta)?;
            state.next_durable_id = state.next_durable_id.max(id.saturating_add(1));
            // Declared, unless the log is older than durable topology.
            let queue = state.queues.entry(field("queue")?.to_owned()).or_default();
            queue.ready.push_back((message, deliveries, id));
        }
        "ack" | "discard" => {
            take(state, field("queue")?, required(&delta, "id")?);
        }
        "requeue" => {
            let attempts = int(delta.get("attempts"), "attempts")?.unwrap_or(0);
            let queue = field("queue")?;
            if let Some((message, _, id)) = take(state, queue, required(&delta, "id")?) {
                let home = state.queues.entry(queue.to_owned()).or_default();
                home.ready.push_front((message, attempts, id));
            }
        }
        "dead_letter" => {
            let to = field("to")?;
            if let Some((message, _, id)) = take(state, field("queue")?, required(&delta, "id")?) {
                let dlq = state.queues.entry(to.to_owned()).or_default();
                dlq.ready.push_back((message, 0, id));
            }
        }
        "purge" => {
            let (queue, ids) = (field("queue")?, delta.get("ids").and_then(Value::as_array));
            for id in ids.into_iter().flatten().filter_map(Value::as_u64) {
                take(state, queue, id);
            }
        }
        // Among them `unbind_queue`: bindings now go only with what they
        // bind.
        other => return Err(format!("unknown op `{other}`")),
    }
    Ok(())
}

/// Removes copy `id` from `queue`, if replay holds it there: every copy a
/// replay holds is ready.
fn take(state: &mut State, queue: &str, id: u64) -> Option<Queued> {
    let ready = &mut state.queues.get_mut(queue)?.ready;
    let at = ready.iter().position(|(_, _, held)| *held == id)?;
    ready.remove(at)
}

/// `value` as an integer that fits `T`: `None` when absent or null, and
/// corrupt when anything else — a fraction, a negative, a count past
/// `T`'s range.
fn int<T: TryFrom<u64>>(value: Option<&Value>, what: &str) -> Parsed<Option<T>> {
    match value {
        None | Some(Value::Null) => Ok(None),
        Some(n) => match n.as_u64().map(T::try_from) {
            Some(Ok(n)) => Ok(Some(n)),
            _ => Err(format!("`{what}` {n} is out of range")),
        },
    }
}

/// Member `key` of `value`, a string.
fn text<'v>(value: &'v Value, key: &str) -> Parsed<&'v str> {
    let text = value.get(key).and_then(Value::as_str);
    text.ok_or_else(|| format!("no string `{key}`"))
}

/// Member `key` of `value`, an integer that fits `T`.
fn required<T: TryFrom<u64>>(value: &Value, key: &str) -> Parsed<T> {
    int(value.get(key), key)?.ok_or_else(|| format!("no `{key}`"))
}

/// A copy as snapshots and `enqueue` deltas hold it.
fn parse_copy(value: &Value) -> Parsed<Queued> {
    let key = RoutingKey::new(text(value, "key")?).map_err(|e| e.to_string())?;
    let mut message = Message::new(key, from_hex(text(value, "payload")?)?);
    let headers = value.get("headers").and_then(Value::as_object);
    for (name, header) in headers.into_iter().flatten() {
        if let Some(header) = header.as_str() {
            message = message.with_header(name.as_str(), header);
        }
    }
    let deliveries = int(value.get("deliveries"), "deliveries")?.unwrap_or(0);
    Ok((Arc::new(message), deliveries, required(value, "id")?))
}

fn parse_policy(value: &Value) -> Parsed<DeadLetterPolicy> {
    Ok(DeadLetterPolicy {
        max_delivery_attempts: required(value, "max_attempts")?,
        target: text(value, "target")?.to_owned(),
    })
}

fn parse_pattern(pattern: &str) -> Parsed<BindingPattern> {
    BindingPattern::new(pattern).map_err(|e| e.to_string())
}

/// Accepts the one exchange kind there is; a `direct` or `fanout`
/// exchange routed differently, so it is refused, not made a topic one.
fn topic(kind: &str) -> Parsed<()> {
    if kind == TOPIC {
        return Ok(());
    }
    Err(format!(
        "exchange kind `{kind}`: only topic exchanges exist"
    ))
}

/// Accepts an absent or null capacity; a bounded queue dropped on full,
/// so it is refused, not made an unbounded one.
fn unbounded(capacity: Option<&Value>) -> Parsed<()> {
    match capacity {
        None | Some(Value::Null) => Ok(()),
        Some(capacity) => Err(format!("`capacity` {capacity}: queues are unbounded")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Broker;
    use std::path::PathBuf;

    #[test]
    fn hex_roundtrips() {
        for payload in [&b""[..], &b"\x00\xff\x10observation"[..]] {
            assert_eq!(from_hex(&to_hex(payload)).unwrap(), payload);
        }
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    fn records(deltas: &[Value]) -> Vec<Vec<u8>> {
        deltas.iter().map(|d| d.to_string().into_bytes()).collect()
    }

    /// A fresh state replayed from a log of `records` behind `snapshot`,
    /// which covers one record before them.
    fn replayed(snapshot: Option<&[u8]>, records: &[Vec<u8>]) -> Result<State, BrokerError> {
        let dir = temp_dir("replayed");
        let (mut wal, _) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        if let Some(snapshot) = snapshot {
            wal.append(b"covered").unwrap();
            wal.snapshot(snapshot).unwrap();
        }
        wal.append_batch(records).unwrap();
        drop(wal);
        let (_wal, recovered) = mps_wal::Wal::open(&dir, quiet()).unwrap();
        let mut state = State::default();
        let replayed = replay(&mut state, recovered);
        std::fs::remove_dir_all(&dir).unwrap();
        replayed.map(|_| state)
    }

    #[test]
    fn replay_applies_deltas_in_order() {
        let key = RoutingKey::new("obs.k").unwrap();
        let message = |id: u8| Message::new(key.clone(), vec![id]).with_header("h", "v");
        let deltas = [
            enqueue_delta("q", &message(1), 1),
            enqueue_delta("q", &message(2), 2),
            enqueue_delta("q", &message(3), 3),
            ack_delta("q", 1),
            requeue_delta("q", 3, 2),
            dead_letter_delta("q", 2, "dlq"),
        ];
        let state = replayed(None, &records(&deltas)).unwrap();
        assert_eq!(state.next_durable_id, 4);
        let held = |queue: &str| -> Vec<(u64, u32)> {
            let ready = state.queues[queue].ready.iter();
            ready
                .map(|(_, deliveries, id)| (*id, *deliveries))
                .collect()
        };
        assert_eq!(
            held("q"),
            [(3, 2)],
            "acked and dead-lettered removed, requeued at front"
        );
        assert_eq!(held("dlq"), [(2, 0)]);
        assert_eq!(state.queues["q"].ready[0].0.header("h"), Some("v"));
    }

    #[test]
    fn replay_restores_topology_from_deltas() {
        let deltas = [
            declare_exchange_delta("obs"),
            declare_exchange_delta("doomed"),
            declare_queue_delta("q"),
            declare_queue_delta("gone"),
            bind_queue_delta("obs", "q", "obs.#"),
            bind_queue_delta("obs", "q", "obs.#"), // idempotent re-bind
            bind_queue_delta("obs", "gone", "#"),
            bind_queue_delta("doomed", "q", "#"),
            bind_exchange_delta("obs", "doomed", "#"),
            dead_letter_policy_delta("q", 5, "dlq"),
            delete_queue_delta("gone"),
            delete_exchange_delta("doomed"),
        ];
        let state = replayed(None, &records(&deltas)).unwrap();
        let names: Vec<&str> = state.exchanges.keys().map(String::as_str).collect();
        assert_eq!(names, ["obs"], "deleted exchange must not survive replay");
        let queues: Vec<&str> = state.queues.keys().map(String::as_str).collect();
        assert_eq!(queues, ["q"], "deleted queue must not survive replay");
        let bindings = state.exchanges["obs"].bindings.iter();
        let bindings: Vec<_> = bindings.map(|b| (b.pattern.as_str(), &b.target)).collect();
        assert_eq!(
            bindings,
            [("obs.#", &Target::Queue("q".into()))],
            "duplicate binds collapse; bindings to a deleted queue or exchange drop"
        );
        let policy = DeadLetterPolicy {
            max_delivery_attempts: 5,
            target: "dlq".into(),
        };
        assert_eq!(state.queues["q"].dead_letter, Some(policy));
    }

    #[test]
    fn snapshot_roundtrips_topology() {
        let mut state = State::default();
        state.next_durable_id = 7;
        state.declare_exchange("obs");
        state.declare_exchange("audit");
        state.declare_queue("q");
        state.declare_queue("dlq");
        let pattern = |p: &str| BindingPattern::new(p).unwrap();
        let queue = Target::Queue("q".into());
        state.bind("obs", pattern("obs.*.temp"), queue).unwrap();
        let audit = Target::Exchange("audit".into());
        state.bind("obs", pattern("#"), audit).unwrap();
        let policy = DeadLetterPolicy {
            max_delivery_attempts: 3,
            target: "dlq".into(),
        };
        state.set_dead_letter("q", policy).unwrap();
        let bytes = encode_snapshot(&state);
        let restored = replayed(Some(&bytes), &[]).unwrap();
        assert_eq!(restored.next_durable_id, 7);
        assert_eq!(
            std::str::from_utf8(&encode_snapshot(&restored)),
            std::str::from_utf8(&bytes)
        );
    }

    #[test]
    fn pre_topology_snapshots_recover_with_empty_topology() {
        let state = replayed(Some(br#"{"next_id":3,"queues":{}}"#), &[]).unwrap();
        assert!(state.exchanges.is_empty() && state.queues.is_empty());
        assert_eq!(state.next_durable_id, 3);
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
        let config = DurabilityConfig::new(dir).wal(quiet()).snapshot_every(0);
        Broker::open_durable(config).unwrap()
    }

    /// The calls behind [`GOLDEN_BROKER_LOG`]: every topology and queue
    /// transition a broker logs, each at least once.
    fn golden_calls(b: &Broker) {
        b.declare_exchange("client").unwrap();
        b.declare_exchange("app").unwrap();
        b.declare_exchange("old").unwrap();
        b.declare_queue("q").unwrap();
        b.declare_queue("dlq").unwrap();
        b.declare_queue("spill").unwrap();
        b.bind_exchange("client", "app", "#").unwrap();
        b.bind_queue("app", "q", "obs.a").unwrap();
        b.bind_queue("client", "spill", "obs.*").unwrap();
        // Deleting the queue is what takes its binding away.
        b.delete_queue("spill").unwrap();
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
    const GOLDEN_BROKER_LOG: [&[u8]; 25] = [
        br#"{"kind":"topic","name":"client","op":"declare_exchange"}"#,
        br#"{"kind":"topic","name":"app","op":"declare_exchange"}"#,
        br#"{"kind":"topic","name":"old","op":"declare_exchange"}"#,
        br#"{"capacity":null,"name":"q","op":"declare_queue"}"#,
        br#"{"capacity":null,"name":"dlq","op":"declare_queue"}"#,
        br#"{"capacity":null,"name":"spill","op":"declare_queue"}"#,
        br##"{"destination":"app","op":"bind_exchange","pattern":"#","source":"client"}"##,
        br#"{"exchange":"app","op":"bind_queue","pattern":"obs.a","queue":"q"}"#,
        br#"{"exchange":"client","op":"bind_queue","pattern":"obs.*","queue":"spill"}"#,
        br#"{"op":"delete_queue","queue":"spill"}"#,
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
        br#"{"deliveries":0,"headers":{},"id":6,"key":"obs.a","op":"enqueue","payload":"6d36","queue":"q"}"#,
        br#"{"deliveries":0,"headers":{},"id":7,"key":"obs.a","op":"enqueue","payload":"00ff","queue":"q"}"#,
        br#"{"attempts":1,"id":6,"op":"requeue","queue":"q"}"#,
    ];

    /// What a checkpoint after [`golden_calls`] writes. The delivery in
    /// flight is folded back behind the ready copies with its count.
    const GOLDEN_BROKER_SNAPSHOT: &str = r##"{"next_id":8,"queues":{"dlq":[{"deliveries":0,"headers":{},"id":2,"key":"obs.a","payload":"6d32"}],"q":[{"deliveries":0,"headers":{},"id":7,"key":"obs.a","payload":"00ff"},{"deliveries":2,"headers":{},"id":6,"key":"obs.a","payload":"6d36"}]},"topology":{"dead_letters":{"q":{"max_attempts":2,"target":"dlq"}},"exchange_bindings":[["client","app","#"]],"exchanges":{"app":"topic","client":"topic"},"queue_bindings":[["app","q","obs.a"]],"queue_capacities":{"dlq":null,"q":null}}}"##;

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
            .map(|e| (e.name, e.bindings))
            .collect();
        let golden = [("app".to_owned(), 1), ("client".to_owned(), 1)];
        assert_eq!(exchanges, golden);
        let queues: Vec<_> = b
            .queues()
            .into_iter()
            .filter(|info| info.name != "legacy")
            .map(|info| (info.name, info.dead_letter))
            .collect();
        let policy = DeadLetterPolicy {
            max_delivery_attempts: 2,
            target: "dlq".into(),
        };
        let golden = [("dlq".to_owned(), None), ("q".to_owned(), Some(policy))];
        assert_eq!(queues, golden);

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
        let mut written = Vec::new();
        recovered
            .entries
            .replay(|_, payload| {
                written.push(String::from_utf8(payload.to_vec()).unwrap());
                Ok::<_, mps_wal::WalError>(())
            })
            .unwrap();
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
        assert!(b.queues().iter().all(|info| info.name != "nowhere"));
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
        let state = replayed(None, &records(&[ack_delta("q", 99)])).unwrap();
        assert!(!state.queues.contains_key("q"));
    }

    /// The live broker keeps a dead-letter policy whose target queue was
    /// deleted (and drops what it would dead-letter until a queue of that
    /// name is declared again); a reopen, from the log or a snapshot,
    /// keeps it too.
    #[test]
    fn a_policy_whose_target_was_deleted_survives_a_reopen() {
        let dir = temp_dir("orphan-policy");
        let b = open(&dir);
        b.declare_queue("q").unwrap();
        b.declare_queue("dlq").unwrap();
        b.configure_dead_letter("q", 2, "dlq").unwrap();
        b.delete_queue("dlq").unwrap();
        let policy_of = |b: &Broker| b.queues().remove(0).dead_letter;
        let live = policy_of(&b);
        let policy = DeadLetterPolicy {
            max_delivery_attempts: 2,
            target: "dlq".into(),
        };
        assert_eq!(live, Some(policy));
        drop(b);
        let b = open(&dir);
        assert_eq!(policy_of(&b), live, "from the log");
        b.checkpoint().unwrap();
        drop(b);
        let b = open(&dir);
        assert_eq!(policy_of(&b), live, "from a snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replays a snapshot and records that must be rejected as corrupt
    /// for what they hold in `field`.
    fn assert_corrupt(snapshot: Option<&[u8]>, records: &[&[u8]], field: &str) {
        let records: Vec<Vec<u8>> = records.iter().map(|r| r.to_vec()).collect();
        match replayed(snapshot, &records) {
            Err(BrokerError::Durability(why)) => assert!(why.contains(field), "{why}"),
            other => panic!("{field} out of range replayed: {other:?}"),
        }
    }

    const ENQUEUED: &[u8] = br#"{"deliveries":0,"headers":{},"id":1,"key":"k","op":"enqueue","payload":"","queue":"q"}"#;

    #[test]
    fn replay_rejects_deliveries_past_u32() {
        // Truncated, this was a copy delivered no times: not redelivered.
        let record = br#"{"deliveries":4294967296,"headers":{},"id":1,"key":"k","op":"enqueue","payload":"","queue":"q"}"#;
        assert_corrupt(None, &[record], "deliveries");
        let snapshot = br#"{"next_id":2,"queues":{"q":[{"deliveries":4294967296,"headers":{},"id":1,"key":"k","payload":""}]}}"#;
        assert_corrupt(Some(snapshot), &[], "deliveries");
    }

    #[test]
    fn replay_rejects_attempts_past_u32() {
        let record = br#"{"attempts":4294967296,"id":1,"op":"requeue","queue":"q"}"#;
        assert_corrupt(None, &[ENQUEUED, record], "attempts");
    }

    #[test]
    fn replay_rejects_max_attempts_past_u32() {
        let record =
            br#"{"max_attempts":4294967296,"op":"dead_letter_policy","queue":"q","target":"dlq"}"#;
        assert_corrupt(None, &[record], "max_attempts");
        let snapshot = br#"{"next_id":1,"queues":{},"topology":{"dead_letters":{"q":{"max_attempts":4294967296,"target":"dlq"}},"queue_capacities":{"q":null}}}"#;
        assert_corrupt(Some(snapshot), &[], "max_attempts");
    }

    #[test]
    fn replay_rejects_capacity_past_usize() {
        // One past `u64::MAX`: no `usize` holds it, and no queue is bounded.
        let record = br#"{"capacity":18446744073709551616,"name":"q","op":"declare_queue"}"#;
        assert_corrupt(None, &[record], "capacity");
        let snapshot = br#"{"next_id":1,"queues":{},"topology":{"queue_capacities":{"q":18446744073709551616}}}"#;
        assert_corrupt(Some(snapshot), &[], "capacity");
    }

    /// What a log or snapshot holds of a retired capability — a direct or
    /// fanout exchange, a bounded queue, an unbind — is refused on reopen,
    /// by an error naming the record, and never replayed as a topic
    /// exchange, an unbounded queue or a no-op.
    #[test]
    fn records_of_removed_capabilities_are_refused() {
        let refused: [(&[u8], &str); 5] = [
            (
                br#"{"kind":"direct","name":"app","op":"declare_exchange"}"#,
                "exchange kind `direct`: only topic exchanges exist",
            ),
            (
                br#"{"kind":"fanout","name":"old","op":"declare_exchange"}"#,
                "exchange kind `fanout`: only topic exchanges exist",
            ),
            (
                br#"{"name":"app","op":"declare_exchange"}"#,
                "no string `kind`",
            ),
            (
                br#"{"capacity":8,"name":"q","op":"declare_queue"}"#,
                "`capacity` 8: queues are unbounded",
            ),
            (
                br#"{"exchange":"client","op":"unbind_queue","pattern":"obs.*","queue":"spill"}"#,
                "unknown op `unbind_queue`",
            ),
        ];
        for (record, why) in refused {
            // Behind the kept records of the golden log, at lsn 26.
            let mut log: Vec<&[u8]> = GOLDEN_BROKER_LOG.to_vec();
            log.push(record);
            let expected = format!("log replay failed: record at lsn 26: {why}");
            match replayed(None, &log.iter().map(|r| r.to_vec()).collect::<Vec<_>>()) {
                Err(BrokerError::Durability(message)) => assert_eq!(message, expected),
                other => panic!("{} replayed: {other:?}", String::from_utf8_lossy(record)),
            }
        }
        let snapshots = [
            (
                GOLDEN_BROKER_SNAPSHOT.replace(r#""app":"topic""#, r#""app":"direct""#),
                "exchange `app`: exchange kind `direct`: only topic exchanges exist",
            ),
            (
                GOLDEN_BROKER_SNAPSHOT.replace(r#""q":null"#, r#""q":8"#),
                "queue `q`: `capacity` 8: queues are unbounded",
            ),
        ];
        for (snapshot, why) in snapshots {
            assert_ne!(snapshot, GOLDEN_BROKER_SNAPSHOT);
            match replayed(Some(snapshot.as_bytes()), &[]) {
                Err(BrokerError::Durability(message)) => {
                    assert_eq!(message, format!("log replay failed: snapshot: {why}"));
                }
                other => panic!("{snapshot} restored: {other:?}"),
            }
        }
    }

    /// The store's `a_swallowed_snapshot_failure_is_counted`, on a broker:
    /// a snapshot the cadence takes and cannot write is counted, and the
    /// call that happened to trigger it succeeds, for what it logged is
    /// durable.
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
        let wal = mps_wal::WalConfig::default().kill(kill.clone());
        let config = DurabilityConfig::new(&dir).wal(wal).snapshot_every(2);
        let b = Broker::open_durable(config).unwrap();
        let newest = || {
            mps_wal::inspect(&dir)
                .unwrap()
                .snapshots
                .first()
                .map(|s| s.lsn)
        };
        b.declare_exchange("e").unwrap();
        b.declare_queue("q").unwrap();
        // Two records no message copy holds: as dead as the floor.
        assert_eq!(newest(), Some(2));
        b.bind_queue("e", "q", "#").unwrap();
        b.publish("e", "k", &b"m1"[..]).unwrap();
        // The ack leaves three records dead: a snapshot is due and fails
        // (its temp path is taken); the ack is durable and says so.
        let blocker = dir.join(format!("snap-{:020}.snap.tmp", 5));
        std::fs::create_dir(&blocker).unwrap();
        let before = failures();
        let d = b.consume("q", 1).unwrap();
        b.ack("q", d[0].tag).unwrap();
        assert!(failures() > before);
        std::fs::remove_dir(&blocker).unwrap();
        // Not again at the next record, which would have succeeded, but
        // `snapshot_every` records after the failure.
        b.publish("e", "k", &b"m2"[..]).unwrap();
        assert_eq!(newest(), Some(2), "retried one record on");
        b.publish("e", "k", &b"m3"[..]).unwrap();
        assert_eq!(newest(), Some(7));

        // A snapshot that dies takes the instance with it.
        let before = failures();
        kill.arm(mps_wal::KillPoint::MidSnapshot, 0);
        let tags: Vec<u64> = b.consume("q", 2).unwrap().iter().map(|d| d.tag).collect();
        b.ack_many("q", &tags).unwrap();
        assert_eq!(kill.dead(), Some(mps_wal::KillPoint::MidSnapshot));
        assert!(failures() > before);
        assert!(b.publish("e", "k", &b"m4"[..]).is_err());
        drop(b);
        let b = open(&dir);
        assert_eq!(b.queue_depth("q").unwrap(), 0, "both acks were durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
