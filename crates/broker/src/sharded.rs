//! [`ShardedBroker`]: N independent [`Broker`] shards behind one
//! [`BrokerTransport`].
//!
//! The middleware's scale story (paper §6: sustaining collection from
//! large fleets, not single-message latency) needs the hot publish path
//! to parallelise. A `ShardedBroker` partitions *messages* by routing-key
//! hash while mirroring the full *topology* (exchanges, queues, bindings,
//! dead-letter policies) on every shard:
//!
//! * **publish** hashes the routing key (FNV-1a) and runs the whole
//!   route — including `#`/`*` fan-out and exchange-to-exchange chains —
//!   on the owning shard's own `TopicTrie` index. Two publishes with
//!   different keys contend on different shard locks.
//! * **consume/ack/nack** see one logical queue: delivery tags encode
//!   the owning shard (`outer = inner * shards + shard`), so settlement
//!   routes straight back without a lookup table.
//! * **management** calls apply to every shard (they are rare), and
//!   reads aggregate (`queue_depth` sums) or delegate to shard 0
//!   (existence, policies — the mirrors are identical by construction).
//!
//! Because every queue exists on every shard and cross-shard fan-out is
//! resolved *within* the owning shard, a sharded broker delivers exactly
//! the same message multiset per queue as a single broker — per-queue
//! *order* across differently-keyed messages is the one relaxation (see
//! `docs/SHARDING.md`). Per-queue capacities are split across shards
//! (`ceil(capacity / shards)`, min 1), so the aggregate bound holds
//! approximately: a skewed key distribution can drop slightly earlier
//! than a single broker would.

use crate::broker::{Broker, DeadLetterPolicy, ExchangeType};
use crate::durability::DurabilityConfig;
use crate::error::BrokerError;
use crate::message::{Delivery, Message};
use crate::transport::{row_if, BrokerTransport};
use mps_telemetry::Registry;
use std::sync::Arc;

/// FNV-1a, the workspace's dependency-free stable hash — the same
/// function the docstore uses to place collections, so a key's owning
/// shard is reproducible across crates and across runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard owning `key` among `shards` partitions. Stable across
/// processes and platforms; `shards` must be non-zero.
pub fn shard_for_key(key: &str, shards: usize) -> usize {
    (fnv1a(key.as_bytes()) % shards.max(1) as u64) as usize
}

/// N independent [`Broker`] shards presenting as one broker. See the
/// [module docs](self) for the partitioning scheme.
#[derive(Debug)]
pub struct ShardedBroker {
    shards: Vec<Arc<Broker>>,
}

impl ShardedBroker {
    /// An in-memory sharded broker with `shards` partitions (clamped to
    /// at least 1; `new(1)` behaves exactly like a single [`Broker`]).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let built = Self {
            shards: (0..shards).map(|_| Arc::new(Broker::new())).collect(),
        };
        built.report_shard_count();
        built
    }

    /// Opens a durable sharded broker: each shard write-ahead-logs into
    /// its own `shard-<i>` subdirectory of `config.dir`, so a shard's
    /// group-committed appends never serialise against another's.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Durability`] if any shard's log cannot be
    /// opened or replayed.
    pub fn open_durable(shards: usize, config: DurabilityConfig) -> Result<Self, BrokerError> {
        let shards = shards.max(1);
        let mut built = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut shard_config = config.clone();
            shard_config.dir = config.dir.join(format!("shard-{i}"));
            built.push(Arc::new(Broker::open_durable(shard_config)?));
        }
        let broker = Self { shards: built };
        broker.report_shard_count();
        Ok(broker)
    }

    fn report_shard_count(&self) {
        Registry::global()
            .gauge(
                "broker_shard_count",
                "Partitions of the most recently constructed sharded broker",
            )
            .set(self.shards.len() as i64);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying shard brokers, in shard order — operator surface
    /// for checkpointing, snapshots and per-shard metrics.
    pub fn shards(&self) -> &[Arc<Broker>] {
        &self.shards
    }

    /// Checkpoints every durable shard. See [`Broker::checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Durability`] from the first shard that
    /// fails (or is not durable).
    pub fn checkpoint(&self) -> Result<(), BrokerError> {
        for shard in &self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_for_key(key, self.shards.len())
    }

    fn shard_for(&self, key: &str) -> &Arc<Broker> {
        &self.shards[self.shard_of(key)]
    }

    /// Splits a per-queue capacity across shards so the aggregate bound
    /// is preserved (approximately, under key skew).
    fn shard_capacity(&self, capacity: usize) -> usize {
        if capacity == 0 {
            return 0;
        }
        let n = self.shards.len();
        capacity.div_ceil(n).max(1)
    }

    fn decode_tag(&self, tag: u64) -> (usize, u64) {
        let n = self.shards.len() as u64;
        ((tag % n) as usize, tag / n)
    }

    /// Re-encodes a shard-local error so the caller sees the outer tag
    /// it actually passed in.
    fn outer_error(&self, err: BrokerError, shard: usize) -> BrokerError {
        match err {
            BrokerError::UnknownDeliveryTag { queue, tag } => BrokerError::UnknownDeliveryTag {
                queue,
                tag: tag * self.shards.len() as u64 + shard as u64,
            },
            other => other,
        }
    }
}

/// Emits one fanned-out [`BrokerTransport`] method from its row's shard
/// class; a `custom` row emits nothing (its body is written out below).
macro_rules! shard_op {
    (broadcast fn $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        fn $method(&self $(, $arg: $ty)*) -> $ret {
            for shard in &self.shards {
                shard.$method($($arg),*)?;
            }
            Ok(())
        }
    };
    (first fn $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        fn $method(&self $(, $arg: $ty)*) -> $ret {
            self.shards[0].$method($($arg),*)
        }
    };
    (sum fn $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        fn $method(&self $(, $arg: $ty)*) -> $ret {
            let mut total = 0;
            for shard in &self.shards {
                total += shard.$method($($arg),*)?;
            }
            Ok(total)
        }
    };
    (custom $($signature:tt)*) => {};
}

/// Emits [`ShardedBroker`]'s fanned-out methods: management rows apply
/// to every shard, reads answer from shard 0 (the mirrors are identical
/// by construction) or sum.
macro_rules! emit_sharded {
    ([] $($(#[$doc:meta])* $op:literal $NAME:ident $class:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)*) => {
        $(shard_op! {
            $class fn $method($($arg: $(&$rty)? $($vty)?),*)
                -> row_if!([$($degrades)?] { $ret } { Result<$ret, BrokerError> })
        })*
    };
}

impl BrokerTransport for ShardedBroker {
    crate::broker_ops!(emit_sharded);

    fn declare_queue_with_capacity(&self, name: &str, capacity: usize) -> Result<(), BrokerError> {
        let per_shard = self.shard_capacity(capacity);
        for shard in &self.shards {
            shard.declare_queue_with_capacity(name, per_shard)?;
        }
        Ok(())
    }

    fn publish(&self, exchange: &str, key: &str, payload: &[u8]) -> Result<usize, BrokerError> {
        shared_counters().publishes.inc();
        self.shard_for(key).publish(exchange, key, payload)
    }

    fn publish_message(&self, exchange: &str, message: Message) -> Result<usize, BrokerError> {
        shared_counters().publishes.inc();
        let shard = self.shard_of(message.routing_key().as_str());
        self.shards[shard].publish_message(exchange, message)
    }

    fn consume(&self, queue: &str, max: usize) -> Result<Vec<Delivery>, BrokerError> {
        // Deterministic shard order: drain shard 0 first, then 1, … so
        // equal inputs yield equal delivery sequences run over run.
        let n = self.shards.len() as u64;
        let mut out = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            if out.len() >= max {
                break;
            }
            let batch = shard.consume(queue, max - out.len())?;
            out.extend(batch.into_iter().map(|d| Delivery {
                tag: d.tag * n + idx as u64,
                message: d.message,
                redelivered: d.redelivered,
            }));
        }
        Ok(out)
    }

    fn ack(&self, queue: &str, tag: u64) -> Result<(), BrokerError> {
        let (shard, inner) = self.decode_tag(tag);
        self.shards[shard]
            .ack(queue, inner)
            .map_err(|e| self.outer_error(e, shard))
    }

    fn ack_many(&self, queue: &str, tags: &[u64]) -> Result<(), BrokerError> {
        // Group by owning shard so the whole batch still costs one
        // group-committed append *per shard touched*.
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &tag in tags {
            let (shard, inner) = self.decode_tag(tag);
            per_shard[shard].push(inner);
        }
        for (shard, inner_tags) in per_shard.iter().enumerate() {
            self.shards[shard]
                .ack_many(queue, inner_tags)
                .map_err(|e| self.outer_error(e, shard))?;
        }
        Ok(())
    }

    fn nack(&self, queue: &str, tag: u64, requeue: bool) -> Result<(), BrokerError> {
        let (shard, inner) = self.decode_tag(tag);
        self.shards[shard]
            .nack(queue, inner, requeue)
            .map_err(|e| self.outer_error(e, shard))
    }
}

struct ShardedCounters {
    publishes: mps_telemetry::Counter,
}

fn shared_counters() -> &'static ShardedCounters {
    static SHARED: std::sync::OnceLock<ShardedCounters> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| ShardedCounters {
        publishes: Registry::global().counter(
            "broker_sharded_publishes_total",
            "Publishes routed through a sharded broker's key-hash partitioner",
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptests::small_key;
    use mps_simcore::check::check;
    use std::collections::BTreeMap;

    fn topo(b: &dyn BrokerTransport) {
        b.declare_exchange("app", ExchangeType::Topic).unwrap();
        b.declare_queue("all").unwrap();
        b.declare_queue("noise").unwrap();
        b.declare_queue("dlq").unwrap();
        b.bind_queue("app", "all", "#").unwrap();
        b.bind_queue("app", "noise", "obs.*.noise").unwrap();
        b.configure_dead_letter("noise", 2, "dlq").unwrap();
    }

    #[test]
    fn shard_for_key_is_stable_and_in_range() {
        for shards in 1..=8 {
            for key in ["obs.paris.noise", "obs.lyon.gps", "a", ""] {
                let s = shard_for_key(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_key(key, shards), "deterministic");
            }
        }
        assert_eq!(shard_for_key("anything", 1), 0);
    }

    #[test]
    fn single_shard_matches_plain_broker_exactly() {
        let sharded = ShardedBroker::new(1);
        let plain = Broker::new();
        topo(&sharded);
        topo(&plain);
        for key in ["obs.paris.noise", "obs.lyon.gps"] {
            assert_eq!(
                sharded.publish("app", key, b"x").unwrap(),
                plain.publish("app", key, b"x".to_vec()).unwrap()
            );
        }
        assert_eq!(
            sharded.queue_depth("all").unwrap(),
            plain.queue_depth("all").unwrap()
        );
        let d = sharded.consume("all", 10).unwrap();
        assert_eq!(d.len(), 2);
        sharded.ack("all", d[0].tag).unwrap();
        sharded.nack("all", d[1].tag, true).unwrap();
        assert_eq!(sharded.queue_depth("all").unwrap(), 1);
    }

    #[test]
    fn consume_spans_shards_and_tags_route_back() {
        let sharded = ShardedBroker::new(4);
        topo(&sharded);
        // Enough distinct keys to land on several shards.
        for i in 0..32 {
            sharded
                .publish("app", &format!("obs.city{i}.noise"), &[i as u8])
                .unwrap();
        }
        assert_eq!(sharded.queue_depth("all").unwrap(), 32);
        let deliveries = sharded.consume("all", 32).unwrap();
        assert_eq!(deliveries.len(), 32);
        // Settle every delivery through its re-encoded tag; every ack
        // must land on the shard that issued it.
        for d in &deliveries {
            sharded.ack("all", d.tag).unwrap();
        }
        assert_eq!(sharded.queue_depth("all").unwrap(), 0);
        assert!(sharded.consume("all", 1).unwrap().is_empty());
    }

    #[test]
    fn ack_many_groups_by_shard() {
        let sharded = ShardedBroker::new(4);
        topo(&sharded);
        for i in 0..16 {
            sharded
                .publish("app", &format!("obs.c{i}.gps"), &[i as u8])
                .unwrap();
        }
        let tags: Vec<u64> = sharded
            .consume("all", 16)
            .unwrap()
            .iter()
            .map(|d| d.tag)
            .collect();
        sharded.ack_many("all", &tags).unwrap();
        assert_eq!(sharded.queue_depth("all").unwrap(), 0);
        let err = sharded.ack_many("all", &[tags[0]]).unwrap_err();
        assert!(
            matches!(err, BrokerError::UnknownDeliveryTag { tag, .. } if tag == tags[0]),
            "errors surface the outer tag: {err:?}"
        );
    }

    #[test]
    fn dead_letter_fires_per_shard() {
        let sharded = ShardedBroker::new(4);
        topo(&sharded);
        sharded
            .publish("app", "obs.paris.noise", b"poison")
            .unwrap();
        for _ in 0..2 {
            let d = sharded.consume("noise", 1).unwrap();
            assert_eq!(d.len(), 1);
            sharded.nack("noise", d[0].tag, true).unwrap();
        }
        assert_eq!(sharded.queue_depth("noise").unwrap(), 0);
        assert_eq!(sharded.queue_depth("dlq").unwrap(), 1);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let sharded = ShardedBroker::new(4);
        sharded.declare_exchange("e", ExchangeType::Topic).unwrap();
        sharded.declare_queue_with_capacity("q", 8).unwrap();
        sharded.bind_queue("e", "q", "#").unwrap();
        // Same key → same shard → that shard's slice (ceil(8/4) = 2)
        // fills; the logical queue never exceeds the aggregate bound.
        for i in 0..10 {
            sharded.publish("e", "one.key", &[i]).unwrap();
        }
        assert_eq!(sharded.queue_depth("q").unwrap(), 2);
    }

    #[test]
    fn durable_shards_recover_independently() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-sharded-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let config =
            DurabilityConfig::new(&dir).wal(mps_wal::WalConfig::default().telemetry(false));
        let sharded = ShardedBroker::open_durable(3, config.clone()).unwrap();
        topo(&sharded);
        let keys: Vec<String> = (0..12).map(|i| format!("obs.c{i}.gps")).collect();
        for key in &keys {
            sharded.publish("app", key, key.as_bytes()).unwrap();
        }
        drop(sharded);

        let sharded = ShardedBroker::open_durable(3, config).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        // Topology recovered per shard — no re-declaration needed.
        assert!(sharded.exchange_exists("app"));
        assert_eq!(sharded.queue_depth("all").unwrap(), 12);
        let mut recovered: Vec<Vec<u8>> = sharded
            .consume("all", 12)
            .unwrap()
            .iter()
            .map(|d| d.payload().to_vec())
            .collect();
        recovered.sort();
        let mut expected: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
        expected.sort();
        assert_eq!(recovered, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Per-queue message multiset under a sharded broker equals the
    /// single-broker multiset for the same publish sequence — the
    /// equivalence contract of the partitioning scheme.
    fn per_queue_multisets(
        b: &dyn BrokerTransport,
        queues: &[&str],
    ) -> BTreeMap<String, Vec<Vec<u8>>> {
        let mut out = BTreeMap::new();
        for queue in queues {
            let mut payloads: Vec<Vec<u8>> = b
                .consume(queue, usize::MAX)
                .unwrap()
                .iter()
                .map(|d| d.payload().to_vec())
                .collect();
            payloads.sort();
            out.insert((*queue).to_owned(), payloads);
        }
        out
    }

    #[test]
    fn sharded_broker_delivers_same_multiset_as_single() {
        check(|r| {
            let shards = 1 + r.index(5);
            let keys: Vec<String> = (0..1 + r.index(39)).map(|_| small_key(r)).collect();
            let single = Broker::new();
            let sharded = ShardedBroker::new(shards);
            for b in [&single as &dyn BrokerTransport, &sharded] {
                b.declare_exchange("client", ExchangeType::Topic).unwrap();
                b.declare_exchange("app", ExchangeType::Topic).unwrap();
                b.bind_exchange("client", "app", "#").unwrap();
                b.declare_queue("all").unwrap();
                b.declare_queue("a-only").unwrap();
                b.bind_queue("app", "all", "#").unwrap();
                b.bind_queue("app", "a-only", "a.#").unwrap();
            }
            for (i, key) in keys.iter().enumerate() {
                let payload = format!("{i}:{key}").into_bytes();
                let s = single.publish("client", key, payload.clone()).unwrap();
                let sh = sharded.publish("client", key, &payload).unwrap();
                assert_eq!(s, sh, "same fan-out per publish");
            }
            assert_eq!(
                per_queue_multisets(&single, &["all", "a-only"]),
                per_queue_multisets(&sharded, &["all", "a-only"])
            );
        });
    }
}
