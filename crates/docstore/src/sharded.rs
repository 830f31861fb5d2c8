//! [`ShardedStore`]: N independent [`Store`] shards behind one
//! [`DocstoreTransport`].
//!
//! Where the sharded broker partitions *messages* by routing key, the
//! sharded store partitions *collections* by name: a collection lives
//! wholly on the shard its FNV-1a name hash selects, so every query —
//! filters, indexes, aggregation — runs exactly the code a single store
//! runs, on the owning shard. GoFlow's per-application collections
//! (`obs-<app>`, `quarantine-<app>`) then spread across shards, and two
//! applications ingesting concurrently contend on different store locks.
//!
//! Answers are identical to a single store's by construction: a query
//! never spans shards, and store-level reads aggregate (document totals
//! sum, name listings merge sorted). The hash is the same stable FNV-1a
//! the broker uses (see `mps_broker::shard_for_key` and
//! `docs/SHARDING.md`), so operators can predict placement from the
//! name alone.

use crate::durability::{Durability, DurabilityConfig};
use crate::error::StoreError;
use crate::store::Store;
use crate::transport::{row_if, CollectionHandle, DocstoreTransport};
use std::sync::Arc;

/// FNV-1a over the collection name — the broker's key-partitioning hash
/// (`mps_broker::shard_for_key`), duplicated here because the two crates
/// are deliberately independent; lock-step is pinned by tests.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard owning collection `name` among `shards` partitions.
pub fn shard_for_collection(name: &str, shards: usize) -> usize {
    (fnv1a(name.as_bytes()) % shards.max(1) as u64) as usize
}

/// N independent [`Store`] shards presenting as one document store. See
/// the module docs in `sharded.rs` for the partitioning scheme.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Arc<Store>>,
}

impl ShardedStore {
    /// An in-memory sharded store with `shards` partitions (clamped to
    /// at least 1; `new(1)` behaves exactly like a single [`Store`]).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Arc::new(Store::new())).collect(),
        }
    }

    /// Opens a durable sharded store: each shard write-ahead-logs into
    /// its own `shard-<i>` subdirectory of `config.dir`, so one shard's
    /// group commit never serialises against another's.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Durability`] if any shard's log cannot be
    /// opened or replayed.
    pub fn open_durable(shards: usize, config: DurabilityConfig) -> Result<Self, StoreError> {
        let shards = shards.max(1);
        let mut built = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut shard_config = config.clone();
            shard_config.dir = config.dir.join(format!("shard-{i}"));
            built.push(Arc::new(Store::open(Durability::Durable(shard_config))?));
        }
        Ok(Self { shards: built })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying shard stores, in shard order — operator surface
    /// for checkpointing and per-shard inspection.
    pub fn shards(&self) -> &[Arc<Store>] {
        &self.shards
    }

    /// The shard index owning collection `name`.
    pub fn shard_of(&self, name: &str) -> usize {
        shard_for_collection(name, self.shards.len())
    }

    /// Checkpoints every durable shard. See [`Store::checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Durability`] from the first shard that
    /// fails.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    fn shard_for(&self, name: &str) -> &Arc<Store> {
        &self.shards[self.shard_of(name)]
    }
}

/// Emits one routed [`DocstoreTransport`] method from its row's shard
/// class.
macro_rules! shard_op {
    (by_name fn $method:ident($name:ident: $ty:ty) -> $ret:ty) => {
        fn $method(&self, $name: $ty) -> $ret {
            self.shard_for($name).$method($name)
        }
    };
    (sum fn $method:ident() -> $ret:ty) => {
        fn $method(&self) -> $ret {
            self.shards.iter().map(|shard| shard.$method()).sum()
        }
    };
    // A name lives on exactly one shard, so concatenating the per-shard
    // (sorted) listings and re-sorting merges without duplicates.
    (sorted fn $method:ident() -> $ret:ty) => {
        fn $method(&self) -> $ret {
            let mut all: $ret = self.shards.iter().flat_map(|s| s.$method()).collect();
            all.sort();
            all
        }
    };
}

/// Emits [`ShardedStore`]'s store-level methods from the `store` rows.
macro_rules! emit_sharded {
    ([] collection { $($collection:tt)* } store { $($(#[$doc:meta])* $op:literal $NAME:ident $class:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* }) => {
        $(shard_op! {
            $class fn $method($($arg: $(&$rty)? $($vty)?),*)
                -> row_if!([$($degrades)?] { $ret } { Result<$ret, StoreError> })
        })*
    };
}

impl DocstoreTransport for ShardedStore {
    fn collection(&self, name: &str) -> CollectionHandle {
        DocstoreTransport::collection(&**self.shard_for(name), name)
    }

    crate::docstore_ops!(emit_sharded);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::{FindOptions, SortOrder};
    use crate::filter::Filter;
    use serde_json::json;

    #[test]
    fn shard_for_collection_matches_broker_hash() {
        // Pin the FNV-1a constants: the broker and the store must place
        // by the same function forever (operators predict placement).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        for shards in 1..=8 {
            for name in ["obs-soundcity", "quarantine-soundcity", ""] {
                assert!(shard_for_collection(name, shards) < shards);
            }
        }
    }

    #[test]
    fn collections_partition_and_aggregate() {
        let sharded = ShardedStore::new(4);
        let names: Vec<String> = (0..12).map(|i| format!("obs-app{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            sharded
                .collection(name)
                .insert_one(json!({"n": i}))
                .unwrap();
        }
        assert_eq!(sharded.total_documents(), 12);
        let mut expected = names.clone();
        expected.sort();
        assert_eq!(sharded.collection_names(), expected);
        // Each collection lives wholly on its owning shard.
        for name in &names {
            let owner = sharded.shard_of(name);
            for (idx, shard) in sharded.shards().iter().enumerate() {
                assert_eq!(shard.has_collection(name), idx == owner, "{name}");
            }
        }
        sharded.drop_collection(&names[0]).unwrap();
        assert!(!sharded.has_collection(&names[0]));
        assert_eq!(sharded.total_documents(), 11);
    }

    /// The equivalence contract: every query answers exactly as a single
    /// store would, because a query never spans shards.
    #[test]
    fn sharded_store_answers_queries_identically() {
        let single = Store::new();
        let sharded = ShardedStore::new(3);
        for i in 0..30 {
            let doc = json!({"n": i, "city": if i % 2 == 0 { "paris" } else { "lyon" }});
            single
                .collection(&format!("obs-app{}", i % 5))
                .insert_one(doc.clone())
                .unwrap();
            sharded
                .collection(&format!("obs-app{}", i % 5))
                .insert_one(doc)
                .unwrap();
        }
        for i in 0..5 {
            let name = format!("obs-app{i}");
            let a = DocstoreTransport::collection(&single, &name);
            let b = sharded.collection(&name);
            let filter = Filter::eq("city", "paris");
            assert_eq!(a.count(&filter).unwrap(), b.count(&filter).unwrap());
            let options = FindOptions::new().sort("n", SortOrder::Descending).limit(3);
            assert_eq!(
                a.find_with_options(&filter, &options).unwrap(),
                b.find_with_options(&filter, &options).unwrap()
            );
            assert_eq!(
                a.distinct("city", &Filter::True),
                b.distinct("city", &Filter::True)
            );
        }
        assert_eq!(single.total_documents(), sharded.total_documents());
    }

    #[test]
    fn durable_shards_recover_collections() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-sharded-store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let config =
            DurabilityConfig::new(&dir).wal(mps_wal::WalConfig::default().telemetry(false));
        let sharded = ShardedStore::open_durable(3, config.clone()).unwrap();
        for i in 0..9 {
            sharded
                .collection(&format!("obs-app{i}"))
                .insert_one(json!({"n": i}))
                .unwrap();
        }
        drop(sharded);

        let sharded = ShardedStore::open_durable(3, config).unwrap();
        assert_eq!(sharded.total_documents(), 9);
        for i in 0..9 {
            let c = sharded.collection(&format!("obs-app{i}"));
            assert_eq!(c.len(), 1);
            assert_eq!(c.all()[0]["n"], json!(i));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
