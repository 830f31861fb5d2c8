//! # mps-docstore — an in-memory document store
//!
//! The GoFlow middleware stores crowd-sensed contributions in MongoDB
//! ("Data storage … builds upon MongoDB", Section 3.1 of the paper). This
//! crate is an in-process substitute covering the access patterns GoFlow
//! makes, and no more: JSON documents in named collections, Mongo-style
//! filters that are one conjunction of per-path equalities, intervals and
//! in-sets with dotted-path addressing, `$set` updates, secondary indexes
//! that a read probes for its open rows, sorted and limited finds and a
//! `$group` by one member. Any other operator is refused with a typed error.
//!
//! Documents go in and come out as [`serde_json::Value`] objects; every
//! stored document gets a numeric `_id`. In between they are kept as
//! shape-shared rows (documents with the same keys share one key list)
//! and read in place — a query builds a `Value` only for what it returns.
//!
//! Stores are in-memory by default (the deterministic-sim path); opening
//! one with [`Store::open`] and [`Durability::Durable`] write-ahead-logs
//! every mutation and replays the log on reopen — see [`mod@durability`].
//!
//! # Examples
//!
//! ```
//! use mps_docstore::{Filter, Store};
//! use serde_json::json;
//!
//! let store = Store::new();
//! let obs = store.collection("observations");
//! obs.insert_one(json!({"model": "LGE NEXUS 5", "spl": 61.5}))?;
//! obs.insert_one(json!({"model": "SONY D5803", "spl": 44.0}))?;
//!
//! let loud = obs.find(&Filter::parse(&json!({"spl": {"$gt": 50}}))?)?;
//! assert_eq!(loud.len(), 1);
//! # Ok::<(), mps_docstore::StoreError>(())
//! ```

// Pipeline code returns errors: one malformed upload must not panic the
// middleware. Tests may unwrap, expect and panic (clippy.toml).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod aggregate;
mod collection;
pub mod durability;
mod error;
mod filter;
mod index;
#[cfg(test)]
mod proptests;
mod row;
mod store;
mod telemetry;
mod transport;
mod update;
mod value;

pub use aggregate::{aggregate, Accumulator, GroupSpec, Stage};
pub use collection::{Collection, FindOptions, SortOrder};
pub use durability::{Durability, DurabilityConfig};
pub use error::StoreError;
pub use filter::Filter;
pub use index::{IndexKey, PlanKind};
pub use store::Store;
pub use transport::{CollectionHandle, CollectionOps, DocstoreTransport};
pub use update::Update;
pub use value::{compare_values, get_path, set_path, unset_path, DocId};
