//! # mps-wal — an append-only write-ahead log
//!
//! The paper's deployment collected ~23M observations; its central
//! "don'ts" are about losing or silently corrupting data between device
//! and server. A production sink cannot be memory-only, so this crate
//! gives the document store and the broker a shared durability
//! substrate: an append-only segment log with length-prefixed,
//! CRC-checksummed records, **group commit** (one fsync per batch of
//! appends), **torn-tail detection** (the log is truncated at the first
//! bad checksum on open), periodic **snapshots**, and **segment
//! compaction** once a snapshot covers them.
//!
//! The log stores opaque byte payloads; each append is assigned a
//! monotonically increasing [`Lsn`]. Its clients (`mps-docstore` and
//! `mps-broker`) serialise their own deltas and replay their own
//! records; the rest they share through one [`Journal`]: it hands
//! [`Recovered`] to the client's replay on open, commits each change as
//! one group-committed batch, and snapshots the client's state when
//! [`Wal::snapshot_due`] says half of what a reopen would read is dead. A
//! log whose records are never superseded is never snapshotted: it is
//! the store.
//!
//! Crash faults are first-class: a [`KillSwitch`] armed at one of the
//! [`KillPoint`]s makes the instance die exactly the way a process
//! crash would — a half-written batch, a durable-but-unacknowledged
//! batch, an orphaned snapshot temp file, a half-finished compaction,
//! or a replay cut short — which is what the CI crash-kill recovery
//! matrix exercises.
//!
//! Recovery holds one segment, not the log: [`Wal::open`] walks each
//! segment after the snapshot to validate it and drops it, and the
//! [`Tail`] it returns reads them back one at a time for the client's
//! replay.
//!
//! # Examples
//!
//! ```
//! use mps_wal::{Wal, WalConfig};
//!
//! let dir = std::env::temp_dir().join(format!("mps-wal-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let (mut wal, recovered) = Wal::open(&dir, WalConfig::default())?;
//! assert!(recovered.entries.is_empty());
//! wal.append_batch(&[b"insert a".to_vec(), b"insert b".to_vec()])?;
//! drop(wal);
//!
//! let (_wal, recovered) = Wal::open(&dir, WalConfig::default())?;
//! assert_eq!(recovered.entries.len(), 2);
//! let mut applied = Vec::new();
//! recovered.entries.replay(|lsn, payload| {
//!     applied.push((lsn, payload.to_vec()));
//!     Ok::<_, mps_wal::WalError>(())
//! })?;
//! assert_eq!(applied, vec![(1, b"insert a".to_vec()), (2, b"insert b".to_vec())]);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

mod error;
mod inspect;
mod journal;
mod kill;
#[cfg(test)]
mod proptests;
mod ranked;
mod record;
mod scan;
mod telemetry;
mod wal;

pub use error::WalError;
pub use inspect::{inspect, InspectReport, SegmentInfo, SnapshotInfo};
pub use journal::{DurabilityConfig, Journal, JournalGuard};
pub use kill::{KillPoint, KillSwitch};
pub use ranked::{Rank, Ranked, RankedGuard};
pub use record::{crc32, decode_one, encode_into, Decoded, RECORD_HEADER_BYTES};
pub use scan::Tail;
pub use wal::{Lsn, Recovered, RecoveryReport, Wal, WalConfig};
