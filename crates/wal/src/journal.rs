//! The journal: a log and its snapshot cadence, for a client that keeps
//! its state in memory and logs every change to it.
//!
//! The document store and the broker each encode their own deltas and
//! replay their own records — those are their formats. What they share is
//! here. [`Journal::open`] hands what [`Wal::open`] recovered to the
//! client's replay and keeps the count of records the replay restored
//! from the snapshot, so the cadence survives a reopen by construction.
//! Under the lock [`Journal::lock`] takes, [`JournalGuard::commit`] makes
//! one change durable with **one** group-committed append and then, still
//! under that lock, asks [`Wal::snapshot_due`] whether a snapshot would
//! reclaim enough to be worth writing; [`JournalGuard::snapshot`] writes
//! one on request. Of two writers that cross the cadence together, one
//! snapshots.
//!
//! The journal's lock has its place in [`Rank`], the one lock order: the
//! store takes the guard before it applies a change, so log order is
//! apply order; the broker takes it under the state lock that already
//! orders its changes. Every writer waits while a snapshot is exported,
//! written, fsynced and its segments compacted (`wal_snapshot_seconds`).

use crate::telemetry::telemetry;
use crate::{Lsn, Rank, Ranked, RankedGuard, Recovered, Wal, WalConfig, WalError};
use mps_telemetry::SpanTimer;
use std::path::PathBuf;

/// Where and how a journaled client persists.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and snapshots.
    pub dir: PathBuf,
    /// The log's tuning (fsync policy, segment size, telemetry, recovery
    /// span, crash-kill switch).
    pub wal: WalConfig,
    /// Take a snapshot (and compact) once at least this many records
    /// were logged since the last attempt **and**, of the records a
    /// reopen would read, at least this many and at least half are dead
    /// ([`Wal::snapshot_due`]): never for appends alone. `0` disables
    /// automatic snapshots ([`JournalGuard::snapshot`] still works).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability in `dir` with default WAL tuning and a snapshot floor
    /// of 4096 logged records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            wal: WalConfig::default(),
            snapshot_every: 4096,
        }
    }

    /// Replaces the WAL tuning.
    pub fn wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Sets the automatic snapshot floor (`0` = manual only).
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records;
        self
    }
}

/// A log and the count its cadence is asked with, behind one lock.
#[derive(Debug)]
pub struct Journal(Ranked<Log>);

#[derive(Debug)]
struct Log {
    wal: Wal,
    /// Records (documents, message copies) the newest snapshot held.
    held: u64,
    snapshot_every: u64,
}

/// The journal, locked: what a change is committed under.
#[derive(Debug)]
pub struct JournalGuard<'a>(RankedGuard<'a, Log>);

impl Journal {
    /// Opens (or creates) the log in `config.dir` and hands what it
    /// recovered to `restore`, the client's replay, which returns how many
    /// records the snapshot it restored held. The replay applies the log's
    /// records through [`Tail::replay`](crate::Tail::replay), one segment
    /// in memory at a time.
    ///
    /// # Errors
    ///
    /// The log's, when it cannot be opened, and `restore`'s.
    pub fn open<E: From<WalError>>(
        config: &DurabilityConfig,
        restore: impl FnOnce(Recovered) -> Result<u64, E>,
    ) -> Result<Self, E> {
        let (wal, recovered) = Wal::open(&config.dir, config.wal.clone())?;
        let held = restore(recovered)?;
        Ok(Self(Ranked::new(
            Rank::Journal,
            Log {
                wal,
                held,
                snapshot_every: config.snapshot_every,
            },
        )))
    }

    /// Takes the journal's lock, at [`Rank::Journal`].
    pub fn lock(&self) -> JournalGuard<'_> {
        JournalGuard(self.0.lock())
    }
}

impl JournalGuard<'_> {
    /// Appends one change's `records` as one group commit, then takes a
    /// snapshot of `export()`, a state of `live` records, if the cadence
    /// says one is due. A failed snapshot is counted
    /// (`wal_snapshot_failures_total`) but not returned: the change is
    /// durable, the log intact, and a crash-killed instance fails its
    /// next commit anyway.
    ///
    /// # Errors
    ///
    /// The append's: the change is then in memory but not durable.
    pub fn commit(
        &mut self,
        records: &[Vec<u8>],
        live: u64,
        export: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), WalError> {
        if !records.is_empty() {
            self.0.wal.append_batch(records)?;
        }
        let log = &*self.0;
        if log.wal.snapshot_due(log.snapshot_every, log.held, live) {
            let _ = self.snapshot(live, export);
        }
        Ok(())
    }

    /// Writes `export()`, a state of `live` records, as a snapshot of
    /// everything logged, and compacts the segments it covers. Returns
    /// the LSN it covers through.
    ///
    /// # Errors
    ///
    /// The log's, when the snapshot cannot be written (counted in
    /// `wal_snapshot_failures_total`); the previous one stands.
    pub fn snapshot(
        &mut self,
        live: u64,
        export: impl FnOnce() -> Vec<u8>,
    ) -> Result<Lsn, WalError> {
        let log = &mut *self.0;
        let metrics = log.wal.config.telemetry.then(telemetry);
        let _timer = metrics.map(|metrics| SpanTimer::start(&metrics.snapshot_seconds));
        let covered = log.wal.snapshot_holding(&export(), log.held, live);
        match (&covered, metrics) {
            (Ok(_), _) => log.held = live,
            (Err(_), Some(metrics)) => metrics.snapshot_failures.inc(),
            (Err(_), None) => {}
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inspect, KillPoint, KillSwitch};
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A client whose state is a map of one-byte registers: a record
    /// `[k, v]` sets `k` to `v`, so setting a register again kills the
    /// record that set it before. The snapshot is the live pairs, two
    /// bytes each.
    #[derive(Default)]
    struct Registers(BTreeMap<u8, u8>);

    impl Registers {
        fn restore(&mut self, recovered: Recovered) -> Result<u64, WalError> {
            let snapshot = recovered.snapshot.unwrap_or_default();
            for pair in snapshot.chunks_exact(2) {
                self.0.insert(pair[0], pair[1]);
            }
            recovered.entries.replay(|_, pair| {
                self.0.insert(pair[0], pair[1]);
                Ok::<_, WalError>(())
            })?;
            Ok(snapshot.len() as u64 / 2)
        }

        fn export(&self) -> Vec<u8> {
            self.0.iter().flat_map(|(k, v)| [*k, *v]).collect()
        }

        /// Sets `k` to `v` and commits it.
        fn set(&mut self, journal: &Journal, k: u8, v: u8) {
            let mut log = journal.lock();
            self.0.insert(k, v);
            let live = self.0.len() as u64;
            log.commit(&[vec![k, v]], live, || self.export()).unwrap();
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-journal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(config: &DurabilityConfig) -> (Journal, Registers) {
        let mut registers = Registers::default();
        let journal = Journal::open(config, |recovered| registers.restore(recovered)).unwrap();
        (journal, registers)
    }

    /// The LSN the committed snapshot in `dir` covers through.
    fn newest_snapshot(dir: &Path) -> Option<Lsn> {
        inspect(dir).unwrap().snapshots.first().map(|s| s.lsn)
    }

    const FLOOR: u64 = 4;

    #[test]
    fn a_snapshot_is_committed_once_half_the_log_is_dead() {
        let dir = temp_dir("due");
        let config = DurabilityConfig::new(&dir)
            .wal(WalConfig::default().telemetry(false))
            .snapshot_every(FLOOR);
        let (journal, mut registers) = open(&config);
        // New registers only: nothing dead, however long the log.
        for k in 0..16 {
            registers.set(&journal, k, 0);
        }
        assert_eq!(newest_snapshot(&dir), None);
        // Each write of a live register kills one record: due when the
        // dead number as many as the live (16) and the floor.
        for k in 0..16 {
            registers.set(&journal, k, 1);
            let due = k + 1 == 16;
            assert_eq!(newest_snapshot(&dir), due.then_some(32), "write {k}");
        }
        drop(journal);
        let (_journal, reopened) = open(&config);
        assert_eq!(reopened.0, registers.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_held_count_survives_a_reopen() {
        // A snapshot of 8 registers, then 7 writes of them: one short of
        // due. The last is committed by the same journal or by one that
        // reopened the directory and counted what its snapshot holds.
        let run = |reopen: bool| {
            let dir = temp_dir("reopen");
            let config = DurabilityConfig::new(&dir)
                .wal(WalConfig::default().telemetry(false))
                .snapshot_every(FLOOR);
            let (mut journal, mut registers) = open(&config);
            for k in 0..8 {
                registers.set(&journal, k, 0);
            }
            let covered = journal.lock().snapshot(8, || registers.export()).unwrap();
            for k in 0..8 {
                if k == 7 {
                    assert_eq!(newest_snapshot(&dir), Some(covered), "one short of due");
                    if reopen {
                        drop(journal);
                        (journal, registers) = open(&config);
                    }
                }
                registers.set(&journal, k, 1);
            }
            let taken = newest_snapshot(&dir);
            std::fs::remove_dir_all(&dir).unwrap();
            taken
        };
        assert_eq!(run(false), Some(16));
        assert_eq!(run(true), Some(16));
    }

    #[test]
    fn a_failed_snapshot_is_counted_and_retried_a_floor_later() {
        let registry = mps_telemetry::Registry::global();
        // Other tests snapshot too: lower bounds only.
        let failures = || {
            registry
                .counter_value("wal_snapshot_failures_total")
                .unwrap_or(0)
        };
        let dir = temp_dir("fail");
        let kill = KillSwitch::new();
        let config = DurabilityConfig::new(&dir)
            .wal(WalConfig::default().kill(kill.clone()))
            .snapshot_every(FLOOR);
        let (journal, mut registers) = open(&config);
        for v in 0..FLOOR as u8 {
            registers.set(&journal, 0, v);
        }
        assert_eq!(newest_snapshot(&dir), None, "three dead, floor four");
        // Due at the next write, whose snapshot cannot be written (its
        // temp path is taken): the write is durable all the same.
        let blocker = dir.join(format!("snap-{:020}.snap.tmp", FLOOR + 1));
        std::fs::create_dir(&blocker).unwrap();
        let before = failures();
        registers.set(&journal, 0, 9);
        assert!(failures() > before);
        assert_eq!(newest_snapshot(&dir), None);
        // Not retried at the next record, which would succeed, but a
        // floor of records after the failed attempt.
        std::fs::remove_dir(&blocker).unwrap();
        for v in 0..FLOOR as u8 - 1 {
            registers.set(&journal, 0, v);
            assert_eq!(newest_snapshot(&dir), None, "write {v} after the failure");
        }
        registers.set(&journal, 0, 9);
        assert_eq!(newest_snapshot(&dir), Some(2 * FLOOR + 1));

        // A snapshot that dies takes the journal with it.
        let before = failures();
        kill.arm(KillPoint::MidSnapshot, 0);
        let covered = journal.lock().snapshot(1, || registers.export());
        assert!(matches!(
            covered,
            Err(WalError::Killed(KillPoint::MidSnapshot))
        ));
        assert!(failures() > before);
        assert!(journal.lock().commit(&[vec![0, 0]], 1, Vec::new).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
