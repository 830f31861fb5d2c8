//! The log itself: segments, group commit, snapshots, recovery.

use crate::kill::{KillPoint, KillSwitch};
use crate::record::{encode_into, header, snapshot_state, RECORD_HEADER_BYTES};
use crate::scan::{self, Tail, SEGMENT_PREFIX, SEGMENT_SUFFIX, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX};
use crate::telemetry::telemetry;
use crate::WalError;
use mps_telemetry::trace::{FlightRecorder, Hop, Outcome, SpanRecord, TraceId};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A log sequence number: the 1-based position of a record in the log.
/// `0` means "nothing" (no snapshot, empty log).
pub type Lsn = u64;

/// Tuning and instrumentation knobs for a [`Wal`] instance.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Roll to a new segment once the active one exceeds this size.
    pub segment_max_bytes: u64,
    /// Fsync after every batch (group commit). Disable only for
    /// benchmarks that measure the in-memory cost of the write path.
    pub fsync: bool,
    /// Mirror activity into the global telemetry registry (`wal_*`
    /// series). `perf_baseline --no-telemetry` disables it, so that its
    /// WAL timings are the log's own; so do `recovery_matrix` and the
    /// tests.
    pub telemetry: bool,
    /// When set, [`Wal::open`] records a `wal_recovery` span at this
    /// sim-clock time in the global flight recorder.
    pub recovery_span_at_ms: Option<i64>,
    /// Crash-kill fault trigger shared with the test harness.
    pub kill: KillSwitch,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 1 << 20,
            fsync: true,
            telemetry: true,
            recovery_span_at_ms: None,
            kill: KillSwitch::default(),
        }
    }
}

impl WalConfig {
    /// Sets the segment roll threshold.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Enables or disables the global-registry metric mirrors.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Enables or disables per-batch fsync.
    pub fn fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }

    /// Requests a recovery span at `at_ms` (sim-clock) on open.
    pub fn recovery_span_at_ms(mut self, at_ms: i64) -> Self {
        self.recovery_span_at_ms = Some(at_ms);
        self
    }

    /// Installs a crash-kill switch.
    pub fn kill(mut self, kill: KillSwitch) -> Self {
        self.kill = kill;
        self
    }
}

/// What [`Wal::open`] found on disk, for the caller to replay.
#[derive(Debug)]
pub struct Recovered {
    /// The newest valid snapshot payload, if any.
    pub snapshot: Option<Vec<u8>>,
    /// The LSN the snapshot covers through (`0` when none).
    pub snapshot_lsn: Lsn,
    /// Log records *after* the snapshot, in LSN order: validated, and
    /// read back one segment at a time by [`Tail::replay`].
    pub entries: Tail,
    /// What the recovery scan did.
    pub report: RecoveryReport,
}

/// Statistics from one recovery scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files read (fully covered segments are skipped).
    pub segments_scanned: usize,
    /// Records [`Recovered::entries`] replays.
    pub records_replayed: usize,
    /// True when a torn tail was truncated off the last segment.
    pub torn_tail: bool,
    /// Bytes removed by the torn-tail truncation.
    pub torn_bytes_truncated: u64,
}

/// One closed (no longer written) segment.
#[derive(Debug)]
struct ClosedSegment {
    /// LSN of the segment's last record (compaction deletes the
    /// segment once a snapshot covers it).
    end: Lsn,
    path: PathBuf,
}

/// An append-only, checksummed, segmented write-ahead log.
///
/// See the [crate docs](crate) for the design; [`Wal::open`] is the
/// only constructor — creating and recovering are the same operation.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    pub(crate) config: WalConfig,
    active: File,
    active_start: Lsn,
    active_bytes: u64,
    closed: Vec<ClosedSegment>,
    next_lsn: Lsn,
    snapshot_lsn: Lsn,
    /// The LSN the last snapshot attempt, committed or failed, covered
    /// through: the record floor counts from here, so a snapshot that
    /// keeps failing is retried every floor, not every append.
    attempt_lsn: Lsn,
    /// The segment count this instance last contributed to the
    /// process-wide `wal_open_segments` gauge (withdrawn on drop).
    gauge_segments: i64,
}

impl Wal {
    /// Opens (creating if needed) the log in `dir` and scans it:
    /// orphan temp files are removed, the newest valid snapshot is
    /// loaded, the records after it are validated and counted, and a
    /// torn tail on the last segment is truncated. Returns the instance
    /// plus everything the caller must replay to rebuild its state: the
    /// snapshot, and a [`Tail`] that reads the records back one segment
    /// at a time.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<(Self, Recovered), WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let listing = scan::list(&dir)?;
        for orphan in &listing.orphans {
            // Orphaned by a crash mid-snapshot; never committed.
            std::fs::remove_file(orphan)?;
        }
        let segments = listing.segments;

        // Newest snapshot whose framing checks out wins; damaged ones
        // are skipped (an uncommitted snapshot never gets renamed into
        // place, so damage here means external corruption).
        let mut snapshot: Option<Vec<u8>> = None;
        let mut snapshot_lsn: Lsn = 0;
        for (lsn, path) in &listing.snapshots {
            let mut bytes = std::fs::read(path)?;
            if snapshot_state(&bytes).is_some() {
                // The buffer becomes the state: no second copy of it.
                bytes.drain(..RECORD_HEADER_BYTES);
                snapshot = Some(bytes);
                snapshot_lsn = *lsn;
                break;
            }
        }
        let replay_from = snapshot_lsn + 1;

        // Every segment the snapshot does not cover is read and walked,
        // one at a time through one buffer; the tail keeps where its
        // records are, not the records.
        let mut report = RecoveryReport::default();
        let mut entries = Tail::new(config.kill.clone());
        let mut buf = Vec::new();
        let mut expected: Option<Lsn> = None;
        let mut max_lsn: Lsn = 0;
        let mut closed: Vec<ClosedSegment> = Vec::new();
        let last_index = segments.len().saturating_sub(1);
        for (i, (start, path)) in segments.iter().enumerate() {
            if let Some(exp) = expected {
                if *start != exp {
                    return Err(WalError::Corrupt(format!(
                        "segment gap: expected lsn {exp}, found segment starting at {start}",
                    )));
                }
            }
            let next_start = segments.get(i + 1).map(|(s, _)| *s);
            if let Some(ns) = next_start {
                if ns <= replay_from {
                    // Fully covered by the snapshot: skip the read.
                    expected = Some(ns);
                    max_lsn = max_lsn.max(ns - 1);
                    closed.push(ClosedSegment {
                        end: ns - 1,
                        path: path.clone(),
                    });
                    continue;
                }
            }
            scan::read_into(path, &mut buf)?;
            report.segments_scanned += 1;
            let walk = scan::walk(&buf, replay_from.saturating_sub(*start));
            let lsn = start + walk.records;
            if walk.torn {
                if i != last_index {
                    return Err(WalError::Corrupt(format!(
                        "bad record at lsn {lsn} in non-final segment {}",
                        path.display()
                    )));
                }
                report.torn_tail = true;
                report.torn_bytes_truncated = (buf.len() - walk.valid) as u64;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(walk.valid as u64)?;
                file.sync_all()?;
            }
            let first = (*start).max(replay_from);
            entries.push(
                path,
                first,
                walk.kept_from,
                walk.valid,
                lsn.saturating_sub(first),
            );
            if lsn > *start {
                max_lsn = max_lsn.max(lsn - 1);
            }
            expected = Some(lsn);
            if i != last_index {
                closed.push(ClosedSegment {
                    end: lsn - 1,
                    path: path.clone(),
                });
            }
        }
        drop(buf);
        if let Some(first) = entries.first_lsn() {
            if first != replay_from {
                return Err(WalError::Corrupt(format!(
                    "log starts at lsn {first} but the snapshot only covers through \
                     {snapshot_lsn}"
                )));
            }
        }
        report.records_replayed = entries.len();

        let next_lsn = max_lsn.max(snapshot_lsn) + 1;
        let (active, active_start, active_bytes) = match segments.last() {
            Some((start, path)) => {
                let file = OpenOptions::new().append(true).open(path)?;
                let bytes = file.metadata()?.len();
                (file, *start, bytes)
            }
            None => {
                let path = segment_path(&dir, next_lsn);
                let file = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(path)?;
                sync_dir(&dir);
                (file, next_lsn, 0)
            }
        };

        if config.telemetry {
            telemetry().recoveries.inc();
            if report.torn_tail {
                telemetry().torn_tail_truncations.inc();
            }
        }
        if let Some(at_ms) = config.recovery_span_at_ms {
            emit_recovery_span(&dir, at_ms, &report, snapshot_lsn);
        }

        let mut wal = Self {
            dir,
            config,
            active,
            active_start,
            active_bytes,
            closed,
            next_lsn,
            snapshot_lsn,
            attempt_lsn: snapshot_lsn,
            gauge_segments: 0,
        };
        wal.publish_segment_gauge();
        let recovered = Recovered {
            snapshot,
            snapshot_lsn,
            entries,
            report,
        };
        Ok((wal, recovered))
    }

    /// Appends a batch of records with **one** fsync (group commit) and
    /// returns the LSN of the last record. An empty batch is a no-op
    /// and returns the current last LSN.
    pub fn append_batch(&mut self, payloads: &[Vec<u8>]) -> Result<Lsn, WalError> {
        self.append_frames(payloads)
    }

    /// Appends a single record; see [`Wal::append_batch`].
    pub fn append(&mut self, payload: &[u8]) -> Result<Lsn, WalError> {
        self.append_frames(&[payload])
    }

    /// Frames `payloads` into one exactly-sized buffer and writes it with
    /// one `write` and at most one fsync.
    fn append_frames<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<Lsn, WalError> {
        self.check_alive()?;
        let Some(last) = payloads.last() else {
            return Ok(self.next_lsn - 1);
        };
        self.maybe_roll()?;

        let framed = |p: &P| RECORD_HEADER_BYTES + p.as_ref().len();
        let mut buf = Vec::with_capacity(payloads.iter().map(framed).sum());
        for payload in payloads {
            encode_into(&mut buf, payload.as_ref());
        }

        if self.config.kill.should_fire(KillPoint::MidAppend) {
            // Half of the final record reaches the disk: the classic
            // torn write a recovery scan must truncate.
            let cut = buf.len() - framed(last) + framed(last) / 2;
            self.active.write_all(&buf[..cut])?;
            self.active.sync_all()?;
            return Err(WalError::Killed(KillPoint::MidAppend));
        }

        self.active.write_all(&buf)?;
        if self.config.fsync {
            self.active.sync_all()?;
            if self.config.telemetry {
                telemetry().fsyncs.inc();
            }
        }
        if self.config.kill.should_fire(KillPoint::PostAppendPreAck) {
            // The batch is durable, but the caller never learns it.
            return Err(WalError::Killed(KillPoint::PostAppendPreAck));
        }

        self.active_bytes += buf.len() as u64;
        self.next_lsn += payloads.len() as u64;
        if self.config.telemetry {
            telemetry().appends.add(payloads.len() as u64);
            telemetry().bytes_written.add(buf.len() as u64);
        }
        Ok(self.next_lsn - 1)
    }

    /// Writes a snapshot covering every record appended so far, then
    /// compacts: older snapshots and fully covered closed segments are
    /// deleted. The snapshot is committed atomically (temp file, fsync,
    /// rename), so a crash mid-snapshot leaves the previous one
    /// intact. Returns the LSN the snapshot covers through.
    pub fn snapshot(&mut self, state: &[u8]) -> Result<Lsn, WalError> {
        self.check_alive()?;
        let covered = self.next_lsn - 1;
        if covered == 0 {
            return Ok(0);
        }
        self.attempt_lsn = covered;
        if u32::try_from(state.len()).is_err() {
            // The length field is a `u32`: a cast would truncate it and
            // commit a file that can never be read back.
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("a snapshot of {} bytes exceeds the format", state.len()),
            )));
        }
        let final_path = snapshot_path(&self.dir, covered);
        let tmp_path = final_path.with_extension("snap.tmp");
        // The framing bytes, then the state straight from the caller's
        // buffer: the same file as one framed record, without a copy.
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&header(state))?;
        if self.config.kill.should_fire(KillPoint::MidSnapshot) {
            // Orphan the temp file half-written; recovery removes it.
            tmp.write_all(&state[..state.len() / 2])?;
            tmp.sync_all()?;
            return Err(WalError::Killed(KillPoint::MidSnapshot));
        }
        tmp.write_all(state)?;
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir);

        let previous = self.snapshot_lsn;
        self.snapshot_lsn = covered;
        if self.config.telemetry {
            telemetry().snapshots.inc();
            telemetry()
                .snapshot_bytes_written
                .add((RECORD_HEADER_BYTES + state.len()) as u64);
        }
        // A second snapshot of the same LSN replaced the file in place.
        if previous > 0 && previous != covered {
            let _ = std::fs::remove_file(snapshot_path(&self.dir, previous));
        }
        self.compact()?;
        Ok(covered)
    }

    /// [`Wal::snapshot`] for a client that keeps the cadence's two counts
    /// (see [`Wal::snapshot_due`]): the dead records a committed
    /// snapshot drops are added to `wal_records_reclaimed_total`.
    pub fn snapshot_holding(
        &mut self,
        state: &[u8],
        held_then: u64,
        held_now: u64,
    ) -> Result<Lsn, WalError> {
        let dead = self.dead_records(held_then, held_now);
        let covered = self.snapshot(state)?;
        if self.config.telemetry {
            telemetry().records_reclaimed.add(dead);
        }
        Ok(covered)
    }

    /// The snapshot cadence: whether a snapshot taken now would reclaim
    /// enough to be worth writing. `held_then` is the number of records
    /// (documents, message copies) the newest snapshot held when it was
    /// taken — `0` without one; a [`Journal`](crate::Journal) keeps it
    /// beside the log, and on open takes it from its client's replay — and
    /// `held_now` the number a snapshot taken now would hold. A reopen
    /// would read `held_then` plus every record logged since; what it
    /// reads beyond `held_now` is dead. Due when at least `min_records`
    /// were logged since the last attempt (`0`: never) **and** the dead
    /// records number at least `min_records` and at least `held_now`:
    /// half of what recovery would read. A log that only adds records
    /// has none dead and is never due; one that supersedes them is
    /// rewritten once it is mostly dead, so a reopen reads fewer than
    /// `2 × held_now + min_records` records, the directory holds as few,
    /// and snapshots rewrite no more records than were logged.
    pub fn snapshot_due(&self, min_records: u64, held_then: u64, held_now: u64) -> bool {
        min_records != 0
            && self.next_lsn - 1 - self.attempt_lsn >= min_records
            && self.dead_records(held_then, held_now) >= min_records.max(held_now)
    }

    /// Records a reopen would read — `held_then` in the newest snapshot
    /// and the log after it — beyond the `held_now` that are live.
    fn dead_records(&self, held_then: u64, held_now: u64) -> u64 {
        (held_then + self.next_lsn - 1 - self.snapshot_lsn).saturating_sub(held_now)
    }

    /// Deletes closed segments fully covered by the current snapshot.
    /// Called by [`Wal::snapshot`]; public so recovery tooling can
    /// re-run an interrupted compaction.
    pub fn compact(&mut self) -> Result<(), WalError> {
        self.check_alive()?;
        let covered = self.snapshot_lsn;
        let mut kept = Vec::new();
        let mut killed = false;
        for segment in self.closed.drain(..) {
            if killed || segment.end > covered {
                kept.push(segment);
                continue;
            }
            std::fs::remove_file(&segment.path)?;
            if self.config.kill.should_fire(KillPoint::MidCompaction) {
                // Some covered segments deleted, some left behind.
                killed = true;
            }
        }
        self.closed = kept;
        sync_dir(&self.dir);
        self.publish_segment_gauge();
        if self.config.kill.dead() == Some(KillPoint::MidCompaction) {
            return Err(WalError::Killed(KillPoint::MidCompaction));
        }
        Ok(())
    }

    /// Forces an fsync of the active segment (for `fsync: false`
    /// configurations that still want durability barriers).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.check_alive()?;
        self.active.sync_all()?;
        if self.config.telemetry {
            telemetry().fsyncs.inc();
        }
        Ok(())
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// The LSN covered by the newest committed snapshot (`0` if none).
    pub fn snapshot_lsn(&self) -> Lsn {
        self.snapshot_lsn
    }

    /// Number of segment files (closed + active).
    pub fn segment_count(&self) -> usize {
        self.closed.len() + 1
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The crash-kill switch shared with this instance.
    pub fn kill_switch(&self) -> &KillSwitch {
        &self.config.kill
    }

    fn check_alive(&self) -> Result<(), WalError> {
        match self.config.kill.dead() {
            Some(point) => Err(WalError::Killed(point)),
            None => Ok(()),
        }
    }

    /// Rolls to a fresh segment when the active one is over budget.
    fn maybe_roll(&mut self) -> Result<(), WalError> {
        let has_records = self.next_lsn > self.active_start;
        if !has_records || self.active_bytes < self.config.segment_max_bytes {
            return Ok(());
        }
        self.active.sync_all()?;
        let path = segment_path(&self.dir, self.next_lsn);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        sync_dir(&self.dir);
        self.closed.push(ClosedSegment {
            end: self.next_lsn - 1,
            path: segment_path(&self.dir, self.active_start),
        });
        self.active = file;
        self.active_start = self.next_lsn;
        self.active_bytes = 0;
        self.publish_segment_gauge();
        Ok(())
    }

    /// Reconciles this instance's contribution to the process-wide
    /// `wal_open_segments` gauge with its current segment count. Delta
    /// accounting keeps the gauge correct with several live logs in one
    /// process (broker and docstore each own one).
    fn publish_segment_gauge(&mut self) {
        if !self.config.telemetry {
            return;
        }
        let now = self.segment_count() as i64;
        telemetry().open_segments.add(now - self.gauge_segments);
        self.gauge_segments = now;
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.config.telemetry && self.gauge_segments != 0 {
            telemetry().open_segments.sub(self.gauge_segments);
        }
    }
}

/// `wal-{start:020}.log` under `dir`.
fn segment_path(dir: &Path, start: Lsn) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{start:020}{SEGMENT_SUFFIX}"))
}

/// `snap-{lsn:020}.snap` under `dir`.
fn snapshot_path(dir: &Path, lsn: Lsn) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{lsn:020}{SNAPSHOT_SUFFIX}"))
}

/// Best-effort directory fsync (makes renames and creations durable on
/// platforms that support opening directories; a no-op elsewhere).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Records the recovery in the global flight recorder so the latency
/// waterfall and the loss-attribution exhibits see restarts.
fn emit_recovery_span(dir: &Path, at_ms: i64, report: &RecoveryReport, snapshot_lsn: Lsn) {
    // FNV-1a over the directory path, salted with the sim time: a
    // stable trace id distinct per recovered store.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in dir.to_string_lossy().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash ^= (at_ms as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let trace = TraceId::from_raw(if hash == 0 { 1 } else { hash });
    FlightRecorder::global().record(
        SpanRecord::new(trace, Hop::WalRecovery, at_ms)
            .outcome(Outcome::Ok)
            .attr("dir", dir.display().to_string())
            .attr("records_replayed", report.records_replayed.to_string())
            .attr("torn_tail", report.torn_tail.to_string())
            .attr("snapshot_lsn", snapshot_lsn.to_string()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quiet() -> WalConfig {
        WalConfig::default().telemetry(false)
    }

    fn payloads(range: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        range.map(|i| format!("record-{i}").into_bytes()).collect()
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = temp_dir("basic");
        let (mut wal, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert_eq!(recovered.entries.len(), 0);
        assert_eq!(wal.append_batch(&payloads(0..3)).unwrap(), 3);
        assert_eq!(wal.append(b"solo").unwrap(), 4);
        drop(wal);

        let (wal, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert_eq!(wal.next_lsn(), 5);
        let records = recovered.entries.collected();
        let lsns: Vec<Lsn> = records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4]);
        assert_eq!(records[3].1, b"solo");
        assert!(!recovered.report.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_replay_across_files() {
        let dir = temp_dir("roll");
        let config = quiet().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        for batch in 0..10u64 {
            wal.append_batch(&payloads(batch * 4..batch * 4 + 4))
                .unwrap();
        }
        assert!(wal.segment_count() > 1, "64-byte budget must roll");
        drop(wal);
        let (wal, recovered) = Wal::open(&dir, config).unwrap();
        assert_eq!(recovered.entries.len(), 40);
        assert_eq!(wal.next_lsn(), 41);
        for (i, (lsn, payload)) in recovered.entries.collected().iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(payload, format!("record-{i}").as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        let (mut wal, _) = Wal::open(&dir, quiet()).unwrap();
        wal.append_batch(&payloads(0..5)).unwrap();
        drop(wal);
        // Tear the tail by hand: chop 3 bytes off the only segment.
        let seg = segment_path(&dir, 1);
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (wal, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert!(recovered.report.torn_tail);
        assert_eq!(recovered.entries.len(), 4, "last record lost, rest intact");
        assert_eq!(wal.next_lsn(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let dir = temp_dir("snap");
        let config = quiet().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        wal.append_batch(&payloads(0..12)).unwrap();
        for batch in 3..6u64 {
            wal.append_batch(&payloads(batch * 4..batch * 4 + 4))
                .unwrap();
        }
        let covered = wal.snapshot(b"state-at-24").unwrap();
        assert_eq!(covered, 24);
        assert_eq!(wal.segment_count(), 1, "covered segments deleted");
        wal.append_batch(&payloads(24..26)).unwrap();
        drop(wal);

        let (wal, recovered) = Wal::open(&dir, config).unwrap();
        assert_eq!(
            recovered.snapshot.as_deref(),
            Some(b"state-at-24".as_slice())
        );
        assert_eq!(recovered.snapshot_lsn, 24);
        let lsns: Vec<Lsn> = recovered
            .entries
            .collected()
            .iter()
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(lsns, vec![25, 26]);
        assert_eq!(wal.next_lsn(), 27);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_second_snapshot_of_the_same_lsn_keeps_the_file() {
        // It is renamed over the first: deleting "the previous snapshot"
        // then would delete it, with the segments it covers already gone.
        let dir = temp_dir("snap-twice");
        let config = quiet().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        for batch in 0..3u64 {
            wal.append_batch(&payloads(batch * 4..batch * 4 + 4))
                .unwrap();
        }
        assert_eq!(wal.snapshot(b"first").unwrap(), 12);
        assert_eq!(wal.snapshot(b"again").unwrap(), 12);
        drop(wal);
        let (wal, recovered) = Wal::open(&dir, config).unwrap();
        assert_eq!(recovered.snapshot.as_deref(), Some(b"again".as_slice()));
        assert_eq!((recovered.snapshot_lsn, wal.next_lsn()), (12, 13));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_is_due_once_half_the_log_is_dead() {
        let dir = temp_dir("due");
        let (mut wal, _) = Wal::open(&dir, quiet()).unwrap();
        // Six records and no snapshot: a reopen reads six. While all six
        // are live nothing is dead, however low the floor.
        wal.append_batch(&payloads(0..6)).unwrap();
        assert!(!wal.snapshot_due(1, 0, 6), "nothing dead");
        // Three live: three dead, as many as live and as the floor.
        assert!(wal.snapshot_due(3, 0, 3));
        assert!(!wal.snapshot_due(3, 0, 4), "two dead against four live");
        assert!(!wal.snapshot_due(4, 0, 3), "three dead, floor four");
        assert!(!wal.snapshot_due(0, 0, 0), "`0` is never");

        // A snapshot that held three, and four records since: seven read.
        wal.snapshot_holding(b"three", 0, 3).unwrap();
        assert!(!wal.snapshot_due(1, 3, 0), "nothing logged since");
        wal.append_batch(&payloads(6..10)).unwrap();
        assert!(wal.snapshot_due(3, 3, 3) && wal.snapshot_due(4, 3, 0));
        assert!(!wal.snapshot_due(3, 3, 4), "three dead against four live");
        assert!(!wal.snapshot_due(5, 3, 0), "four records, floor five");
        assert!(!wal.snapshot_due(1, 3, 9), "more live than a reopen reads");

        // A failed attempt (its temp path is taken) leaves the log alive
        // and the snapshot standing; the floor counts on from the attempt.
        let blocker = snapshot_path(&dir, 10).with_extension("snap.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let failed = wal.snapshot_holding(b"state", 3, 0);
        assert!(matches!(failed, Err(WalError::Io(_))));
        assert_eq!(wal.snapshot_lsn(), 6);
        wal.append_batch(&payloads(10..12)).unwrap();
        assert!(!wal.snapshot_due(3, 3, 0), "two records since the failure");
        wal.append_batch(&payloads(12..13)).unwrap();
        assert!(wal.snapshot_due(3, 3, 0));
        assert_eq!(wal.snapshot_holding(b"state", 3, 0).unwrap(), 13);
        std::fs::remove_dir(&blocker).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_beyond_the_record_cap_is_read_back() {
        // 64 MiB is ~232 k stored observations: such a snapshot used to be
        // written, acknowledged and compacted for, then skipped on open
        // as "damaged" — with the segments it covered already deleted.
        let dir = temp_dir("big-snap");
        let config = quiet().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        for batch in 0..5u64 {
            wal.append_batch(&payloads(batch * 4..batch * 4 + 4))
                .unwrap();
        }
        assert!(wal.segment_count() > 1, "64-byte budget must roll");
        let mut state = vec![0x5a; crate::record::MAX_RECORD_BYTES + 1];
        state[0] = b'{';
        *state.last_mut().unwrap() = b'}';
        assert_eq!(wal.snapshot(&state).unwrap(), 20);
        assert_eq!(wal.segment_count(), 1, "covered segments deleted");
        wal.append(b"after").unwrap();
        drop(wal);

        let report = crate::inspect(&dir).unwrap();
        assert!(report.snapshots[0].valid && report.healthy());
        let (wal, recovered) = Wal::open(&dir, config).unwrap();
        assert_eq!(recovered.snapshot_lsn, 20);
        // Not `assert_eq!`: a failure would print 64 MiB twice.
        assert!(recovered.snapshot.as_deref() == Some(state.as_slice()));
        assert_eq!(recovered.entries.collected(), vec![(21, b"after".to_vec())]);
        assert_eq!(wal.next_lsn(), 22);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_segments_gauge_tracks_rolls_compaction_and_drop() {
        let registry = mps_telemetry::Registry::global();
        let gauge = |r: &mps_telemetry::Registry| r.gauge_value("wal_open_segments").unwrap_or(0);

        let dir = temp_dir("gauge");
        let config = WalConfig::default().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        wal.append_batch(&payloads(0..12)).unwrap();
        for batch in 3..6u64 {
            wal.append_batch(&payloads(batch * 4..batch * 4 + 4))
                .unwrap();
        }
        assert!(wal.segment_count() > 1, "64-byte budget must roll");
        // Other tests run in parallel against the same global gauge, so
        // assert only on this instance's guaranteed contribution.
        assert!(gauge(registry) >= wal.segment_count() as i64);

        wal.snapshot(b"covered").unwrap();
        assert_eq!(wal.segment_count(), 1, "compaction reclaims segments");
        let while_alive = gauge(registry);
        assert!(while_alive >= 1);
        drop(wal);
        assert!(
            gauge(registry) < while_alive,
            "drop withdraws the instance's contribution"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_costs_one_fsync_per_batch() {
        let registry = mps_telemetry::Registry::global();
        let count = |r: &mps_telemetry::Registry| r.counter_value("wal_fsyncs_total").unwrap_or(0);

        let dir = temp_dir("fsyncs");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        let before = count(registry);
        wal.append_batch(&payloads(0..16)).unwrap();
        // Other tests share the global counter, so assert only a lower
        // bound plus the single-batch delta being possible: one batch of
        // 16 records adds exactly one barrier from *this* instance.
        assert!(count(registry) > before);
        drop(wal);

        // fsync: false skips the barrier (and the counter); an explicit
        // sync() still counts.
        let dir2 = temp_dir("fsyncs-off");
        let (mut wal, _) = Wal::open(&dir2, WalConfig::default().fsync(false)).unwrap();
        let before = count(registry);
        wal.append_batch(&payloads(0..16)).unwrap();
        wal.sync().unwrap();
        assert!(count(registry) > before);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let dir = temp_dir("empty");
        let (mut wal, _) = Wal::open(&dir, quiet()).unwrap();
        assert_eq!(wal.append_batch(&[]).unwrap(), 0);
        assert_eq!(wal.next_lsn(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_append_kill_tears_the_tail_and_recovery_heals_it() {
        let dir = temp_dir("kill-append");
        let kill = KillSwitch::new();
        let (mut wal, _) = Wal::open(&dir, quiet().kill(kill.clone())).unwrap();
        wal.append_batch(&payloads(0..3)).unwrap();
        kill.arm(KillPoint::MidAppend, 0);
        let err = wal.append_batch(&payloads(3..6)).unwrap_err();
        assert!(matches!(err, WalError::Killed(KillPoint::MidAppend)));
        // Dead: every further call fails the same way.
        assert!(matches!(
            wal.append(b"x").unwrap_err(),
            WalError::Killed(KillPoint::MidAppend)
        ));
        drop(wal);

        let (_, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert!(recovered.report.torn_tail, "half-written batch must tear");
        // The first three records and the durable prefix of the batch
        // survive; the torn final record does not.
        assert!(recovered.entries.len() >= 3 && recovered.entries.len() < 6);
        let records = recovered.entries.collected();
        assert_eq!(records.len(), recovered.entries.len());
        for (i, (lsn, payload)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(payload, format!("record-{i}").as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn post_append_pre_ack_kill_is_durable_but_unacknowledged() {
        let dir = temp_dir("kill-ack");
        let kill = KillSwitch::new();
        let (mut wal, _) = Wal::open(&dir, quiet().kill(kill.clone())).unwrap();
        kill.arm(KillPoint::PostAppendPreAck, 0);
        let err = wal.append_batch(&payloads(0..4)).unwrap_err();
        assert!(matches!(err, WalError::Killed(KillPoint::PostAppendPreAck)));
        drop(wal);

        let (_, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert!(!recovered.report.torn_tail);
        assert_eq!(recovered.entries.len(), 4, "the batch was durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_snapshot_kill_preserves_the_previous_snapshot() {
        let dir = temp_dir("kill-snap");
        let kill = KillSwitch::new();
        let (mut wal, _) = Wal::open(&dir, quiet().kill(kill.clone())).unwrap();
        wal.append_batch(&payloads(0..4)).unwrap();
        wal.snapshot(b"first").unwrap();
        wal.append_batch(&payloads(4..6)).unwrap();
        kill.arm(KillPoint::MidSnapshot, 0);
        let err = wal.snapshot(b"second").unwrap_err();
        assert!(matches!(err, WalError::Killed(KillPoint::MidSnapshot)));
        drop(wal);

        let (_, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert_eq!(recovered.snapshot.as_deref(), Some(b"first".as_slice()));
        assert_eq!(recovered.snapshot_lsn, 4);
        assert_eq!(recovered.entries.len(), 2, "records after snapshot replay");
        // The orphan temp file is gone.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "orphan tmp must be removed"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_compaction_kill_leaves_recoverable_survivors() {
        let dir = temp_dir("kill-compact");
        let kill = KillSwitch::new();
        let config = quiet().segment_max_bytes(48).kill(kill.clone());
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        for batch in 0..8u64 {
            wal.append_batch(&payloads(batch * 3..batch * 3 + 3))
                .unwrap();
        }
        assert!(wal.segment_count() > 2, "need several segments to compact");
        kill.arm(KillPoint::MidCompaction, 0);
        let err = wal.snapshot(b"covering").unwrap_err();
        assert!(matches!(err, WalError::Killed(KillPoint::MidCompaction)));
        drop(wal);

        // The snapshot committed before compaction died, so recovery
        // sees it and ignores the surviving covered segments.
        let (wal, recovered) = Wal::open(&dir, quiet()).unwrap();
        assert_eq!(recovered.snapshot.as_deref(), Some(b"covering".as_slice()));
        assert_eq!(recovered.snapshot_lsn, 24);
        assert!(recovered.entries.is_empty());
        assert_eq!(wal.next_lsn(), 25);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_replay_is_deterministic() {
        let dir = temp_dir("determinism");
        let (mut wal, _) = Wal::open(&dir, quiet().segment_max_bytes(96)).unwrap();
        for batch in 0..6u64 {
            wal.append_batch(&payloads(batch * 5..batch * 5 + 5))
                .unwrap();
        }
        wal.snapshot(b"mid").unwrap();
        wal.append_batch(&payloads(100..104)).unwrap();
        drop(wal);

        let (_, first) = Wal::open(&dir, quiet()).unwrap();
        let (_, second) = Wal::open(&dir, quiet()).unwrap();
        assert_eq!(first.snapshot, second.snapshot);
        assert_eq!(first.snapshot_lsn, second.snapshot_lsn);
        assert_eq!(first.entries.collected(), second.entries.collected());
        assert_eq!(
            first.entries.collected(),
            first.entries.collected(),
            "a tail replays twice"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_span_reaches_the_flight_recorder() {
        let dir = temp_dir("span");
        let (mut wal, _) = Wal::open(&dir, quiet()).unwrap();
        wal.append(b"one").unwrap();
        drop(wal);
        let recorder = FlightRecorder::global();
        let before = recorder.snapshot().len();
        let (_, _) = Wal::open(&dir, quiet().recovery_span_at_ms(42_000)).unwrap();
        let spans = recorder.snapshot();
        let span = spans[before..]
            .iter()
            .find(|s| s.hop == Hop::WalRecovery)
            .expect("recovery span recorded");
        assert_eq!(span.outcome, Outcome::Ok);
        assert_eq!(span.start_ms, 42_000);
        assert!(span
            .attrs
            .iter()
            .any(|(k, v)| *k == "records_replayed" && v == "1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir` with its bytes, by name.
    fn image(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_replay_reads_the_tail_behind_a_snapshot_across_segments() {
        let dir = temp_dir("tail");
        let config = quiet().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        for batch in 0..3u64 {
            wal.append_batch(&payloads(batch * 3..batch * 3 + 3))
                .unwrap();
        }
        // Covers records 1..=9; the segment holding 10.. is not covered.
        wal.snapshot(b"nine").unwrap();
        for batch in 3..9u64 {
            wal.append_batch(&payloads(batch * 3..batch * 3 + 3))
                .unwrap();
        }
        drop(wal);
        let (_wal, recovered) = Wal::open(&dir, config).unwrap();
        assert!(recovered.report.segments_scanned > 2, "several segments");
        assert_eq!(recovered.entries.len(), 18);
        assert_eq!(recovered.entries.first_lsn(), Some(10));
        let records = recovered.entries.collected();
        let expected: Vec<(Lsn, Vec<u8>)> = (10..=27).zip(payloads(9..27)).collect();
        assert_eq!(records, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replay_stops_at_the_first_error_of_its_client() {
        let dir = temp_dir("replay-error");
        let (mut wal, _) = Wal::open(&dir, quiet()).unwrap();
        wal.append_batch(&payloads(0..5)).unwrap();
        drop(wal);
        let (_wal, recovered) = Wal::open(&dir, quiet()).unwrap();
        let mut seen = Vec::new();
        let stopped = recovered.entries.replay(|lsn, _| {
            seen.push(lsn);
            if lsn == 3 {
                return Err(WalError::Corrupt("refused".into()));
            }
            Ok(())
        });
        assert!(matches!(stopped, Err(WalError::Corrupt(why)) if why == "refused"));
        assert_eq!(seen, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_changed_after_the_open_fails_its_replay() {
        let dir = temp_dir("replay-changed");
        let (mut wal, _) = Wal::open(&dir, quiet()).unwrap();
        wal.append_batch(&payloads(0..5)).unwrap();
        drop(wal);
        let (_wal, recovered) = Wal::open(&dir, quiet()).unwrap();
        let seg = segment_path(&dir, 1);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut applied = 0;
        let failed = recovered.entries.replay(|_, _| {
            applied += 1;
            Ok::<_, WalError>(())
        });
        assert!(matches!(failed, Err(WalError::Corrupt(_))), "{failed:?}");
        assert_eq!(applied, 4, "the records still whole were handed over");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_replay_kill_leaves_the_directory_as_the_open_left_it() {
        let dir = temp_dir("kill-replay");
        let config = quiet().segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        for batch in 0..4u64 {
            wal.append_batch(&payloads(batch * 4..batch * 4 + 4))
                .unwrap();
        }
        drop(wal);
        let before = image(&dir);

        let kill = KillSwitch::new();
        kill.arm(KillPoint::MidReplay, 9);
        let (mut wal, recovered) = Wal::open(&dir, config.clone().kill(kill.clone())).unwrap();
        let mut applied = 0;
        let killed = recovered.entries.replay(|_, _| {
            applied += 1;
            Ok::<_, WalError>(())
        });
        assert!(matches!(
            killed,
            Err(WalError::Killed(KillPoint::MidReplay))
        ));
        assert_eq!(applied, 9);
        assert!(wal.append(b"x").is_err(), "the instance is dead");
        drop(wal);
        assert_eq!(image(&dir), before);

        let (_wal, again) = Wal::open(&dir, config).unwrap();
        assert_eq!(
            again.entries.collected(),
            (1..=16).zip(payloads(0..16)).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
