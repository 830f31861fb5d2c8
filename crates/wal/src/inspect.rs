//! Read-only log inspection, for `cargo run -p xtask -- wal-inspect`.
//!
//! Unlike [`Wal::open`], inspection never mutates the directory: torn
//! tails are reported, not truncated; orphan temp files are listed, not
//! removed. This is the debugging view of a log someone shipped you.
//!
//! [`Wal::open`]: crate::Wal::open

use crate::record::snapshot_state;
use crate::scan;
use crate::WalError;
use std::path::{Path, PathBuf};

/// One segment file's health.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// The file.
    pub path: PathBuf,
    /// First LSN in the segment (from the file name).
    pub start_lsn: u64,
    /// Checksum-valid records found.
    pub records: usize,
    /// File size in bytes.
    pub bytes: u64,
    /// Bytes covered by valid records.
    pub valid_bytes: u64,
    /// True when the file ends in a torn or corrupt record.
    pub torn: bool,
}

/// One snapshot file's health.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// The file.
    pub path: PathBuf,
    /// The LSN the snapshot covers through (from the file name).
    pub lsn: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// True when the framing and checksum are intact.
    pub valid: bool,
}

/// Everything [`inspect`] found in a log directory.
#[derive(Debug, Clone, Default)]
pub struct InspectReport {
    /// Segment files, in LSN order.
    pub segments: Vec<SegmentInfo>,
    /// Snapshot files, newest first.
    pub snapshots: Vec<SnapshotInfo>,
    /// Orphaned `.tmp` files (crash mid-snapshot debris).
    pub orphan_tmp: Vec<PathBuf>,
}

impl InspectReport {
    /// Total checksum-valid records across all segments.
    pub fn total_records(&self) -> usize {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// True when every segment is clean and a valid snapshot chain
    /// exists (or none is needed).
    pub fn healthy(&self) -> bool {
        let torn_before_tail = self.segments.iter().rev().skip(1).any(|s| s.torn);
        let bad_snapshot = self.snapshots.first().is_some_and(|s| !s.valid);
        !torn_before_tail && !bad_snapshot
    }
}

/// Scans `dir` without modifying anything; see the module docs. The
/// listing and the walk of each segment are [`Wal::open`]'s own.
///
/// [`Wal::open`]: crate::Wal::open
pub fn inspect(dir: impl AsRef<Path>) -> Result<InspectReport, WalError> {
    let listing = scan::list(dir.as_ref())?;
    let mut buf = Vec::new();
    let mut segments = Vec::with_capacity(listing.segments.len());
    for (start_lsn, path) in listing.segments {
        scan::read_into(&path, &mut buf)?;
        let walk = scan::walk(&buf, 0);
        segments.push(SegmentInfo {
            path,
            start_lsn,
            records: walk.records as usize,
            bytes: buf.len() as u64,
            valid_bytes: walk.valid as u64,
            torn: walk.torn,
        });
    }
    let mut snapshots = Vec::with_capacity(listing.snapshots.len());
    for (lsn, path) in listing.snapshots {
        scan::read_into(&path, &mut buf)?;
        snapshots.push(SnapshotInfo {
            path,
            lsn,
            bytes: buf.len() as u64,
            valid: snapshot_state(&buf).is_some(),
        });
    }
    Ok(InspectReport {
        segments,
        snapshots,
        orphan_tmp: listing.orphans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Wal, WalConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-wal-inspect-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn inspect_reports_segments_snapshots_and_tears() {
        let dir = temp_dir();
        let config = WalConfig::default().telemetry(false).segment_max_bytes(64);
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        for batch in 0..4u64 {
            let records: Vec<Vec<u8>> = (0..4)
                .map(|i| format!("r-{batch}-{i}").into_bytes())
                .collect();
            wal.append_batch(&records).unwrap();
        }
        wal.snapshot(b"covering-16").unwrap();
        wal.append(b"after").unwrap();
        drop(wal);

        let report = inspect(&dir).unwrap();
        assert!(report.healthy());
        assert_eq!(report.snapshots.len(), 1);
        assert!(report.snapshots[0].valid);
        assert_eq!(report.snapshots[0].lsn, 16);
        assert!(report.total_records() >= 1);

        // Tear the last segment: still "healthy" (a torn tail is
        // recoverable), but reported.
        let last = report.segments.last().unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&last.path)
            .unwrap();
        file.set_len(last.bytes - 2).unwrap();
        drop(file);
        let report = inspect(&dir).unwrap();
        assert!(report.segments.last().unwrap().torn);
        assert!(report.healthy());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
