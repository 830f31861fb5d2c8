//! Read-only log inspection, for `cargo run -p xtask -- wal-inspect`.
//!
//! Unlike [`Wal::open`], inspection never mutates the directory: torn
//! tails are reported, not truncated; orphan temp files are listed, not
//! removed. This is the debugging view of a log someone shipped you.
//!
//! [`Wal::open`]: crate::Wal::open

use crate::record::{decode_one, snapshot_state, Decoded};
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

/// Scans `dir` without modifying anything; see the module docs.
pub fn inspect(dir: impl AsRef<Path>) -> Result<InspectReport, WalError> {
    let dir = dir.as_ref();
    let mut report = InspectReport::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            report.orphan_tmp.push(path);
        } else if let Some(start) = parse(name, "wal-", ".log") {
            let bytes = std::fs::read(&path)?;
            let mut offset = 0usize;
            let mut records = 0usize;
            let mut torn = false;
            loop {
                match decode_one(&bytes[offset..]) {
                    Decoded::End => break,
                    Decoded::Record { consumed, .. } => {
                        offset += consumed;
                        records += 1;
                    }
                    Decoded::Torn => {
                        torn = true;
                        break;
                    }
                }
            }
            report.segments.push(SegmentInfo {
                path,
                start_lsn: start,
                records,
                bytes: bytes.len() as u64,
                valid_bytes: offset as u64,
                torn,
            });
        } else if let Some(lsn) = parse(name, "snap-", ".snap") {
            let bytes = std::fs::read(&path)?;
            report.snapshots.push(SnapshotInfo {
                path,
                lsn,
                bytes: bytes.len() as u64,
                valid: snapshot_state(&bytes).is_some(),
            });
        }
    }
    report.segments.sort_by_key(|s| s.start_lsn);
    report.snapshots.sort_by_key(|s| std::cmp::Reverse(s.lsn));
    Ok(report)
}

fn parse(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
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
