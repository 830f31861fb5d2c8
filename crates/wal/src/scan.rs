//! The one scan of a log directory, shared by [`Wal::open`] and
//! [`inspect`]: the listing of its files by kind, the walk of a
//! segment's frames, and the [`Tail`] an open validated, which its
//! client replays one segment at a time.
//!
//! [`Wal::open`]: crate::Wal::open
//! [`inspect`]: crate::inspect

use crate::kill::{KillPoint, KillSwitch};
use crate::record::{decode_one, Decoded};
use crate::{Lsn, WalError};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

pub(crate) const SEGMENT_PREFIX: &str = "wal-";
pub(crate) const SEGMENT_SUFFIX: &str = ".log";
pub(crate) const SNAPSHOT_PREFIX: &str = "snap-";
pub(crate) const SNAPSHOT_SUFFIX: &str = ".snap";
pub(crate) const TMP_SUFFIX: &str = ".tmp";

/// A log directory's files, each kind in the order recovery reads it.
#[derive(Debug, Default)]
pub(crate) struct Listing {
    /// Segments by the LSN of their first record, oldest first.
    pub segments: Vec<(Lsn, PathBuf)>,
    /// Snapshots by the LSN they cover through, newest first.
    pub snapshots: Vec<(Lsn, PathBuf)>,
    /// Temp files: snapshots a crash left uncommitted.
    pub orphans: Vec<PathBuf>,
}

/// Lists `dir`; names that are none of a log's files are ignored.
pub(crate) fn list(dir: &Path) -> std::io::Result<Listing> {
    let mut listing = Listing::default();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(TMP_SUFFIX) {
            listing.orphans.push(path);
        } else if let Some(start) = parse_name(name, SEGMENT_PREFIX, SEGMENT_SUFFIX) {
            listing.segments.push((start, path));
        } else if let Some(lsn) = parse_name(name, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX) {
            listing.snapshots.push((lsn, path));
        }
    }
    listing.segments.sort_by_key(|(start, _)| *start);
    listing
        .snapshots
        .sort_by_key(|(lsn, _)| std::cmp::Reverse(*lsn));
    listing.orphans.sort();
    Ok(listing)
}

/// Parses `prefix{lsn}suffix` file names.
fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<Lsn> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Reads the file at `path` into `buf`, replacing what it held: one
/// buffer serves every segment of a scan.
pub(crate) fn read_into(path: &Path, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    File::open(path)?.read_to_end(buf)?;
    Ok(())
}

/// What the walk of one segment's frames found.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// Checksum-valid records from the start of the segment.
    pub records: u64,
    /// Bytes those records cover: where a torn tail begins.
    pub valid: usize,
    /// True when bytes that are no record follow them.
    pub torn: bool,
    /// Where the record after the first `skip` begins (`valid` when the
    /// segment holds no more than `skip`).
    pub kept_from: usize,
}

/// Walks `bytes`, a segment, frame by frame to its first bad one.
pub(crate) fn walk(bytes: &[u8], skip: u64) -> Walk {
    let (mut records, mut valid, mut kept_from) = (0, 0, None);
    loop {
        if records == skip {
            kept_from = Some(valid);
        }
        match decode_one(&bytes[valid..]) {
            Decoded::Record { consumed, .. } => {
                valid += consumed;
                records += 1;
            }
            end => {
                return Walk {
                    records,
                    valid,
                    torn: end == Decoded::Torn,
                    kept_from: kept_from.unwrap_or(valid),
                }
            }
        }
    }
}

/// The records after the snapshot, as [`Wal::open`] validated them:
/// where each segment's share begins and ends, and how many it holds.
/// Nothing of them is in memory until [`Tail::replay`] reads it.
///
/// [`Wal::open`]: crate::Wal::open
#[derive(Debug, Default)]
pub struct Tail {
    segments: Vec<TailSegment>,
    records: usize,
    kill: KillSwitch,
}

/// One segment's share of a [`Tail`].
#[derive(Debug)]
struct TailSegment {
    path: PathBuf,
    /// The LSN of its first record to replay.
    first: Lsn,
    /// The bytes of its records to replay: from the first to the end of
    /// the valid ones.
    from: u64,
    to: u64,
    records: u64,
}

impl Tail {
    pub(crate) fn new(kill: KillSwitch) -> Self {
        Self {
            kill,
            ..Self::default()
        }
    }

    /// Adds the `records` at `from..to` of the segment at `path`, the
    /// first of them at LSN `first`.
    pub(crate) fn push(&mut self, path: &Path, first: Lsn, from: usize, to: usize, records: u64) {
        if records == 0 {
            return;
        }
        self.records += records as usize;
        self.segments.push(TailSegment {
            path: path.to_path_buf(),
            first,
            from: from as u64,
            to: to as u64,
            records,
        });
    }

    /// The records a replay hands over.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when there is nothing to replay.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The LSN of the first record, if any.
    pub(crate) fn first_lsn(&self) -> Option<Lsn> {
        self.segments.first().map(|segment| segment.first)
    }

    /// Hands every record to `apply`, with its LSN, in LSN order, and
    /// stops at the first error `apply` returns. Segments are read one
    /// at a time into one buffer, so a replay holds one segment's bytes
    /// whatever the tail's length; every frame is checked again as it is
    /// read. Replaying changes nothing on disk, and a second replay
    /// hands over the same records.
    ///
    /// # Errors
    ///
    /// `apply`'s; [`WalError::Io`] when a segment cannot be read;
    /// [`WalError::Corrupt`] when a segment no longer holds the records
    /// the open validated; [`WalError::Killed`] when the log's kill
    /// switch fires at [`KillPoint::MidReplay`].
    pub fn replay<E: From<WalError>>(
        &self,
        mut apply: impl FnMut(Lsn, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut buf = Vec::new();
        for segment in &self.segments {
            segment.read_into(&mut buf).map_err(WalError::from)?;
            let mut rest = buf.as_slice();
            for lsn in segment.first..segment.first + segment.records {
                let Decoded::Record { payload, consumed } = decode_one(rest) else {
                    return Err(segment.changed(lsn).into());
                };
                if self.kill.should_fire(KillPoint::MidReplay) {
                    return Err(WalError::Killed(KillPoint::MidReplay).into());
                }
                apply(lsn, payload)?;
                rest = &rest[consumed..];
            }
            if !rest.is_empty() {
                return Err(segment.changed(segment.first + segment.records).into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl Tail {
    /// Every record a replay hands over, collected: what the crate's
    /// tests compare.
    pub(crate) fn collected(&self) -> Vec<(Lsn, Vec<u8>)> {
        let mut records = Vec::new();
        self.replay(|lsn, payload| {
            records.push((lsn, payload.to_vec()));
            Ok::<_, WalError>(())
        })
        .unwrap();
        records
    }
}

impl TailSegment {
    /// Reads this segment's records into `buf`, replacing what it held.
    fn read_into(&self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        let len = self.to - self.from;
        buf.clear();
        // A `Take` gives `read_to_end` no size: without the reservation
        // the buffer would double its way up, to twice the segment.
        buf.reserve_exact(len as usize);
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.from))?;
        file.take(len).read_to_end(buf)?;
        Ok(())
    }

    fn changed(&self, lsn: Lsn) -> WalError {
        WalError::Corrupt(format!(
            "{} changed since the log was opened, at lsn {lsn}",
            self.path.display()
        ))
    }
}
