//! In-crate property tests: record framing roundtrip and recovery
//! under arbitrary truncation. Seeded loops over a small splitmix64, so
//! they run wherever the unit tests do.

use crate::record::crc32_bytewise;
use crate::{crc32, decode_one, encode_into, Decoded, Lsn, Wal, WalConfig};

/// Cases per property.
const CASES: u64 = 256;

/// splitmix64 (Steele, Lea & Flood 2014).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn size(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// `len` arbitrary bytes.
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// `min..max` payloads of `0..max_len` arbitrary bytes each.
    fn payloads(&mut self, min: usize, max: usize, max_len: usize) -> Vec<Vec<u8>> {
        (0..self.size(min, max))
            .map(|_| {
                let len = self.size(0, max_len);
                self.bytes(len)
            })
            .collect()
    }
}

/// Names the seed of the case that was running when a property panicked.
struct Seed(u64);

impl Drop for Seed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property failed at seed {0}; replay it alone with `property(&mut Rng({0}))`",
                self.0
            );
        }
    }
}

/// Runs `property` once per seed in `0..CASES`.
fn check(property: impl Fn(&mut Rng)) {
    for seed in 0..CASES {
        let _seed = Seed(seed);
        property(&mut Rng(seed));
    }
}

fn temp_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-wal-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The single segment file of a freshly created log.
fn first_segment(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join(format!("wal-{:020}.log", 1))
}

/// Any sequence of payloads encodes to a buffer that decodes back to
/// exactly those payloads.
#[test]
fn record_encode_decode_roundtrip() {
    check(|rng| {
        let payloads = rng.payloads(0, 20, 200);
        let mut buf = Vec::new();
        for p in &payloads {
            encode_into(&mut buf, p);
        }
        let mut rest = buf.as_slice();
        let mut seen = Vec::new();
        loop {
            match decode_one(rest) {
                Decoded::End => break,
                Decoded::Record { payload, consumed } => {
                    seen.push(payload.to_vec());
                    rest = &rest[consumed..];
                }
                Decoded::Torn => panic!("valid buffer decoded as torn"),
            }
        }
        assert_eq!(seen, payloads);
    });
}

/// Truncating the segment at *any* byte offset never panics the
/// recovery scan, and what survives is always an exact prefix of
/// what was appended.
#[test]
fn any_truncation_recovers_a_prefix_without_panic() {
    check(|rng| {
        let payloads = rng.payloads(1, 12, 64);
        let dir = temp_dir();
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
            wal.append_batch(&payloads).unwrap();
        }
        let segment = first_segment(&dir);
        let full = std::fs::metadata(&segment).unwrap().len();
        // Any offset from 0 to the full length, both included.
        let cut = rng.size(0, full as usize + 1) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let (_wal, recovered) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
        let records = recovered.entries.collected();
        assert_eq!(records.len(), recovered.entries.len());
        assert!(records.len() <= payloads.len());
        for (i, (lsn, payload)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(payload, &payloads[i]);
        }
        // A cut landing exactly on a record boundary is a clean (shorter)
        // tail; anywhere else it is torn and gets truncated back to the
        // previous boundary.
        let boundaries: Vec<u64> = std::iter::once(0)
            .chain(payloads.iter().scan(0u64, |acc, p| {
                *acc += (crate::RECORD_HEADER_BYTES + p.len()) as u64;
                Some(*acc)
            }))
            .collect();
        let records_covered = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        assert_eq!(records.len(), records_covered);
        assert_eq!(recovered.report.torn_tail, !boundaries.contains(&cut));

        // Recovery repaired the tail in place: a second open is clean
        // and sees the same prefix.
        let (_wal2, again) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
        assert!(!again.report.torn_tail);
        assert_eq!(again.entries.collected(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Over any log — segments of any size, a snapshot anywhere or none —
/// and any truncation of its last segment, the streamed replay hands
/// over exactly the written records after the snapshot that survive the
/// cut, in LSN order; a second replay of the same tail hands over the
/// same, and so does a replay after a second open.
#[test]
fn a_streamed_replay_is_the_written_prefix_and_replays_alike() {
    check(|rng| {
        let dir = temp_dir();
        let config = WalConfig::default()
            .telemetry(false)
            .segment_max_bytes(rng.size(16, 400) as u64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        let mut written: Vec<Vec<u8>> = Vec::new();
        let mut covered = 0;
        for _ in 0..rng.size(1, 12) {
            if rng.size(0, 5) == 0 {
                covered = wal.snapshot(b"state").unwrap();
            } else {
                let batch = rng.payloads(0, 6, 48);
                wal.append_batch(&batch).unwrap();
                written.extend(batch);
            }
        }
        drop(wal);
        // Cut the last segment anywhere; the records it loses are the
        // last ones written.
        let last = crate::inspect(&dir).unwrap().segments.pop().unwrap();
        let cut = rng.size(0, last.bytes as usize + 1);
        let file = std::fs::OpenOptions::new().write(true).open(&last.path);
        file.unwrap().set_len(cut as u64).unwrap();
        let mut offset = 0;
        let kept = written[last.start_lsn as usize - 1..]
            .iter()
            .take_while(|p| {
                offset += crate::RECORD_HEADER_BYTES + p.len();
                offset <= cut
            })
            .count();
        written.truncate(last.start_lsn as usize - 1 + kept);

        let (_wal, recovered) = Wal::open(&dir, config.clone()).unwrap();
        assert_eq!(recovered.snapshot_lsn, covered);
        let expected: Vec<(Lsn, Vec<u8>)> = (1..).zip(written).skip(covered as usize).collect();
        let first = recovered.entries.collected();
        assert_eq!(first, expected);
        assert_eq!(recovered.entries.len(), first.len());
        assert_eq!(recovered.entries.collected(), first, "a second replay");
        let (_wal, again) = Wal::open(&dir, config).unwrap();
        assert_eq!(
            again.entries.collected(),
            first,
            "a replay after a second open"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// The cadence is a fact of the directory: after any sequence of appends,
/// snapshots and segment rolls, a log dropped and reopened answers
/// `snapshot_due` as the live one does, for every floor and every pair
/// of counts a client could hold beside it.
#[test]
fn a_reopened_log_answers_snapshot_due_as_the_live_one() {
    // Every floor against a grid of (held then, held now).
    let answers = |wal: &Wal| -> Vec<bool> {
        let mut out = Vec::new();
        for floor in 0..12 {
            for then in [0, 1, 5, 40] {
                for now in [0, 1, 2, 5, 9, 40, 90] {
                    out.push(wal.snapshot_due(floor, then, now));
                }
            }
        }
        out
    };
    check(|rng| {
        let dir = temp_dir();
        // Small segments: batches roll them, snapshots compact them.
        let config = WalConfig::default()
            .telemetry(false)
            .segment_max_bytes(rng.size(32, 512) as u64);
        let (mut wal, _) = Wal::open(&dir, config.clone()).unwrap();
        // Kept beside the log, as a client does: what the newest snapshot
        // held, and the records appended since it.
        let (mut held, mut records) = (0u64, 0u64);
        for _ in 0..rng.size(1, 24) {
            match rng.size(0, 8) {
                0 => {
                    let (len, now) = (rng.size(0, 400), rng.size(0, 60) as u64);
                    if wal.snapshot_holding(&rng.bytes(len), held, now).unwrap() > 0 {
                        (held, records) = (now, 0);
                    }
                }
                1 => {
                    let live = answers(&wal);
                    drop(wal);
                    wal = Wal::open(&dir, config.clone()).unwrap().0;
                    assert_eq!(answers(&wal), live);
                }
                _ => {
                    let batch = rng.payloads(0, 6, 80);
                    wal.append_batch(&batch).unwrap();
                    records += batch.len() as u64;
                }
            }
            assert_eq!(wal.next_lsn() - 1 - wal.snapshot_lsn(), records);
            // The rule, restated: at least `floor` records since the
            // snapshot, and of what a reopen reads at least `floor` and
            // at least half are dead.
            let (floor, now) = (rng.size(0, 12) as u64, rng.size(0, 90) as u64);
            let dead = (held + records).saturating_sub(now);
            let due = floor != 0 && records >= floor && dead >= floor.max(now);
            assert_eq!(wal.snapshot_due(floor, held, now), due, "floor {floor}");
        }
        let live = answers(&wal);
        drop(wal);
        let (reopened, recovered) = Wal::open(&dir, config).unwrap();
        assert_eq!(answers(&reopened), live);
        assert_eq!(recovered.entries.len() as u64, records);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

#[test]
fn crc32_equals_the_bytewise_loop_at_every_short_length() {
    let mut rng = Rng(1);
    for len in 0..=64 {
        let bytes = rng.bytes(len);
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
    }
}

#[test]
fn crc32_equals_the_bytewise_loop_on_random_lengths() {
    check(|rng| {
        let len = rng.size(0, 64 * 1024 + 1);
        let bytes = rng.bytes(len);
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
    });
}

#[test]
fn crc32_equals_the_bytewise_loop_at_every_alignment() {
    // Every start offset against every end offset within a word:
    // unaligned heads and all eight tail lengths.
    let buffer = Rng(7).bytes(256);
    for start in 0..8 {
        for end in buffer.len() - 8..=buffer.len() {
            let bytes = &buffer[start..end];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{start}..{end}");
        }
    }
}
