//! Recovery over the committed torn-write corpus.
//!
//! Each file in `tests/corpus/` is a hand-built segment exercising one
//! corruption shape. The test copies the file into a scratch log
//! directory (recovery repairs torn tails in place, and the corpus must
//! stay pristine), opens it, and checks exactly which prefix survives —
//! then opens it again to confirm the repair left a clean log.

use mps_wal::{Lsn, Recovered, Wal, WalConfig, WalError};
use std::path::{Path, PathBuf};

struct Case {
    file: &'static str,
    /// Payloads the recovery scan must hand back, in order.
    expect: &'static [&'static [u8]],
    torn: bool,
}

const CASES: &[Case] = &[
    Case {
        file: "clean.log",
        expect: &[
            br#"{"op":"insert","id":1}"#,
            br#"{"op":"insert","id":2}"#,
            br#"{"op":"delete","id":1}"#,
        ],
        torn: false,
    },
    Case {
        file: "torn-mid-record.log",
        expect: &[br#"{"op":"insert","id":1}"#, br#"{"op":"insert","id":2}"#],
        torn: true,
    },
    Case {
        file: "bad-crc.log",
        expect: &[br#"{"op":"insert","id":1}"#, br#"{"op":"insert","id":2}"#],
        torn: true,
    },
    Case {
        file: "torn-header.log",
        expect: &[br#"{"op":"insert","id":1}"#],
        torn: true,
    },
    Case {
        file: "absurd-length.log",
        expect: &[br#"{"op":"insert","id":1}"#],
        torn: true,
    },
    Case {
        file: "empty.log",
        expect: &[],
        torn: false,
    },
];

fn scratch_log_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-wal-corpus-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// What a replay of `recovered`'s tail hands over, collected.
fn replayed(recovered: &Recovered) -> Vec<(Lsn, Vec<u8>)> {
    let mut records = Vec::new();
    recovered
        .entries
        .replay(|lsn, payload| {
            records.push((lsn, payload.to_vec()));
            Ok::<_, WalError>(())
        })
        .unwrap();
    records
}

fn open_copy(case: &Case) -> (PathBuf, Recovered) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(case.file);
    let dir = scratch_log_dir(case.file.trim_end_matches(".log"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&src, dir.join(format!("wal-{:020}.log", 1))).unwrap();
    let (_wal, recovered) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
    (dir, recovered)
}

#[test]
fn corpus_recovers_exactly_the_valid_prefix() {
    for case in CASES {
        let (dir, recovered) = open_copy(case);
        let records = replayed(&recovered);
        let lsns: Vec<Lsn> = records.iter().map(|(lsn, _)| *lsn).collect();
        let payloads: Vec<&[u8]> = records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, case.expect, "{}", case.file);
        assert_eq!(lsns, (1..=case.expect.len() as Lsn).collect::<Vec<_>>());
        assert_eq!(recovered.entries.len(), records.len(), "{}", case.file);
        assert_eq!(recovered.report.torn_tail, case.torn, "{}", case.file);
        if case.torn {
            assert!(
                recovered.report.torn_bytes_truncated > 0,
                "{}: truncation must be accounted",
                case.file
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovery_repairs_the_corpus_in_place() {
    for case in CASES {
        let (dir, first) = open_copy(case);
        let (_wal, second) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
        assert!(
            !second.report.torn_tail,
            "{}: second open must be clean",
            case.file
        );
        assert_eq!(
            replayed(&second),
            replayed(&first),
            "{}: repair must not lose valid records",
            case.file
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn appends_continue_after_corpus_recovery() {
    for case in CASES {
        let (dir, recovered) = open_copy(case);
        drop(recovered);
        {
            let (mut wal, recovered) =
                Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
            let before = recovered.entries.len();
            wal.append(b"appended after repair").unwrap();
            drop(wal);
            let (_wal, after) = Wal::open(&dir, WalConfig::default().telemetry(false)).unwrap();
            assert_eq!(after.entries.len(), before + 1, "{}", case.file);
            assert_eq!(
                replayed(&after).pop(),
                Some((before as Lsn + 1, b"appended after repair".to_vec())),
                "{}",
                case.file
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
