//! The heap a durable store's reopen needs beyond what it keeps, as the
//! allocator counts it: generated observations written by GoFlow's
//! `ObservationRecord::to_document` are inserted in batches of 16 into a
//! durable collection with GoFlow's indexes, the store is dropped, and
//! its directory is reopened twice over — once holding N documents, once
//! 4 N. A reopen's transient bytes are its high-water mark less what the
//! reopened store holds when the open returns: the log's segments read,
//! records parsed, blocks sealed on the way. They must not grow with the
//! log: recovery holds one segment at a time, whatever the log's length.
//! Deterministic — no `/proc`, no timing — because the allocator is this
//! binary's own (`counting`); run with `--nocapture` for the numbers. The
//! same at 250 000 and 1 000 000 documents in 1 MiB segments is
//! `#[ignore]`d (run it with `--release -- --ignored`).

mod counting;
mod observations;

use mps_docstore::{Durability, DurabilityConfig, Store};
use mps_goflow::ObservationRecord;
use mps_wal::WalConfig;
use observations::{observation, Draw};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Held by each count: the bytes are the whole process's, so two counts
/// run side by side (`--include-ignored`) would each see the other's.
static COUNTING: Mutex<()> = Mutex::new(());

const BATCH: u64 = 16;
const COLLECTION: &str = "observations";

fn durability(dir: &Path, segment_bytes: u64) -> Durability {
    let wal = WalConfig::default()
        .telemetry(false)
        .fsync(false)
        .segment_max_bytes(segment_bytes);
    Durability::Durable(DurabilityConfig::new(dir).wal(wal))
}

/// A fresh directory holding a durable store of `docs` observations.
fn written(docs: u64, segment_bytes: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mps-bench-reopen-bytes-{docs}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(durability(&dir, segment_bytes)).expect("a durable store");
    let observations = store.collection(COLLECTION);
    for path in ObservationRecord::indexed() {
        observations.create_index(path).expect("an index");
    }
    let mut draw = Draw(1);
    for batch in 0..docs / BATCH {
        let docs = (batch * BATCH..(batch + 1) * BATCH).map(|i| observation(&mut draw, i));
        observations.insert_many(docs).expect("stored");
    }
    dir
}

/// What one reopen of `dir` cost.
struct Reopen {
    /// Bytes held at the high-water mark beyond those held at its end.
    transient: isize,
    /// Bytes the reopened store holds.
    kept: isize,
}

/// Reopens the store in `dir`, which must hold `docs` documents.
fn reopen(dir: &Path, docs: u64, segment_bytes: u64) -> Reopen {
    let before = counting::reset_peak();
    let store = Store::open(durability(dir, segment_bytes)).expect("reopened");
    let after = counting::live_bytes();
    let peak = counting::peak_bytes();
    assert_eq!(store.collection(COLLECTION).len() as u64, docs);
    Reopen {
        transient: peak - after,
        kept: after - before,
    }
}

/// Reopens stores of `docs` and `4 × docs` documents and holds the
/// larger reopen's transient bytes to the smaller's.
fn transient_bytes_stay_flat(docs: u64, segment_bytes: u64) {
    let _alone = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let mut seen = Vec::new();
    for docs in [docs, 4 * docs] {
        let dir = written(docs, segment_bytes);
        // The first open of a process registers its telemetry: not the
        // reopen's bytes.
        reopen(&dir, docs, segment_bytes);
        let cost = reopen(&dir, docs, segment_bytes);
        let log_bytes: u64 = std::fs::read_dir(&dir)
            .expect("the log")
            .map(|entry| entry.expect("a file").metadata().expect("its size").len())
            .sum();
        println!(
            "reopen of {docs} documents ({log_bytes} log bytes in {segment_bytes}-byte segments): \
             {} transient bytes, {} kept",
            cost.transient, cost.kept
        );
        std::fs::remove_dir_all(&dir).expect("removed");
        seen.push(cost.transient);
    }
    let (small, large) = (seen[0], seen[1]);
    // The high-water mark falls where the last segment read still held
    // its buffer beside a store nearly whole: four times the log may
    // cost what varies with where that segment ends, one segment at
    // most, and not four times the bytes.
    assert!(
        large <= small + segment_bytes as isize,
        "a reopen of {} documents held {large} transient bytes against {small} for {docs}",
        4 * docs
    );
}

#[test]
fn a_reopen_holds_no_more_with_four_times_the_log() {
    transient_bytes_stay_flat(4_096, 64 << 10);
}

#[test]
#[ignore = "a million documents in 1 MiB segments: ~40 s in a release build"]
fn a_reopen_of_a_million_documents_holds_no_more_than_of_a_quarter_million() {
    transient_bytes_stay_flat(250_000, 1 << 20);
}
