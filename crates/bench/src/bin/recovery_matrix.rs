//! The CI crash-kill recovery matrix.
//!
//! ```text
//! cargo run -p mps-bench --release --bin recovery_matrix -- [--long] [--out PATH]
//! ```
//!
//! Drives every WAL kill point of the write path (mid-append,
//! post-append-pre-ack, mid-snapshot, mid-compaction) through both durable
//! components (the docstore and the broker), kills a docstore's reopen
//! mid-replay, then asserts the recovery contract:
//!
//! * **Zero silent loss** — every operation that was acknowledged before
//!   the crash is present after reopen; the single in-flight operation
//!   that returned an error may legitimately land on either side of the
//!   crash (it is counted as *ambiguous*, never lost silently).
//! * **No resurrection** — acknowledged deletes and message acks stay
//!   applied; a torn tail never brings them back.
//! * **Determinism** — two independent replays of the same log produce
//!   byte-identical docstore exports and identical broker queue
//!   snapshots.
//! * **A replay only reads** — a replay killed part-way leaves the
//!   directory's bytes as the open left them, and the next reopen
//!   exports what the store held before it was closed.
//!
//! `--long` widens the matrix (more operations, several kill offsets per
//! point) for the nightly CI run; `--out` names the recovery-report
//! artifact (default `recovery-report.txt`). Exit status: 0 when every
//! cell passes, 1 otherwise.

// A CLI's job is to print.
#![allow(clippy::print_stdout, reason = "the matrix is a report on stdout")]

use mps_broker::{Broker, BrokerTransport};
use mps_docstore::{Durability, DurabilityConfig, Filter, Store, Update};
use mps_faults::{CrashPlan, CrashTarget};
use mps_goflow::{GoFlowServer, ObservationRecord, Role};
use mps_types::{AppId, DeviceModel, Observation, SimTime, SoundLevel};
use mps_wal::{KillPoint, KillSwitch, WalConfig};
use serde_json::json;
use std::collections::BTreeSet;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The snapshot floor in every cell — small, so the mid-snapshot and
/// mid-compaction kill points fire early. The cadence also waits until
/// half of what a reopen would read is dead, so a cell must supersede
/// what it wrote (updates, deletes, acks) to be snapshotted at all, and
/// snapshots thin out as its state grows: each `snapshot_skips` entry
/// must still be reached within the cell's operations (`kill never
/// fired` fails the cell; the report's snapshot count says how close a
/// cell came).
const SNAPSHOT_EVERY: u64 = 8;

/// Every cell's log: segments of a few records each, so snapshots find
/// closed segments to compact and the mid-compaction kill point fires.
fn wal_config() -> WalConfig {
    WalConfig::default().telemetry(false).segment_max_bytes(512)
}

fn main() {
    let mut long = false;
    let mut out_path = "recovery-report.txt".to_owned();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--long" => long = true,
            "--out" => match argv.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: recovery_matrix [--long] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let ops: u64 = if long { 512 } else { 48 };
    let append_skips: &[u64] = if long { &[2, 10, 25] } else { &[6] };
    let snapshot_skips: &[u64] = if long { &[0, 1, 2] } else { &[1] };
    // Records of the tail applied before the replay dies: none, or some
    // segments' worth.
    let replay_skips: &[u64] = if long { &[0, 17, 250] } else { &[20] };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "crash-kill recovery matrix ({} mode, {ops} ops/cell, snapshot once >= {SNAPSHOT_EVERY} \
         records were logged since the last one and, of the records a reopen would read, >= \
         {SNAPSHOT_EVERY} and >= half are dead)",
        if long { "long" } else { "quick" },
    );
    let mut failures = 0usize;
    let mut record = |line: String| {
        failures += usize::from(line.starts_with("FAIL"));
        let _ = writeln!(report, "{line}");
    };
    for target in [CrashTarget::Docstore, CrashTarget::Broker] {
        for point in KillPoint::ALL {
            let skips = match point {
                KillPoint::MidAppend | KillPoint::PostAppendPreAck => append_skips,
                KillPoint::MidSnapshot | KillPoint::MidCompaction => snapshot_skips,
                // Not a write-path point: its cells follow.
                KillPoint::MidReplay => &[],
            };
            for &skip in skips {
                let outcome = match target {
                    CrashTarget::Docstore => docstore_cell(point, skip, ops),
                    CrashTarget::Broker => broker_cell(point, skip, ops),
                };
                record(line(target.as_str(), point, skip, outcome));
            }
        }
    }
    // The batched-ingest cells: a GoFlow server over a durable store,
    // killed mid-way through a 16-document group-committed batch.
    for point in [KillPoint::MidAppend, KillPoint::PostAppendPreAck] {
        for &skip in append_skips {
            let batches = if long { 64 } else { 12 };
            let outcome = ingest_cell(point, skip, batches);
            record(line("ingest", point, skip, outcome));
        }
    }

    // The replay cells: a docstore reopened with its replay killed
    // part-way, then reopened again.
    for &skip in replay_skips {
        let outcome = replay_cell(skip, ops);
        record(line("docstore", KillPoint::MidReplay, skip, outcome));
    }

    let verdict = if failures == 0 {
        "verdict: all cells passed".to_owned()
    } else {
        format!("verdict: {failures} cell(s) FAILED")
    };
    println!("{verdict}");
    let _ = writeln!(report, "{verdict}");
    if let Err(err) = std::fs::write(&out_path, report) {
        eprintln!("failed to write {out_path}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
    if failures > 0 {
        std::process::exit(1);
    }
}

/// One cell's line of the report, printed as it is made.
fn line(target: &str, point: KillPoint, skip: u64, outcome: Result<Cell, String>) -> String {
    let (verdict, what) = match outcome {
        Ok(cell) => (
            "PASS",
            format!(
                "{} committed, {} ambiguous, {} recovered, {} snapshots, torn_tail={}, deterministic",
                cell.committed, cell.ambiguous, cell.recovered, cell.snapshots, cell.torn,
            ),
        ),
        Err(why) => ("FAIL", why),
    };
    let line = format!(
        "{verdict} {target:>8} {:>18} skip {skip:>2}: {what}",
        point.as_str()
    );
    println!("{line}");
    line
}

/// Counts the snapshots a cell's workload commits: the newest one's LSN
/// in the directory, looked at between operations.
struct Snapshots<'a> {
    dir: &'a PathBuf,
    newest: Option<u64>,
    taken: usize,
}

impl<'a> Snapshots<'a> {
    fn of(dir: &'a PathBuf) -> Self {
        Self {
            dir,
            newest: None,
            taken: 0,
        }
    }

    fn look(&mut self) {
        let report = mps_wal::inspect(self.dir).unwrap_or_default();
        let newest = report.snapshots.first().map(|snapshot| snapshot.lsn);
        self.taken += usize::from(newest != self.newest);
        self.newest = newest;
    }
}

/// What a passing cell measured, for the report artifact.
struct Cell {
    /// Operations acknowledged before the crash.
    committed: usize,
    /// Operations whose error raced the crash (either outcome is legal).
    ambiguous: usize,
    /// Entities present after recovery (documents or messages).
    recovered: usize,
    /// Snapshots committed before the crash.
    snapshots: usize,
    /// Whether recovery truncated a torn tail.
    torn: bool,
}

/// A scratch log directory, unique without consulting the wall clock.
fn scratch(target: &str, point: KillPoint, skip: u64) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-recovery-matrix-{target}-{}-{skip}-{}-{}",
        point.as_str(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Whether the log under `dir` shows a torn tail right now (checked
/// before the first recovery repairs it in place).
fn torn_tail(dir: &PathBuf) -> bool {
    mps_wal::inspect(dir)
        .map(|r| r.segments.iter().any(|s| s.torn))
        .unwrap_or(false)
}

// ---------------------------------------------------------------------
// Docstore: inserts, each followed by an update of the document before
// it, plus periodic deletes; then crash, reopen twice.
// ---------------------------------------------------------------------

fn docstore_cell(point: KillPoint, skip: u64, ops: u64) -> Result<Cell, String> {
    let dir = scratch("docstore", point, skip);
    let _ = std::fs::remove_dir_all(&dir);
    let plan = CrashPlan::at(CrashTarget::Docstore, point, skip);
    let kill = plan.armed_switch();
    let config = DurabilityConfig::new(&dir)
        .wal(wal_config().kill(kill.clone()))
        .snapshot_every(SNAPSHOT_EVERY);
    let store =
        Store::open(Durability::Durable(config)).map_err(|e| format!("faulted open: {e}"))?;
    let obs = store.collection("obs");
    obs.create_index("seq").map_err(|e| format!("index: {e}"))?;

    let mut inserted: Vec<u64> = Vec::new();
    let mut updated: BTreeSet<u64> = BTreeSet::new();
    let mut deleted: Vec<u64> = Vec::new();
    let mut ambiguous: BTreeSet<u64> = BTreeSet::new();
    let mut snapshots = Snapshots::of(&dir);
    for i in 0..ops {
        snapshots.look();
        match obs.insert_one(json!({"seq": i, "zone": format!("z{}", i % 4)})) {
            Ok(_) => inserted.push(i),
            Err(_) => {
                ambiguous.insert(i);
                break;
            }
        }
        // Supersede the record of the document before this one (never a
        // deleted one: a victim goes two inserts after its own): without
        // dead records in the log there is nothing to snapshot for.
        if let Some(earlier) = i.checked_sub(1) {
            match obs.update_many(&Filter::eq("seq", earlier), &Update::set("seen", true)) {
                Ok(1) => drop(updated.insert(earlier)),
                Ok(n) => return Err(format!("update of seq {earlier} matched {n} documents")),
                Err(_) => {
                    ambiguous.insert(earlier);
                    break;
                }
            }
        }
        if i % 5 == 4 {
            let victim = i - 2;
            match obs.delete_many(&Filter::eq("seq", victim)) {
                Ok(_) => deleted.push(victim),
                Err(_) => {
                    ambiguous.insert(victim);
                    break;
                }
            }
        }
    }
    if kill.dead() != Some(point) {
        return Err(format!("kill never fired (dead={:?})", kill.dead()));
    }
    drop(obs);
    drop(store);
    snapshots.look();
    let torn = torn_tail(&dir);

    // Two independent replays of the same log must agree byte-for-byte.
    // A document is its `seq` and whether an update reached it.
    let reopen = || -> Result<(String, Vec<(u64, bool)>), String> {
        let config = DurabilityConfig::new(&dir)
            .wal(wal_config())
            .snapshot_every(SNAPSHOT_EVERY);
        let store = Store::open(Durability::Durable(config)).map_err(|e| format!("reopen: {e}"))?;
        let export = store.export_json();
        let docs = store
            .collection("obs")
            .all()
            .iter()
            .filter_map(|d| Some((d.get("seq")?.as_u64()?, d.get("seen").is_some())))
            .collect();
        Ok((export, docs))
    };
    let (export_a, docs) = reopen()?;
    let seqs: Vec<u64> = docs.iter().map(|(seq, _)| *seq).collect();
    let (export_b, _) = reopen()?;
    if export_a != export_b {
        return Err("replay is not deterministic: exports differ".to_owned());
    }

    let deleted: BTreeSet<u64> = deleted.into_iter().collect();
    for s in inserted.iter().filter(|s| !deleted.contains(*s)) {
        if ambiguous.contains(s) {
            continue;
        }
        let n = seqs.iter().filter(|x| *x == s).count();
        if n != 1 {
            return Err(format!("committed doc seq {s} present {n} times, want 1"));
        }
    }
    for s in deleted.iter().filter(|s| !ambiguous.contains(*s)) {
        if seqs.contains(s) {
            return Err(format!("deleted doc seq {s} resurrected"));
        }
    }
    for (s, seen) in docs.iter().filter(|(s, _)| !ambiguous.contains(s)) {
        if *seen != updated.contains(s) {
            return Err(format!(
                "doc seq {s} recovered with seen={seen}, committed update={}",
                updated.contains(s)
            ));
        }
    }
    let inserted_set: BTreeSet<u64> = inserted.iter().copied().collect();
    for s in &seqs {
        if !inserted_set.contains(s) && !ambiguous.contains(s) {
            return Err(format!("unknown doc seq {s} appeared from nowhere"));
        }
    }
    let cell = Cell {
        committed: inserted_set.len(),
        ambiguous: ambiguous.len(),
        recovered: seqs.len(),
        snapshots: snapshots.taken,
        torn,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(cell)
}

// ---------------------------------------------------------------------
// Replay: a docstore's inserts, updates and deletes behind a snapshot
// taken half-way; a reopen killed mid-replay, then two more.
// ---------------------------------------------------------------------

/// Every file in `dir` with its bytes, by name.
fn image(dir: &Path) -> Result<Vec<(OsString, Vec<u8>)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list: {e}"))? {
        let path = entry.map_err(|e| format!("list: {e}"))?.path();
        let bytes = std::fs::read(&path).map_err(|e| format!("read: {e}"))?;
        files.push((path.file_name().unwrap_or_default().to_owned(), bytes));
    }
    files.sort();
    Ok(files)
}

fn replay_cell(skip: u64, ops: u64) -> Result<Cell, String> {
    let dir = scratch("replay", KillPoint::MidReplay, skip);
    let _ = std::fs::remove_dir_all(&dir);
    let open = |kill: KillSwitch| {
        let config = DurabilityConfig::new(&dir)
            .wal(wal_config().kill(kill))
            .snapshot_every(0);
        Store::open(Durability::Durable(config))
    };
    let store = open(KillSwitch::new()).map_err(|e| format!("open: {e}"))?;
    let obs = store.collection("obs");
    let write = |e: mps_docstore::StoreError| format!("write: {e}");
    obs.create_index("seq").map_err(write)?;
    for i in 0..ops {
        obs.insert_one(json!({"seq": i, "zone": format!("z{}", i % 4)}))
            .map_err(write)?;
        if let Some(earlier) = i.checked_sub(1) {
            obs.update_many(&Filter::eq("seq", earlier), &Update::set("seen", true))
                .map_err(write)?;
        }
        if i % 5 == 4 {
            obs.delete_many(&Filter::eq("seq", i - 2)).map_err(write)?;
        }
        if i == ops / 2 {
            store.checkpoint().map_err(write)?;
        }
    }
    let closed = store.export_json();
    let committed = obs.len();
    drop(obs);
    drop(store);
    let on_disk = image(&dir)?;

    let kill = KillSwitch::new();
    kill.arm(KillPoint::MidReplay, skip);
    let killed = open(kill.clone());
    if kill.dead() != Some(KillPoint::MidReplay) {
        return Err(format!("kill never fired (dead={:?})", kill.dead()));
    }
    if killed.is_ok() {
        return Err("a reopen whose replay was killed returned a store".to_owned());
    }
    drop(killed);
    if image(&dir)? != on_disk {
        return Err("the killed replay changed the directory".to_owned());
    }

    let reopen = || -> Result<(String, usize), String> {
        let store = open(KillSwitch::new()).map_err(|e| format!("reopen: {e}"))?;
        Ok((store.export_json(), store.collection("obs").len()))
    };
    let (export_a, recovered) = reopen()?;
    let (export_b, _) = reopen()?;
    if export_a != export_b {
        return Err("replay is not deterministic: exports differ".to_owned());
    }
    if export_a != closed {
        return Err("the reopen after the killed replay exports another store".to_owned());
    }
    let cell = Cell {
        committed,
        ambiguous: 0,
        recovered,
        snapshots: 1,
        torn: false,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(cell)
}

// ---------------------------------------------------------------------
// Broker: publish / consume+ack / nack-to-DLQ, then crash, reopen twice.
// ---------------------------------------------------------------------

fn broker_cell(point: KillPoint, skip: u64, ops: u64) -> Result<Cell, String> {
    let dir = scratch("broker", point, skip);
    let _ = std::fs::remove_dir_all(&dir);
    // Armed only after the topology is declared, so `skip` counts the
    // workload's appends, not the setup's.
    let kill = KillSwitch::new();
    let config = DurabilityConfig::new(&dir)
        .wal(wal_config().kill(kill.clone()))
        .snapshot_every(SNAPSHOT_EVERY);
    let broker = Broker::open_durable(config).map_err(|e| format!("faulted open: {e}"))?;
    let setup = || -> Result<(), mps_broker::BrokerError> {
        broker.declare_exchange("app")?;
        broker.declare_queue("q")?;
        broker.declare_queue("dlq")?;
        broker.bind_queue("app", "q", "obs.#")?;
        broker.configure_dead_letter("q", 2, "dlq")
    };
    setup().map_err(|e| format!("topology: {e}"))?;
    CrashPlan::at(CrashTarget::Broker, point, skip).arm(&kill);

    let seq_of = |payload: &[u8]| -> u64 {
        std::str::from_utf8(payload)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(u64::MAX)
    };
    let mut published: Vec<u64> = Vec::new();
    let mut acked: Vec<u64> = Vec::new();
    let mut dead_lettered: Vec<u64> = Vec::new();
    let mut ambiguous: BTreeSet<u64> = BTreeSet::new();
    let mut snapshots = Snapshots::of(&dir);
    'workload: for i in 0..ops {
        snapshots.look();
        match broker.publish("app", "obs.zone.noise", format!("{i}").into_bytes()) {
            Ok(_) => published.push(i),
            Err(_) => {
                ambiguous.insert(i);
                break;
            }
        }
        if i % 3 == 2 {
            // Settle the oldest ready message.
            if let Ok(mut ds) = broker.consume("q", 1) {
                if let Some(d) = ds.pop() {
                    let seq = seq_of(d.payload().as_ref());
                    match broker.ack("q", d.tag) {
                        Ok(()) => acked.push(seq),
                        Err(_) => {
                            ambiguous.insert(seq);
                            break;
                        }
                    }
                }
            }
        }
        if i % 11 == 10 {
            // Poison the oldest ready message to the DLQ (policy: 2 attempts).
            let mut seq = None;
            let mut nacks = 0;
            for _ in 0..2 {
                let Ok(mut ds) = broker.consume("q", 1) else {
                    break;
                };
                let Some(d) = ds.pop() else { break };
                let s = seq_of(d.payload().as_ref());
                if seq.is_some_and(|prev| prev != s) {
                    return Err(format!("poison pill changed identity: {seq:?} vs {s}"));
                }
                seq = Some(s);
                if broker.nack("q", d.tag, true).is_err() {
                    ambiguous.insert(s);
                    break 'workload;
                }
                nacks += 1;
            }
            match seq {
                Some(s) if nacks == 2 => dead_lettered.push(s),
                Some(s) => {
                    // Consumed but not fully poisoned — either side is legal.
                    ambiguous.insert(s);
                }
                None => {}
            }
        }
    }
    if kill.dead() != Some(point) {
        return Err(format!("kill never fired (dead={:?})", kill.dead()));
    }
    drop(broker);
    snapshots.look();
    let torn = torn_tail(&dir);

    // Two independent replays must agree snapshot-for-snapshot.
    let reopen = || -> Result<(mps_broker::QueueSnapshot, mps_broker::QueueSnapshot), String> {
        let config = DurabilityConfig::new(&dir)
            .wal(wal_config())
            .snapshot_every(SNAPSHOT_EVERY);
        let broker = Broker::open_durable(config).map_err(|e| format!("reopen: {e}"))?;
        let q = broker.queue_snapshot("q").map_err(|e| format!("q: {e}"))?;
        let dlq = broker
            .queue_snapshot("dlq")
            .map_err(|e| format!("dlq: {e}"))?;
        Ok((q, dlq))
    };
    let (q_a, dlq_a) = reopen()?;
    let (q_b, dlq_b) = reopen()?;
    if q_a != q_b || dlq_a != dlq_b {
        return Err("replay is not deterministic: queue snapshots differ".to_owned());
    }

    if !q_a.unacked.is_empty() {
        return Err("recovered broker has unacked messages before any consume".to_owned());
    }
    let q_seqs: Vec<u64> = q_a.ready.iter().map(|m| seq_of(&m.payload)).collect();
    let dlq_seqs: Vec<u64> = dlq_a.ready.iter().map(|m| seq_of(&m.payload)).collect();
    let everywhere: Vec<u64> = q_seqs.iter().chain(dlq_seqs.iter()).copied().collect();

    let acked: BTreeSet<u64> = acked.into_iter().collect();
    let dead_set: BTreeSet<u64> = dead_lettered.iter().copied().collect();
    for s in acked.iter().filter(|s| !ambiguous.contains(*s)) {
        if everywhere.contains(s) {
            return Err(format!("acked message seq {s} resurrected"));
        }
    }
    for s in dead_set.iter().filter(|s| !ambiguous.contains(*s)) {
        let n = dlq_seqs.iter().filter(|x| *x == s).count();
        if n != 1 || q_seqs.contains(s) {
            return Err(format!(
                "dead-lettered seq {s}: {n} in dlq, in_q={}",
                q_seqs.contains(s)
            ));
        }
    }
    for s in published
        .iter()
        .filter(|s| !acked.contains(*s) && !dead_set.contains(*s) && !ambiguous.contains(*s))
    {
        let n = q_seqs.iter().filter(|x| *x == s).count();
        if n != 1 {
            return Err(format!(
                "committed message seq {s} present {n} times in q, want 1"
            ));
        }
    }
    let published_set: BTreeSet<u64> = published.iter().copied().collect();
    for s in &everywhere {
        if !published_set.contains(s) && !ambiguous.contains(s) {
            return Err(format!("unknown message seq {s} appeared from nowhere"));
        }
    }
    let cell = Cell {
        committed: published_set.len(),
        ambiguous: ambiguous.len(),
        recovered: everywhere.len(),
        snapshots: snapshots.taken,
        torn,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(cell)
}

// ---------------------------------------------------------------------
// Batched ingest: GoFlow drains 16-message batches into a durable store
// (one group-committed WAL append per batch), crash mid-batch, reopen.
// ---------------------------------------------------------------------

/// Messages per ingest batch — matches the batched-ingest bench size.
const INGEST_BATCH: usize = 16;

fn ingest_cell(point: KillPoint, skip: u64, batches: u64) -> Result<Cell, String> {
    let dir = scratch("ingest", point, skip);
    let _ = std::fs::remove_dir_all(&dir);
    // Armed only after app registration, so `skip` counts ingest-batch
    // appends, not the setup's index-creation records.
    let kill = KillSwitch::new();
    let config = DurabilityConfig::new(&dir)
        .wal(wal_config().kill(kill.clone()))
        .snapshot_every(SNAPSHOT_EVERY);
    let store =
        Store::open(Durability::Durable(config)).map_err(|e| format!("faulted open: {e}"))?;
    let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    let server = GoFlowServer::over(Arc::clone(&broker), Arc::new(store));
    let app = AppId::new("SC");
    server.register_app(&app).map_err(|e| format!("app: {e}"))?;
    let token = server
        .register_user(&app, 1u64.into(), Role::Contributor)
        .map_err(|e| format!("user: {e}"))?;
    let session = server.login(&token).map_err(|e| format!("login: {e}"))?;
    kill.arm(point, skip);

    // Every observation carries its sequence number as the SPL value, so
    // presence after recovery is checkable per message.
    let obs_for = |seq: u64| {
        Observation::builder()
            .device(1u64.into())
            .user(1u64.into())
            .model(DeviceModel::LgeNexus5)
            .captured_at(SimTime::from_hms(0, 10, 0, 0))
            .spl(SoundLevel::new(seq as f64))
            .build()
    };
    let key = session.observation_key("noise", "FR75013");
    let now = SimTime::from_hms(0, 10, 5, 0);
    let mut committed: BTreeSet<u64> = BTreeSet::new();
    let mut ambiguous: BTreeSet<u64> = BTreeSet::new();
    let mut snapshots = Snapshots::of(&dir);
    for b in 0..batches {
        snapshots.look();
        let seqs: Vec<u64> = (b * INGEST_BATCH as u64..(b + 1) * INGEST_BATCH as u64).collect();
        for &seq in &seqs {
            let payload = serde_json::to_vec(&obs_for(seq)).map_err(|e| format!("encode: {e}"))?;
            broker
                .publish(session.exchange(), &key, &payload)
                .map_err(|e| format!("publish: {e}"))?;
        }
        let outcome = server
            .ingest_pending(&app, now, INGEST_BATCH)
            .map_err(|e| format!("ingest: {e}"))?;
        if outcome.stored == INGEST_BATCH {
            committed.extend(seqs);
        } else {
            // The crash batch: ingest nacked it for redelivery, and a
            // durable prefix of the torn group commit may survive — every
            // message in it is legitimately on either side of the crash.
            ambiguous.extend(seqs);
            break;
        }
    }
    if kill.dead() != Some(point) {
        return Err(format!("kill never fired (dead={:?})", kill.dead()));
    }
    drop(session);
    drop(server);
    snapshots.look();
    let torn = torn_tail(&dir);

    // Two independent replays of the same log must agree byte-for-byte.
    let reopen = || -> Result<(String, Vec<u64>), String> {
        let config = DurabilityConfig::new(&dir)
            .wal(wal_config())
            .snapshot_every(SNAPSHOT_EVERY);
        let store = Store::open(Durability::Durable(config)).map_err(|e| format!("reopen: {e}"))?;
        let export = store.export_json();
        let seqs = store
            .collection("obs-SC")
            .all()
            .iter()
            .filter_map(ObservationRecord::from_document)
            .map(|obs| obs.spl.db() as u64)
            .collect();
        Ok((export, seqs))
    };
    let (export_a, seqs) = reopen()?;
    let (export_b, _) = reopen()?;
    if export_a != export_b {
        return Err("replay is not deterministic: exports differ".to_owned());
    }

    for s in &committed {
        let n = seqs.iter().filter(|x| *x == s).count();
        if n != 1 {
            return Err(format!("committed obs seq {s} present {n} times, want 1"));
        }
    }
    for s in &ambiguous {
        let n = seqs.iter().filter(|x| *x == s).count();
        if n > 1 {
            return Err(format!(
                "crash-batch obs seq {s} present {n} times, want <=1"
            ));
        }
    }
    for s in &seqs {
        if !committed.contains(s) && !ambiguous.contains(s) {
            return Err(format!("unknown obs seq {s} appeared from nowhere"));
        }
    }
    let cell = Cell {
        committed: committed.len(),
        ambiguous: ambiguous.len(),
        recovered: seqs.len(),
        snapshots: snapshots.taken,
        torn,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(cell)
}
