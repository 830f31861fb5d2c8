//! The machine-readable performance baseline behind `BENCH_pipeline.json`.
//!
//! Each entry pits an optimized hot path against its retained naive
//! reference on the same inputs — broker routing (topic trie vs linear
//! pattern scan), document-store queries (secondary indexes vs full
//! scan) and BLUE assimilation (observation-space localization vs the
//! global solve). The `perf-baseline` binary runs the full matrix and
//! writes the JSON artifact; `docs/PERFORMANCE.md` explains how to read
//! it.
//!
//! Times are median nanoseconds per operation over several samples —
//! medians are robust to the occasional scheduler hiccup that ruins a
//! mean.

use mps_assim::{Blue, Grid, Localization, PointObservation};
use mps_broker::{topic_matches, Broker, BrokerTransport, CompiledPattern, TopicTrie};
use mps_docstore::{Collection, DocstoreTransport, Durability, DurabilityConfig, Filter, Store};
use mps_goflow::{GoFlowServer, Role};
use mps_mobile::Fleet;
use mps_net::{BrokerService, ClientConfig, RemoteBroker, ServerConfig, WireServer};
use mps_types::{AppId, GeoBounds, SensingMode, SimTime};
use mps_wal::{Wal, WalConfig};
use serde_json::{json, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One measured comparison point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark family, e.g. `broker_routing`.
    pub bench: &'static str,
    /// Implementation variant, e.g. `trie` or `naive_scan`.
    pub variant: &'static str,
    /// Problem size (bindings, documents or observations).
    pub size: usize,
    /// Median wall-clock cost of one operation, nanoseconds.
    pub median_ns_per_op: f64,
}

impl Measurement {
    /// The JSON object serialized into `BENCH_pipeline.json`.
    pub fn to_json(&self) -> Value {
        json!({
            "bench": self.bench,
            "variant": self.variant,
            "size": self.size,
            "median_ns_per_op": self.median_ns_per_op,
        })
    }
}

/// Median nanoseconds per call of `op` over `samples` timed batches of
/// `iters` calls each.
pub fn median_ns_per_op(samples: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let samples = samples.max(1);
    let iters = iters.max(1);
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        #[expect(
            clippy::disallowed_methods,
            reason = "a benchmark exists to read the wall clock"
        )]
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        timings.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    timings.sort_by(f64::total_cmp);
    timings[timings.len() / 2]
}

/// A deterministic binding-pattern mix for routing benches: mostly
/// zone-scoped subscriptions plus a sprinkle of wildcard-heavy ones.
pub fn routing_patterns(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 10 {
            7 => format!("obs.*.kind{}.#", i % 23),
            8 => format!("#.kind{}", i % 23),
            9 => "obs.#".to_owned(),
            _ => format!("obs.zone{}.kind{}", i % 97, i % 23),
        })
        .collect()
}

/// Median ns/op of routing one key through `n` topic bindings:
/// `(trie, naive_scan)`.
pub fn broker_routing(n: usize, samples: usize, iters: usize) -> (f64, f64) {
    let patterns = routing_patterns(n);
    let compiled: Vec<CompiledPattern> = patterns
        .iter()
        .map(|p| CompiledPattern::new(&p.parse().expect("valid pattern")))
        .collect();
    let mut trie = TopicTrie::new();
    for (id, pattern) in compiled.iter().enumerate() {
        trie.insert(pattern, id);
    }
    let key = format!("obs.zone{}.kind{}", (n / 2) % 97, (n / 2) % 23);
    let key_words: Vec<&str> = key.split('.').collect();

    let trie_ns = median_ns_per_op(samples, iters, || {
        black_box(trie.matches(black_box(&key_words)));
    });
    let naive_ns = median_ns_per_op(samples, iters, || {
        let hits: Vec<usize> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| topic_matches(black_box(p), black_box(&key)))
            .map(|(id, _)| id)
            .collect();
        black_box(hits);
    });
    (trie_ns, naive_ns)
}

/// A collection of `n` synthetic observations for query benches.
///
/// The first 50 documents form a fixed-size target stratum (zone
/// `FR75013`, `spl` in `[50, 51)`); the rest scatter over ~1k other
/// zones with `spl` below 49. Both bench queries select exactly that
/// stratum, so the result set stays constant as `n` grows — what scales
/// is only the lookup work, which is the cost under test.
pub fn observation_collection(n: usize, with_indexes: bool) -> Collection {
    let c = Collection::new();
    if with_indexes {
        c.create_index("zone").expect("in-memory index");
        c.create_index("spl").expect("in-memory index");
    }
    for i in 0..n {
        let (zone, spl) = if i < 50 {
            ("FR75013".to_owned(), 50.0 + i as f64 / 64.0)
        } else {
            (
                format!("Z{:03}", i % 997),
                35.0 + ((i * 7) % 140) as f64 / 10.0,
            )
        };
        c.insert_one(json!({
            "zone": zone,
            "spl": spl,
            "model": format!("model{}", i % 7),
        }))
        .expect("object document");
    }
    c
}

/// Median ns/op of a point (equality) query over `n` documents:
/// `(indexed, full_scan)`.
pub fn docstore_point_query(n: usize, samples: usize, iters: usize) -> (f64, f64) {
    let indexed = observation_collection(n, true);
    let scan = observation_collection(n, false);
    let filter = Filter::eq("zone", "FR75013");
    let indexed_ns = median_ns_per_op(samples, iters, || {
        black_box(indexed.find(black_box(&filter)).expect("infallible find"));
    });
    let scan_ns = median_ns_per_op(samples, iters, || {
        black_box(scan.find(black_box(&filter)).expect("infallible find"));
    });
    (indexed_ns, scan_ns)
}

/// Median ns/op of a narrow range query over `n` documents:
/// `(indexed, full_scan)`.
pub fn docstore_range_query(n: usize, samples: usize, iters: usize) -> (f64, f64) {
    let indexed = observation_collection(n, true);
    let scan = observation_collection(n, false);
    let filter = Filter::range("spl", 50.0, 51.0);
    let indexed_ns = median_ns_per_op(samples, iters, || {
        black_box(indexed.find(black_box(&filter)).expect("infallible find"));
    });
    let scan_ns = median_ns_per_op(samples, iters, || {
        black_box(scan.find(black_box(&filter)).expect("infallible find"));
    });
    (indexed_ns, scan_ns)
}

/// A deterministic observation scatter over the Paris bounds.
pub fn blue_observations(m: usize) -> Vec<PointObservation> {
    let bounds = GeoBounds::paris();
    (0..m)
        .map(|i| {
            // Low-discrepancy-ish scatter, no RNG needed.
            let u = (i as f64 * 0.754_877_666) % 1.0;
            let v = (i as f64 * 0.569_840_296) % 1.0;
            let at = bounds.lerp(0.05 + 0.9 * u, 0.05 + 0.9 * v);
            PointObservation::new(at, 45.0 + 20.0 * u, 1.0 + 2.0 * v)
        })
        .collect()
}

/// The BLUE configuration used by the baseline: σ_b 4 dB, Balgovind
/// radius 150 m, localization cutoff 8 radii (1.2 km), 4×4-cell tiles,
/// on a 32×32 grid over Paris.
pub fn blue_setup() -> (Blue, Grid, Localization) {
    let blue = Blue::new(4.0, 150.0);
    let background = Grid::constant(GeoBounds::paris(), 32, 32, 50.0);
    (blue, background, Localization::for_radius(150.0).tile(4))
}

/// Median ns/op of one analysis pass over `m` observations:
/// `(localized, global)`.
pub fn blue_analysis(m: usize, samples: usize) -> (f64, f64) {
    let (blue, background, localization) = blue_setup();
    let observations = blue_observations(m);
    let localized_ns = median_ns_per_op(samples, 1, || {
        black_box(
            blue.analyse_localized(&background, &observations, &localization)
                .expect("localized analysis"),
        );
    });
    let global_ns = median_ns_per_op(samples, 1, || {
        black_box(blue.analyse(&background, &observations).expect("analysis"));
    });
    (localized_ns, global_ns)
}

/// Median ns/op of one broker publish round-trip with an `n`-byte
/// payload, in-process versus across a loopback TCP socket:
/// `(embedded, tcp, tcp_no_telemetry)`.
///
/// All variants run the exact same publish (same exchange, same topic
/// trie, same queue insert) through the [`BrokerTransport`] trait; the
/// embedded-vs-tcp delta is purely the network boundary — frame encode,
/// CRC, syscall round-trip, frame decode — and the tcp-vs-bare delta is
/// purely the server's per-RPC telemetry (`net_server_rpc_seconds`
/// observation plus slow-ring admission; the baseline keeps it under 5%
/// of the loopback round-trip median). `docs/PERFORMANCE.md` explains
/// why the boundary gap is the price of multi-process deployment, not
/// an optimization target.
pub fn net_round_trip(payload_bytes: usize, samples: usize, iters: usize) -> (f64, f64, f64) {
    let backend: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    backend
        .declare_exchange("bench")
        .expect("declare bench exchange");
    backend
        .declare_queue("bench.q")
        .expect("declare bench queue");
    backend
        .bind_queue("bench", "bench.q", "obs.#")
        .expect("bind bench queue");
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(BrokerService::new(Arc::clone(&backend))),
        ServerConfig::default(),
    )
    .expect("bind loopback bench server");
    let bare_server = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(BrokerService::new(Arc::clone(&backend))),
        ServerConfig {
            rpc_telemetry: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind bare loopback bench server");
    let remote = RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
    let bare_remote = RemoteBroker::connect(
        bare_server.local_addr().to_string(),
        ClientConfig::default(),
    );
    let payload = vec![0x5au8; payload_bytes];

    let embedded_ns = median_ns_per_op(samples, iters, || {
        black_box(
            backend
                .publish(black_box("bench"), black_box("obs.paris.noise"), &payload)
                .expect("embedded publish"),
        );
    });
    backend
        .purge_queue("bench.q")
        .expect("purge between variants");
    let tcp_ns = median_ns_per_op(samples, iters, || {
        black_box(
            remote
                .publish(black_box("bench"), black_box("obs.paris.noise"), &payload)
                .expect("tcp publish"),
        );
    });
    backend
        .purge_queue("bench.q")
        .expect("purge between variants");
    let bare_ns = median_ns_per_op(samples, iters, || {
        black_box(
            bare_remote
                .publish(black_box("bench"), black_box("obs.paris.noise"), &payload)
                .expect("bare tcp publish"),
        );
    });
    backend.purge_queue("bench.q").expect("purge after timing");
    (embedded_ns, tcp_ns, bare_ns)
}

/// A scratch directory for the WAL append benches.
fn wal_bench_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-bench-wal-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Median ns per *record* of appending batches of `batch` ~100-byte
/// records: `(group_commit, per_record)` — one fsync per batch versus
/// one fsync per record. `telemetry` controls whether the WAL mirrors
/// its counters into the global registry while timing (the
/// `--no-telemetry` perf-baseline flag turns it off so WAL-on vs
/// WAL-off numbers are attributable to the log itself).
pub fn wal_append(batch: usize, samples: usize, iters: usize, telemetry: bool) -> (f64, f64) {
    let payload = vec![0x5au8; 100];
    let batched: Vec<Vec<u8>> = vec![payload.clone(); batch];

    let group_dir = wal_bench_dir("group");
    let (mut wal, _) =
        Wal::open(&group_dir, WalConfig::default().telemetry(telemetry)).expect("open bench wal");
    let group_ns = median_ns_per_op(samples, iters, || {
        black_box(wal.append_batch(black_box(&batched)).expect("append batch"));
    }) / batch as f64;
    drop(wal);
    let _ = std::fs::remove_dir_all(&group_dir);

    let single_dir = wal_bench_dir("single");
    let (mut wal, _) =
        Wal::open(&single_dir, WalConfig::default().telemetry(telemetry)).expect("open bench wal");
    let single_ns = median_ns_per_op(samples, iters, || {
        for p in &batched {
            black_box(wal.append(black_box(p)).expect("append record"));
        }
    }) / batch as f64;
    drop(wal);
    let _ = std::fs::remove_dir_all(&single_dir);

    (group_ns, single_ns)
}

/// Concurrent ingest workers (one registered app each) driving the
/// sustained-throughput bench.
pub const SUSTAINED_WORKERS: usize = 8;

/// Median ns per observation of the **end-to-end pipeline** —
/// fleet-captured observations published into a [`Broker`] and drained
/// through a [`GoFlowServer`] into a [`Store`] — with
/// [`SUSTAINED_WORKERS`] concurrent workers.
///
/// Every worker owns one app (its own GF queue and collection) and
/// drives its round-robin slice of a million-device [`Fleet`]:
/// publish its pre-serialized observations, then drain until all of
/// them are stored.
///
/// The reciprocal of the returned ns/observation is the sustained
/// observations-per-second headline in `BENCH_pipeline.json`.
pub fn sustained_throughput(total_obs: usize, samples: usize) -> f64 {
    let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    let store: Arc<dyn DocstoreTransport> = Arc::new(Store::new());
    let server = GoFlowServer::over(Arc::clone(&broker), Arc::clone(&store));
    let fleet = Fleet::new(11, 1_000_000);
    let per_worker = (total_obs / SUSTAINED_WORKERS).max(1);
    let captured = SimTime::from_hms(0, 12, 0, 0);

    let mut workers = Vec::with_capacity(SUSTAINED_WORKERS);
    for w in 0..SUSTAINED_WORKERS {
        let app = AppId::new(format!("SC{w}"));
        server.register_app(&app).expect("register bench app");
        let token = server
            .register_user(&app, (w as u64).into(), Role::Contributor)
            .expect("register bench user");
        let session = server.login(&token).expect("login bench user");
        let payloads: Vec<(String, Vec<u8>)> = fleet
            .shard_members(w, SUSTAINED_WORKERS)
            .take(per_worker)
            .map(|index| {
                let mut device = fleet.device(index);
                let obs = device.capture(captured, SensingMode::Opportunistic);
                let key = session.observation_key("noise", &format!("Z{:03}", index % 997));
                let payload = serde_json::to_vec(&obs).expect("serializable observation");
                (key, payload)
            })
            .collect();
        workers.push((app, session, payloads));
    }

    let now = SimTime::from_hms(0, 12, 5, 0);
    median_ns_per_op(samples, 1, || {
        std::thread::scope(|scope| {
            for (app, session, payloads) in &workers {
                let server = &server;
                let broker = &broker;
                scope.spawn(move || {
                    for (key, payload) in payloads {
                        broker
                            .publish(session.exchange(), key, payload)
                            .expect("bench publish");
                    }
                    let mut processed = 0usize;
                    while processed < payloads.len() {
                        let outcome = server.ingest_pending(app, now, 256).expect("bench ingest");
                        let step = outcome.stored + outcome.malformed + outcome.quarantined;
                        assert!(step > 0, "sustained bench lost messages");
                        processed += step;
                    }
                });
            }
        });
    }) / (per_worker * SUSTAINED_WORKERS) as f64
}

/// End-to-end ingest cost and WAL fsync accounting over a **durable**
/// store, batched drain versus message-at-a-time drain: returns
/// `(batched_ns, per_message_ns, batched_fsyncs_per_obs,
/// per_message_fsyncs_per_obs)`, each normalised per stored observation.
///
/// Both variants push `batch * rounds` fleet observations through the
/// same GoFlow ingest path; the only difference is the drain size.
/// Draining `batch` messages at a time lets ingest classify the whole
/// batch and store it with **one** group-committed `insert_many` (one
/// WAL fsync); draining one at a time pays one fsync per observation.
/// Fsyncs are counted from the `wal_fsyncs_total` registry counter, so
/// the ratio is deterministic — it measures barriers issued, not time.
pub fn ingest_batching(batch: usize, rounds: usize) -> (f64, f64, f64, f64) {
    let batch = batch.max(1);
    let rounds = rounds.max(1);
    let run = |drain_size: usize, tag: &str| -> (f64, f64) {
        let dir = wal_bench_dir(tag);
        let store = Store::open(Durability::Durable(
            DurabilityConfig::new(&dir).snapshot_every(0),
        ))
        .expect("open durable bench store");
        let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
        let server = GoFlowServer::over(Arc::clone(&broker), Arc::new(store));
        let app = AppId::new("SCB");
        server.register_app(&app).expect("register bench app");
        let token = server
            .register_user(&app, 1u64.into(), Role::Contributor)
            .expect("register bench user");
        let session = server.login(&token).expect("login bench user");

        let fleet = Fleet::new(13, 1_000_000);
        let captured = SimTime::from_hms(0, 12, 0, 0);
        let payloads: Vec<(String, Vec<u8>)> = fleet
            .devices(0..(batch * rounds) as u64)
            .map(|mut device| {
                let obs = device.capture(captured, SensingMode::Opportunistic);
                let key = session.observation_key("noise", "FR75013");
                let payload = serde_json::to_vec(&obs).expect("serializable observation");
                (key, payload)
            })
            .collect();

        let registry = mps_telemetry::Registry::global();
        let fsyncs_before = registry.counter_value("wal_fsyncs_total").unwrap_or(0);
        let now = SimTime::from_hms(0, 12, 5, 0);
        let mut stored = 0usize;
        #[expect(
            clippy::disallowed_methods,
            reason = "a benchmark exists to read the wall clock"
        )]
        let start = Instant::now();
        for chunk in payloads.chunks(drain_size) {
            for (key, payload) in chunk {
                broker
                    .publish(session.exchange(), key, payload)
                    .expect("bench publish");
            }
            stored += server
                .ingest_pending(&app, now, drain_size)
                .expect("bench ingest")
                .stored;
        }
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        let fsyncs_after = registry.counter_value("wal_fsyncs_total").unwrap_or(0);
        assert_eq!(stored, batch * rounds, "every observation must store");
        drop(session);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        (
            elapsed_ns / stored as f64,
            (fsyncs_after - fsyncs_before) as f64 / stored as f64,
        )
    };
    let (batched_ns, batched_fsyncs) = run(batch, "ingest-batched");
    let (per_message_ns, per_message_fsyncs) = run(1, "ingest-per-message");
    (
        batched_ns,
        per_message_ns,
        batched_fsyncs,
        per_message_fsyncs,
    )
}

/// Runs the full measurement matrix. `quick` shrinks sample counts for
/// smoke runs (CI `bench-smoke`); the committed baseline uses the slow
/// path. `telemetry: false` measures with registry mirrors off.
pub fn baseline_measurements(quick: bool, telemetry: bool) -> Vec<Measurement> {
    let (samples, iters) = if quick { (5, 200) } else { (15, 2_000) };
    let blue_samples = if quick { 3 } else { 7 };
    let mut out = Vec::new();

    for bindings in [10usize, 100, 1_000] {
        let (trie, naive) = broker_routing(bindings, samples, iters);
        out.push(Measurement {
            bench: "broker_routing",
            variant: "trie",
            size: bindings,
            median_ns_per_op: trie,
        });
        out.push(Measurement {
            bench: "broker_routing",
            variant: "naive_scan",
            size: bindings,
            median_ns_per_op: naive,
        });
    }

    for docs in [1_000usize, 10_000] {
        let q_iters = if quick { 50 } else { 300 };
        let (indexed, scan) = docstore_point_query(docs, samples, q_iters);
        out.push(Measurement {
            bench: "docstore_point_query",
            variant: "indexed",
            size: docs,
            median_ns_per_op: indexed,
        });
        out.push(Measurement {
            bench: "docstore_point_query",
            variant: "full_scan",
            size: docs,
            median_ns_per_op: scan,
        });
        let (indexed, scan) = docstore_range_query(docs, samples, q_iters);
        out.push(Measurement {
            bench: "docstore_range_query",
            variant: "indexed",
            size: docs,
            median_ns_per_op: indexed,
        });
        out.push(Measurement {
            bench: "docstore_range_query",
            variant: "full_scan",
            size: docs,
            median_ns_per_op: scan,
        });
    }

    for obs in [100usize, 500] {
        let (localized, global) = blue_analysis(obs, blue_samples);
        out.push(Measurement {
            bench: "blue_analysis",
            variant: "localized",
            size: obs,
            median_ns_per_op: localized,
        });
        out.push(Measurement {
            bench: "blue_analysis",
            variant: "global",
            size: obs,
            median_ns_per_op: global,
        });
    }

    for payload_bytes in [64usize, 4_096] {
        // TCP round-trips cost tens of microseconds each; keep the
        // iteration count modest so the full matrix stays fast.
        let net_iters = if quick { 50 } else { 400 };
        let (embedded, tcp, tcp_bare) = net_round_trip(payload_bytes, samples, net_iters);
        out.push(Measurement {
            bench: "net_round_trip",
            variant: "embedded",
            size: payload_bytes,
            median_ns_per_op: embedded,
        });
        out.push(Measurement {
            bench: "net_round_trip",
            variant: "tcp",
            size: payload_bytes,
            median_ns_per_op: tcp,
        });
        out.push(Measurement {
            bench: "net_round_trip",
            variant: "tcp_no_telemetry",
            size: payload_bytes,
            median_ns_per_op: tcp_bare,
        });
    }

    for batch in [16usize, 128] {
        let wal_iters = if quick { 10 } else { 40 };
        let wal_samples = if quick { 3 } else { 7 };
        let (group, single) = wal_append(batch, wal_samples, wal_iters, telemetry);
        out.push(Measurement {
            bench: "wal_append",
            variant: "group_commit",
            size: batch,
            median_ns_per_op: group,
        });
        out.push(Measurement {
            bench: "wal_append",
            variant: "per_record",
            size: batch,
            median_ns_per_op: single,
        });
    }

    let sustained_obs = if quick { 1_600 } else { 8_000 };
    let sustained_samples = if quick { 3 } else { 5 };
    out.push(Measurement {
        bench: "sustained_throughput",
        variant: "single",
        size: sustained_obs,
        median_ns_per_op: sustained_throughput(sustained_obs, sustained_samples),
    });

    let ingest_rounds = if quick { 6 } else { 40 };
    let (batched, per_message, batched_fsyncs, per_message_fsyncs) =
        ingest_batching(16, ingest_rounds);
    out.push(Measurement {
        bench: "batched_ingest",
        variant: "batched",
        size: 16,
        median_ns_per_op: batched,
    });
    out.push(Measurement {
        bench: "batched_ingest",
        variant: "per_message",
        size: 16,
        median_ns_per_op: per_message,
    });
    out.push(Measurement {
        bench: "batched_ingest_fsyncs_per_obs",
        variant: "batched",
        size: 16,
        median_ns_per_op: batched_fsyncs,
    });
    out.push(Measurement {
        bench: "batched_ingest_fsyncs_per_obs",
        variant: "per_message",
        size: 16,
        median_ns_per_op: per_message_fsyncs,
    });
    out
}

/// Assembles the `BENCH_pipeline.json` document.
pub fn baseline_report(measurements: &[Measurement]) -> Value {
    json!({
        "schema": "mps-perf-baseline/1",
        "unit": "median_ns_per_op",
        "notes": "See docs/PERFORMANCE.md for the setup behind every entry. \
                  batched_ingest_fsyncs_per_obs entries report WAL fsyncs per stored \
                  observation (a deterministic count), not nanoseconds.",
        "results": measurements.iter().map(Measurement::to_json).collect::<Vec<_>>(),
    })
}

/// Renders a report the way the committed `BENCH_pipeline.json` is laid
/// out (two-space indent, one scalar per line, keys in order), so a
/// regenerated report diffs against it line by line.
pub fn render_report(report: &Value) -> String {
    fn write(value: &Value, depth: usize, out: &mut String) {
        let pad = |depth: usize, out: &mut String| out.push_str(&"  ".repeat(depth));
        match value {
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(depth + 1, out);
                    write(item, depth + 1, out);
                }
                out.push('\n');
                pad(depth, out);
                out.push(']');
            }
            Value::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, field)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(depth + 1, out);
                    out.push_str(&json!(key).to_string());
                    out.push_str(": ");
                    write(field, depth + 1, out);
                }
                out.push('\n');
                pad(depth, out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_string()),
        }
    }
    let mut out = String::new();
    write(report, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_report_parses_back_and_matches_the_committed_layout() {
        let report = json!({"results": [{"bench": "b \"q\"", "size": 10}, {}], "empty": []});
        let text = render_report(&report);
        assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), report);
        assert_eq!(
            text,
            "{\n  \"empty\": [],\n  \"results\": [\n    {\n      \"bench\": \"b \\\"q\\\"\",\n      \"size\": 10\n    },\n    {}\n  ]\n}\n"
        );
        // The committed report is in this layout.
        let committed = include_str!("../../../BENCH_pipeline.json");
        let parsed: Value = serde_json::from_str(committed).unwrap();
        assert_eq!(render_report(&parsed), committed);
    }

    #[test]
    fn trie_routing_beats_naive_scan_at_1k_bindings() {
        // The loose in-tree guard: the trie must clearly beat the linear
        // scan at 1k bindings (the committed baseline shows ≥5×; asserting
        // 2× keeps the test robust on noisy machines and debug builds).
        let (trie, naive) = broker_routing(1_000, 5, 50);
        assert!(
            trie * 2.0 < naive,
            "trie {trie} ns/op vs naive {naive} ns/op"
        );
    }

    #[test]
    fn routing_variants_agree_before_timing() {
        let patterns = routing_patterns(200);
        let mut trie = TopicTrie::new();
        for (id, p) in patterns.iter().enumerate() {
            trie.insert(&CompiledPattern::new(&p.parse().unwrap()), id);
        }
        let key = "obs.zone3.kind3".to_owned();
        let words: Vec<&str> = key.split('.').collect();
        let naive: Vec<usize> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| topic_matches(p, &key))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(trie.matches(&words), naive);
        assert!(!naive.is_empty(), "the bench key must actually route");
    }

    #[test]
    fn baseline_report_covers_every_family() {
        let measurements = vec![Measurement {
            bench: "broker_routing",
            variant: "trie",
            size: 10,
            median_ns_per_op: 1.0,
        }];
        let report = baseline_report(&measurements);
        assert_eq!(report["schema"], json!("mps-perf-baseline/1"));
        assert_eq!(report["results"].as_array().unwrap().len(), 1);
        assert_eq!(report["results"][0]["bench"], json!("broker_routing"));
    }

    #[test]
    fn net_round_trip_times_both_sides_of_the_boundary() {
        // Tiny sample counts: this is a plumbing check (servers bind,
        // clients connect, all variants publish), not a measurement.
        let (embedded, tcp, tcp_bare) = net_round_trip(64, 2, 5);
        assert!(embedded > 0.0, "embedded publish must be timed");
        assert!(tcp > 0.0, "tcp publish must be timed");
        assert!(tcp_bare > 0.0, "bare tcp publish must be timed");
    }

    #[test]
    fn sustained_throughput_pipeline_stores_everything() {
        // Tiny load: a plumbing check (apps register, workers publish
        // through the broker, every observation drains into the store —
        // the bench asserts zero loss internally), not a measurement.
        let ns = sustained_throughput(160, 1);
        assert!(ns > 0.0, "sustained pass must be timed");
    }

    #[test]
    fn ingest_batching_counts_fewer_barriers_per_obs_when_batched() {
        let (batched_ns, per_message_ns, batched_fsyncs, per_message_fsyncs) =
            ingest_batching(4, 2);
        assert!(batched_ns > 0.0 && per_message_ns > 0.0);
        // Message-at-a-time drains pay at least one barrier per stored
        // observation (parallel tests can only add to the shared
        // counter, never subtract).
        assert!(
            per_message_fsyncs >= 1.0,
            "per-message fsyncs/obs {per_message_fsyncs}"
        );
        assert!(batched_fsyncs > 0.0, "batched drains still hit the disk");
    }

    #[test]
    fn query_benches_agree_between_variants() {
        let indexed = observation_collection(300, true);
        let scan = observation_collection(300, false);
        for filter in [
            Filter::eq("zone", "FR75013"),
            Filter::range("spl", 50.0, 51.0),
        ] {
            assert_eq!(
                indexed.find(&filter).unwrap(),
                scan.find(&filter).unwrap(),
                "variants must answer identically before being timed"
            );
        }
    }
}
