//! In-crate property tests over broker invariants: seeded loops over
//! [`SimRng`], so they run wherever the unit tests do.

use crate::{
    topic_matches, Broker, BrokerError, CompiledPattern, DurabilityConfig, MessageView, RoutingKey,
    TopicTrie,
};
use mps_faults::{FaultPlan, FaultSpec, FaultyLink, Link, LinkError};
use mps_simcore::check::{check, size, text, vec};
use mps_simcore::SimRng;
use mps_types::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::path::Path;

/// `1..5` dot-joined words of up to six key characters each.
fn key(r: &mut SimRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    vec(r, 1, 5, |r| text(r, ALPHABET, 1, 6)).join(".")
}

/// Keys over a deliberately tiny alphabet so arbitrary patterns collide
/// with them often — equivalence tests are worthless if nothing matches.
pub(crate) fn small_key(r: &mut SimRng) -> String {
    vec(r, 1, 5, |r| text(r, b"ab", 1, 2)).join(".")
}

/// Patterns over the same tiny alphabet plus both wildcards.
fn wild_pattern(r: &mut SimRng) -> String {
    vec(r, 1, 5, |r| match r.index(7) {
        0 | 1 => "*".to_owned(),
        2 | 3 => "#".to_owned(),
        _ => text(r, b"ab", 1, 2),
    })
    .join(".")
}

/// A broker publish boundary as a fault-injectable link.
struct BrokerProbe<'a> {
    broker: &'a Broker,
    exchange: &'a str,
}

impl Link for BrokerProbe<'_> {
    fn send(&self, route: &str, payload: &[u8]) -> Result<usize, LinkError> {
        self.broker
            .publish(self.exchange, route, payload)
            .map_err(|err| LinkError::Unavailable(err.to_string()))
    }
}

/// An arbitrary (but sane) fault mix, exercising every fault class.
fn spec(r: &mut SimRng) -> FaultSpec {
    let spec = FaultSpec {
        drop_prob: r.uniform_in(0.0, 0.5),
        delay_prob: r.uniform_in(0.0, 0.5),
        mean_delay: SimDuration::from_secs(size(r, 1, 600) as i64),
        duplicate_prob: r.uniform_in(0.0, 0.3),
        max_duplicates: size(r, 1, 4) as u32,
        reorder_prob: r.uniform_in(0.0, 0.3),
        reorder_window: SimDuration::from_secs(30),
        ..FaultSpec::none()
    };
    if r.chance(0.5) {
        return spec;
    }
    let (from_s, len_s) = (r.index(100) as i64, size(r, 1, 100) as i64);
    spec.with_blackhole(
        "obs",
        SimTime::from_millis(from_s * 1_000),
        SimTime::from_millis((from_s + len_s) * 1_000),
    )
}

#[test]
fn valid_keys_parse_and_roundtrip() {
    check(|r| {
        let key = key(r);
        let parsed = RoutingKey::new(key.clone()).unwrap();
        assert_eq!(parsed.as_str(), key.as_str());
        assert_eq!(parsed.words().count(), key.split('.').count());
    });
}

#[test]
fn arbitrary_strings_never_panic_validation() {
    check(|r| {
        // Half the characters are the ones validation looks at, half are
        // any scalar value at all.
        let s: String = vec(r, 0, 41, |r| match r.index(2) {
            0 => *r.pick(&['.', '*', '#', 'a', ' ', '\0', 'é', '😀']),
            _ => char::from_u32(r.index(0x11_0000) as u32).unwrap_or('.'),
        })
        .into_iter()
        .collect();
        // Validation may accept or reject, but must never panic.
        let _ = RoutingKey::new(s.clone());
        let _ = crate::BindingPattern::new(s);
    });
}

#[test]
fn publish_consume_ack_conserves() {
    check(|r| {
        let keys = vec(r, 1, 25, key);
        let broker = Broker::new();
        broker.declare_exchange("e").unwrap();
        broker.declare_queue("q").unwrap();
        broker.bind_queue("e", "q", "#").unwrap();
        for k in &keys {
            broker.publish("e", k, k.as_bytes()).unwrap();
        }
        // Interleave partial consumes and acks.
        let mut seen = 0usize;
        while seen < keys.len() {
            let batch = broker.consume("q", 3).unwrap();
            assert!(!batch.is_empty());
            for d in batch {
                assert_eq!(d.payload().as_ref(), keys[seen].as_bytes());
                broker.ack("q", d.tag).unwrap();
                seen += 1;
            }
        }
        let m = broker.metrics();
        assert_eq!(m.acked, keys.len() as u64);
        assert_eq!(broker.queue_depth("q").unwrap(), 0);
    });
}

#[test]
fn nack_requeue_never_loses() {
    check(|r| {
        let n = size(r, 1, 20);
        let requeue_mask = r.index(1 << 32) as u32;
        let broker = Broker::new();
        broker.declare_exchange("e").unwrap();
        broker.declare_queue("q").unwrap();
        broker.bind_queue("e", "q", "#").unwrap();
        for i in 0..n {
            broker.publish("e", "k", vec![i as u8]).unwrap();
        }
        // Consume all; nack some back, ack the rest.
        let batch = broker.consume("q", n).unwrap();
        let mut requeued = 0usize;
        for (i, d) in batch.iter().enumerate() {
            if requeue_mask & (1 << (i % 32)) != 0 {
                broker.nack("q", d.tag, true).unwrap();
                requeued += 1;
            } else {
                broker.ack("q", d.tag).unwrap();
            }
        }
        assert_eq!(broker.queue_depth("q").unwrap(), requeued);
        // Redelivered flags are set on the survivors.
        for d in broker.consume("q", n).unwrap() {
            assert!(d.redelivered);
            broker.ack("q", d.tag).unwrap();
        }
    });
}

#[test]
fn fault_plan_conserves_messages_for_any_seed() {
    check(|r| {
        let spec = spec(r);
        let sends = size(r, 50, 200);
        let broker = Broker::new();
        broker.declare_exchange("e").unwrap();
        broker.declare_queue("q").unwrap();
        broker.bind_queue("e", "q", "#").unwrap();
        let link = FaultyLink::new(
            BrokerProbe {
                broker: &broker,
                exchange: "e",
            },
            FaultPlan::new(r.seed(), spec),
        );
        for i in 0..sends {
            let now = SimTime::from_millis(i as i64 * 1_000);
            link.advance_to(now).unwrap();
            link.send_at("obs.paris.noise", b"{}", now).unwrap();
        }
        link.drain_pending().unwrap();
        let stats = link.stats();
        let arrived = broker.queue_depth("q").unwrap() as u64;
        assert_eq!(link.pending(), 0);
        // Zero silent loss: every send is delivered into the queue,
        // duplicated, or counted as dropped / black-holed.
        assert_eq!(
            arrived + stats.dropped + stats.blackholed,
            sends as u64 + stats.duplicated
        );
    });
}

#[test]
fn dead_letter_policy_conserves_messages() {
    check(|r| {
        let (n, max_attempts) = (size(r, 1, 15), size(r, 1, 6) as u32);
        let ack_mask = r.index(1 << 16) as u16;
        let broker = Broker::new();
        broker.declare_exchange("e").unwrap();
        broker.declare_queue("q").unwrap();
        broker.declare_queue("dlq").unwrap();
        broker.bind_queue("e", "q", "#").unwrap();
        broker
            .configure_dead_letter("q", max_attempts, "dlq")
            .unwrap();
        for i in 0..n {
            broker.publish("e", "k", vec![i as u8]).unwrap();
        }
        // Ack a subset; nack the rest until every survivor dead-letters.
        let mut acked = 0usize;
        loop {
            let batch = broker.consume("q", n).unwrap();
            if batch.is_empty() {
                break;
            }
            for d in batch {
                if ack_mask & (1 << (d.payload()[0] % 16)) != 0 {
                    broker.ack("q", d.tag).unwrap();
                    acked += 1;
                } else {
                    broker.nack("q", d.tag, true).unwrap();
                }
            }
        }
        let dead_lettered = broker.queue_depth("dlq").unwrap();
        assert_eq!(
            acked + dead_lettered,
            n,
            "every message acked or dead-lettered"
        );
        let m = broker.metrics();
        assert_eq!(m.dead_lettered, dead_lettered as u64);
        assert_eq!(m.dropped, 0);
        // A nacked delivery is a failed delivery, every time.
        assert!(m.delivery_failed >= m.dead_lettered);
    });
}

#[test]
fn trie_router_equals_naive_matcher() {
    check(|r| {
        let patterns = vec(r, 1, 40, wild_pattern);
        let keys = vec(r, 1, 20, small_key);
        // The trie must agree with the retained naive matcher
        // (`topic_matches`) for every binding set and key.
        let mut trie = TopicTrie::new();
        for (id, pattern) in patterns.iter().enumerate() {
            trie.insert(&CompiledPattern::new(&pattern.parse().unwrap()), id);
        }
        for key in &keys {
            let words: Vec<&str> = key.split('.').collect();
            let naive: Vec<usize> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| topic_matches(p, key))
                .map(|(id, _)| id)
                .collect();
            assert_eq!(trie.matches(&words), naive, "key {key}");
        }
    });
}

#[test]
fn published_routes_equal_naive_expectation() {
    check(|r| {
        let bindings = vec(r, 1, 25, |r| (r.index(4), wild_pattern(r)));
        let keys = vec(r, 1, 10, small_key);
        // End to end through the broker (trie + route cache): the routed
        // queue count must equal the naive per-binding scan, on the cold
        // publish and again on the cached one.
        let broker = Broker::new();
        broker.declare_exchange("e").unwrap();
        for q in 0..4 {
            broker.declare_queue(&format!("q{q}")).unwrap();
        }
        for (q, pattern) in &bindings {
            broker.bind_queue("e", &format!("q{q}"), pattern).unwrap();
        }
        for key in &keys {
            let expected: BTreeSet<usize> = bindings
                .iter()
                .filter(|(_, p)| topic_matches(p, key))
                .map(|(q, _)| *q)
                .collect();
            let cold = broker.publish("e", key, &b""[..]).unwrap();
            let cached = broker.publish("e", key, &b""[..]).unwrap();
            assert_eq!(cold, expected.len(), "cold route for {key}");
            assert_eq!(cached, expected.len(), "cached route for {key}");
        }
    });
}

/// The names the durable-replay property draws from: few, so that calls
/// collide — a policy's target deleted, a binding's endpoint gone, a queue
/// declared again after its deletion.
const EXCHANGES: [&str; 3] = ["e0", "e1", "e2"];
const QUEUES: [&str; 3] = ["q0", "q1", "q2"];
const PATTERNS: [&str; 4] = ["#", "a.*", "a.b", "b.#"];

/// One random call on a durable broker. Calls the broker refuses (an
/// unknown queue, a stale tag) are part of the draw; a durability failure
/// is not.
fn durable_step(r: &mut SimRng, b: &Broker, tags: &mut Vec<(&'static str, u64)>) {
    let (exchange, queue) = (*r.pick(&EXCHANGES), *r.pick(&QUEUES));
    let (to_exchange, to_queue) = (*r.pick(&EXCHANGES), *r.pick(&QUEUES));
    let pattern = *r.pick(&PATTERNS);
    let settle = |r: &mut SimRng, tags: &mut Vec<(&'static str, u64)>| {
        (!tags.is_empty()).then(|| tags.swap_remove(r.index(tags.len())))
    };
    let result = match r.index(18) {
        0 => b.declare_exchange(exchange),
        1 => b.delete_exchange(exchange),
        2 => b.declare_queue(queue),
        3 => b.delete_queue(queue),
        4 => b.bind_queue(exchange, queue, pattern),
        5 => b.bind_exchange(exchange, to_exchange, pattern),
        6 => b.configure_dead_letter(queue, size(r, 1, 3) as u32, to_queue),
        7..=9 => b
            .publish(exchange, &small_key(r), vec![r.index(256) as u8])
            .map(drop),
        10 | 11 => b
            .consume(queue, size(r, 1, 4))
            .map(|got| tags.extend(got.iter().map(|d| (queue, d.tag)))),
        12 => settle(r, tags).map_or(Ok(()), |(queue, tag)| b.ack(queue, tag)),
        13 => {
            let batch: Vec<(&str, u64)> = (0..3).filter_map(|_| settle(r, tags)).collect();
            let tags: Vec<u64> = batch.iter().map(|(_, tag)| *tag).collect();
            batch
                .first()
                .map_or(Ok(()), |(queue, _)| b.ack_many(queue, &tags))
        }
        14 | 15 => {
            let requeue = r.chance(0.7);
            settle(r, tags).map_or(Ok(()), |(queue, tag)| b.nack(queue, tag, requeue))
        }
        16 => b.purge_queue(queue).map(drop),
        _ => b.checkpoint().map(drop),
    };
    assert!(
        !matches!(result, Err(BrokerError::Durability(_))),
        "{result:?}"
    );
}

/// What a reopen must reproduce of `b`: its exchanges, its queues (with
/// the copies each still owes, delivered or not) and their dead-letter
/// policies, and every queue's copies.
fn assert_reopened_equal(live: &Broker, reopened: &Broker) {
    assert_eq!(reopened.exchanges(), live.exchanges());
    let queue_view = |b: &Broker| -> Vec<_> {
        let queues = b.queues().into_iter();
        let view = |q: crate::QueueInfo| (q.name, q.ready + q.unacked, q.dead_letter);
        queues.map(view).collect()
    };
    assert_eq!(queue_view(reopened), queue_view(live));
    for info in live.queues() {
        let name = info.name.as_str();
        let (was, now) = (
            live.queue_snapshot(name).unwrap(),
            reopened.queue_snapshot(name).unwrap(),
        );
        assert!(
            now.unacked.is_empty(),
            "{name}: nothing is in flight after a reopen"
        );
        // Ready copies keep their order; a copy in flight comes back
        // ready with its deliveries as logged (one short) or as a
        // snapshot held them (counting the one in flight).
        let ids = |views: &[MessageView]| views.iter().map(|m| m.durable_id).collect::<Vec<_>>();
        let kept: Vec<MessageView> = now
            .ready
            .iter()
            .filter(|m| was.ready.iter().any(|r| r.durable_id == m.durable_id))
            .cloned()
            .collect();
        assert_eq!(kept, was.ready, "{name}: ready copies");
        let mut owed = was.unacked.clone();
        owed.sort_by_key(|m| m.durable_id);
        let mut back: Vec<MessageView> = now
            .ready
            .iter()
            .filter(|m| !kept.contains(m))
            .cloned()
            .collect();
        back.sort_by_key(|m| m.durable_id);
        assert_eq!(ids(&back), ids(&owed), "{name}: copies in flight");
        for (back, owed) in back.iter().zip(&owed) {
            assert_eq!((&back.key, &back.payload), (&owed.key, &owed.payload));
            assert!((owed.deliveries - 1..=owed.deliveries).contains(&back.deliveries));
        }
    }
}

fn durable_temp_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mps-broker-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn open_durable(dir: &Path, snapshot_every: u64) -> Broker {
    let wal = mps_wal::WalConfig::default().telemetry(false).fsync(false);
    let config = DurabilityConfig::new(dir)
        .wal(wal)
        .snapshot_every(snapshot_every);
    Broker::open_durable(config).unwrap()
}

/// The durable-replay property: any sequence of calls — topology, publish,
/// consume, ack, nack, purge, checkpoints, automatic snapshots — leaves a
/// broker that a reopen reproduces: from the log, the snapshot, or both.
/// Three reopens a case, each continuing on the reopened broker.
#[test]
fn durable_replay_equals_live() {
    check(|r| {
        let dir = durable_temp_dir();
        let snapshot_every = *r.pick(&[0, 3, 8]);
        let mut live = open_durable(&dir, snapshot_every);
        for _ in 0..3 {
            let mut tags = Vec::new();
            for _ in 0..size(r, 0, 40) {
                durable_step(r, &live, &mut tags);
            }
            let reopened = open_durable(&dir, snapshot_every);
            assert_reopened_equal(&live, &reopened);
            drop(live);
            live = reopened;
        }
        drop(live);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
