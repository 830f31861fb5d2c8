//! Ingest: from the GF queue to storage.
//!
//! The ingest component drains the application's GF collection queue,
//! decodes the JSON payloads (a payload may carry a single observation or
//! a buffered batch, as sent by app v1.3), stamps the server arrival time,
//! pseudonymises contributor identifiers per the privacy policy, derives
//! the query fields the analyses need, and stores the result as one
//! document per observation.
//!
//! Ingest degrades gracefully instead of losing data silently:
//!
//! * **malformed** payloads are parked in the app's quarantine collection
//!   (with the decode error and the raw payload) and acknowledged;
//! * **late** observations — older on arrival than an opt-in threshold —
//!   are quarantined the same way instead of polluting the analyses, and
//!   so are observations from the **future**, captured after they
//!   arrived, whose delay would be negative;
//! * **storage failures** nack the message back for redelivery, so the
//!   broker's dead-letter policy eventually parks repeat offenders in the
//!   GF dead-letter queue rather than cycling or dropping them.
//!
//! Storage is batched: a drain pass collects every on-time observation it
//! decoded and stores them with a single `insert_many` (one
//! group-committed WAL append on a durable store), then settles the
//! drained messages with a single `ack_many` (one group-committed append
//! on a durable broker). If the batch insert fails, the pass falls back to
//! per-message storage — one insert and one ack/nack per message — which
//! attributes the loss to individual messages. Both are one function,
//! over the whole batch or over one message: it classifies each
//! observation once (already stored, quarantined, or stored) and builds
//! its document once, so both store byte-identical documents.
//!
//! Delivery into storage is at-least-once, and a failed `insert_many` on
//! a durable store may still have put a prefix of its documents on disk
//! (a torn group commit keeps its whole records; see
//! `docs/DURABILITY.md`). Ingest nacks such a batch whole, so after
//! recovery the dead-letter queue holds messages part of whose
//! observations are already stored. A **replay** pass
//! ([`GoFlowServer::replay_dead_letters`](crate::GoFlowServer::replay_dead_letters))
//! is the same drain run over the dead-letter queue with one more step:
//! observations whose trace the collection already holds are skipped
//! ([`IngestOutcome::already_stored`]), so the replay stores every
//! arrival once. A store whose journal failed is ahead of its log, so the
//! skip is only trusted while no storage call has failed since the last
//! one that succeeded.

use crate::record::{ObservationRecord, TRACE};
use crate::telemetry::telemetry;
use crate::{PrivacyPolicy, UsageAnalytics};
use mps_broker::BrokerTransport;
use mps_docstore::{CollectionHandle, Filter, StoreError};
use mps_telemetry::trace::{
    parse_contexts, FlightRecorder, Hop, Outcome, SpanRecord, TraceContext, TraceId,
    SENT_MS_HEADER, TRACE_HEADER,
};
use mps_telemetry::{Counter, SimSpanTimer, SpanTimer};
use mps_types::{AppId, Observation, SimDuration, SimTime};
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Result of one ingest pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestOutcome {
    /// Observations decoded and stored.
    pub stored: usize,
    /// Messages that could not be decoded (quarantined, not dropped).
    pub malformed: usize,
    /// Documents parked in the quarantine collection — malformed payloads
    /// plus observations that exceeded the late-data threshold or were
    /// captured after they arrived.
    pub quarantined: usize,
    /// Messages nacked back for redelivery after a storage failure (they
    /// dead-letter once the queue's delivery attempts are exhausted).
    pub requeued: usize,
    /// Observations a replay pass skipped because the collection already
    /// holds their trace (always 0 for an ordinary pass).
    pub already_stored: usize,
}

/// Drains GF queues into storage. Works over any [`BrokerTransport`]
/// and [`CollectionHandle`], so the same drain loop runs against an
/// in-process broker/store pair or across sockets.
pub(crate) struct Ingestor {
    broker: Arc<dyn BrokerTransport>,
    policy: PrivacyPolicy,
    /// Late-data threshold in milliseconds; negative means disabled.
    late_threshold_ms: AtomicI64,
    /// A storage call failed and none has succeeded since: the store may
    /// be ahead of its log, so what it reads back is no evidence that a
    /// document is durable and a replay pass skips nothing.
    storage_suspect: AtomicBool,
    /// Test hook: number of upcoming inserts to fail artificially (also
    /// fails the batched store attempt while non-zero, without counting
    /// down, so the per-message fallback attributes each failure).
    #[cfg(test)]
    pub(crate) force_storage_failures: std::sync::atomic::AtomicUsize,
    /// Test hook: skip the batched store attempt entirely, exercising the
    /// per-message path with storage still healthy.
    #[cfg(test)]
    pub(crate) force_batch_fallback: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for Ingestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingestor")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Ingestor {
    pub(crate) fn new(broker: Arc<dyn BrokerTransport>, policy: PrivacyPolicy) -> Self {
        Self {
            broker,
            policy,
            late_threshold_ms: AtomicI64::new(-1),
            storage_suspect: AtomicBool::new(false),
            #[cfg(test)]
            force_storage_failures: std::sync::atomic::AtomicUsize::new(0),
            #[cfg(test)]
            force_batch_fallback: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Sets (or clears, with `None`) the late-data threshold: observations
    /// older than this on arrival are quarantined instead of stored.
    pub(crate) fn set_late_quarantine(&self, threshold: Option<SimDuration>) {
        let ms = threshold.map_or(-1, |d| d.as_millis());
        self.late_threshold_ms.store(ms, Ordering::Relaxed);
    }

    fn late_threshold(&self) -> Option<SimDuration> {
        let ms = self.late_threshold_ms.load(Ordering::Relaxed);
        (ms >= 0).then(|| SimDuration::from_millis(ms))
    }

    /// Inserts the documents to store, honouring the test hook that
    /// simulates storage failures.
    fn insert(&self, collection: &CollectionHandle, docs: Vec<Value>) -> Result<(), StoreError> {
        #[cfg(test)]
        if self
            .force_storage_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return self.stored(Err(StoreError::NotAnObject));
        }
        self.stored(collection.insert_many(docs)).map(drop)
    }

    /// Decodes a payload into one or more observations (v1.3 clients send
    /// buffered batches as JSON arrays).
    fn decode(payload: &[u8]) -> Result<Vec<Observation>, serde_json::Error> {
        let value: Value = serde_json::from_slice(payload)?;
        if value.is_array() {
            serde_json::from_value(value)
        } else {
            serde_json::from_value::<Observation>(value).map(|obs| vec![obs])
        }
    }

    /// Drains up to `max_messages` from the pass's queue into its
    /// collection, stamping `now` as the arrival time and recording
    /// per-day counts in the analytics. Malformed payloads and late
    /// observations are parked in quarantine; storage failures nack the
    /// message back for redelivery (and, eventually, dead-lettering).
    ///
    /// On-time observations are stored with one batched insert and the
    /// drained messages settled with one batched ack per pass; a failed
    /// batch falls back to per-message storage (see the [module
    /// docs](self)).
    pub(crate) fn drain(&self, pass: &DrainPass<'_>, max_messages: usize) -> IngestOutcome {
        let (queue, now) = (pass.queue, pass.now);
        let metrics = telemetry();
        let _drain_timer = SpanTimer::start(&metrics.ingest_drain_seconds);
        let mut outcome = IngestOutcome::default();
        let Ok(deliveries) = self.broker.consume(queue, max_messages) else {
            return outcome;
        };

        // Decode pass. Malformed payloads are quarantined and settled
        // immediately, while decoded messages join the batch.
        let mut decoded = Vec::new();
        for delivery in deliveries {
            // Trace context: one entry per observation in the payload, in
            // payload order, re-parented under a `broker_queue` span that
            // covers the message's residence in the GF queue.
            let contexts = ingest_contexts(&delivery.message, now);
            match Self::decode(delivery.payload()) {
                Ok(observations) => decoded.push(DecodedMessage {
                    tag: delivery.tag,
                    observations,
                    contexts,
                }),
                Err(err) => {
                    outcome.malformed += 1;
                    metrics.ingest_malformed.inc();
                    let envelope = json!({
                        "reason": "malformed",
                        "error": err.to_string(),
                        "payload": String::from_utf8_lossy(delivery.payload()).as_ref(),
                        "arrived_ms": now.as_millis(),
                    });
                    let counter = &metrics.ingest_quarantined_malformed;
                    self.park(pass, "malformed", counter, envelope, contexts, &mut outcome);
                    // The payload is preserved in quarantine, so the broker
                    // copy can be discarded without silent loss.
                    let _ = self.broker.nack(queue, delivery.tag, false);
                }
            }
        }
        if decoded.is_empty() {
            return outcome;
        }

        let screen = Screen {
            late_threshold: self.late_threshold(),
            already_stored: self.already_stored(pass, &decoded),
        };
        metrics.ingest_batches.inc();
        // The test hooks send a pass straight to per-message storage.
        #[cfg(test)]
        let batch_first = self.force_storage_failures.load(Ordering::SeqCst) == 0
            && !self.force_batch_fallback.load(Ordering::Relaxed);
        #[cfg(not(test))]
        let batch_first = true;
        if batch_first && self.store(pass, &screen, &decoded, &mut outcome) {
            let tags: Vec<u64> = decoded.iter().map(|m| m.tag).collect();
            let _ = self.broker.ack_many(queue, &tags);
            return outcome;
        }

        // The batch did not store: store message by message, so that a
        // failure is pinned on the message that meets it.
        metrics.ingest_batch_fallbacks.inc();
        for message in &decoded {
            if self.store(pass, &screen, std::slice::from_ref(message), &mut outcome) {
                let _ = self.broker.ack(queue, message.tag);
            } else {
                // Redeliver the whole message: the broker counts the
                // attempt and dead-letters it once the queue's policy is
                // exhausted, so nothing is lost silently. This is
                // at-least-once — a durable store may keep a prefix of a
                // failed insert, which redelivery stores again.
                outcome.requeued += 1;
                metrics.ingest_storage_failures.inc();
                let _ = self.broker.nack(queue, message.tag, true);
            }
        }
        outcome
    }

    /// The traces among `decoded` that the collection already holds:
    /// what a replay pass skips. Empty for an ordinary pass, and empty
    /// while the store is suspect (see the [module docs](self)).
    fn already_stored(
        &self,
        pass: &DrainPass<'_>,
        decoded: &[DecodedMessage],
    ) -> BTreeSet<TraceId> {
        if !pass.replay || self.storage_suspect.load(Ordering::SeqCst) {
            return BTreeSet::new();
        }
        let traces: Vec<Value> = decoded
            .iter()
            .flat_map(|m| &m.contexts)
            .map(|ctx| json!(ctx.trace.to_string()))
            .collect();
        pass.collection
            .distinct(TRACE, &Filter::is_in(TRACE, traces))
            .iter()
            .filter_map(|t| t.as_str()?.parse().ok())
            .collect()
    }

    /// Passes a storage call's result through, remembering whether the
    /// store can be trusted: a journaled store that accepts a write is
    /// alive, one that refused may be ahead of its log.
    fn stored<T>(&self, result: Result<T, StoreError>) -> Result<T, StoreError> {
        self.storage_suspect
            .store(result.is_err(), Ordering::SeqCst);
        result
    }

    /// Stores `messages`: decides where each of their observations goes
    /// and builds the document it goes there as, inserts the documents to
    /// store with one `insert_many` and, once that succeeded, settles
    /// every observation — counts it and records its span, and parks a
    /// late or future one in the quarantine collection. False, with
    /// nothing settled, when the insert failed.
    fn store(
        &self,
        pass: &DrainPass<'_>,
        screen: &Screen,
        messages: &[DecodedMessage],
        outcome: &mut IngestOutcome,
    ) -> bool {
        let mut docs = Vec::new();
        let mut classified = Vec::new();
        for message in messages {
            for (i, obs) in message.observations.iter().enumerate() {
                let ctx = message.contexts.get(i).copied();
                let delay = pass.now.since(obs.captured_at);
                // A stored document carries its trace, a quarantined one's
                // envelope does.
                let document =
                    |trace| ObservationRecord::to_document(obs, pass.now, &self.policy, trace);
                let fate = if ctx.is_some_and(|c| screen.already_stored.contains(&c.trace)) {
                    Fate::AlreadyStored
                } else if delay.is_negative() {
                    Fate::Future(document(None))
                } else if screen.late_threshold.is_some_and(|limit| delay > limit) {
                    Fate::Late(document(None))
                } else {
                    docs.push(document(ctx.map(|c| c.trace)));
                    Fate::Stored
                };
                classified.push((ctx, delay, obs.is_localized(), fate));
            }
        }
        if !docs.is_empty() && self.insert(pass.collection, docs).is_err() {
            return false;
        }
        let metrics = telemetry();
        for (ctx, delay, localized, fate) in classified {
            let (reason, counter, document) = match fate {
                Fate::AlreadyStored => {
                    outcome.already_stored += 1;
                    let reason = "already_stored";
                    record_ingest_spans(ctx, Hop::DocstoreWrite, Outcome::Ok, reason, pass.now);
                    continue;
                }
                Fate::Stored => {
                    outcome.stored += 1;
                    metrics.ingest_stored.inc();
                    let delay_ms = delay.as_millis() as f64;
                    metrics.ingest_delivery_delay_ms.observe(delay_ms);
                    pass.analytics.record(pass.app, pass.now, localized);
                    record_ingest_spans(ctx, Hop::DocstoreWrite, Outcome::Ok, "stored", pass.now);
                    continue;
                }
                Fate::Late(document) => ("late", &metrics.ingest_quarantined_late, document),
                Fate::Future(document) => ("future", &metrics.ingest_quarantined_future, document),
            };
            let envelope = json!({
                "reason": reason,
                "delay_ms": delay.as_millis(),
                "arrived_ms": pass.now.as_millis(),
                "trace": ctx.map(|c| c.trace.to_string()),
                "observation": document,
            });
            self.park(pass, reason, counter, envelope, ctx, outcome);
        }
        true
    }

    /// Parks `envelope` in the quarantine collection and, once it is
    /// there, counts it and ends the trace of each of `contexts` there,
    /// both under `reason`.
    fn park(
        &self,
        pass: &DrainPass<'_>,
        reason: &str,
        counter: &Counter,
        envelope: Value,
        contexts: impl IntoIterator<Item = TraceContext>,
        outcome: &mut IngestOutcome,
    ) {
        if self.stored(pass.quarantine.insert_one(envelope)).is_err() {
            return;
        }
        outcome.quarantined += 1;
        counter.inc();
        record_ingest_spans(
            contexts,
            Hop::Quarantine,
            Outcome::Quarantined,
            reason,
            pass.now,
        );
    }
}

/// What one drain pass works on.
#[derive(Clone, Copy)]
pub(crate) struct DrainPass<'a> {
    pub(crate) app: &'a AppId,
    /// The queue drained: the app's GF queue, or its dead-letter queue
    /// for a replay.
    pub(crate) queue: &'a str,
    pub(crate) collection: &'a CollectionHandle,
    pub(crate) quarantine: &'a CollectionHandle,
    pub(crate) analytics: &'a UsageAnalytics,
    /// Stamped as the arrival time.
    pub(crate) now: SimTime,
    /// Skip observations the collection already holds.
    pub(crate) replay: bool,
}

/// What keeps a decoded observation out of the collection.
struct Screen {
    late_threshold: Option<SimDuration>,
    /// Traces the collection already holds (replay passes only).
    already_stored: BTreeSet<TraceId>,
}

/// A decoded GF message awaiting storage: the broker tag to settle, the
/// observations it carried and their trace contexts (payload order).
struct DecodedMessage {
    tag: u64,
    observations: Vec<Observation>,
    contexts: Vec<TraceContext>,
}

/// Where one decoded observation goes: skipped, quarantined as a
/// document, or stored.
enum Fate {
    /// A replay pass found its trace already stored.
    AlreadyStored,
    /// Older on arrival than the late-data threshold.
    Late(Value),
    /// Captured after it arrived: its delay would be negative.
    Future(Value),
    Stored,
}

/// Parses the trace contexts off a delivered message and closes each
/// one's `broker_queue` span (publish → this drain), re-parenting the
/// context under it. The queue wait also feeds the
/// `goflow_ingest_broker_wait_ms` histogram via a [`SimSpanTimer`], so
/// the waterfall and the metrics agree. Untraced messages yield an
/// empty vector.
fn ingest_contexts(message: &mps_broker::Message, now: SimTime) -> Vec<TraceContext> {
    let Some(header) = message.header(TRACE_HEADER) else {
        return Vec::new();
    };
    let contexts = parse_contexts(header);
    if contexts.is_empty() {
        return Vec::new();
    }
    let sent_ms = message
        .header(SENT_MS_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| now.as_millis());
    let timer = SimSpanTimer::start_at(&telemetry().ingest_broker_wait_ms, sent_ms);
    timer.stop_at(now.as_millis());
    let recorder = FlightRecorder::global();
    contexts
        .iter()
        .map(|ctx| {
            let span = recorder.record(
                SpanRecord::new(ctx.trace, Hop::BrokerQueue, now.as_millis())
                    .started_at(sent_ms)
                    .parent(ctx.parent)
                    .duplicate(ctx.duplicate),
            );
            ctx.child_of(span)
        })
        .collect()
}

/// Records one ingest-side span for each of `contexts`: the terminal
/// `docstore_write` / `quarantine` ends of their traces.
fn record_ingest_spans(
    contexts: impl IntoIterator<Item = TraceContext>,
    hop: Hop,
    outcome: Outcome,
    reason: &str,
    now: SimTime,
) {
    for ctx in contexts {
        FlightRecorder::global().record(
            SpanRecord::new(ctx.trace, hop, now.as_millis())
                .parent(ctx.parent)
                .duplicate(ctx.duplicate)
                .outcome(outcome)
                .attr("reason", reason.to_owned()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_types::{
        Activity, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, SensingMode,
        SimDuration, SoundLevel,
    };

    fn sample_obs() -> Observation {
        Observation::builder()
            .device(7.into())
            .user(3.into())
            .model(DeviceModel::OneplusA0001)
            .captured_at(SimTime::from_hms(40, 14, 5, 0))
            .spl(SoundLevel::new(63.0))
            .location(LocationFix::new(
                GeoPoint::PARIS,
                28.0,
                LocationProvider::Network,
            ))
            .activity(Activity::Foot)
            .mode(SensingMode::Journey)
            .app_version(AppVersion::V1_2_9)
            .build()
    }

    #[test]
    fn document_has_derived_fields() {
        let obs = sample_obs();
        let arrived = obs.captured_at + SimDuration::from_secs(9);
        let doc = ObservationRecord::to_document(&obs, arrived, &PrivacyPolicy::default(), None);
        assert_eq!(doc["model"], json!("ONEPLUS A0001"));
        assert_eq!(doc["hour"], json!(14));
        assert_eq!(doc["day"], json!(40));
        assert_eq!(doc["month"], json!(1));
        assert_eq!(doc["delay_ms"], json!(9_000));
        assert_eq!(doc["localized"], json!(true));
        assert_eq!(doc["provider"], json!("network"));
        assert_eq!(doc["accuracy"], json!(28.0));
        assert_eq!(doc["activity"], json!("foot"));
        assert_eq!(doc["mode"], json!("journey"));
        assert_eq!(doc["app_version"], json!("1.2.9"));
    }

    #[test]
    fn document_pseudonymises_ids() {
        let obs = sample_obs();
        let doc =
            ObservationRecord::to_document(&obs, obs.captured_at, &PrivacyPolicy::default(), None);
        assert_ne!(doc["device"], json!(7));
        assert_ne!(doc["user"], json!(3));
        // Stable across calls.
        let doc2 =
            ObservationRecord::to_document(&obs, obs.captured_at, &PrivacyPolicy::default(), None);
        assert_eq!(doc["device"], doc2["device"]);
    }

    #[test]
    fn unlocalized_observation_has_null_location_fields() {
        let mut obs = sample_obs();
        obs.location = None;
        let doc =
            ObservationRecord::to_document(&obs, obs.captured_at, &PrivacyPolicy::default(), None);
        assert_eq!(doc["localized"], json!(false));
        assert!(doc["provider"].is_null());
        assert!(doc["accuracy"].is_null());
        assert!(doc["lat"].is_null());
    }

    #[test]
    fn decode_single_and_batch() {
        let obs = sample_obs();
        let single = serde_json::to_vec(&obs).unwrap();
        assert_eq!(Ingestor::decode(&single).unwrap().len(), 1);
        let batch = serde_json::to_vec(&vec![obs.clone(), obs]).unwrap();
        assert_eq!(Ingestor::decode(&batch).unwrap().len(), 2);
        assert!(Ingestor::decode(b"not json").is_err());
        assert!(Ingestor::decode(b"{\"bogus\": 1}").is_err());
    }
}
