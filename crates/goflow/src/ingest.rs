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
//!   are quarantined the same way instead of polluting the analyses;
//! * **storage failures** nack the message back for redelivery, so the
//!   broker's dead-letter policy eventually parks repeat offenders in the
//!   GF dead-letter queue rather than cycling or dropping them.
//!
//! Storage is batched: a drain pass collects every on-time observation it
//! decoded and stores them with a single `insert_many` (one
//! group-committed WAL append on a durable store), then settles the
//! drained messages with a single `ack_many` (one group-committed append
//! on a durable broker). If the batch insert fails, the pass falls back to
//! the per-message path — one insert and one ack/nack per message — which
//! attributes the loss to individual messages exactly as ingest always
//! has. Both paths build documents from the same observations with the
//! same code, so they store byte-identical documents.
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

use crate::telemetry::telemetry;
use crate::{PrivacyPolicy, UsageAnalytics};
use mps_broker::BrokerTransport;
use mps_docstore::{CollectionHandle, Filter};
use mps_telemetry::trace::{
    parse_contexts, FlightRecorder, Hop, Outcome, SpanRecord, TraceContext, SENT_MS_HEADER,
    TRACE_HEADER,
};
use mps_telemetry::{SimSpanTimer, SpanTimer};
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
    /// plus observations that exceeded the late-data threshold.
    pub quarantined: usize,
    /// Messages nacked back for redelivery after a storage failure (they
    /// dead-letter once the queue's delivery attempts are exhausted).
    pub requeued: usize,
    /// Observations a replay pass skipped because the collection already
    /// holds their trace (always 0 for an ordinary pass).
    pub already_stored: usize,
}

/// Conversion of wire observations into stored documents.
///
/// The stored document keeps everything the empirical analyses (Figures
/// 9–21) need — including derived buckets (`hour`, `day`, `month`,
/// `delay_ms`) — while replacing the raw device/user identifiers with
/// pseudonyms.
#[derive(Debug, Clone, Copy)]
pub struct ObservationRecord;

impl ObservationRecord {
    /// Builds the stored document for an observation that arrived at
    /// `arrived_at`.
    pub fn to_document(obs: &Observation, arrived_at: SimTime, policy: &PrivacyPolicy) -> Value {
        let delay_ms = arrived_at.since(obs.captured_at).as_millis();
        let location = obs.location.as_ref();
        json!({
            "device": policy.pseudonymize(obs.device.raw()).raw(),
            "user": policy.pseudonymize(obs.user.raw()).raw(),
            "model": obs.model.label(),
            "captured_ms": obs.captured_at.as_millis(),
            "arrived_ms": arrived_at.as_millis(),
            "delay_ms": delay_ms,
            "hour": obs.captured_at.hour_of_day(),
            "day": obs.captured_at.day(),
            "month": obs.captured_at.month(),
            "spl": obs.spl.db(),
            "localized": location.is_some(),
            "provider": location.map(|l| l.provider.name()),
            "accuracy": location.map(|l| l.accuracy_m),
            "lat": location.map(|l| l.point.lat),
            "lon": location.map(|l| l.point.lon),
            "activity": obs.activity.name(),
            "mode": obs.mode.name(),
            "app_version": obs.app_version.name(),
        })
    }
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

    /// Inserts a stored-observation document, honouring the test hook that
    /// simulates storage failures.
    fn insert_observation(
        &self,
        collection: &CollectionHandle,
        doc: Value,
    ) -> Result<mps_docstore::DocId, mps_docstore::StoreError> {
        #[cfg(test)]
        if self
            .force_storage_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return self.stored(Err(mps_docstore::StoreError::NotAnObject));
        }
        self.stored(collection.insert_one(doc))
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
        let DrainPass {
            app,
            queue,
            quarantine,
            analytics,
            now,
            ..
        } = *pass;
        let metrics = telemetry();
        let _drain_timer = SpanTimer::start(&metrics.ingest_drain_seconds);
        let mut outcome = IngestOutcome::default();
        let Ok(deliveries) = self.broker.consume(queue, max_messages) else {
            return outcome;
        };

        // Decode pass. Malformed payloads are quarantined and settled
        // immediately — both storage paths treat them identically —
        // while decoded messages join the batch.
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
                    let parked = self.stored(quarantine.insert_one(json!({
                        "reason": "malformed",
                        "error": err.to_string(),
                        "payload": String::from_utf8_lossy(delivery.payload()).as_ref(),
                        "arrived_ms": now.as_millis(),
                    })));
                    if parked.is_ok() {
                        outcome.quarantined += 1;
                        metrics.ingest_quarantined_malformed.inc();
                        for ctx in &contexts {
                            record_ingest_span(
                                Some(*ctx),
                                Hop::Quarantine,
                                Outcome::Quarantined,
                                "malformed",
                                now,
                            );
                        }
                    }
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
        if let Some(batch) = self.try_store_batch(pass, &screen, &decoded) {
            for ctx in batch.already_stored {
                Self::skip_stored(ctx, now, &mut outcome);
            }
            for late in batch.late {
                self.quarantine_late(pass, late, &mut outcome);
            }
            for stored in batch.stored {
                outcome.stored += 1;
                metrics.ingest_stored.inc();
                metrics
                    .ingest_delivery_delay_ms
                    .observe(stored.delay.as_millis() as f64);
                analytics.record(app, now, stored.localized);
                record_ingest_span(stored.ctx, Hop::DocstoreWrite, Outcome::Ok, "stored", now);
            }
            let tags: Vec<u64> = decoded.iter().map(|m| m.tag).collect();
            let _ = self.broker.ack_many(queue, &tags);
            return outcome;
        }

        metrics.ingest_batch_fallbacks.inc();
        for message in decoded {
            self.store_per_message(pass, &screen, message, &mut outcome);
        }
        outcome
    }

    /// The traces among `decoded` that the collection already holds:
    /// what a replay pass skips. Empty for an ordinary pass, and empty
    /// while the store is suspect (see the [module docs](self)).
    fn already_stored(&self, pass: &DrainPass<'_>, decoded: &[DecodedMessage]) -> BTreeSet<String> {
        if !pass.replay || self.storage_suspect.load(Ordering::SeqCst) {
            return BTreeSet::new();
        }
        let traces: Vec<Value> = decoded
            .iter()
            .flat_map(|m| &m.contexts)
            .map(|ctx| json!(ctx.trace.to_string()))
            .collect();
        pass.collection
            .distinct("trace", &Filter::is_in("trace", traces))
            .iter()
            .filter_map(|t| t.as_str().map(str::to_owned))
            .collect()
    }

    /// Accounts for one observation a replay pass found already stored.
    fn skip_stored(ctx: TraceContext, now: SimTime, outcome: &mut IngestOutcome) {
        outcome.already_stored += 1;
        record_ingest_span(
            Some(ctx),
            Hop::DocstoreWrite,
            Outcome::Ok,
            "already_stored",
            now,
        );
    }

    /// Passes a storage call's result through, remembering whether the
    /// store can be trusted: a journaled store that accepts a write is
    /// alive, one that refused may be ahead of its log.
    fn stored<T>(
        &self,
        result: Result<T, mps_docstore::StoreError>,
    ) -> Result<T, mps_docstore::StoreError> {
        self.storage_suspect
            .store(result.is_err(), Ordering::SeqCst);
        result
    }

    /// Attempts the batched store: classifies every decoded observation
    /// (without side effects) and inserts all on-time documents with one
    /// `insert_many`. `None` means the batch insert failed and the caller
    /// must fall back to per-message storage.
    fn try_store_batch(
        &self,
        pass: &DrainPass<'_>,
        screen: &Screen,
        decoded: &[DecodedMessage],
    ) -> Option<StoredBatch> {
        #[cfg(test)]
        if self.force_storage_failures.load(Ordering::SeqCst) > 0
            || self.force_batch_fallback.load(Ordering::Relaxed)
        {
            return None;
        }
        let mut docs = Vec::new();
        let mut batch = StoredBatch::default();
        for message in decoded {
            for (i, obs) in message.observations.iter().enumerate() {
                let ctx = message.contexts.get(i).copied();
                if let Some(ctx) = ctx.filter(|c| screen.holds(c)) {
                    batch.already_stored.push(ctx);
                    continue;
                }
                let delay = pass.now.saturating_since(obs.captured_at);
                if screen.is_late(delay) {
                    batch.late.push(LateObservation {
                        ctx,
                        delay,
                        document: ObservationRecord::to_document(obs, pass.now, &self.policy),
                    });
                    continue;
                }
                let mut doc = ObservationRecord::to_document(obs, pass.now, &self.policy);
                if let (Some(ctx), Some(fields)) = (ctx, doc.as_object_mut()) {
                    fields.insert("trace".to_owned(), json!(ctx.trace.to_string()));
                }
                docs.push(doc);
                batch.stored.push(StoredObservation {
                    ctx,
                    delay,
                    localized: obs.is_localized(),
                });
            }
        }
        if !docs.is_empty() {
            self.stored(pass.collection.insert_many(docs)).ok()?;
        }
        Some(batch)
    }

    /// The per-message storage path: one insert per observation, one
    /// ack/nack per message. This is both the fallback after a failed
    /// batch insert and the reference semantics the batched path must
    /// match.
    fn store_per_message(
        &self,
        pass: &DrainPass<'_>,
        screen: &Screen,
        message: DecodedMessage,
        outcome: &mut IngestOutcome,
    ) {
        let metrics = telemetry();
        let mut storage_failed = false;
        for (i, obs) in message.observations.iter().enumerate() {
            let ctx = message.contexts.get(i).copied();
            if let Some(ctx) = ctx.filter(|c| screen.holds(c)) {
                Self::skip_stored(ctx, pass.now, outcome);
                continue;
            }
            let delay = pass.now.saturating_since(obs.captured_at);
            if screen.is_late(delay) {
                let late = LateObservation {
                    ctx,
                    delay,
                    document: ObservationRecord::to_document(obs, pass.now, &self.policy),
                };
                self.quarantine_late(pass, late, outcome);
                continue;
            }
            let mut doc = ObservationRecord::to_document(obs, pass.now, &self.policy);
            if let (Some(ctx), Some(fields)) = (ctx, doc.as_object_mut()) {
                fields.insert("trace".to_owned(), json!(ctx.trace.to_string()));
            }
            if self.insert_observation(pass.collection, doc).is_ok() {
                outcome.stored += 1;
                metrics.ingest_stored.inc();
                metrics
                    .ingest_delivery_delay_ms
                    .observe(delay.as_millis() as f64);
                pass.analytics
                    .record(pass.app, pass.now, obs.is_localized());
                record_ingest_span(ctx, Hop::DocstoreWrite, Outcome::Ok, "stored", pass.now);
            } else {
                storage_failed = true;
                break;
            }
        }
        if storage_failed {
            // Redeliver the whole message: the broker counts the
            // attempt and dead-letters it once the queue's policy
            // is exhausted, so nothing is lost silently. This is
            // at-least-once — observations stored before the
            // failure may be stored again on redelivery.
            outcome.requeued += 1;
            metrics.ingest_storage_failures.inc();
            let _ = self.broker.nack(pass.queue, message.tag, true);
        } else {
            let _ = self.broker.ack(pass.queue, message.tag);
        }
    }

    /// Parks one late observation in the quarantine collection.
    fn quarantine_late(
        &self,
        pass: &DrainPass<'_>,
        late: LateObservation,
        outcome: &mut IngestOutcome,
    ) {
        let parked = self.stored(pass.quarantine.insert_one(json!({
            "reason": "late",
            "delay_ms": late.delay.as_millis(),
            "arrived_ms": pass.now.as_millis(),
            "trace": late.ctx.map(|c| c.trace.to_string()),
            "observation": late.document,
        })));
        if parked.is_ok() {
            outcome.quarantined += 1;
            telemetry().ingest_quarantined_late.inc();
            record_ingest_span(
                late.ctx,
                Hop::Quarantine,
                Outcome::Quarantined,
                "late",
                pass.now,
            );
        }
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
    already_stored: BTreeSet<String>,
}

impl Screen {
    fn is_late(&self, delay: SimDuration) -> bool {
        self.late_threshold.is_some_and(|limit| delay > limit)
    }

    fn holds(&self, ctx: &TraceContext) -> bool {
        // Empty on every ordinary pass, which then builds no string.
        !self.already_stored.is_empty() && self.already_stored.contains(&ctx.trace.to_string())
    }
}

/// A decoded GF message awaiting storage: the broker tag to settle, the
/// observations it carried and their trace contexts (payload order).
struct DecodedMessage {
    tag: u64,
    observations: Vec<Observation>,
    contexts: Vec<TraceContext>,
}

/// Classification result of a successful batched store attempt.
#[derive(Default)]
struct StoredBatch {
    already_stored: Vec<TraceContext>,
    late: Vec<LateObservation>,
    stored: Vec<StoredObservation>,
}

/// A late observation to park in quarantine.
struct LateObservation {
    ctx: Option<TraceContext>,
    delay: SimDuration,
    document: Value,
}

/// Bookkeeping for one observation stored by the batched path.
struct StoredObservation {
    ctx: Option<TraceContext>,
    delay: SimDuration,
    localized: bool,
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

/// Records one ingest-side span for an observation's context, if it has
/// one: the terminal `docstore_write` / `quarantine` ends of a trace.
fn record_ingest_span(
    ctx: Option<TraceContext>,
    hop: Hop,
    outcome: Outcome,
    reason: &str,
    now: SimTime,
) {
    let Some(ctx) = ctx else { return };
    FlightRecorder::global().record(
        SpanRecord::new(ctx.trace, hop, now.as_millis())
            .parent(ctx.parent)
            .duplicate(ctx.duplicate)
            .outcome(outcome)
            .attr("reason", reason.to_owned()),
    );
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
        let doc = ObservationRecord::to_document(&obs, arrived, &PrivacyPolicy::default());
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
        let doc = ObservationRecord::to_document(&obs, obs.captured_at, &PrivacyPolicy::default());
        assert_ne!(doc["device"], json!(7));
        assert_ne!(doc["user"], json!(3));
        // Stable across calls.
        let doc2 = ObservationRecord::to_document(&obs, obs.captured_at, &PrivacyPolicy::default());
        assert_eq!(doc["device"], doc2["device"]);
    }

    #[test]
    fn unlocalized_observation_has_null_location_fields() {
        let mut obs = sample_obs();
        obs.location = None;
        let doc = ObservationRecord::to_document(&obs, obs.captured_at, &PrivacyPolicy::default());
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
