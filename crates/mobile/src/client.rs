//! The GoFlow mobile client (Section 5.3 of the paper).
//!
//! Two client strategies were deployed: one "sends the measurements after
//! each observation (every 5 min by default)", the other "buffers a series
//! of 10 measurements before sending them". "In both cases, if there is no
//! network connection at the time of emission, the measurements are sent
//! at the next cycle." [`GoFlowClient`] implements both, selected by the
//! [`AppVersion`]:
//!
//! * v1.1 / v1.2.9 — unbuffered: every pending observation is sent as its
//!   own message (one radio transfer each);
//! * v1.3 — buffered: observations accumulate until the buffer holds 10,
//!   then ship as a single batch message (one radio transfer).

use crate::retry::RetryPolicy;
use crate::telemetry::telemetry;
use mps_broker::{Broker, BrokerError, BrokerTransport, Message};
use mps_faults::{Link, LinkError, SendTrace};
use mps_simcore::SimRng;
use mps_telemetry::trace::{
    encode_contexts, FlightRecorder, Hop, Outcome, SpanRecord, TraceContext, TraceId,
    SENT_MS_HEADER, TRACE_HEADER,
};
use mps_types::{AppVersion, Observation, SimTime};
use std::collections::VecDeque;

/// Adapts one broker exchange to the [`Link`] transport trait, so the
/// upload path can be driven directly or wrapped in a
/// [`mps_faults::FaultyLink`] for fault-injected runs.
///
/// Generic over any [`BrokerTransport`] — an in-process [`Broker`] (the
/// default) or a remote broker behind a socket (e.g.
/// `mps_net::RemoteBroker`) — so the same client upload path runs
/// embedded in simulations and across a real network boundary.
pub struct BrokerLink<'a, B: BrokerTransport + ?Sized = Broker> {
    broker: &'a B,
    exchange: &'a str,
}

impl<B: BrokerTransport + ?Sized> std::fmt::Debug for BrokerLink<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerLink")
            .field("exchange", &self.exchange)
            .finish_non_exhaustive()
    }
}

impl<B: BrokerTransport + ?Sized> Clone for BrokerLink<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: BrokerTransport + ?Sized> Copy for BrokerLink<'_, B> {}

impl<'a, B: BrokerTransport + ?Sized> BrokerLink<'a, B> {
    /// Creates a link publishing to `exchange` on `broker`.
    pub fn new(broker: &'a B, exchange: &'a str) -> Self {
        Self { broker, exchange }
    }
}

impl<B: BrokerTransport + ?Sized> Link for BrokerLink<'_, B> {
    fn send(&self, route: &str, payload: &[u8]) -> Result<usize, LinkError> {
        self.broker
            .publish(self.exchange, route, payload)
            .map_err(|err| LinkError::Unavailable(err.to_string()))
    }

    fn send_traced(
        &self,
        route: &str,
        payload: &[u8],
        trace: &SendTrace<'_>,
    ) -> Result<usize, LinkError> {
        if trace.contexts.is_empty() {
            return self.send(route, payload);
        }
        let key = route
            .parse()
            .map_err(|err: BrokerError| LinkError::Unavailable(err.to_string()))?;
        let message = Message::new(key, payload.to_vec())
            .with_header(TRACE_HEADER, encode_contexts(trace.contexts))
            .with_header(SENT_MS_HEADER, trace.now_ms.to_string());
        self.broker
            .publish_message(self.exchange, message)
            .map_err(|err| LinkError::Unavailable(err.to_string()))
    }
}

/// Trace bookkeeping for one buffered observation: its propagation
/// context plus the capture time the client-buffer span starts at.
#[derive(Debug, Clone)]
struct ObsTrace {
    ctx: TraceContext,
    captured_ms: i64,
}

/// One serialized upload parked for retry.
#[derive(Debug, Clone)]
struct PendingUpload {
    payload: Vec<u8>,
    observations: usize,
    attempts: u32,
    /// Trace contexts of the observations inside the payload.
    contexts: Vec<TraceContext>,
    /// When the upload entered the retry queue (retry-queue span start).
    parked_at_ms: i64,
}

/// What a send cycle did — the numbers the energy model charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendOutcome {
    /// Radio transfers performed (broker messages published).
    pub transfers: usize,
    /// Observations shipped across those transfers.
    pub observations: usize,
}

/// A mobile GoFlow client bound to one broker exchange.
///
/// # Examples
///
/// ```
/// use mps_broker::Broker;
/// use mps_mobile::GoFlowClient;
/// use mps_types::{AppVersion, DeviceModel, Observation, SimTime, SoundLevel};
///
/// let broker = Broker::new();
/// broker.declare_exchange("ex")?;
/// broker.declare_queue("q")?;
/// broker.bind_queue("ex", "q", "#")?;
///
/// let mut client = GoFlowClient::new("ex", "c1.obs.noise.paris", AppVersion::V1_2_9);
/// let obs = Observation::builder()
///     .device(1.into()).user(1.into())
///     .model(DeviceModel::LgeNexus5)
///     .captured_at(SimTime::EPOCH)
///     .spl(SoundLevel::new(50.0))
///     .build();
/// client.record(obs);
/// let sent = client.on_cycle(&broker, true)?;
/// assert_eq!(sent.observations, 1);
/// # Ok::<(), mps_broker::BrokerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GoFlowClient {
    exchange: String,
    routing_key: String,
    version: AppVersion,
    buffer: Vec<Observation>,
    buffer_traces: Vec<ObsTrace>,
    total_sent: u64,
    total_transfers: u64,
    retry: RetryPolicy,
    retry_queue: VecDeque<PendingUpload>,
    next_retry_at: Option<SimTime>,
    retry_rng: SimRng,
    retried_total: u64,
    shed_total: u64,
}

impl GoFlowClient {
    /// Creates a client publishing to `exchange` with `routing_key`.
    pub fn new(
        exchange: impl Into<String>,
        routing_key: impl Into<String>,
        version: AppVersion,
    ) -> Self {
        Self {
            exchange: exchange.into(),
            routing_key: routing_key.into(),
            version,
            buffer: Vec::new(),
            buffer_traces: Vec::new(),
            total_sent: 0,
            total_transfers: 0,
            retry: RetryPolicy::default(),
            retry_queue: VecDeque::new(),
            next_retry_at: None,
            retry_rng: SimRng::new(0).split("mobile.retry", 0),
            retried_total: 0,
            shed_total: 0,
        }
    }

    /// Replaces the retry policy and reseeds the backoff-jitter stream
    /// (builder). Give each simulated client a distinct `jitter_seed` so
    /// their retries de-synchronise.
    pub fn with_retry_policy(mut self, policy: RetryPolicy, jitter_seed: u64) -> Self {
        self.retry = policy;
        self.retry_rng = SimRng::new(jitter_seed).split("mobile.retry", 0);
        self
    }

    /// The client's app version.
    pub fn version(&self) -> AppVersion {
        self.version
    }

    /// Upgrades the client to a newer app version (rollouts keep pending
    /// observations).
    pub fn upgrade(&mut self, version: AppVersion) {
        self.version = version;
    }

    /// Records a freshly captured observation into the send buffer.
    ///
    /// This is where an observation enters the pipeline, so this is where
    /// its trace is minted: a deterministic [`TraceId`] derived from the
    /// device and capture time, with a `sensed` root span in the global
    /// [`FlightRecorder`]. Every later hop extends this trace.
    pub fn record(&mut self, observation: Observation) {
        let trace = TraceId::for_observation(
            observation.device.raw(),
            observation.captured_at.as_millis(),
        );
        let captured_ms = observation.captured_at.as_millis();
        let sensed = FlightRecorder::global().record(
            SpanRecord::new(trace, Hop::Sensed, captured_ms)
                .attr("device", observation.device.to_string()),
        );
        self.buffer_traces.push(ObsTrace {
            ctx: TraceContext::new(trace).child_of(sensed),
            captured_ms,
        });
        self.buffer.push(observation);
    }

    /// Observations waiting to be sent.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Total observations successfully handed to the broker.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Total radio transfers performed.
    pub fn total_transfers(&self) -> u64 {
        self.total_transfers
    }

    /// Observations successfully shipped from the retry queue.
    pub fn retried_total(&self) -> u64 {
        self.retried_total
    }

    /// Observations shed from the retry queue — exhausted attempts or
    /// queue overflow. Counted degradation, never silent loss.
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// Uploads parked in the retry queue.
    pub fn queued_retries(&self) -> usize {
        self.retry_queue.len()
    }

    /// Observations across the parked uploads.
    pub fn retry_backlog(&self) -> usize {
        self.retry_queue.iter().map(|u| u.observations).sum()
    }

    /// When the next retry is due, if the client is backing off.
    pub fn next_retry_at(&self) -> Option<SimTime> {
        self.next_retry_at
    }

    /// Whether the client would transmit on this cycle if connected.
    pub fn wants_to_send(&self) -> bool {
        !self.buffer.is_empty() && self.buffer.len() >= self.version.buffer_size()
    }

    /// Runs the emission step of a measurement cycle: transmits pending
    /// observations if connected and due. Disconnected clients keep
    /// everything for the next cycle.
    ///
    /// # Errors
    ///
    /// Propagates broker errors (unknown exchange); the buffer is kept so
    /// the observations are retried on the next cycle.
    pub fn on_cycle(
        &mut self,
        broker: &(impl BrokerTransport + ?Sized),
        connected: bool,
    ) -> Result<SendOutcome, BrokerError> {
        if !connected || !self.wants_to_send() {
            return Ok(SendOutcome::default());
        }
        self.flush(broker)
    }

    /// Unconditionally transmits everything pending (used at journey end
    /// and app shutdown). Call only while connected.
    ///
    /// # Errors
    ///
    /// Propagates broker errors; the buffer is kept on failure.
    pub fn flush(
        &mut self,
        broker: &(impl BrokerTransport + ?Sized),
    ) -> Result<SendOutcome, BrokerError> {
        if self.buffer.is_empty() {
            return Ok(SendOutcome::default());
        }
        let outcome = if self.version.is_buffering() {
            // One batch message carrying the whole buffer.
            #[expect(
                clippy::expect_used,
                reason = "serde_json::to_vec of plain derived-Serialize structs cannot fail"
            )]
            let payload = serde_json::to_vec(&self.buffer).expect("observations serialize");
            broker.publish(&self.exchange, &self.routing_key, &payload)?;
            SendOutcome {
                transfers: 1,
                observations: self.buffer.len(),
            }
        } else {
            // One message — one transfer — per observation.
            let mut sent = 0;
            for obs in &self.buffer {
                #[expect(
                    clippy::expect_used,
                    reason = "serde_json::to_vec of plain derived-Serialize structs cannot fail"
                )]
                let payload = serde_json::to_vec(obs).expect("observation serializes");
                broker.publish(&self.exchange, &self.routing_key, &payload)?;
                sent += 1;
            }
            SendOutcome {
                transfers: sent,
                observations: sent,
            }
        };
        self.total_sent += outcome.observations as u64;
        self.total_transfers += outcome.transfers as u64;
        self.buffer.clear();
        // The direct broker path is untraced; the minted traces simply
        // stay open (the traced path is `on_cycle_at` / `flush_at`).
        self.buffer_traces.clear();
        Ok(outcome)
    }

    // ----- resilient upload path over a Link ------------------------------

    /// Runs the emission step of a cycle over a [`Link`] transport with
    /// retry/backoff: the retry backlog goes out first (once its backoff
    /// delay has elapsed), then fresh observations if due. A visible link
    /// failure parks the upload in the bounded retry queue and schedules a
    /// jittered exponential backoff — this method never errors.
    ///
    /// While a backlog exists, fresh traffic is held back: it would arrive
    /// out of order and most likely fail against the same link.
    pub fn on_cycle_at(&mut self, link: &impl Link, connected: bool, now: SimTime) -> SendOutcome {
        let mut outcome = SendOutcome::default();
        if !connected {
            return outcome;
        }
        self.drain_retries(link, now, &mut outcome);
        if self.retry_queue.is_empty() && self.wants_to_send() {
            self.send_fresh(link, now, &mut outcome);
        }
        outcome
    }

    /// Unconditionally transmits the retry backlog and everything pending
    /// over `link`, ignoring backoff delays and batch thresholds (journey
    /// end, app shutdown). Failures park the remainder for later.
    pub fn flush_at(&mut self, link: &impl Link, now: SimTime) -> SendOutcome {
        let mut outcome = SendOutcome::default();
        self.next_retry_at = None;
        self.drain_retries(link, now, &mut outcome);
        if self.retry_queue.is_empty() && !self.buffer.is_empty() {
            self.send_fresh(link, now, &mut outcome);
        }
        outcome
    }

    fn drain_retries(&mut self, link: &impl Link, now: SimTime, outcome: &mut SendOutcome) {
        if self.retry_queue.is_empty() || self.next_retry_at.is_some_and(|due| now < due) {
            return;
        }
        while let Some(mut upload) = self.retry_queue.pop_front() {
            telemetry().retry_attempts.inc();
            let trace = SendTrace::new(now.as_millis(), &upload.contexts);
            match link.send_traced(&self.routing_key, &upload.payload, &trace) {
                Ok(_) => {
                    record_retry_spans(&upload, Outcome::Retried, "shipped", now.as_millis());
                    outcome.transfers += 1;
                    outcome.observations += upload.observations;
                    self.total_transfers += 1;
                    self.total_sent += upload.observations as u64;
                    self.retried_total += upload.observations as u64;
                    telemetry().retry_success.inc();
                }
                Err(_) => {
                    telemetry().upload_failures.inc();
                    upload.attempts += 1;
                    let attempts = upload.attempts;
                    if attempts >= self.retry.max_attempts {
                        record_retry_spans(&upload, Outcome::Shed, "exhausted", now.as_millis());
                        self.shed_total += upload.observations as u64;
                        telemetry().retry_shed.inc();
                    } else {
                        // Not exhausted: back at the head, preserving order.
                        self.retry_queue.push_front(upload);
                    }
                    self.schedule_backoff(attempts, now);
                    return;
                }
            }
        }
        self.next_retry_at = None;
    }

    fn send_fresh(&mut self, link: &impl Link, now: SimTime, outcome: &mut SendOutcome) {
        let uploads = self.assemble_uploads(now.as_millis());
        let mut link_down = false;
        for mut upload in uploads {
            if !link_down {
                let trace = SendTrace::new(now.as_millis(), &upload.contexts);
                match link.send_traced(&self.routing_key, &upload.payload, &trace) {
                    Ok(_) => {
                        outcome.transfers += 1;
                        outcome.observations += upload.observations;
                        self.total_transfers += 1;
                        self.total_sent += upload.observations as u64;
                        continue;
                    }
                    Err(_) => {
                        telemetry().upload_failures.inc();
                        link_down = true;
                        upload.attempts = 1;
                        self.schedule_backoff(1, now);
                    }
                }
            }
            self.park(upload, now.as_millis());
        }
    }

    /// Serialises the buffer into uploads, closing each observation's
    /// `client_buffer` span (capture → assembly) and re-parenting its
    /// context under it so downstream spans hang off the buffer span.
    fn assemble_uploads(&mut self, now_ms: i64) -> Vec<PendingUpload> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        let contexts: Vec<TraceContext> = self
            .buffer_traces
            .drain(..)
            .map(|obs_trace| {
                let span = FlightRecorder::global().record(
                    SpanRecord::new(obs_trace.ctx.trace, Hop::ClientBuffer, now_ms)
                        .started_at(obs_trace.captured_ms)
                        .parent(obs_trace.ctx.parent)
                        .duplicate(obs_trace.ctx.duplicate),
                );
                TraceContext::new(obs_trace.ctx.trace).child_of(span)
            })
            .collect();
        if self.version.is_buffering() {
            #[expect(
                clippy::expect_used,
                reason = "serde_json::to_vec of plain derived-Serialize structs cannot fail"
            )]
            let payload = serde_json::to_vec(&self.buffer).expect("observations serialize");
            let observations = self.buffer.len();
            self.buffer.clear();
            vec![PendingUpload {
                payload,
                observations,
                attempts: 0,
                contexts,
                parked_at_ms: now_ms,
            }]
        } else {
            self.buffer
                .drain(..)
                .zip(contexts)
                .map(|(obs, ctx)| {
                    #[expect(
                        clippy::expect_used,
                        reason = "serde_json::to_vec of plain derived-Serialize structs cannot fail"
                    )]
                    let payload = serde_json::to_vec(&obs).expect("observation serializes");
                    PendingUpload {
                        payload,
                        observations: 1,
                        attempts: 0,
                        contexts: vec![ctx],
                        parked_at_ms: now_ms,
                    }
                })
                .collect()
        }
    }

    fn park(&mut self, mut upload: PendingUpload, now_ms: i64) {
        upload.parked_at_ms = now_ms;
        if self.retry_queue.len() >= self.retry.max_pending {
            if let Some(shed) = self.retry_queue.pop_front() {
                record_retry_spans(&shed, Outcome::Shed, "overflow", now_ms);
                self.shed_total += shed.observations as u64;
                telemetry().retry_shed.inc();
            } else {
                // max_pending == 0: nothing may park, so the fresh
                // upload itself is the one shed.
                record_retry_spans(&upload, Outcome::Shed, "overflow", now_ms);
                self.shed_total += upload.observations as u64;
                telemetry().retry_shed.inc();
                return;
            }
        }
        self.retry_queue.push_back(upload);
    }

    fn schedule_backoff(&mut self, attempt: u32, now: SimTime) {
        self.next_retry_at = Some(now + self.retry.backoff_delay(attempt, &mut self.retry_rng));
    }
}

/// Records one `retry_queue` span per observation in `upload`, covering
/// its residence in the queue (`parked_at_ms` → `now_ms`). `Retried`
/// marks a successful re-ship (non-terminal); `Shed` is terminal loss.
fn record_retry_spans(upload: &PendingUpload, outcome: Outcome, reason: &str, now_ms: i64) {
    for ctx in &upload.contexts {
        FlightRecorder::global().record(
            SpanRecord::new(ctx.trace, Hop::RetryQueue, now_ms)
                .started_at(upload.parked_at_ms)
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
    use mps_types::{DeviceModel, SimDuration, SoundLevel};

    fn broker() -> Broker {
        let b = Broker::new();
        b.declare_exchange("ex").unwrap();
        b.declare_queue("q").unwrap();
        b.bind_queue("ex", "q", "#").unwrap();
        b
    }

    fn obs(i: i64) -> Observation {
        Observation::builder()
            .device(1.into())
            .user(1.into())
            .model(DeviceModel::SonyD5803)
            .captured_at(SimTime::from_millis(i * 300_000))
            .spl(SoundLevel::new(45.0))
            .build()
    }

    fn client(version: AppVersion) -> GoFlowClient {
        GoFlowClient::new("ex", "c1.obs.noise.FR75013", version)
    }

    #[test]
    fn unbuffered_sends_each_cycle() {
        let b = broker();
        let mut c = client(AppVersion::V1_2_9);
        for i in 0..3 {
            c.record(obs(i));
            let sent = c.on_cycle(&b, true).unwrap();
            assert_eq!(sent.transfers, 1);
            assert_eq!(sent.observations, 1);
        }
        assert_eq!(b.queue_depth("q").unwrap(), 3);
        assert_eq!(c.total_sent(), 3);
        assert_eq!(c.total_transfers(), 3);
    }

    #[test]
    fn buffered_waits_for_ten() {
        let b = broker();
        let mut c = client(AppVersion::V1_3);
        for i in 0..9 {
            c.record(obs(i));
            let sent = c.on_cycle(&b, true).unwrap();
            assert_eq!(sent.transfers, 0, "cycle {i} must hold");
        }
        assert_eq!(c.pending(), 9);
        c.record(obs(9));
        let sent = c.on_cycle(&b, true).unwrap();
        assert_eq!(sent.transfers, 1);
        assert_eq!(sent.observations, 10);
        assert_eq!(c.pending(), 0);
        // One broker message carrying ten observations.
        assert_eq!(b.queue_depth("q").unwrap(), 1);
        let d = b.consume("q", 1).unwrap().remove(0);
        let batch: Vec<Observation> = serde_json::from_slice(d.payload()).unwrap();
        assert_eq!(batch.len(), 10);
    }

    #[test]
    fn disconnection_defers_to_next_cycle() {
        let b = broker();
        let mut c = client(AppVersion::V1_2_9);
        c.record(obs(0));
        let sent = c.on_cycle(&b, false).unwrap();
        assert_eq!(sent.transfers, 0);
        assert_eq!(c.pending(), 1);
        c.record(obs(1));
        // Reconnected: both go out, as two messages (unbuffered).
        let sent = c.on_cycle(&b, true).unwrap();
        assert_eq!(sent.transfers, 2);
        assert_eq!(sent.observations, 2);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn buffered_reconnect_ships_one_batch() {
        let b = broker();
        let mut c = client(AppVersion::V1_3);
        for i in 0..25 {
            c.record(obs(i));
            c.on_cycle(&b, false).unwrap();
        }
        let sent = c.on_cycle(&b, true).unwrap();
        assert_eq!(sent.transfers, 1, "all pending in one transfer");
        assert_eq!(sent.observations, 25);
    }

    #[test]
    fn flush_sends_partial_buffer() {
        let b = broker();
        let mut c = client(AppVersion::V1_3);
        for i in 0..4 {
            c.record(obs(i));
        }
        assert!(!c.wants_to_send());
        let sent = c.flush(&b).unwrap();
        assert_eq!(sent.observations, 4);
        assert_eq!(sent.transfers, 1);
        // Flushing an empty buffer is a no-op.
        assert_eq!(c.flush(&b).unwrap(), SendOutcome::default());
    }

    #[test]
    fn upgrade_keeps_pending() {
        let b = broker();
        let mut c = client(AppVersion::V1_1);
        c.record(obs(0));
        c.on_cycle(&b, false).unwrap();
        c.upgrade(AppVersion::V1_3);
        assert_eq!(c.version(), AppVersion::V1_3);
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn failed_publish_keeps_buffer() {
        let b = Broker::new(); // exchange missing
        let mut c = client(AppVersion::V1_2_9);
        c.record(obs(0));
        assert!(c.on_cycle(&b, true).is_err());
        assert_eq!(c.pending(), 1);
        assert_eq!(c.total_sent(), 0);
    }

    /// A `Link` that records payloads and can be told to fail sends.
    #[derive(Default)]
    struct FlakyLink {
        sent: std::cell::RefCell<Vec<Vec<u8>>>,
        failing: std::cell::Cell<bool>,
        attempts: std::cell::Cell<usize>,
    }

    impl Link for FlakyLink {
        fn send(&self, _route: &str, payload: &[u8]) -> Result<usize, LinkError> {
            self.attempts.set(self.attempts.get() + 1);
            if self.failing.get() {
                return Err(LinkError::Unavailable("flaky".into()));
            }
            self.sent.borrow_mut().push(payload.to_vec());
            Ok(1)
        }
    }

    #[test]
    fn on_cycle_at_ships_through_a_broker_link() {
        let b = broker();
        let link = BrokerLink::new(&b, "ex");
        let mut c = client(AppVersion::V1_2_9);
        c.record(obs(0));
        let sent = c.on_cycle_at(&link, true, SimTime::EPOCH);
        assert_eq!(sent.observations, 1);
        assert_eq!(b.queue_depth("q").unwrap(), 1);
        assert_eq!(c.total_sent(), 1);
        assert_eq!(c.queued_retries(), 0);
    }

    #[test]
    fn visible_failure_parks_and_backs_off() {
        let link = FlakyLink::default();
        link.failing.set(true);
        let mut c = client(AppVersion::V1_2_9);
        c.record(obs(0));
        let sent = c.on_cycle_at(&link, true, SimTime::EPOCH);
        assert_eq!(sent.observations, 0);
        assert_eq!(c.queued_retries(), 1);
        let due = c.next_retry_at().expect("backoff scheduled");
        assert!(due > SimTime::EPOCH);

        // Before the backoff elapses the link is not even attempted.
        link.failing.set(false);
        let before = link.attempts.get();
        c.on_cycle_at(&link, true, due - SimDuration::from_millis(1));
        assert_eq!(link.attempts.get(), before);
        assert_eq!(c.queued_retries(), 1);

        // Once due, the parked upload ships.
        let sent = c.on_cycle_at(&link, true, due);
        assert_eq!(sent.observations, 1);
        assert_eq!(c.queued_retries(), 0);
        assert_eq!(c.retried_total(), 1);
        assert_eq!(c.total_sent(), 1);
    }

    #[test]
    fn backoff_escalates_and_sheds_after_max_attempts() {
        let link = FlakyLink::default();
        link.failing.set(true);
        let policy = RetryPolicy {
            max_attempts: 3,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut c = client(AppVersion::V1_2_9).with_retry_policy(policy, 1);
        c.record(obs(0));
        let mut now = SimTime::EPOCH;
        c.on_cycle_at(&link, true, now); // fresh failure = attempt 1
        let mut delays = Vec::new();
        while c.queued_retries() > 0 {
            now = c.next_retry_at().expect("backing off");
            delays.push(now);
            c.on_cycle_at(&link, true, now);
        }
        // Attempts 2 and 3 happen from the queue; 3 hits the limit.
        assert_eq!(delays.len(), 2);
        assert_eq!(c.shed_total(), 1);
        assert_eq!(c.total_sent(), 0);
        // Without jitter the second gap is exactly twice the first.
        let gap1 = delays[0].since(SimTime::EPOCH);
        let gap2 = delays[1].since(delays[0]);
        assert_eq!(gap2.as_millis(), 2 * gap1.as_millis());
    }

    #[test]
    fn retry_queue_overflow_sheds_oldest_counted() {
        let link = FlakyLink::default();
        link.failing.set(true);
        let policy = RetryPolicy {
            max_pending: 2,
            ..RetryPolicy::default()
        };
        let mut c = client(AppVersion::V1_2_9).with_retry_policy(policy, 2);
        for i in 0..5 {
            c.record(obs(i));
        }
        c.on_cycle_at(&link, true, SimTime::EPOCH);
        assert_eq!(c.queued_retries(), 2, "bounded queue");
        assert_eq!(c.shed_total(), 3, "overflow is counted, not silent");
        assert_eq!(c.retry_backlog(), 2);
    }

    #[test]
    fn backlog_blocks_fresh_sends_until_cleared() {
        let link = FlakyLink::default();
        link.failing.set(true);
        let mut c = client(AppVersion::V1_2_9);
        c.record(obs(0));
        c.on_cycle_at(&link, true, SimTime::EPOCH);
        assert_eq!(c.queued_retries(), 1);

        // Link recovers, but a fresh observation arrives before the
        // backoff elapses: nothing ships yet, and the buffer holds.
        link.failing.set(false);
        c.record(obs(1));
        c.on_cycle_at(&link, true, SimTime::EPOCH);
        assert_eq!(c.pending(), 1);
        assert_eq!(link.sent.borrow().len(), 0);

        // At the due time the backlog ships first, then the fresh one.
        let due = c.next_retry_at().unwrap();
        let sent = c.on_cycle_at(&link, true, due);
        assert_eq!(sent.observations, 2);
        assert_eq!(c.queued_retries(), 0);
        assert_eq!(c.pending(), 0);
        // Order preserved: obs(0) before obs(1).
        let first: Observation = serde_json::from_slice(&link.sent.borrow()[0]).unwrap();
        assert_eq!(first.captured_at, SimTime::from_millis(0));
    }

    #[test]
    fn flush_at_ignores_backoff_and_thresholds() {
        let link = FlakyLink::default();
        link.failing.set(true);
        let mut c = client(AppVersion::V1_3);
        c.record(obs(0));
        c.flush_at(&link, SimTime::EPOCH);
        assert_eq!(c.queued_retries(), 1);

        link.failing.set(false);
        c.record(obs(1)); // far below the batch-of-10 threshold
        let sent = c.flush_at(&link, SimTime::EPOCH + SimDuration::from_millis(1));
        assert_eq!(sent.observations, 2);
        assert_eq!(c.queued_retries(), 0);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn traced_upload_attaches_context_headers() {
        use mps_telemetry::trace::parse_contexts;
        let device: u64 = 910_001;
        let b = broker();
        let link = BrokerLink::new(&b, "ex");
        let mut c = client(AppVersion::V1_2_9);
        let captured = SimTime::from_millis(300_000);
        c.record(
            Observation::builder()
                .device(device.into())
                .user(1.into())
                .model(DeviceModel::SonyD5803)
                .captured_at(captured)
                .spl(SoundLevel::new(45.0))
                .build(),
        );
        let now = SimTime::from_millis(360_000);
        let sent = c.on_cycle_at(&link, true, now);
        assert_eq!(sent.observations, 1);

        let d = b.consume("q", 1).unwrap().remove(0);
        let header = d.message.header(TRACE_HEADER).expect("trace header");
        let contexts = parse_contexts(header);
        assert_eq!(contexts.len(), 1);
        let trace = TraceId::for_observation(device, captured.as_millis());
        assert_eq!(contexts[0].trace, trace);
        assert!(contexts[0].parent.is_some(), "parented to client_buffer");
        assert!(!contexts[0].duplicate);
        assert_eq!(
            d.message.header(SENT_MS_HEADER),
            Some(now.as_millis().to_string().as_str())
        );

        let spans: Vec<_> = FlightRecorder::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        let sensed = spans.iter().find(|s| s.hop == Hop::Sensed).unwrap();
        let buffered = spans.iter().find(|s| s.hop == Hop::ClientBuffer).unwrap();
        assert_eq!(sensed.start_ms, captured.as_millis());
        assert_eq!(buffered.start_ms, captured.as_millis());
        assert_eq!(buffered.end_ms, now.as_millis());
        assert_eq!(buffered.parent, Some(sensed.span));
    }

    #[test]
    fn shed_uploads_record_terminal_spans() {
        let device: u64 = 910_002;
        let link = FlakyLink::default();
        link.failing.set(true);
        let policy = RetryPolicy {
            max_attempts: 2,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut c = client(AppVersion::V1_2_9).with_retry_policy(policy, 3);
        let captured = SimTime::EPOCH;
        c.record(
            Observation::builder()
                .device(device.into())
                .user(1.into())
                .model(DeviceModel::SonyD5803)
                .captured_at(captured)
                .spl(SoundLevel::new(45.0))
                .build(),
        );
        let mut now = SimTime::EPOCH;
        c.on_cycle_at(&link, true, now); // fresh failure = attempt 1
        while c.queued_retries() > 0 {
            now = c.next_retry_at().expect("backing off");
            c.on_cycle_at(&link, true, now);
        }
        assert_eq!(c.shed_total(), 1);

        let trace = TraceId::for_observation(device, captured.as_millis());
        let spans: Vec<_> = FlightRecorder::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        let shed: Vec<_> = spans
            .iter()
            .filter(|s| s.outcome == Outcome::Shed)
            .collect();
        assert_eq!(shed.len(), 1, "exactly one terminal shed span");
        assert_eq!(shed[0].hop, Hop::RetryQueue);
        assert!(shed[0]
            .attrs
            .iter()
            .any(|(k, v)| *k == "reason" && v == "exhausted"));
        assert_eq!(shed[0].end_ms, now.as_millis());
    }

    #[test]
    fn transfer_accounting_favors_buffering() {
        let b = broker();
        let mut unbuffered = client(AppVersion::V1_2_9);
        let mut buffered = client(AppVersion::V1_3);
        for i in 0..100 {
            unbuffered.record(obs(i));
            unbuffered.on_cycle(&b, true).unwrap();
            buffered.record(obs(i));
            buffered.on_cycle(&b, true).unwrap();
        }
        assert_eq!(unbuffered.total_transfers(), 100);
        assert_eq!(buffered.total_transfers(), 10);
        assert_eq!(unbuffered.total_sent(), buffered.total_sent());
    }
}
