//! The broker: exchanges, queues, bindings, publish/consume.

use crate::durability::{self, DurabilityConfig, MessageView, QueueSnapshot};
use crate::metrics::MetricsSnapshot;
use crate::router::{RouteCache, TopicTrie};
use crate::topic::CompiledPattern;
use crate::{BindingPattern, BrokerError, BrokerMetrics, Delivery, Message, RoutingKey};
use mps_telemetry::trace::{
    encode_contexts, parse_contexts, FlightRecorder, Hop, Outcome, SpanRecord, SENT_MS_HEADER,
    TRACE_HEADER,
};
use mps_wal::{Journal, Rank, Ranked};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Target {
    Queue(String),
    Exchange(String),
}

#[derive(Debug, Clone)]
pub(crate) struct Binding {
    pub(crate) pattern: BindingPattern,
    /// Pre-split pattern, compiled once at bind time — the publish path
    /// never re-parses the pattern string.
    compiled: CompiledPattern,
    pub(crate) target: Target,
}

/// A topic exchange: its bindings, and the trie that routes by them.
#[derive(Debug, Default)]
pub(crate) struct ExchangeState {
    pub(crate) bindings: Vec<Binding>,
    /// Routing index over `bindings`; rebuilt whenever bindings are
    /// removed, appended to on bind. Binding ids are positions in
    /// `bindings`.
    trie: TopicTrie,
}

impl ExchangeState {
    /// Appends a binding unless an identical one exists; returns whether
    /// the topology changed.
    fn add_binding(&mut self, binding: Binding) -> bool {
        if self
            .bindings
            .iter()
            .any(|b| b.pattern == binding.pattern && b.target == binding.target)
        {
            return false;
        }
        self.trie.insert(&binding.compiled, self.bindings.len());
        self.bindings.push(binding);
        true
    }

    /// Drops bindings failing `keep`; returns whether any were removed
    /// (the index is rebuilt, since removal renumbers binding ids).
    fn retain_bindings(&mut self, keep: impl Fn(&Binding) -> bool) -> bool {
        let before = self.bindings.len();
        self.bindings.retain(|b| keep(b));
        if self.bindings.len() == before {
            return false;
        }
        self.trie = self.bindings.iter().map(|b| &b.compiled).collect();
        true
    }
}

/// A queue's dead-letter policy: after a message has been delivered
/// `max_delivery_attempts` times and nacked back each time, the next nack
/// moves it to the `target` queue instead of requeueing it — the AMQP
/// dead-letter-exchange pattern, which keeps poison messages from cycling
/// through a consumer forever while never losing them silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetterPolicy {
    /// Deliveries a message may consume before it is dead-lettered.
    pub max_delivery_attempts: u32,
    /// Queue that receives exhausted messages.
    pub target: String,
}

/// A message copy on a queue: the message, the number of times it was
/// delivered and its durable id (0 on in-memory brokers). Ready, the
/// count is of past deliveries (0 = fresh, > 0 = redelivery); unacked, it
/// includes the one in flight.
pub(crate) type Queued = (Arc<Message>, u32, u64);

#[derive(Debug, Default)]
pub(crate) struct QueueState {
    /// Ready messages, front first.
    pub(crate) ready: VecDeque<Queued>,
    /// Unacked deliveries, keyed by tag.
    pub(crate) unacked: BTreeMap<u64, Queued>,
    next_tag: u64,
    pub(crate) enqueued_total: u64,
    pub(crate) dead_letter: Option<DeadLetterPolicy>,
}

/// The broker's state: what a durable broker's log and snapshot rebuild,
/// through the same methods the live calls change it with.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) exchanges: BTreeMap<String, ExchangeState>,
    pub(crate) queues: BTreeMap<String, QueueState>,
    /// Next durable id to assign to an enqueued message copy; starts at
    /// 1 on durable brokers, unused (0) on in-memory ones.
    pub(crate) next_durable_id: u64,
    /// Memoized `(entry exchange, key)` → destination-queue sets;
    /// invalidated on every bind and delete.
    route_cache: RouteCache,
}

impl State {
    /// Message copies a snapshot taken now would hold: ready and unacked.
    fn copies(&self) -> u64 {
        let copies = |q: &QueueState| q.ready.len() + q.unacked.len();
        self.queues.values().map(copies).sum::<usize>() as u64
    }

    /// Declares exchange `name`; returns whether it is new.
    pub(crate) fn declare_exchange(&mut self, name: &str) -> bool {
        if self.exchanges.contains_key(name) {
            return false;
        }
        self.exchanges
            .insert(name.to_owned(), ExchangeState::default());
        true
    }

    /// Declares queue `name`; returns whether it is new.
    pub(crate) fn declare_queue(&mut self, name: &str) -> bool {
        if self.queues.contains_key(name) {
            return false;
        }
        self.queues.insert(name.to_owned(), QueueState::default());
        true
    }

    /// Binds `target` to `exchange` by `pattern`; both must exist.
    /// Returns whether the topology changed.
    pub(crate) fn bind(
        &mut self,
        exchange: &str,
        pattern: BindingPattern,
        target: Target,
    ) -> Result<bool, BrokerError> {
        match &target {
            Target::Queue(q) if !self.queues.contains_key(q) => {
                return Err(BrokerError::QueueNotFound(q.clone()));
            }
            Target::Exchange(e) if !self.exchanges.contains_key(e) => {
                return Err(BrokerError::ExchangeNotFound(e.clone()));
            }
            _ => {}
        }
        let ex = self
            .exchanges
            .get_mut(exchange)
            .ok_or_else(|| BrokerError::ExchangeNotFound(exchange.into()))?;
        let compiled = CompiledPattern::new(&pattern);
        let changed = ex.add_binding(Binding {
            pattern,
            compiled,
            target,
        });
        if changed {
            self.invalidate_routes_through(exchange);
        }
        Ok(changed)
    }

    /// Cached routes entering through any exchange that reaches
    /// `exchange` may traverse it: those are stale.
    fn invalidate_routes_through(&mut self, exchange: &str) {
        let affected = exchanges_reaching(&self.exchanges, exchange);
        self.route_cache.invalidate_exchanges(&affected);
    }

    /// Deletes exchange `name` and every binding pointing at it.
    pub(crate) fn delete_exchange(&mut self, name: &str) -> Result<(), BrokerError> {
        if !self.exchanges.contains_key(name) {
            return Err(BrokerError::ExchangeNotFound(name.into()));
        }
        // Computed before the removal, while the doomed exchange still
        // links its feeders.
        let affected = exchanges_reaching(&self.exchanges, name);
        self.exchanges.remove(name);
        let gone = Target::Exchange(name.to_owned());
        for ex in self.exchanges.values_mut() {
            ex.retain_bindings(|b| b.target != gone);
        }
        self.route_cache.invalidate_exchanges(&affected);
        Ok(())
    }

    /// Deletes queue `name` with its messages, and every binding pointing
    /// at it. Dead-letter policies naming it stay, as they were set.
    pub(crate) fn delete_queue(&mut self, name: &str) -> Result<(), BrokerError> {
        if self.queues.remove(name).is_none() {
            return Err(BrokerError::QueueNotFound(name.into()));
        }
        let gone = Target::Queue(name.to_owned());
        let mut touched: Vec<String> = Vec::new();
        for (ex_name, ex) in self.exchanges.iter_mut() {
            if ex.retain_bindings(|b| b.target != gone) {
                touched.push(ex_name.clone());
            }
        }
        // Only routes that could name the deleted queue are stale: those
        // entering through an exchange that reaches one that bound it.
        let mut affected = BTreeSet::new();
        for ex_name in &touched {
            affected.extend(exchanges_reaching(&self.exchanges, ex_name));
        }
        self.route_cache.invalidate_exchanges(&affected);
        Ok(())
    }

    /// Sets `queue`'s dead-letter policy; returns whether it changed.
    pub(crate) fn set_dead_letter(
        &mut self,
        queue: &str,
        policy: DeadLetterPolicy,
    ) -> Result<bool, BrokerError> {
        let q = self
            .queues
            .get_mut(queue)
            .ok_or_else(|| BrokerError::QueueNotFound(queue.into()))?;
        let changed = q.dead_letter.as_ref() != Some(&policy);
        q.dead_letter = Some(policy);
        Ok(changed)
    }
}

/// Management view of an exchange (every exchange is a topic exchange).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeInfo {
    /// Exchange name.
    pub name: String,
    /// Number of bindings out of this exchange.
    pub bindings: usize,
}

/// Management view of a queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueInfo {
    /// Queue name.
    pub name: String,
    /// Messages ready for delivery.
    pub ready: usize,
    /// Messages delivered but not yet acknowledged.
    pub unacked: usize,
    /// Total messages ever enqueued.
    pub enqueued_total: u64,
    /// The queue's dead-letter policy, if it has one.
    pub dead_letter: Option<DeadLetterPolicy>,
}

/// An in-process AMQP-style message broker.
///
/// See the [crate documentation](crate) for the model and an example. All
/// methods take `&self`; the broker is internally synchronised and can be
/// shared across threads behind an [`Arc`].
///
/// Brokers are in-memory by default; [`Broker::open_durable`]
/// write-ahead-logs every queue transition and replays the log on reopen
/// — see [`mod@crate::durability`].
#[derive(Debug)]
pub struct Broker {
    state: Ranked<State>,
    metrics: BrokerMetrics,
    journal: Option<Journal>,
}

impl Default for Broker {
    fn default() -> Self {
        Self {
            state: Ranked::new(Rank::BrokerState, State::default()),
            metrics: BrokerMetrics::default(),
            journal: None,
        }
    }
}

impl Broker {
    /// Creates an empty broker (no exchanges, no queues).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a durable broker: recovers topology and queue contents from
    /// the log in `config.dir` (creating it on first open) and
    /// write-ahead-logs every subsequent declaration and queue
    /// transition.
    ///
    /// Topology (exchanges, bindings, dead-letter policies) is persisted
    /// and restored with the messages, so applications need not
    /// re-declare anything on startup (re-declaring stays idempotent and
    /// keeps recovered messages). Messages that were unacked at the
    /// crash come back as ready (at-least-once).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Durability`] if the log cannot be opened
    /// or replayed.
    pub fn open_durable(config: DurabilityConfig) -> Result<Self, BrokerError> {
        let mut state = State::default();
        let journal = Journal::open(&config, |recovered| {
            durability::replay(&mut state, recovered)
        })?;
        Ok(Self {
            state: Ranked::new(Rank::BrokerState, state),
            metrics: BrokerMetrics::default(),
            journal: Some(journal),
        })
    }

    /// Whether this broker write-ahead-logs its queue transitions.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Snapshots the full queue state into the log and compacts covered
    /// segments. Returns the LSN the snapshot covers through.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Durability`] on an in-memory broker or if
    /// the snapshot cannot be written.
    pub fn checkpoint(&self) -> Result<u64, BrokerError> {
        let journal = self
            .journal
            .as_ref()
            .ok_or_else(|| BrokerError::Durability("broker is not durable".into()))?;
        let state = self.state.lock();
        let export = || durability::encode_snapshot(&state);
        Ok(journal.lock().snapshot(state.copies(), export)?)
    }

    /// Makes one call's `deltas` durable as one group commit, under the
    /// state lock the caller holds (state → journal), and snapshots
    /// `state` when the journal's cadence says so. An in-memory broker
    /// builds no delta.
    fn commit<D: IntoIterator<Item = Value>>(
        &self,
        state: &State,
        deltas: impl FnOnce() -> D,
    ) -> Result<(), BrokerError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let records: Vec<Vec<u8>> = deltas()
            .into_iter()
            .map(|delta| delta.to_string().into_bytes())
            .collect();
        let export = || durability::encode_snapshot(state);
        Ok(journal.lock().commit(&records, state.copies(), export)?)
    }

    /// Management view of one queue's full message state — ready and
    /// unacked copies in order, with durable ids and delivery counts.
    /// Two recovered brokers with equal snapshots hold identical state.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::QueueNotFound`] if the queue does not exist.
    pub fn queue_snapshot(&self, name: &str) -> Result<QueueSnapshot, BrokerError> {
        let state = self.state.lock();
        let q = state
            .queues
            .get(name)
            .ok_or_else(|| BrokerError::QueueNotFound(name.into()))?;
        let view = |(m, deliveries, id): &Queued| MessageView {
            durable_id: *id,
            deliveries: *deliveries,
            key: m.routing_key().as_str().to_owned(),
            payload: m.payload().to_vec(),
        };
        Ok(QueueSnapshot {
            name: name.to_owned(),
            ready: q.ready.iter().map(view).collect(),
            unacked: q.unacked.values().map(view).collect(),
        })
    }

    // ----- management -----------------------------------------------------

    /// Declares a topic exchange. Redeclaring is a no-op (and logs
    /// nothing on a durable broker).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Durability`] if a durable broker fails to
    /// log the declaration.
    pub fn declare_exchange(&self, name: &str) -> Result<(), BrokerError> {
        let mut state = self.state.lock();
        if state.declare_exchange(name) {
            self.commit(&state, || [durability::declare_exchange_delta(name)])?;
        }
        Ok(())
    }

    /// Declares an unbounded queue. Redeclaring is a no-op (and logs
    /// nothing on a durable broker).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Durability`] if a durable broker fails to
    /// log the declaration.
    pub fn declare_queue(&self, name: &str) -> Result<(), BrokerError> {
        let mut state = self.state.lock();
        if state.declare_queue(name) {
            self.commit(&state, || [durability::declare_queue_delta(name)])?;
        }
        Ok(())
    }

    /// Binds `queue` to `exchange` with a topic `pattern`. Duplicate
    /// bindings are idempotent.
    ///
    /// # Errors
    ///
    /// Returns a not-found error if either endpoint is missing, or
    /// [`BrokerError::InvalidKey`] for a malformed pattern.
    pub fn bind_queue(
        &self,
        exchange: &str,
        queue: &str,
        pattern: &str,
    ) -> Result<(), BrokerError> {
        let parsed = BindingPattern::new(pattern)?;
        let mut state = self.state.lock();
        if state.bind(exchange, parsed, Target::Queue(queue.to_owned()))? {
            self.commit(&state, || {
                [durability::bind_queue_delta(exchange, queue, pattern)]
            })?;
        }
        Ok(())
    }

    /// Binds exchange `destination` to exchange `source`: messages routed
    /// by `source` whose key matches `pattern` are re-routed through
    /// `destination` (AMQP exchange-to-exchange binding, used by GoFlow to
    /// chain client exchanges into the application exchange).
    ///
    /// # Errors
    ///
    /// Returns a not-found error if either exchange is missing, or
    /// [`BrokerError::InvalidKey`] for a malformed pattern.
    pub fn bind_exchange(
        &self,
        source: &str,
        destination: &str,
        pattern: &str,
    ) -> Result<(), BrokerError> {
        let parsed = BindingPattern::new(pattern)?;
        let mut state = self.state.lock();
        if state.bind(source, parsed, Target::Exchange(destination.to_owned()))? {
            self.commit(&state, || {
                [durability::bind_exchange_delta(
                    source,
                    destination,
                    pattern,
                )]
            })?;
        }
        Ok(())
    }

    /// Deletes an exchange and every binding pointing at it.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::ExchangeNotFound`] if it does not exist, or
    /// [`BrokerError::Durability`] if a durable broker fails to log the
    /// deletion.
    pub fn delete_exchange(&self, name: &str) -> Result<(), BrokerError> {
        let mut state = self.state.lock();
        state.delete_exchange(name)?;
        self.commit(&state, || [durability::delete_exchange_delta(name)])
    }

    /// Deletes a queue (with its messages) and every binding pointing at
    /// it. A dead-letter policy that names it stays: until a queue of
    /// that name is declared again, what it would dead-letter is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::QueueNotFound`] if it does not exist, or
    /// [`BrokerError::Durability`] if a durable broker fails to log the
    /// deletion.
    pub fn delete_queue(&self, name: &str) -> Result<(), BrokerError> {
        let mut state = self.state.lock();
        state.delete_queue(name)?;
        self.commit(&state, || [durability::delete_queue_delta(name)])
    }

    /// Discards all ready messages in a queue, returning how many were
    /// dropped (unacked deliveries are unaffected, as in AMQP `purge`).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::QueueNotFound`] if the queue does not
    /// exist, or [`BrokerError::Durability`] if a durable broker fails
    /// to log the purge.
    pub fn purge_queue(&self, name: &str) -> Result<usize, BrokerError> {
        let mut state = self.state.lock();
        let q = state
            .queues
            .get_mut(name)
            .ok_or_else(|| BrokerError::QueueNotFound(name.into()))?;
        let purged = std::mem::take(&mut q.ready);
        self.commit(&state, || {
            let ids: Vec<u64> = purged.iter().map(|(_, _, id)| *id).collect();
            (!ids.is_empty()).then(|| durability::purge_delta(name, &ids))
        })?;
        Ok(purged.len())
    }

    /// Lists all exchanges in name order.
    pub fn exchanges(&self) -> Vec<ExchangeInfo> {
        let state = self.state.lock();
        state
            .exchanges
            .iter()
            .map(|(name, ex)| ExchangeInfo {
                name: name.clone(),
                bindings: ex.bindings.len(),
            })
            .collect()
    }

    /// Lists all queues in name order.
    pub fn queues(&self) -> Vec<QueueInfo> {
        let state = self.state.lock();
        state
            .queues
            .iter()
            .map(|(name, q)| QueueInfo {
                name: name.clone(),
                ready: q.ready.len(),
                unacked: q.unacked.len(),
                enqueued_total: q.enqueued_total,
                dead_letter: q.dead_letter.clone(),
            })
            .collect()
    }

    /// Attaches a [`DeadLetterPolicy`] to `queue`: once a message has been
    /// delivered `max_delivery_attempts` times and nacked back with
    /// `requeue` each time, the next nack moves it to `target` instead of
    /// requeueing it. Both queues must already exist; reconfiguring
    /// replaces the previous policy.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::QueueNotFound`] if either queue is missing
    /// and [`BrokerError::InvalidDeadLetter`] if the policy is ill-formed
    /// (zero attempts, or a queue dead-lettering to itself).
    pub fn configure_dead_letter(
        &self,
        queue: &str,
        max_delivery_attempts: u32,
        target: &str,
    ) -> Result<(), BrokerError> {
        if max_delivery_attempts == 0 {
            return Err(BrokerError::InvalidDeadLetter(
                "max_delivery_attempts must be at least 1".into(),
            ));
        }
        if queue == target {
            return Err(BrokerError::InvalidDeadLetter(format!(
                "queue {queue:?} cannot dead-letter to itself"
            )));
        }
        let mut state = self.state.lock();
        if !state.queues.contains_key(target) {
            return Err(BrokerError::QueueNotFound(target.into()));
        }
        let policy = DeadLetterPolicy {
            max_delivery_attempts,
            target: target.to_owned(),
        };
        if state.set_dead_letter(queue, policy)? {
            self.commit(&state, || {
                let delta = durability::dead_letter_policy_delta;
                [delta(queue, max_delivery_attempts, target)]
            })?;
        }
        Ok(())
    }

    /// Number of ready messages in a queue.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::QueueNotFound`] if the queue does not exist.
    pub fn queue_depth(&self, name: &str) -> Result<usize, BrokerError> {
        let state = self.state.lock();
        state
            .queues
            .get(name)
            .map(|q| q.ready.len())
            .ok_or_else(|| BrokerError::QueueNotFound(name.into()))
    }

    // ----- publish / consume ----------------------------------------------

    /// Publishes a payload to `exchange` with routing key `key`. Returns
    /// the number of queues the message was enqueued on (0 means the
    /// message was unroutable and dropped, as with an unset AMQP
    /// `mandatory` flag).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::ExchangeNotFound`] for an unknown exchange or
    /// [`BrokerError::InvalidKey`] for a malformed routing key.
    pub fn publish(
        &self,
        exchange: &str,
        key: &str,
        payload: impl Into<Arc<[u8]>>,
    ) -> Result<usize, BrokerError> {
        let key = RoutingKey::new(key)?;
        self.publish_message(exchange, Message::new(key, payload))
    }

    /// Publishes a prepared [`Message`] to `exchange`. See
    /// [`Broker::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::ExchangeNotFound`] for an unknown exchange.
    pub fn publish_message(&self, exchange: &str, message: Message) -> Result<usize, BrokerError> {
        let mut state = self.state.lock();
        if !state.exchanges.contains_key(exchange) {
            return Err(BrokerError::ExchangeNotFound(exchange.into()));
        }
        self.metrics.on_publish();

        // Destination set: served from the routing-result cache when the
        // topology has not changed since this (exchange, key) was last
        // routed, else recomputed by the indexed breadth-first walk.
        let key = message.routing_key().clone();
        let route = match state.route_cache.get(exchange, key.as_str()) {
            Some(cached) => {
                self.metrics.on_route_cache_hit();
                cached
            }
            None => {
                self.metrics.on_route_cache_miss();
                let routed = Arc::new(compute_route(&state, exchange, &key));
                state
                    .route_cache
                    .insert(exchange, key.as_str(), Arc::clone(&routed));
                routed
            }
        };

        // Deleting a queue drops the cached routes that could name it, so
        // every queue a route names should exist; the filter makes sure.
        let targets: Vec<&str> = route
            .iter()
            .map(String::as_str)
            .filter(|queue| state.queues.contains_key(*queue))
            .collect();
        let enqueued = targets.len();
        // Re-parent the trace header under the broker-publish span, which
        // carries the routed count, before freezing the message.
        let message = trace_publish(message, enqueued);

        let shared = Arc::new(message);
        // A durable id per copy, in route order; 0 on in-memory brokers.
        let durable = self.journal.is_some();
        let first_id = state.next_durable_id;
        for (queue_name, id) in targets.iter().zip(first_id..) {
            let id = if durable { id } else { 0 };
            #[expect(
                clippy::expect_used,
                reason = "targets were filtered to existing queues under the same lock; no deletion can interleave"
            )]
            let q = state
                .queues
                .get_mut(*queue_name)
                .expect("targets are existing queues");
            q.ready.push_back((Arc::clone(&shared), 0, id));
            q.enqueued_total += 1;
            self.metrics.sample_queue_depth(queue_name, q.ready.len());
        }
        if durable {
            state.next_durable_id += enqueued as u64;
        }
        // One group-committed append (one fsync) covers the whole fan-out.
        self.commit(&state, || {
            let copies = targets.iter().zip(first_id..);
            copies.map(|(queue, id)| durability::enqueue_delta(queue, &shared, id))
        })?;
        self.metrics.on_routed(enqueued as u64);
        Ok(enqueued)
    }

    /// Takes up to `max` ready messages from a queue. Delivered messages
    /// move to the unacked set until [`Broker::ack`]ed or
    /// [`Broker::nack`]ed.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::QueueNotFound`] if the queue does not exist.
    pub fn consume(&self, queue: &str, max: usize) -> Result<Vec<Delivery>, BrokerError> {
        let mut state = self.state.lock();
        let q = state
            .queues
            .get_mut(queue)
            .ok_or_else(|| BrokerError::QueueNotFound(queue.into()))?;
        let n = max.min(q.ready.len());
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some((message, prior_deliveries, durable_id)) = q.ready.pop_front() else {
                break;
            };
            let tag = q.next_tag;
            q.next_tag += 1;
            // Deliveries are deliberately not logged: an unacked message
            // is restored as ready on recovery (at-least-once).
            q.unacked.insert(
                tag,
                (Arc::clone(&message), prior_deliveries + 1, durable_id),
            );
            out.push(Delivery {
                tag,
                message,
                redelivered: prior_deliveries > 0,
            });
        }
        self.metrics.sample_queue_depth(queue, q.ready.len());
        self.metrics.on_delivered(out.len() as u64);
        Ok(out)
    }

    /// Acknowledges a delivery, removing it from the unacked set. On a
    /// durable broker the ack is logged, so the message is never
    /// resurrected by recovery.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownDeliveryTag`] for an unknown tag,
    /// [`BrokerError::QueueNotFound`] for an unknown queue, and
    /// [`BrokerError::Durability`] if logging the ack fails.
    pub fn ack(&self, queue: &str, tag: u64) -> Result<(), BrokerError> {
        self.ack_many(queue, &[tag])
    }

    /// Acknowledges a batch of deliveries from one queue with a single
    /// group-committed log append — one fsync settles the whole batch,
    /// the hot-path counterpart of per-delivery [`Broker::ack`] used by
    /// batched ingest. Tags are settled in order; on the first unknown
    /// tag the acks gathered so far are still committed and the error is
    /// returned.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownDeliveryTag`] for an unknown tag,
    /// [`BrokerError::QueueNotFound`] for an unknown queue, and
    /// [`BrokerError::Durability`] if logging the batch fails.
    pub fn ack_many(&self, queue: &str, tags: &[u64]) -> Result<(), BrokerError> {
        if tags.is_empty() {
            return Ok(());
        }
        let mut state = self.state.lock();
        let q = state
            .queues
            .get_mut(queue)
            .ok_or_else(|| BrokerError::QueueNotFound(queue.into()))?;
        let mut ids = Vec::with_capacity(tags.len());
        let mut unknown = None;
        for &tag in tags {
            match q.unacked.remove(&tag) {
                Some((_, _, durable_id)) => ids.push(durable_id),
                None => {
                    unknown = Some(tag);
                    break;
                }
            }
        }
        let depth = q.ready.len();
        self.commit(&state, || {
            ids.iter().map(|&id| durability::ack_delta(queue, id))
        })?;
        self.metrics.on_acked_many(ids.len() as u64);
        self.metrics.sample_queue_depth(queue, depth);
        match unknown {
            None => Ok(()),
            Some(tag) => Err(BrokerError::UnknownDeliveryTag {
                queue: queue.into(),
                tag,
            }),
        }
    }

    /// Negatively acknowledges a delivery. With `requeue`, the message
    /// returns to the **front** of the queue flagged as redelivered —
    /// unless the queue's [`DeadLetterPolicy`] is exhausted, in which case
    /// the message moves to the dead-letter queue instead. Without
    /// `requeue` it is discarded. Every nack counts as a delivery failure
    /// in the metrics.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownDeliveryTag`] for an unknown tag,
    /// [`BrokerError::QueueNotFound`] for an unknown queue, and
    /// [`BrokerError::Durability`] if a durable broker fails to log the
    /// transition.
    pub fn nack(&self, queue: &str, tag: u64, requeue: bool) -> Result<(), BrokerError> {
        let mut state = self.state.lock();
        let (message, attempts, durable_id, dead_letter_to) = {
            let q = state
                .queues
                .get_mut(queue)
                .ok_or_else(|| BrokerError::QueueNotFound(queue.into()))?;
            let (message, attempts, durable_id) =
                q.unacked
                    .remove(&tag)
                    .ok_or(BrokerError::UnknownDeliveryTag {
                        queue: queue.into(),
                        tag,
                    })?;
            let dead_letter_to = q
                .dead_letter
                .as_ref()
                .filter(|policy| attempts >= policy.max_delivery_attempts)
                .map(|policy| policy.target.clone());
            (message, attempts, durable_id, dead_letter_to)
        };
        self.metrics.on_delivery_failed();
        let durable_on = self.journal.is_some();
        let delta = if !requeue {
            self.metrics.on_dropped();
            trace_message_terminal(
                &message,
                Hop::BrokerDlq,
                Outcome::Dropped,
                &[("reason", "nack_discarded"), ("queue", queue)],
            );
            durable_on.then(|| durability::discard_delta(queue, durable_id))
        } else {
            match dead_letter_to {
                None => match state.queues.get_mut(queue) {
                    Some(q) => {
                        q.ready.push_front((message, attempts, durable_id));
                        self.metrics.on_requeued();
                        self.metrics.sample_queue_depth(queue, q.ready.len());
                        durable_on.then(|| durability::requeue_delta(queue, durable_id, attempts))
                    }
                    // The home queue cannot vanish while we hold the lock,
                    // but if it ever did, degrade to a counted drop — never
                    // a panic, never a silent loss. No delta: deleting the
                    // queue already logged the removal of its messages.
                    None => {
                        self.metrics.on_dropped();
                        trace_message_terminal(
                            &message,
                            Hop::BrokerDlq,
                            Outcome::Dropped,
                            &[("reason", "queue_vanished"), ("queue", queue)],
                        );
                        None
                    }
                },
                // Delivery attempts are exhausted: the message leaves its home
                // queue for good. A deleted dead-letter queue degrades to a
                // counted drop — never a silent loss.
                Some(target) => match state.queues.get_mut(&target) {
                    Some(dlq) => {
                        dlq.ready.push_back((Arc::clone(&message), 0, durable_id));
                        dlq.enqueued_total += 1;
                        self.metrics.on_dead_lettered();
                        self.metrics.sample_dlq_depth(&target, dlq.ready.len());
                        trace_message_terminal(
                            &message,
                            Hop::BrokerDlq,
                            Outcome::DeadLettered,
                            &[("attempts", &attempts.to_string()), ("to", &target)],
                        );
                        durable_on
                            .then(|| durability::dead_letter_delta(queue, durable_id, &target))
                    }
                    None => {
                        self.metrics.on_dropped();
                        trace_message_terminal(
                            &message,
                            Hop::BrokerDlq,
                            Outcome::Dropped,
                            &[("reason", "dlq_unavailable"), ("to", &target)],
                        );
                        durable_on.then(|| durability::discard_delta(queue, durable_id))
                    }
                },
            }
        };
        self.commit(&state, || delta)
    }

    /// Snapshot of the broker counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// The set of exchanges from which `changed` is reachable over
/// exchange-to-exchange bindings, including `changed` itself — exactly
/// the route-cache entry points whose memoized destination sets could
/// traverse the changed exchange. Fixpoint over the reversed binding
/// graph; topologies are small and topology changes rare, so the
/// quadratic sweep is fine.
fn exchanges_reaching(
    exchanges: &BTreeMap<String, ExchangeState>,
    changed: &str,
) -> BTreeSet<String> {
    let mut reaching: BTreeSet<String> = BTreeSet::new();
    reaching.insert(changed.to_owned());
    loop {
        let mut grew = false;
        for (name, ex) in exchanges {
            if reaching.contains(name) {
                continue;
            }
            let feeds = ex.bindings.iter().any(|b| match &b.target {
                Target::Exchange(dst) => reaching.contains(dst),
                Target::Queue(_) => false,
            });
            if feeds {
                reaching.insert(name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    reaching
}

/// Breadth-first walk across exchange-to-exchange bindings from `entry`,
/// matching `key` against each exchange's routing index, with a visited
/// set for cycle safety. Target queues are deduplicated so a message
/// lands at most once per queue (AMQP semantics); the result is sorted
/// and cacheable — it depends only on the binding topology, never on
/// queue fill.
fn compute_route(state: &State, entry: &str, key: &RoutingKey) -> Vec<String> {
    let key_words: Vec<&str> = key.as_str().split('.').collect();
    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut frontier: VecDeque<String> = VecDeque::new();
    let mut targets: BTreeSet<String> = BTreeSet::new();
    visited.insert(entry.to_owned());
    frontier.push_back(entry.to_owned());
    while let Some(name) = frontier.pop_front() {
        let Some(ex) = state.exchanges.get(&name) else {
            continue;
        };
        for id in ex.trie.matches(&key_words) {
            let Some(binding) = ex.bindings.get(id) else {
                continue;
            };
            match &binding.target {
                Target::Queue(q) => {
                    targets.insert(q.clone());
                }
                Target::Exchange(e) => {
                    if visited.insert(e.clone()) {
                        frontier.push_back(e.clone());
                    }
                }
            }
        }
    }
    targets.into_iter().collect()
}

/// Records one `broker_publish` span per trace context carried in the
/// message's `x-trace` header and re-parents the header under those
/// spans. A publish that lands on no queue is a terminal counted drop
/// (`unroutable`); the broker is time-agnostic, so spans are stamped
/// with the sender's `x-trace-sent-ms`. Untraced messages pass through
/// unchanged.
fn trace_publish(message: Message, enqueued: usize) -> Message {
    let Some(header) = message.header(TRACE_HEADER) else {
        return message;
    };
    let contexts = parse_contexts(header);
    if contexts.is_empty() {
        return message;
    }
    let at_ms = message
        .header(SENT_MS_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let recorder = FlightRecorder::global();
    let mut forwarded = Vec::with_capacity(contexts.len());
    for ctx in &contexts {
        let mut span = SpanRecord::new(ctx.trace, Hop::BrokerPublish, at_ms)
            .parent(ctx.parent)
            .duplicate(ctx.duplicate);
        if enqueued == 0 {
            span = span
                .outcome(Outcome::Dropped)
                .attr("reason", "unroutable".to_owned());
        } else {
            span = span.attr("routed", enqueued.to_string());
        }
        let id = recorder.record(span);
        if enqueued > 0 {
            forwarded.push(ctx.child_of(id));
        }
    }
    if forwarded.is_empty() {
        message
    } else {
        message.with_header(TRACE_HEADER, encode_contexts(&forwarded))
    }
}

/// Records a terminal span at `hop` for every trace context carried in
/// `message` — the broker-side ends of a trace (dead-letter, counted
/// discard). Untraced messages record nothing.
fn trace_message_terminal(
    message: &Message,
    hop: Hop,
    outcome: Outcome,
    attrs: &[(&'static str, &str)],
) {
    let Some(header) = message.header(TRACE_HEADER) else {
        return;
    };
    let at_ms = message
        .header(SENT_MS_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    for ctx in parse_contexts(header) {
        let mut span = SpanRecord::new(ctx.trace, hop, at_ms)
            .parent(ctx.parent)
            .duplicate(ctx.duplicate)
            .outcome(outcome);
        for &(k, v) in attrs {
            span = span.attr(k, v.to_owned());
        }
        FlightRecorder::global().record(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker_with_topic_setup() -> Broker {
        let b = Broker::new();
        b.declare_exchange("app").unwrap();
        b.declare_queue("q1").unwrap();
        b.declare_queue("q2").unwrap();
        b
    }

    #[test]
    fn declare_exchange_idempotent_same_type() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        // Every exchange is a topic exchange: redeclaring one is a no-op
        // that keeps its bindings.
        b.declare_exchange("app").unwrap();
        let info = b.exchanges();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].bindings, 1);
        assert_eq!(b.publish("app", "any.key", &b""[..]).unwrap(), 1);
    }

    #[test]
    fn topic_routing_filters_by_pattern() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "obs.paris.#").unwrap();
        b.bind_queue("app", "q2", "obs.*.noise").unwrap();
        let routed = b.publish("app", "obs.paris.noise", &b"x"[..]).unwrap();
        assert_eq!(routed, 2);
        let routed = b.publish("app", "obs.lyon.noise", &b"x"[..]).unwrap();
        assert_eq!(routed, 1);
        assert_eq!(b.queue_depth("q1").unwrap(), 1);
        assert_eq!(b.queue_depth("q2").unwrap(), 2);
    }

    #[test]
    fn fanned_out_message_shares_one_payload_allocation() {
        let b = Broker::new();
        b.declare_exchange("f").unwrap();
        b.declare_queue("q1").unwrap();
        b.declare_queue("q2").unwrap();
        b.bind_queue("f", "q1", "#").unwrap();
        b.bind_queue("f", "q2", "#").unwrap();
        let payload: Arc<[u8]> = Arc::from(&b"one buffer"[..]);
        assert_eq!(b.publish("f", "k", Arc::clone(&payload)).unwrap(), 2);
        let d1 = b.consume("q1", 1).unwrap().remove(0);
        let d2 = b.consume("q2", 1).unwrap().remove(0);
        // Neither the publish nor the fan-out copied the bytes.
        assert!(Arc::ptr_eq(d1.payload(), &payload));
        assert!(Arc::ptr_eq(d1.payload(), d2.payload()));
    }

    #[test]
    fn duplicate_bindings_deliver_once() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "obs.#").unwrap();
        b.bind_queue("app", "q1", "obs.#").unwrap(); // idempotent
        b.bind_queue("app", "q1", "obs.paris.*").unwrap(); // overlapping
        assert_eq!(b.publish("app", "obs.paris.noise", &b""[..]).unwrap(), 1);
        assert_eq!(b.queue_depth("q1").unwrap(), 1);
    }

    #[test]
    fn exchange_to_exchange_chain_routes() {
        // Reproduces the paper's Figure 3: client exchange -> app exchange
        // -> GF queue.
        let b = Broker::new();
        b.declare_exchange("E1").unwrap();
        b.declare_exchange("SC").unwrap();
        b.declare_queue("GF").unwrap();
        b.bind_exchange("E1", "SC", "#").unwrap();
        b.bind_queue("SC", "GF", "#").unwrap();
        assert_eq!(b.publish("E1", "obs.FR75013.noise", &b"m"[..]).unwrap(), 1);
        assert_eq!(b.queue_depth("GF").unwrap(), 1);
    }

    #[test]
    fn exchange_cycles_terminate() {
        let b = Broker::new();
        b.declare_exchange("a").unwrap();
        b.declare_exchange("x").unwrap();
        b.declare_queue("q").unwrap();
        b.bind_exchange("a", "x", "#").unwrap();
        b.bind_exchange("x", "a", "#").unwrap(); // cycle
        b.bind_queue("x", "q", "#").unwrap();
        assert_eq!(b.publish("a", "k", &b""[..]).unwrap(), 1);
    }

    #[test]
    fn consume_moves_to_unacked_and_ack_clears() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        b.publish("app", "k", &b"1"[..]).unwrap();
        b.publish("app", "k", &b"2"[..]).unwrap();
        let deliveries = b.consume("q1", 10).unwrap();
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[0].payload().as_ref(), b"1");
        assert!(!deliveries[0].redelivered);
        assert_eq!(b.queue_depth("q1").unwrap(), 0);
        let info = &b.queues()[0]; // queues list sorts by name: q1, q2
        assert_eq!(info.name, "q1");
        assert_eq!(info.unacked, 2);
        b.ack("q1", deliveries[0].tag).unwrap();
        b.ack("q1", deliveries[1].tag).unwrap();
        assert_eq!(b.queues()[0].unacked, 0);
        // Double-ack is an error.
        assert!(matches!(
            b.ack("q1", deliveries[0].tag),
            Err(BrokerError::UnknownDeliveryTag { .. })
        ));
    }

    #[test]
    fn nack_requeues_at_front_with_redelivered_flag() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        b.publish("app", "k", &b"first"[..]).unwrap();
        b.publish("app", "k", &b"second"[..]).unwrap();
        let d = b.consume("q1", 1).unwrap().remove(0);
        b.nack("q1", d.tag, true).unwrap();
        let redelivered = b.consume("q1", 1).unwrap().remove(0);
        assert_eq!(redelivered.payload().as_ref(), b"first");
        assert!(redelivered.redelivered);
    }

    #[test]
    fn nack_without_requeue_discards() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        b.publish("app", "k", &b"x"[..]).unwrap();
        let d = b.consume("q1", 1).unwrap().remove(0);
        b.nack("q1", d.tag, false).unwrap();
        assert_eq!(b.queue_depth("q1").unwrap(), 0);
        assert_eq!(b.consume("q1", 1).unwrap().len(), 0);
        // Both failure modes of a nack are counted.
        assert_eq!(b.metrics().delivery_failed, 1);
        assert_eq!(b.metrics().dropped, 1);
    }

    fn broker_with_dead_letter(max_attempts: u32) -> Broker {
        let b = Broker::new();
        b.declare_exchange("e").unwrap();
        b.declare_queue("work").unwrap();
        b.declare_queue("graveyard").unwrap();
        b.bind_queue("e", "work", "#").unwrap();
        b.configure_dead_letter("work", max_attempts, "graveyard")
            .unwrap();
        b
    }

    #[test]
    fn dead_letter_moves_message_after_exhausted_attempts() {
        let b = broker_with_dead_letter(2);
        b.publish("e", "k", &b"poison"[..]).unwrap();

        // First delivery: one attempt used, still below the limit.
        let d = b.consume("work", 1).unwrap().remove(0);
        b.nack("work", d.tag, true).unwrap();
        assert_eq!(b.queue_depth("work").unwrap(), 1);
        assert_eq!(b.queue_depth("graveyard").unwrap(), 0);

        // Second delivery exhausts the policy: the nack dead-letters.
        let d = b.consume("work", 1).unwrap().remove(0);
        assert!(d.redelivered);
        b.nack("work", d.tag, true).unwrap();
        assert_eq!(b.queue_depth("work").unwrap(), 0);
        assert_eq!(b.queue_depth("graveyard").unwrap(), 1);

        let m = b.metrics();
        assert_eq!(m.delivery_failed, 2);
        assert_eq!(m.requeued, 1);
        assert_eq!(m.dead_lettered, 1);
        assert_eq!(m.dropped, 0);

        // The dead-lettered message is a fresh delivery on its new queue
        // and still carries the original payload.
        let d = b.consume("graveyard", 1).unwrap().remove(0);
        assert!(!d.redelivered);
        assert_eq!(d.payload().as_ref(), b"poison");
    }

    #[test]
    fn depth_gauges_follow_publish_consume_and_dead_letter() {
        // Unique queue names: the gauges live in the process-global
        // registry and other tests sample their own queues in parallel.
        let b = Broker::new();
        b.declare_exchange("dg-e").unwrap();
        b.declare_queue("dg-work").unwrap();
        b.declare_queue("dg-grave").unwrap();
        b.bind_queue("dg-e", "dg-work", "#").unwrap();
        b.configure_dead_letter("dg-work", 1, "dg-grave").unwrap();

        let registry = mps_telemetry::Registry::global();
        let depth = |name: &str, queue: &str| {
            registry
                .gauge_value_labeled(name, &[("queue", queue)])
                .unwrap_or(-1)
        };

        b.publish("dg-e", "k", &b"a"[..]).unwrap();
        b.publish("dg-e", "k", &b"b"[..]).unwrap();
        assert_eq!(depth("broker_queue_depth", "dg-work"), 2);

        let d = b.consume("dg-work", 1).unwrap().remove(0);
        assert_eq!(depth("broker_queue_depth", "dg-work"), 1);
        b.ack("dg-work", d.tag).unwrap();
        assert_eq!(depth("broker_queue_depth", "dg-work"), 1);

        // One attempt allowed: the first nack dead-letters straight away.
        let d = b.consume("dg-work", 1).unwrap().remove(0);
        b.nack("dg-work", d.tag, true).unwrap();
        assert_eq!(depth("broker_queue_depth", "dg-work"), 0);
        assert_eq!(depth("broker_dlq_depth", "dg-grave"), 1);
    }

    #[test]
    fn dead_letter_to_deleted_queue_degrades_to_counted_drop() {
        let b = broker_with_dead_letter(1);
        b.delete_queue("graveyard").unwrap();
        b.publish("e", "k", &b"x"[..]).unwrap();
        let d = b.consume("work", 1).unwrap().remove(0);
        b.nack("work", d.tag, true).unwrap();
        assert_eq!(b.queue_depth("work").unwrap(), 0);
        assert_eq!(b.metrics().dead_lettered, 0);
        assert_eq!(b.metrics().dropped, 1);
        // Declared again, the target receives what the policy moves.
        b.declare_queue("graveyard").unwrap();
        b.publish("e", "k", &b"y"[..]).unwrap();
        let d = b.consume("work", 1).unwrap().remove(0);
        b.nack("work", d.tag, true).unwrap();
        assert_eq!(b.queue_depth("graveyard").unwrap(), 1);
    }

    #[test]
    fn configure_dead_letter_validations() {
        let b = Broker::new();
        b.declare_queue("work").unwrap();
        b.declare_queue("graveyard").unwrap();
        assert_eq!(
            b.configure_dead_letter("work", 0, "graveyard").unwrap_err(),
            BrokerError::InvalidDeadLetter("max_delivery_attempts must be at least 1".into())
        );
        assert!(matches!(
            b.configure_dead_letter("work", 3, "work"),
            Err(BrokerError::InvalidDeadLetter(_))
        ));
        assert_eq!(
            b.configure_dead_letter("work", 3, "ghost").unwrap_err(),
            BrokerError::QueueNotFound("ghost".into())
        );
        assert_eq!(
            b.configure_dead_letter("ghost", 3, "graveyard")
                .unwrap_err(),
            BrokerError::QueueNotFound("ghost".into())
        );

        let policy_of = |queue: &str| {
            let info = b.queues().into_iter().find(|q| q.name == queue);
            info.unwrap().dead_letter
        };
        assert_eq!(policy_of("work"), None);
        b.configure_dead_letter("work", 3, "graveyard").unwrap();
        assert_eq!(
            policy_of("work"),
            Some(DeadLetterPolicy {
                max_delivery_attempts: 3,
                target: "graveyard".into(),
            })
        );
    }

    #[test]
    fn unroutable_counts_in_metrics() {
        let b = broker_with_topic_setup();
        b.publish("app", "no.binding", &b""[..]).unwrap();
        let m = b.metrics();
        assert_eq!(m.published, 1);
        assert_eq!(m.unroutable, 1);
        assert_eq!(m.routed, 0);
    }

    #[test]
    fn publish_to_unknown_exchange_fails() {
        let b = Broker::new();
        assert_eq!(
            b.publish("ghost", "k", &b""[..]).unwrap_err(),
            BrokerError::ExchangeNotFound("ghost".into())
        );
    }

    #[test]
    fn bind_validations() {
        let b = broker_with_topic_setup();
        assert!(matches!(
            b.bind_queue("ghost", "q1", "#"),
            Err(BrokerError::ExchangeNotFound(_))
        ));
        assert!(matches!(
            b.bind_queue("app", "ghost", "#"),
            Err(BrokerError::QueueNotFound(_))
        ));
        assert!(matches!(
            b.bind_queue("app", "q1", "bad..pattern"),
            Err(BrokerError::InvalidKey(_))
        ));
        assert!(matches!(
            b.bind_exchange("app", "ghost", "#"),
            Err(BrokerError::ExchangeNotFound(_))
        ));
    }

    #[test]
    fn delete_queue_removes_bindings() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        b.delete_queue("q1").unwrap();
        assert!(b.queues().iter().all(|q| q.name != "q1"));
        assert_eq!(b.publish("app", "k", &b""[..]).unwrap(), 0);
        assert!(b.delete_queue("q1").is_err());
        assert_eq!(b.exchanges()[0].bindings, 0);
    }

    #[test]
    fn delete_exchange_removes_e2e_bindings() {
        let b = Broker::new();
        b.declare_exchange("src").unwrap();
        b.declare_exchange("dst").unwrap();
        b.bind_exchange("src", "dst", "#").unwrap();
        b.delete_exchange("dst").unwrap();
        assert_eq!(b.exchanges().len(), 1, "only src is left");
        assert_eq!(b.exchanges()[0].bindings, 0);
        assert!(b.delete_exchange("dst").is_err());
    }

    #[test]
    fn purge_clears_ready_only() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        b.publish("app", "k", &b"1"[..]).unwrap();
        b.publish("app", "k", &b"2"[..]).unwrap();
        let d = b.consume("q1", 1).unwrap().remove(0);
        assert_eq!(b.purge_queue("q1").unwrap(), 1);
        assert_eq!(b.queue_depth("q1").unwrap(), 0);
        // The unacked delivery survives purge and can still be nacked back.
        b.nack("q1", d.tag, true).unwrap();
        assert_eq!(b.queue_depth("q1").unwrap(), 1);
    }

    #[test]
    fn queue_info_reports_totals() {
        let b = Broker::new();
        b.declare_exchange("e").unwrap();
        b.declare_queue("q").unwrap();
        b.bind_queue("e", "q", "#").unwrap();
        b.publish("e", "k", &b""[..]).unwrap();
        b.publish("e", "k", &b""[..]).unwrap();
        b.consume("q", 1).unwrap();
        let info = &b.queues()[0];
        assert_eq!(info.ready, 1);
        assert_eq!(info.unacked, 1);
        assert_eq!(info.enqueued_total, 2);
        assert_eq!(info.dead_letter, None);
    }

    #[test]
    fn exchange_info_lists_sorted() {
        let b = Broker::new();
        b.declare_exchange("zeta").unwrap();
        b.declare_exchange("alpha").unwrap();
        let infos = b.exchanges();
        assert_eq!(infos[0].name, "alpha");
        assert_eq!(infos[1].name, "zeta");
    }

    #[test]
    fn fifo_order_preserved() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        for i in 0..50u8 {
            b.publish("app", "k", vec![i]).unwrap();
        }
        let all = b.consume("q1", 100).unwrap();
        let order: Vec<u8> = all.iter().map(|d| d.payload()[0]).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_publishers_lose_nothing() {
        use std::sync::Arc;
        let b = Arc::new(Broker::new());
        b.declare_exchange("e").unwrap();
        b.declare_queue("q").unwrap();
        b.bind_queue("e", "q", "#").unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        b.publish("e", "k", &b"m"[..]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.queue_depth("q").unwrap(), 8000);
        assert_eq!(b.metrics().published, 8000);
    }

    #[test]
    fn traced_publish_reparents_header_and_records_span() {
        use mps_telemetry::trace::{TraceContext, TraceId};
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        let trace = TraceId::from_raw(0xb0b0_0001);
        let msg = Message::new("k".parse().unwrap(), &b"x"[..])
            .with_header(TRACE_HEADER, encode_contexts(&[TraceContext::new(trace)]))
            .with_header(SENT_MS_HEADER, "1234");
        assert_eq!(b.publish_message("app", msg).unwrap(), 1);

        let d = b.consume("q1", 1).unwrap().remove(0);
        let ctxs = parse_contexts(d.message.header(TRACE_HEADER).unwrap());
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].trace, trace);
        let parent = ctxs[0].parent.expect("re-parented under broker_publish");
        let span = FlightRecorder::global()
            .snapshot()
            .into_iter()
            .find(|s| s.span == parent)
            .expect("publish span recorded");
        assert_eq!(span.hop, Hop::BrokerPublish);
        assert_eq!(span.start_ms, 1234);
        assert_eq!(span.outcome, Outcome::Forwarded);
        assert!(span.attrs.iter().any(|(k, v)| *k == "routed" && v == "1"));
    }

    #[test]
    fn traced_unroutable_publish_is_a_counted_terminal_drop() {
        use mps_telemetry::trace::{TraceContext, TraceId};
        let b = broker_with_topic_setup(); // queues exist, nothing bound
        let trace = TraceId::from_raw(0xb0b0_0002);
        let msg = Message::new("k".parse().unwrap(), &b"x"[..])
            .with_header(TRACE_HEADER, encode_contexts(&[TraceContext::new(trace)]))
            .with_header(SENT_MS_HEADER, "50");
        assert_eq!(b.publish_message("app", msg).unwrap(), 0);
        let spans: Vec<_> = FlightRecorder::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, Outcome::Dropped);
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| *k == "reason" && v == "unroutable"));
    }

    #[test]
    fn traced_dead_letter_records_terminal_span() {
        use mps_telemetry::trace::{TraceContext, TraceId};
        let b = broker_with_dead_letter(1);
        let trace = TraceId::from_raw(0xb0b0_0003);
        let msg = Message::new("k".parse().unwrap(), &b"poison"[..])
            .with_header(TRACE_HEADER, encode_contexts(&[TraceContext::new(trace)]))
            .with_header(SENT_MS_HEADER, "77");
        b.publish_message("e", msg).unwrap();
        let d = b.consume("work", 1).unwrap().remove(0);
        b.nack("work", d.tag, true).unwrap();
        assert_eq!(b.queue_depth("graveyard").unwrap(), 1);

        let spans: Vec<_> = FlightRecorder::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        let publish = spans.iter().find(|s| s.hop == Hop::BrokerPublish).unwrap();
        let dlq = spans.iter().find(|s| s.hop == Hop::BrokerDlq).unwrap();
        assert_eq!(dlq.outcome, Outcome::DeadLettered);
        assert_eq!(dlq.parent, Some(publish.span));
        assert!(dlq
            .attrs
            .iter()
            .any(|(k, v)| *k == "to" && v == "graveyard"));
    }

    #[test]
    fn route_cache_hits_after_first_publish() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "obs.#").unwrap();
        b.publish("app", "obs.a", &b""[..]).unwrap();
        b.publish("app", "obs.a", &b""[..]).unwrap();
        b.publish("app", "obs.a", &b""[..]).unwrap();
        let m = b.metrics();
        assert_eq!(m.route_cache_misses, 1);
        assert_eq!(m.route_cache_hits, 2);
        assert_eq!(b.queue_depth("q1").unwrap(), 3);
    }

    #[test]
    fn route_cache_invalidated_by_bind() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "obs.#").unwrap();
        assert_eq!(b.publish("app", "obs.a", &b""[..]).unwrap(), 1);
        // A new binding must be visible to the very next publish.
        b.bind_queue("app", "q2", "obs.*").unwrap();
        assert_eq!(b.publish("app", "obs.a", &b""[..]).unwrap(), 2);
        let m = b.metrics();
        assert_eq!(m.route_cache_hits, 0);
        assert_eq!(m.route_cache_misses, 2);
    }

    #[test]
    fn route_cache_invalidated_by_deletes() {
        let b = Broker::new();
        b.declare_exchange("src").unwrap();
        b.declare_exchange("dst").unwrap();
        b.declare_queue("q").unwrap();
        b.bind_exchange("src", "dst", "#").unwrap();
        b.bind_queue("dst", "q", "#").unwrap();
        assert_eq!(b.publish("src", "k", &b""[..]).unwrap(), 1);
        b.delete_exchange("dst").unwrap();
        assert_eq!(b.publish("src", "k", &b""[..]).unwrap(), 0);

        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "#").unwrap();
        assert_eq!(b.publish("app", "k", &b""[..]).unwrap(), 1);
        b.delete_queue("q1").unwrap();
        assert_eq!(b.publish("app", "k", &b""[..]).unwrap(), 0);
    }

    #[test]
    fn duplicate_bind_keeps_cache_warm() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "obs.#").unwrap();
        b.publish("app", "obs.a", &b""[..]).unwrap();
        // Re-binding the same (pattern, target) is a topology no-op and
        // must not flush the cache.
        b.bind_queue("app", "q1", "obs.#").unwrap();
        b.publish("app", "obs.a", &b""[..]).unwrap();
        assert_eq!(b.metrics().route_cache_hits, 1);
    }

    // ----- durability ------------------------------------------------------

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "mps-broker-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn durable_config(dir: &std::path::Path) -> DurabilityConfig {
        DurabilityConfig::new(dir).wal(mps_wal::WalConfig::default().telemetry(false))
    }

    /// Re-declares the topology apps set up on startup.
    fn declare_app(b: &Broker) {
        b.declare_exchange("app").unwrap();
        b.declare_queue("q").unwrap();
        b.declare_queue("dlq").unwrap();
        b.bind_queue("app", "q", "obs.#").unwrap();
        b.configure_dead_letter("q", 2, "dlq").unwrap();
    }

    #[test]
    fn reopen_reproduces_queue_and_dlq_state() {
        let dir = temp_dir("reopen");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        assert!(b.is_durable());
        declare_app(&b);
        for i in 0..4 {
            b.publish("app", "obs.x", format!("m{i}").into_bytes())
                .unwrap();
        }
        // m0 acked; m1 nacked to exhaustion (dead-lettered); m2 left
        // unacked (in flight at the crash); m3 never consumed.
        let d = b.consume("q", 1).unwrap();
        b.ack("q", d[0].tag).unwrap();
        for _ in 0..2 {
            let d = b.consume("q", 1).unwrap();
            b.nack("q", d[0].tag, true).unwrap();
        }
        let _in_flight = b.consume("q", 1).unwrap();
        drop(b);

        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        let q = b.queue_snapshot("q").unwrap();
        let payloads: Vec<&[u8]> = q.ready.iter().map(|m| m.payload.as_slice()).collect();
        assert_eq!(
            payloads,
            vec![&b"m2"[..], &b"m3"[..]],
            "unacked restored as ready"
        );
        assert!(q.unacked.is_empty());
        let dlq = b.queue_snapshot("dlq").unwrap();
        assert_eq!(dlq.ready.len(), 1);
        assert_eq!(dlq.ready[0].payload, b"m1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_replay_is_identical() {
        let dir = temp_dir("replay");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        for i in 0..8 {
            b.publish("app", "obs.x", vec![i]).unwrap();
        }
        let d = b.consume("q", 3).unwrap();
        b.ack("q", d[0].tag).unwrap();
        b.nack("q", d[1].tag, true).unwrap();
        b.nack("q", d[2].tag, false).unwrap();
        drop(b);

        let first = Broker::open_durable(durable_config(&dir)).unwrap();
        let second = Broker::open_durable(durable_config(&dir)).unwrap();
        for queue in ["q", "dlq"] {
            let a = first.queue_snapshot(queue);
            let b = second.queue_snapshot(queue);
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "queue {queue}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "queue {queue}"),
                (a, b) => panic!("divergent replay for {queue}: {a:?} vs {b:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_and_compaction_preserve_state() {
        let dir = temp_dir("snap");
        let config = durable_config(&dir)
            .wal(
                mps_wal::WalConfig::default()
                    .telemetry(false)
                    .segment_max_bytes(256),
            )
            .snapshot_every(4);
        let b = Broker::open_durable(config.clone()).unwrap();
        declare_app(&b);
        for i in 0..32u8 {
            b.publish("app", "obs.x", vec![i]).unwrap();
        }
        let d = b.consume("q", 8).unwrap();
        for delivery in &d {
            b.ack("q", delivery.tag).unwrap();
        }
        b.checkpoint().unwrap();
        let live = b.queue_snapshot("q").unwrap();
        drop(b);

        let recovered = Broker::open_durable(config).unwrap();
        let q = recovered.queue_snapshot("q").unwrap();
        assert_eq!(q.ready, live.ready);
        assert_eq!(q.ready.len(), 24);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// GoFlow is down and the backlog builds: every copy is still owed, so
    /// a snapshot would reclaim nothing and none is taken, however long
    /// the backlog grows; recovery is the log. Draining it is what kills
    /// records, and what makes a snapshot due.
    #[test]
    fn a_durable_backlog_nobody_acks_is_never_snapshotted() {
        const FLOOR: u64 = 4;
        const MESSAGES: usize = 256;
        let dir = temp_dir("backlog");
        let config = durable_config(&dir).snapshot_every(FLOOR);
        let b = Broker::open_durable(config.clone()).unwrap();
        declare_app(&b);
        let newest = || {
            let report = mps_wal::inspect(&dir).unwrap();
            report.snapshots.first().map(|s| s.lsn)
        };
        // Topology records are held by no message copy: the first floor
        // of them is worth a snapshot to the call that logs the last.
        let declared = newest();
        assert_eq!(declared, Some(FLOOR));
        for i in 0..MESSAGES {
            b.publish("app", "obs.x", vec![i as u8; 256]).unwrap();
            if i % 3 == 0 {
                // Delivered and never acked: still owed, still in the state.
                b.consume("q", 1).unwrap();
            }
            assert_eq!(newest(), declared, "message {i}");
        }
        let live = b.queue_snapshot("q").unwrap();
        assert_eq!(live.ready.len() + live.unacked.len(), MESSAGES);
        drop(b);

        // From the log alone, in the order published; a delivery nobody
        // acked is not logged.
        let b = Broker::open_durable(config.clone()).unwrap();
        let mut owed: Vec<MessageView> = live.ready.into_iter().chain(live.unacked).collect();
        owed.sort_by_key(|m| m.durable_id);
        owed.iter_mut().for_each(|m| m.deliveries = 0);
        assert_eq!(b.queue_snapshot("q").unwrap().ready, owed);

        // Each ack kills two records, the copy's and its own, beside the
        // topology record logged after that snapshot: about a third of the
        // way down, half of what a reopen would read is dead.
        let due_at = (MESSAGES - 1).div_ceil(3);
        for acked in 1..=due_at {
            let d = b.consume("q", 1).unwrap();
            b.ack("q", d[0].tag).unwrap();
            assert_eq!(newest() != declared, acked == due_at, "ack {acked}");
        }
        let drained_a_third = newest();
        // The rest in one batch: one more snapshot, of nothing.
        let tags: Vec<u64> = b
            .consume("q", MESSAGES)
            .unwrap()
            .iter()
            .map(|d| d.tag)
            .collect();
        assert_eq!(tags.len(), MESSAGES - due_at);
        b.ack_many("q", &tags).unwrap();
        assert!(newest() > drained_a_third);
        drop(b);

        let recovered = Broker::open_durable(config).unwrap();
        assert_eq!(recovered.queue_depth("q").unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_never_resurrects_acked_messages() {
        let dir = temp_dir("torn");
        let kill = mps_wal::KillSwitch::new();
        let config = durable_config(&dir).wal(
            mps_wal::WalConfig::default()
                .telemetry(false)
                .kill(kill.clone()),
        );
        let b = Broker::open_durable(config).unwrap();
        declare_app(&b);
        b.publish("app", "obs.x", &b"acked"[..]).unwrap();
        b.publish("app", "obs.x", &b"kept"[..]).unwrap();
        let d = b.consume("q", 1).unwrap();
        b.ack("q", d[0].tag).unwrap();
        // The next publish tears the tail mid-append: its record must be
        // truncated on recovery, while the ack before it stays effective.
        kill.arm(mps_wal::KillPoint::MidAppend, 0);
        let err = b.publish("app", "obs.x", &b"torn"[..]).unwrap_err();
        assert!(matches!(err, BrokerError::Durability(_)));
        // The instance is dead: every further durable mutation fails.
        assert!(b.publish("app", "obs.x", &b"after"[..]).is_err());
        drop(b);

        let recovered = Broker::open_durable(durable_config(&dir)).unwrap();
        let q = recovered.queue_snapshot("q").unwrap();
        let payloads: Vec<&[u8]> = q.ready.iter().map(|m| m.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&b"kept"[..]], "acked gone, torn batch gone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn purge_and_delete_survive_recovery() {
        let dir = temp_dir("purge");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        b.declare_queue("gone").unwrap();
        b.bind_queue("app", "gone", "obs.#").unwrap();
        b.publish("app", "obs.x", &b"1"[..]).unwrap();
        b.publish("app", "obs.x", &b"2"[..]).unwrap();
        assert_eq!(b.purge_queue("q").unwrap(), 2);
        b.delete_queue("gone").unwrap();
        b.publish("app", "obs.x", &b"3"[..]).unwrap();
        drop(b);

        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        let q = b.queue_snapshot("q").unwrap();
        assert_eq!(q.ready.len(), 1);
        assert_eq!(q.ready[0].payload, b"3");
        assert!(
            b.queue_snapshot("gone").is_err(),
            "deleted queue not recovered"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_messages_keep_headers_and_redelivery_flag() {
        let dir = temp_dir("headers");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        let key = RoutingKey::new("obs.x").unwrap();
        let message = Message::new(key, &b"payload"[..]).with_header("x-client", "c1");
        b.publish_message("app", message).unwrap();
        let d = b.consume("q", 1).unwrap();
        b.nack("q", d[0].tag, true).unwrap();
        drop(b);

        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        let d = b.consume("q", 1).unwrap();
        assert_eq!(d[0].message.header("x-client"), Some("c1"));
        assert!(d[0].redelivered, "delivery count survives recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn topology_survives_recovery_without_redeclare() {
        let dir = temp_dir("topo");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        b.declare_exchange("client").unwrap();
        b.declare_exchange("app").unwrap();
        b.declare_exchange("old").unwrap();
        b.declare_queue("q").unwrap();
        b.declare_queue("dlq").unwrap();
        b.declare_queue("spill").unwrap();
        b.bind_exchange("client", "app", "#").unwrap();
        b.bind_queue("app", "q", "obs.#").unwrap();
        b.bind_queue("app", "spill", "obs.#").unwrap();
        b.delete_queue("spill").unwrap();
        b.configure_dead_letter("q", 2, "dlq").unwrap();
        b.delete_exchange("old").unwrap();
        b.publish("client", "obs.x", &b"m"[..]).unwrap();
        drop(b);

        // No re-declaration: the recovered broker routes and dead-letters
        // exactly like the one that crashed.
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        let names: Vec<String> = b.exchanges().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["app", "client"], "deleted exchange stays deleted");
        assert_eq!(b.publish("client", "obs.y", &b"n"[..]).unwrap(), 1);
        assert_eq!(b.queue_depth("q").unwrap(), 2);
        assert!(
            b.queue_depth("spill").is_err(),
            "deleted queue stays deleted"
        );
        let info = b.queues().into_iter().find(|q| q.name == "q").unwrap();
        assert_eq!(
            info.dead_letter,
            Some(DeadLetterPolicy {
                max_delivery_attempts: 2,
                target: "dlq".into()
            })
        );
        // And the recovered policy still fires.
        for _ in 0..2 {
            let d = b.consume("q", 1).unwrap();
            b.nack("q", d[0].tag, true).unwrap();
        }
        assert_eq!(b.queue_depth("dlq").unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn topology_survives_snapshot_compaction() {
        let dir = temp_dir("topo-snap");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        b.publish("app", "obs.x", &b"m"[..]).unwrap();
        // Checkpointing folds topology into the snapshot; the compacted
        // log must still recover every declaration.
        b.checkpoint().unwrap();
        drop(b);

        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        assert_eq!(b.exchanges()[0].name, "app");
        let info = b.queues().into_iter().find(|q| q.name == "q").unwrap();
        assert_eq!(info.dead_letter.map(|p| p.target), Some("dlq".into()));
        assert_eq!(b.publish("app", "obs.y", &b"n"[..]).unwrap(), 1);
        assert_eq!(b.queue_depth("q").unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn route_cache_survives_unrelated_churn() {
        let b = Broker::new();
        b.declare_exchange("hot").unwrap();
        b.declare_exchange("churn").unwrap();
        b.declare_queue("hq").unwrap();
        b.declare_queue("cq").unwrap();
        b.bind_queue("hot", "hq", "obs.#").unwrap();

        // Warm the hot entry: one miss, then hits.
        b.publish("hot", "obs.x", &b"1"[..]).unwrap();
        b.publish("hot", "obs.x", &b"2"[..]).unwrap();
        let warm = b.metrics();
        assert_eq!(warm.route_cache_misses, 1);
        assert_eq!(warm.route_cache_hits, 1);

        // Churn on an unrelated exchange must not evict the hot entry.
        for _ in 0..16 {
            b.bind_queue("churn", "cq", "obs.#").unwrap();
            b.delete_queue("cq").unwrap();
            b.declare_queue("cq").unwrap();
        }
        b.publish("hot", "obs.x", &b"3"[..]).unwrap();
        let after = b.metrics();
        assert_eq!(after.route_cache_misses, 1, "no re-route after churn");
        assert_eq!(after.route_cache_hits, 2);

        // Churn on the hot exchange itself does invalidate.
        b.bind_queue("hot", "cq", "other.#").unwrap();
        b.publish("hot", "obs.x", &b"4"[..]).unwrap();
        assert_eq!(b.metrics().route_cache_misses, 2);
    }

    #[test]
    fn route_cache_invalidation_follows_exchange_chains() {
        let b = Broker::new();
        b.declare_exchange("entry").unwrap();
        b.declare_exchange("inner").unwrap();
        b.declare_queue("q").unwrap();
        b.bind_exchange("entry", "inner", "#").unwrap();
        b.publish("entry", "obs.x", &b"1"[..]).unwrap();
        // Binding deep in the chain must invalidate routes cached at the
        // entry exchange, or the new queue would be silently skipped.
        b.bind_queue("inner", "q", "obs.#").unwrap();
        assert_eq!(b.publish("entry", "obs.x", &b"2"[..]).unwrap(), 1);
        assert_eq!(b.queue_depth("q").unwrap(), 1);

        // Deleting a routed-to queue likewise refreshes ancestor entries.
        b.delete_queue("q").unwrap();
        assert_eq!(b.publish("entry", "obs.x", &b"3"[..]).unwrap(), 0);
    }

    #[test]
    fn ack_many_settles_batch_and_reports_unknown_tags() {
        let b = broker_with_topic_setup();
        b.bind_queue("app", "q1", "obs.#").unwrap();
        for i in 0..4u8 {
            b.publish("app", "obs.x", vec![i]).unwrap();
        }
        let d = b.consume("q1", 4).unwrap();
        let tags: Vec<u64> = d.iter().map(|d| d.tag).collect();
        b.ack_many("q1", &tags[..3]).unwrap();
        assert_eq!(b.metrics().acked, 3);
        // Unknown tag after a valid one: the valid ack still settles.
        let err = b.ack_many("q1", &[tags[3], 999]).unwrap_err();
        assert!(matches!(
            err,
            BrokerError::UnknownDeliveryTag { tag: 999, .. }
        ));
        assert_eq!(b.metrics().acked, 4);
        assert!(b.ack("q1", tags[3]).is_err(), "already settled");
        b.ack_many("q1", &[]).unwrap();
    }

    #[test]
    fn ack_many_is_durable_across_recovery() {
        let dir = temp_dir("ackmany");
        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        declare_app(&b);
        for i in 0..4u8 {
            b.publish("app", "obs.x", vec![i]).unwrap();
        }
        let d = b.consume("q", 3).unwrap();
        let tags: Vec<u64> = d.iter().map(|d| d.tag).collect();
        b.ack_many("q", &tags).unwrap();
        drop(b);

        let b = Broker::open_durable(durable_config(&dir)).unwrap();
        let q = b.queue_snapshot("q").unwrap();
        let payloads: Vec<&[u8]> = q.ready.iter().map(|m| m.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&[3u8][..]], "batch-acked never resurrected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_broker_rejects_checkpoint() {
        let b = Broker::new();
        assert!(!b.is_durable());
        assert!(matches!(
            b.checkpoint().unwrap_err(),
            BrokerError::Durability(_)
        ));
    }
}
