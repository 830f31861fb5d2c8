//! Broker-wide counters.

use mps_telemetry::{Counter, Registry};
use std::sync::OnceLock;

/// Mirrors of the per-broker counters in the process-wide telemetry
/// registry ([`Registry::global`]), under the workspace naming
/// convention `broker_core_<metric>`. Every broker instance reports into
/// the same shared series; per-instance accounting stays exact through
/// [`BrokerMetrics::snapshot`].
struct SharedCounters {
    published: Counter,
    routed: Counter,
    unroutable: Counter,
    delivered: Counter,
    acked: Counter,
    requeued: Counter,
    dropped: Counter,
    delivery_failed: Counter,
    dead_lettered: Counter,
    route_cache_hits: Counter,
    route_cache_misses: Counter,
}

fn shared() -> &'static SharedCounters {
    static SHARED: OnceLock<SharedCounters> = OnceLock::new();
    SHARED.get_or_init(|| {
        let registry = Registry::global();
        SharedCounters {
            published: registry.counter(
                "broker_core_published_total",
                "Messages accepted by publish",
            ),
            routed: registry.counter(
                "broker_core_routed_total",
                "Queue enqueues resulting from routing",
            ),
            unroutable: registry.counter(
                "broker_core_unroutable_total",
                "Publishes that matched no queue at all",
            ),
            delivered: registry.counter(
                "broker_core_delivered_total",
                "Messages handed to consumers",
            ),
            acked: registry.counter("broker_core_acked_total", "Deliveries acknowledged"),
            requeued: registry.counter(
                "broker_core_requeued_total",
                "Deliveries negatively acknowledged and requeued",
            ),
            dropped: registry.counter(
                "broker_core_dropped_total",
                "Messages discarded by a nack, or whose dead-letter queue was deleted",
            ),
            delivery_failed: registry.counter(
                "broker_core_delivery_failures_total",
                "Deliveries negatively acknowledged by a consumer",
            ),
            dead_lettered: registry.counter(
                "broker_core_dead_lettered_total",
                "Messages moved to a dead-letter queue after exhausting redelivery",
            ),
            route_cache_hits: registry.counter(
                "broker_route_cache_hits_total",
                "Publishes whose destination set came from the routing-result cache",
            ),
            route_cache_misses: registry.counter(
                "broker_route_cache_misses_total",
                "Publishes that had to walk the exchange graph to route",
            ),
        }
    })
}

/// Monotonic counters describing broker activity since start-up.
///
/// Updated lock-free on the publish/consume paths; read with
/// [`BrokerMetrics::snapshot`]. Each update also feeds the shared
/// `broker_core_*` series of the global [`Registry`], so the broker
/// shows up in the pipeline-wide health report alongside ingest,
/// storage and assimilation.
#[derive(Debug, Default)]
pub struct BrokerMetrics {
    published: Counter,
    routed: Counter,
    unroutable: Counter,
    delivered: Counter,
    acked: Counter,
    requeued: Counter,
    dropped: Counter,
    delivery_failed: Counter,
    dead_lettered: Counter,
    route_cache_hits: Counter,
    route_cache_misses: Counter,
}

/// A point-in-time copy of [`BrokerMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Messages accepted by `publish`.
    pub published: u64,
    /// Queue enqueues resulting from routing (one publish may route to
    /// several queues, or to none).
    pub routed: u64,
    /// Publishes that matched no queue at all.
    pub unroutable: u64,
    /// Messages handed to consumers.
    pub delivered: u64,
    /// Deliveries acknowledged.
    pub acked: u64,
    /// Deliveries negatively acknowledged and requeued.
    pub requeued: u64,
    /// Messages discarded by a nack, or nacked past their delivery
    /// attempts while their dead-letter queue was deleted.
    pub dropped: u64,
    /// Deliveries negatively acknowledged by a consumer (with or without
    /// requeue — every nack is a failed delivery attempt).
    pub delivery_failed: u64,
    /// Messages moved to a dead-letter queue after exhausting redelivery.
    pub dead_lettered: u64,
    /// Publishes whose destination set came from the routing-result cache.
    pub route_cache_hits: u64,
    /// Publishes that had to walk the exchange graph to route.
    pub route_cache_misses: u64,
}

impl BrokerMetrics {
    pub(crate) fn on_publish(&self) {
        self.published.inc();
        shared().published.inc();
    }

    pub(crate) fn on_routed(&self, queues: u64) {
        if queues == 0 {
            self.unroutable.inc();
            shared().unroutable.inc();
        } else {
            self.routed.add(queues);
            shared().routed.add(queues);
        }
    }

    pub(crate) fn on_delivered(&self, n: u64) {
        self.delivered.add(n);
        shared().delivered.add(n);
    }

    pub(crate) fn on_acked_many(&self, n: u64) {
        self.acked.add(n);
        shared().acked.add(n);
    }

    pub(crate) fn on_requeued(&self) {
        self.requeued.inc();
        shared().requeued.inc();
    }

    pub(crate) fn on_dropped(&self) {
        self.dropped.inc();
        shared().dropped.inc();
    }

    pub(crate) fn on_delivery_failed(&self) {
        self.delivery_failed.inc();
        shared().delivery_failed.inc();
    }

    pub(crate) fn on_dead_lettered(&self) {
        self.dead_lettered.inc();
        shared().dead_lettered.inc();
    }

    pub(crate) fn on_route_cache_hit(&self) {
        self.route_cache_hits.inc();
        shared().route_cache_hits.inc();
    }

    pub(crate) fn on_route_cache_miss(&self) {
        self.route_cache_misses.inc();
        shared().route_cache_misses.inc();
    }

    /// Publishes the observed ready depth of a queue as
    /// `broker_queue_depth{queue=…}` — sampled wherever the depth
    /// changes (publish, consume, ack, requeue), so the health endpoint
    /// and fleet dashboard see backlog without polling the broker.
    pub(crate) fn sample_queue_depth(&self, queue: &str, depth: usize) {
        Registry::global()
            .gauge_labeled(
                "broker_queue_depth",
                &[("queue", queue)],
                "Ready messages in a broker queue, sampled as depth changes",
            )
            .set(depth as i64);
    }

    /// Publishes the observed depth of a dead-letter queue as
    /// `broker_dlq_depth{queue=…}`, sampled when a message is parked
    /// there (and when the DLQ itself is consumed or purged).
    pub(crate) fn sample_dlq_depth(&self, queue: &str, depth: usize) {
        Registry::global()
            .gauge_labeled(
                "broker_dlq_depth",
                &[("queue", queue)],
                "Messages parked in a dead-letter queue, sampled as depth changes",
            )
            .set(depth as i64);
    }

    /// Takes a consistent-enough snapshot of all counters (each counter is
    /// read atomically; the set is not a transaction).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            published: self.published.get(),
            routed: self.routed.get(),
            unroutable: self.unroutable.get(),
            delivered: self.delivered.get(),
            acked: self.acked.get(),
            requeued: self.requeued.get(),
            dropped: self.dropped.get(),
            delivery_failed: self.delivery_failed.get(),
            dead_lettered: self.dead_lettered.get(),
            route_cache_hits: self.route_cache_hits.get(),
            route_cache_misses: self.route_cache_misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = BrokerMetrics::default();
        m.on_publish();
        m.on_publish();
        m.on_routed(3);
        m.on_routed(0);
        m.on_delivered(2);
        m.on_acked_many(1);
        m.on_requeued();
        m.on_dropped();
        m.on_delivery_failed();
        m.on_delivery_failed();
        m.on_dead_lettered();
        m.on_route_cache_hit();
        m.on_route_cache_miss();
        m.on_route_cache_miss();
        let s = m.snapshot();
        assert_eq!(s.published, 2);
        assert_eq!(s.routed, 3);
        assert_eq!(s.unroutable, 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.acked, 1);
        assert_eq!(s.requeued, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.delivery_failed, 2);
        assert_eq!(s.dead_lettered, 1);
        assert_eq!(s.route_cache_hits, 1);
        assert_eq!(s.route_cache_misses, 2);
    }

    #[test]
    fn snapshot_default_is_zero() {
        let s = BrokerMetrics::default().snapshot();
        assert_eq!(s, MetricsSnapshot::default());
    }

    #[test]
    fn shared_registry_sees_broker_activity() {
        let before = Registry::global()
            .counter_value("broker_core_published_total")
            .unwrap_or(0);
        let m = BrokerMetrics::default();
        m.on_publish();
        let after = Registry::global()
            .counter_value("broker_core_published_total")
            .expect("registered");
        assert!(after > before);
    }
}
