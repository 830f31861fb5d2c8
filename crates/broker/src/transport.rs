//! The [`BrokerTransport`] trait: the broker's messaging surface as an
//! object-safe abstraction, so in-process and remote brokers are
//! interchangeable.
//!
//! [`Broker`] implements the trait by pure delegation, which makes the
//! embedded path zero-cost. A remote implementation (see `mps-net`'s
//! `RemoteBroker`) carries the same calls over a socket and surfaces
//! connectivity failures as [`BrokerError::Transport`]. Consumers that
//! should work against either — the GoFlow server, the mobile upload
//! path — take `Arc<dyn BrokerTransport>` (or a generic bound) instead
//! of the concrete [`Broker`].
//!
//! The trait covers topology management, publishing and consuming: the
//! operations a *client* of the broker performs. Durability controls
//! (`open_durable`, `checkpoint`, `queue_snapshot`) and metrics
//! snapshots stay on the concrete type — they are operator concerns of
//! the process that owns the broker, not part of the wire contract.

use crate::broker::{Broker, DeadLetterPolicy, ExchangeType};
use crate::error::BrokerError;
use crate::message::{Delivery, Message};
use std::fmt;
use std::sync::Arc;

/// The broker operations a client may perform, over any transport.
///
/// Mirrors the inherent [`Broker`] API method for method, with two
/// deliberate deviations that keep the trait object-safe and
/// wire-friendly:
///
/// * [`publish`](BrokerTransport::publish) takes `&[u8]` instead of
///   `impl Into<Bytes>`;
/// * existence probes ([`exchange_exists`](BrokerTransport::exchange_exists),
///   [`queue_exists`](BrokerTransport::queue_exists)) stay infallible —
///   a remote implementation reports `false` when it cannot reach the
///   server (and counts the failure in its own metrics).
pub trait BrokerTransport: fmt::Debug + Send + Sync {
    /// Declares an exchange of the given type. Redeclaring with the same
    /// type is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::ExchangeTypeMismatch`] on a type conflict,
    /// or [`BrokerError::Transport`] when the broker is unreachable.
    fn declare_exchange(&self, name: &str, kind: ExchangeType) -> Result<(), BrokerError>;

    /// Declares an unbounded queue. Redeclaring is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Transport`] when the broker is unreachable.
    fn declare_queue(&self, name: &str) -> Result<(), BrokerError>;

    /// Declares a queue holding at most `capacity` ready messages.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Transport`] when the broker is unreachable.
    fn declare_queue_with_capacity(&self, name: &str, capacity: usize) -> Result<(), BrokerError>;

    /// Whether an exchange with this name exists (`false` when the
    /// broker cannot be reached).
    fn exchange_exists(&self, name: &str) -> bool;

    /// Whether a queue with this name exists (`false` when the broker
    /// cannot be reached).
    fn queue_exists(&self, name: &str) -> bool;

    /// Binds `queue` to `exchange` with a topic `pattern`.
    ///
    /// # Errors
    ///
    /// Propagates the broker's not-found / invalid-pattern errors, or
    /// [`BrokerError::Transport`].
    fn bind_queue(&self, exchange: &str, queue: &str, pattern: &str) -> Result<(), BrokerError>;

    /// Binds exchange `destination` to exchange `source` with `pattern`.
    ///
    /// # Errors
    ///
    /// Propagates the broker's not-found / invalid-pattern errors, or
    /// [`BrokerError::Transport`].
    fn bind_exchange(
        &self,
        source: &str,
        destination: &str,
        pattern: &str,
    ) -> Result<(), BrokerError>;

    /// Removes a queue binding. Removing a non-existent binding is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::ExchangeNotFound`], or
    /// [`BrokerError::Transport`].
    fn unbind_queue(&self, exchange: &str, queue: &str, pattern: &str) -> Result<(), BrokerError>;

    /// Deletes an exchange and every binding pointing at it.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::ExchangeNotFound`], or
    /// [`BrokerError::Transport`].
    fn delete_exchange(&self, name: &str) -> Result<(), BrokerError>;

    /// Deletes a queue and any messages still buffered in it.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::QueueNotFound`], or
    /// [`BrokerError::Transport`].
    fn delete_queue(&self, name: &str) -> Result<(), BrokerError>;

    /// Discards every ready message in a queue, returning how many were
    /// removed.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::QueueNotFound`], or
    /// [`BrokerError::Transport`].
    fn purge_queue(&self, name: &str) -> Result<usize, BrokerError>;

    /// Installs a dead-letter policy on `queue`.
    ///
    /// # Errors
    ///
    /// Propagates the broker's validation errors, or
    /// [`BrokerError::Transport`].
    fn configure_dead_letter(
        &self,
        queue: &str,
        max_delivery_attempts: u32,
        target: &str,
    ) -> Result<(), BrokerError>;

    /// The dead-letter policy of a queue, if one is configured.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::QueueNotFound`], or
    /// [`BrokerError::Transport`].
    fn dead_letter_policy(&self, queue: &str) -> Result<Option<DeadLetterPolicy>, BrokerError>;

    /// Number of ready messages in a queue.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::QueueNotFound`], or
    /// [`BrokerError::Transport`].
    fn queue_depth(&self, name: &str) -> Result<usize, BrokerError>;

    /// Publishes `payload` to `exchange` under routing key `key`,
    /// returning how many queues received it.
    ///
    /// # Errors
    ///
    /// Propagates the broker's routing errors, or
    /// [`BrokerError::Transport`].
    fn publish(&self, exchange: &str, key: &str, payload: &[u8]) -> Result<usize, BrokerError>;

    /// Publishes a full [`Message`] (routing key, payload and headers)
    /// to `exchange`, returning how many queues received it.
    ///
    /// # Errors
    ///
    /// Propagates the broker's routing errors, or
    /// [`BrokerError::Transport`].
    fn publish_message(&self, exchange: &str, message: Message) -> Result<usize, BrokerError>;

    /// Takes up to `max` ready messages from a queue for processing.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::QueueNotFound`], or
    /// [`BrokerError::Transport`].
    fn consume(&self, queue: &str, max: usize) -> Result<Vec<Delivery>, BrokerError>;

    /// Acknowledges a delivery, removing it permanently.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::UnknownDeliveryTag`], or
    /// [`BrokerError::Transport`].
    fn ack(&self, queue: &str, tag: u64) -> Result<(), BrokerError>;

    /// Acknowledges a batch of deliveries from one queue. The default
    /// implementation loops [`ack`](BrokerTransport::ack), so remote
    /// transports work unchanged; the embedded broker overrides it with
    /// a single group-committed log append for the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::UnknownDeliveryTag`] (tags settled
    /// before the unknown one stay settled), or
    /// [`BrokerError::Transport`].
    fn ack_many(&self, queue: &str, tags: &[u64]) -> Result<(), BrokerError> {
        for &tag in tags {
            self.ack(queue, tag)?;
        }
        Ok(())
    }

    /// Rejects a delivery; with `requeue` it is redelivered (subject to
    /// the queue's dead-letter policy), otherwise dropped (counted).
    ///
    /// # Errors
    ///
    /// Propagates [`BrokerError::UnknownDeliveryTag`], or
    /// [`BrokerError::Transport`].
    fn nack(&self, queue: &str, tag: u64, requeue: bool) -> Result<(), BrokerError>;
}

impl BrokerTransport for Broker {
    fn declare_exchange(&self, name: &str, kind: ExchangeType) -> Result<(), BrokerError> {
        Broker::declare_exchange(self, name, kind)
    }

    fn declare_queue(&self, name: &str) -> Result<(), BrokerError> {
        Broker::declare_queue(self, name)
    }

    fn declare_queue_with_capacity(&self, name: &str, capacity: usize) -> Result<(), BrokerError> {
        Broker::declare_queue_with_capacity(self, name, capacity)
    }

    fn exchange_exists(&self, name: &str) -> bool {
        Broker::exchange_exists(self, name)
    }

    fn queue_exists(&self, name: &str) -> bool {
        Broker::queue_exists(self, name)
    }

    fn bind_queue(&self, exchange: &str, queue: &str, pattern: &str) -> Result<(), BrokerError> {
        Broker::bind_queue(self, exchange, queue, pattern)
    }

    fn bind_exchange(
        &self,
        source: &str,
        destination: &str,
        pattern: &str,
    ) -> Result<(), BrokerError> {
        Broker::bind_exchange(self, source, destination, pattern)
    }

    fn unbind_queue(&self, exchange: &str, queue: &str, pattern: &str) -> Result<(), BrokerError> {
        Broker::unbind_queue(self, exchange, queue, pattern)
    }

    fn delete_exchange(&self, name: &str) -> Result<(), BrokerError> {
        Broker::delete_exchange(self, name)
    }

    fn delete_queue(&self, name: &str) -> Result<(), BrokerError> {
        Broker::delete_queue(self, name)
    }

    fn purge_queue(&self, name: &str) -> Result<usize, BrokerError> {
        Broker::purge_queue(self, name)
    }

    fn configure_dead_letter(
        &self,
        queue: &str,
        max_delivery_attempts: u32,
        target: &str,
    ) -> Result<(), BrokerError> {
        Broker::configure_dead_letter(self, queue, max_delivery_attempts, target)
    }

    fn dead_letter_policy(&self, queue: &str) -> Result<Option<DeadLetterPolicy>, BrokerError> {
        Broker::dead_letter_policy(self, queue)
    }

    fn queue_depth(&self, name: &str) -> Result<usize, BrokerError> {
        Broker::queue_depth(self, name)
    }

    fn publish(&self, exchange: &str, key: &str, payload: &[u8]) -> Result<usize, BrokerError> {
        Broker::publish(self, exchange, key, payload)
    }

    fn publish_message(&self, exchange: &str, message: Message) -> Result<usize, BrokerError> {
        Broker::publish_message(self, exchange, message)
    }

    fn consume(&self, queue: &str, max: usize) -> Result<Vec<Delivery>, BrokerError> {
        Broker::consume(self, queue, max)
    }

    fn ack(&self, queue: &str, tag: u64) -> Result<(), BrokerError> {
        Broker::ack(self, queue, tag)
    }

    fn ack_many(&self, queue: &str, tags: &[u64]) -> Result<(), BrokerError> {
        Broker::ack_many(self, queue, tags)
    }

    fn nack(&self, queue: &str, tag: u64, requeue: bool) -> Result<(), BrokerError> {
        Broker::nack(self, queue, tag, requeue)
    }
}

/// Shared transports are transports: lets `Arc<Broker>` (or any shared
/// remote client) be used directly wherever a [`BrokerTransport`] bound
/// is expected.
impl<T: BrokerTransport + ?Sized> BrokerTransport for Arc<T> {
    fn declare_exchange(&self, name: &str, kind: ExchangeType) -> Result<(), BrokerError> {
        (**self).declare_exchange(name, kind)
    }

    fn declare_queue(&self, name: &str) -> Result<(), BrokerError> {
        (**self).declare_queue(name)
    }

    fn declare_queue_with_capacity(&self, name: &str, capacity: usize) -> Result<(), BrokerError> {
        (**self).declare_queue_with_capacity(name, capacity)
    }

    fn exchange_exists(&self, name: &str) -> bool {
        (**self).exchange_exists(name)
    }

    fn queue_exists(&self, name: &str) -> bool {
        (**self).queue_exists(name)
    }

    fn bind_queue(&self, exchange: &str, queue: &str, pattern: &str) -> Result<(), BrokerError> {
        (**self).bind_queue(exchange, queue, pattern)
    }

    fn bind_exchange(
        &self,
        source: &str,
        destination: &str,
        pattern: &str,
    ) -> Result<(), BrokerError> {
        (**self).bind_exchange(source, destination, pattern)
    }

    fn unbind_queue(&self, exchange: &str, queue: &str, pattern: &str) -> Result<(), BrokerError> {
        (**self).unbind_queue(exchange, queue, pattern)
    }

    fn delete_exchange(&self, name: &str) -> Result<(), BrokerError> {
        (**self).delete_exchange(name)
    }

    fn delete_queue(&self, name: &str) -> Result<(), BrokerError> {
        (**self).delete_queue(name)
    }

    fn purge_queue(&self, name: &str) -> Result<usize, BrokerError> {
        (**self).purge_queue(name)
    }

    fn configure_dead_letter(
        &self,
        queue: &str,
        max_delivery_attempts: u32,
        target: &str,
    ) -> Result<(), BrokerError> {
        (**self).configure_dead_letter(queue, max_delivery_attempts, target)
    }

    fn dead_letter_policy(&self, queue: &str) -> Result<Option<DeadLetterPolicy>, BrokerError> {
        (**self).dead_letter_policy(queue)
    }

    fn queue_depth(&self, name: &str) -> Result<usize, BrokerError> {
        (**self).queue_depth(name)
    }

    fn publish(&self, exchange: &str, key: &str, payload: &[u8]) -> Result<usize, BrokerError> {
        (**self).publish(exchange, key, payload)
    }

    fn publish_message(&self, exchange: &str, message: Message) -> Result<usize, BrokerError> {
        (**self).publish_message(exchange, message)
    }

    fn consume(&self, queue: &str, max: usize) -> Result<Vec<Delivery>, BrokerError> {
        (**self).consume(queue, max)
    }

    fn ack(&self, queue: &str, tag: u64) -> Result<(), BrokerError> {
        (**self).ack(queue, tag)
    }

    fn ack_many(&self, queue: &str, tags: &[u64]) -> Result<(), BrokerError> {
        (**self).ack_many(queue, tags)
    }

    fn nack(&self, queue: &str, tag: u64, requeue: bool) -> Result<(), BrokerError> {
        (**self).nack(queue, tag, requeue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The embedded broker drives the same topology + messaging flow
    /// through the trait surface as through the inherent API.
    #[test]
    fn broker_implements_transport_by_delegation() {
        let broker = Broker::new();
        let transport: &dyn BrokerTransport = &broker;
        transport
            .declare_exchange("ex", ExchangeType::Topic)
            .unwrap();
        transport.declare_queue("q").unwrap();
        transport.declare_queue("dlq").unwrap();
        transport.bind_queue("ex", "q", "obs.#").unwrap();
        transport.configure_dead_letter("q", 2, "dlq").unwrap();
        assert!(transport.exchange_exists("ex"));
        assert!(transport.queue_exists("q"));
        assert!(!transport.queue_exists("ghost"));

        assert_eq!(transport.publish("ex", "obs.noise", b"hello").unwrap(), 1);
        assert_eq!(transport.queue_depth("q").unwrap(), 1);
        let deliveries = transport.consume("q", 10).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].payload().as_ref(), b"hello");

        // Nack to exhaustion: the dead-letter policy fires through the
        // trait exactly as it does through the inherent API.
        transport.nack("q", deliveries[0].tag, true).unwrap();
        let redelivered = transport.consume("q", 10).unwrap();
        assert!(redelivered[0].redelivered);
        transport.nack("q", redelivered[0].tag, true).unwrap();
        assert_eq!(transport.queue_depth("q").unwrap(), 0);
        assert_eq!(transport.queue_depth("dlq").unwrap(), 1);
        let policy = transport.dead_letter_policy("q").unwrap().unwrap();
        assert_eq!(policy.max_delivery_attempts, 2);
        assert_eq!(policy.target, "dlq");
    }

    #[test]
    fn arc_broker_is_a_transport() {
        let broker = Arc::new(Broker::new());
        fn takes_transport(t: &impl BrokerTransport) {
            t.declare_queue("q").unwrap();
        }
        takes_transport(&broker);
        assert!(broker.queue_exists("q"));
    }

    #[test]
    fn ack_many_default_loops_ack() {
        /// A transport that only implements `ack`, exercising the
        /// trait-default batch path a remote client would use.
        #[derive(Debug)]
        struct CountingAcks(Arc<Broker>);
        impl BrokerTransport for CountingAcks {
            fn declare_exchange(&self, n: &str, k: ExchangeType) -> Result<(), BrokerError> {
                self.0.declare_exchange(n, k)
            }
            fn declare_queue(&self, n: &str) -> Result<(), BrokerError> {
                self.0.declare_queue(n)
            }
            fn declare_queue_with_capacity(&self, n: &str, c: usize) -> Result<(), BrokerError> {
                self.0.declare_queue_with_capacity(n, c)
            }
            fn exchange_exists(&self, n: &str) -> bool {
                self.0.exchange_exists(n)
            }
            fn queue_exists(&self, n: &str) -> bool {
                self.0.queue_exists(n)
            }
            fn bind_queue(&self, e: &str, q: &str, p: &str) -> Result<(), BrokerError> {
                self.0.bind_queue(e, q, p)
            }
            fn bind_exchange(&self, s: &str, d: &str, p: &str) -> Result<(), BrokerError> {
                self.0.bind_exchange(s, d, p)
            }
            fn unbind_queue(&self, e: &str, q: &str, p: &str) -> Result<(), BrokerError> {
                self.0.unbind_queue(e, q, p)
            }
            fn delete_exchange(&self, n: &str) -> Result<(), BrokerError> {
                self.0.delete_exchange(n)
            }
            fn delete_queue(&self, n: &str) -> Result<(), BrokerError> {
                self.0.delete_queue(n)
            }
            fn purge_queue(&self, n: &str) -> Result<usize, BrokerError> {
                self.0.purge_queue(n)
            }
            fn configure_dead_letter(&self, q: &str, m: u32, t: &str) -> Result<(), BrokerError> {
                self.0.configure_dead_letter(q, m, t)
            }
            fn dead_letter_policy(&self, q: &str) -> Result<Option<DeadLetterPolicy>, BrokerError> {
                self.0.dead_letter_policy(q)
            }
            fn queue_depth(&self, n: &str) -> Result<usize, BrokerError> {
                self.0.queue_depth(n)
            }
            fn publish(&self, e: &str, k: &str, p: &[u8]) -> Result<usize, BrokerError> {
                self.0.publish(e, k, p)
            }
            fn publish_message(&self, e: &str, m: Message) -> Result<usize, BrokerError> {
                self.0.publish_message(e, m)
            }
            fn consume(&self, q: &str, max: usize) -> Result<Vec<Delivery>, BrokerError> {
                self.0.consume(q, max)
            }
            fn ack(&self, q: &str, tag: u64) -> Result<(), BrokerError> {
                self.0.ack(q, tag)
            }
            fn nack(&self, q: &str, tag: u64, requeue: bool) -> Result<(), BrokerError> {
                self.0.nack(q, tag, requeue)
            }
        }

        let broker = Arc::new(Broker::new());
        let t = CountingAcks(Arc::clone(&broker));
        t.declare_exchange("ex", ExchangeType::Topic).unwrap();
        t.declare_queue("q").unwrap();
        t.bind_queue("ex", "q", "#").unwrap();
        for i in 0..3u8 {
            t.publish("ex", "a.b", &[i]).unwrap();
        }
        let tags: Vec<u64> = t.consume("q", 3).unwrap().iter().map(|d| d.tag).collect();
        t.ack_many("q", &tags).unwrap();
        assert_eq!(broker.metrics().acked, 3);
    }

    #[test]
    fn publish_message_round_trips_headers() {
        let broker = Broker::new();
        let transport: &dyn BrokerTransport = &broker;
        transport
            .declare_exchange("ex", ExchangeType::Topic)
            .unwrap();
        transport.declare_queue("q").unwrap();
        transport.bind_queue("ex", "q", "#").unwrap();
        let message =
            Message::new("a.b".parse().unwrap(), &b"payload"[..]).with_header("x-test", "42");
        assert_eq!(transport.publish_message("ex", message).unwrap(), 1);
        let deliveries = transport.consume("q", 1).unwrap();
        assert_eq!(deliveries[0].message.header("x-test"), Some("42"));
        transport.ack("q", deliveries[0].tag).unwrap();
    }
}
