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

use crate::broker::Broker;
use crate::error::BrokerError;
use crate::message::{Delivery, Message};
use crate::RoutingKey;
use std::fmt;
use std::sync::Arc;

/// The broker's operation table: every client-facing operation, stated
/// once. A row is what `docs/WIRE_PROTOCOL.md` §5 tabulates — opcode,
/// `NAME`, each argument's Rust type `=>` its wire field, the reply's —
/// plus the method's documentation. Every row is fallible. The rows are
/// what GoFlow and the mobile client call; an opcode missing from the
/// sequence is retired, reserved and never reused (§5).
///
/// `broker_ops!(emit, ctx…)` expands to `emit! { [ctx…] rows… }`, so each
/// crate generates the part it owns: this one the trait and the
/// delegating impls; `mps-net` the opcode constants, the client stub and
/// the server dispatch. Adding an operation is adding a row (and its
/// `docs/WIRE_PROTOCOL.md` line, which `crates/net/tests/wire_spec.rs`
/// holds the row to).
#[macro_export]
macro_rules! broker_ops {
    ($emit:path $(, $($ctx:tt)*)?) => {
        $emit! {
            [$($($ctx)*)?]
            /// Declares a topic exchange. Redeclaring is a no-op.
            ///
            /// # Errors
            ///
            /// Returns [`BrokerError::Transport`] when the broker is unreachable.
            1 DECLARE_EXCHANGE
            fn declare_exchange(name: &str => string) -> () => empty;
            /// Declares an unbounded queue. Redeclaring is a no-op.
            ///
            /// # Errors
            ///
            /// Returns [`BrokerError::Transport`] when the broker is unreachable.
            2 DECLARE_QUEUE
            fn declare_queue(name: &str => string) -> () => empty;
            /// Binds `queue` to `exchange` with a topic `pattern`.
            ///
            /// # Errors
            ///
            /// Propagates the broker's not-found / invalid-pattern errors, or
            /// [`BrokerError::Transport`].
            6 BIND_QUEUE
            fn bind_queue(exchange: &str => string, queue: &str => string, pattern: &str => string) -> () => empty;
            /// Binds exchange `destination` to exchange `source` with `pattern`.
            ///
            /// # Errors
            ///
            /// Propagates the broker's not-found / invalid-pattern errors, or
            /// [`BrokerError::Transport`].
            7 BIND_EXCHANGE
            fn bind_exchange(source: &str => string, destination: &str => string, pattern: &str => string) -> () => empty;
            /// Deletes an exchange and every binding pointing at it.
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::ExchangeNotFound`], or
            /// [`BrokerError::Transport`].
            9 DELETE_EXCHANGE
            fn delete_exchange(name: &str => string) -> () => empty;
            /// Deletes a queue and any messages still buffered in it.
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::QueueNotFound`], or
            /// [`BrokerError::Transport`].
            10 DELETE_QUEUE
            fn delete_queue(name: &str => string) -> () => empty;
            /// Discards every ready message in a queue, returning how many were
            /// removed.
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::QueueNotFound`], or
            /// [`BrokerError::Transport`].
            11 PURGE_QUEUE
            fn purge_queue(name: &str => string) -> usize => u64;
            /// Installs a dead-letter policy on `queue`.
            ///
            /// # Errors
            ///
            /// Propagates the broker's validation errors, or
            /// [`BrokerError::Transport`].
            12 CONFIGURE_DEAD_LETTER
            fn configure_dead_letter(queue: &str => string, max_delivery_attempts: u32 => u32, target: &str => string) -> () => empty;
            /// Number of ready messages in a queue.
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::QueueNotFound`], or
            /// [`BrokerError::Transport`].
            14 QUEUE_DEPTH
            fn queue_depth(name: &str => string) -> usize => u64;
            /// Publishes a full [`Message`] (routing key, payload and headers)
            /// to `exchange`, returning how many queues received it.
            ///
            /// # Errors
            ///
            /// Propagates the broker's routing errors, or
            /// [`BrokerError::Transport`].
            16 PUBLISH_MESSAGE
            fn publish_message(exchange: &str => string, message: Message => message) -> usize => u64;
            /// Takes up to `max` ready messages from a queue for processing.
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::QueueNotFound`], or
            /// [`BrokerError::Transport`].
            17 CONSUME
            fn consume(queue: &str => string, max: usize => u32) -> Vec<Delivery> => deliveries;
            /// Rejects a delivery; with `requeue` it is redelivered (subject to
            /// the queue's dead-letter policy), otherwise dropped (counted).
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::UnknownDeliveryTag`], or
            /// [`BrokerError::Transport`].
            19 NACK
            fn nack(queue: &str => string, tag: u64 => u64, requeue: bool => bool) -> () => empty;
            /// Acknowledges a batch of deliveries from one queue, in order: one
            /// group-committed log append on a durable broker, and one round
            /// trip however far away the broker is.
            ///
            /// # Errors
            ///
            /// Propagates [`BrokerError::UnknownDeliveryTag`] for the first
            /// unknown tag (the tags before it stay settled, the ones after it
            /// are not looked at), or [`BrokerError::Transport`].
            20 ACK_MANY
            fn ack_many(queue: &str => string, tags: &[u64] => seq<u64>) -> () => empty;
        }
    };
}

/// Emits the [`BrokerTransport`] methods: one per row, carrying the
/// row's documentation.
macro_rules! emit_trait {
    ([] $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty;)*) => {
        $($(#[$doc])*
        fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*) -> Result<$ret, BrokerError>;)*
    };
}

/// The broker operations a client may perform, over any transport — the
/// rows of [`broker_ops!`](crate::broker_ops), and two conveniences built
/// on them.
///
/// Mirrors the inherent [`Broker`] API method for method, except that
/// [`publish`](BrokerTransport::publish) takes `&[u8]` instead of
/// `impl Into<Arc<[u8]>>`, which keeps the trait object-safe.
pub trait BrokerTransport: fmt::Debug + Send + Sync {
    broker_ops!(emit_trait);

    /// Publishes `payload` to `exchange` under routing key `key`,
    /// returning how many queues received it: a
    /// [`publish_message`](BrokerTransport::publish_message) without
    /// headers.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidKey`] for a malformed key, and
    /// otherwise what `publish_message` returns.
    fn publish(&self, exchange: &str, key: &str, payload: &[u8]) -> Result<usize, BrokerError> {
        let key = RoutingKey::new(key)?;
        self.publish_message(exchange, Message::new(key, payload))
    }

    /// Acknowledges a delivery, removing it permanently: an
    /// [`ack_many`](BrokerTransport::ack_many) of one tag.
    ///
    /// # Errors
    ///
    /// What `ack_many` returns.
    fn ack(&self, queue: &str, tag: u64) -> Result<(), BrokerError> {
        self.ack_many(queue, &[tag])
    }
}

/// Emits every row as a method forwarding to `$target::method(receiver,
/// args…)`, where `receiver` is an expression over `$this` (the method's
/// `self`).
macro_rules! emit_delegate {
    ([|$this:ident| $target:ty, $receiver:expr]
        $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty;)*) => {
        $(fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*) -> Result<$ret, BrokerError> {
            let $this = self;
            <$target>::$method($receiver $(, $arg)*)
        })*
    };
}

/// The embedded broker is a transport by pure delegation to its inherent
/// methods, which makes the embedded path zero-cost.
impl BrokerTransport for Broker {
    broker_ops!(emit_delegate, |this| Broker, this);
}

/// Shared transports are transports: lets `Arc<Broker>` (or any shared
/// remote client) be used directly wherever a [`BrokerTransport`] bound
/// is expected.
impl<T: BrokerTransport + ?Sized> BrokerTransport for Arc<T> {
    broker_ops!(emit_delegate, |this| T, &**this);
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
        transport.declare_exchange("ex").unwrap();
        transport.declare_queue("q").unwrap();
        transport.declare_queue("dlq").unwrap();
        transport.bind_queue("ex", "q", "obs.#").unwrap();
        transport.configure_dead_letter("q", 2, "dlq").unwrap();
        assert_eq!(broker.exchanges()[0].name, "ex");
        assert_eq!(
            transport.queue_depth("ghost"),
            Err(BrokerError::QueueNotFound("ghost".into()))
        );

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
        assert_eq!(broker.metrics().dead_lettered, 1);
    }

    #[test]
    fn arc_broker_is_a_transport() {
        let broker = Arc::new(Broker::new());
        fn takes_transport(t: &impl BrokerTransport) {
            t.declare_queue("q").unwrap();
        }
        takes_transport(&broker);
        assert_eq!(broker.queue_depth("q"), Ok(0));
    }

    /// A wrapper around a transport is one `emit_delegate` line, whatever
    /// the table holds — here every row, the batched ack included,
    /// reaches the wrapped broker as the same call.
    #[test]
    fn table_emitted_wrapper_forwards_every_row() {
        #[derive(Debug)]
        struct Wrapped(Arc<Broker>);
        impl BrokerTransport for Wrapped {
            broker_ops!(emit_delegate, |this| Broker, &this.0);
        }

        let broker = Arc::new(Broker::new());
        let t: &dyn BrokerTransport = &Wrapped(Arc::clone(&broker));
        t.declare_exchange("ex").unwrap();
        t.declare_queue("q").unwrap();
        t.bind_queue("ex", "q", "#").unwrap();
        for i in 0..3u8 {
            t.publish("ex", "a.b", &[i]).unwrap();
        }
        let tags: Vec<u64> = t.consume("q", 3).unwrap().iter().map(|d| d.tag).collect();
        t.ack_many("q", &tags).unwrap();
        assert_eq!(broker.metrics().acked, 3);
        assert_eq!(
            t.ack_many("q", &tags[..1]).unwrap_err(),
            BrokerError::UnknownDeliveryTag {
                queue: "q".into(),
                tag: tags[0]
            }
        );
    }

    #[test]
    fn publish_message_round_trips_headers() {
        let broker = Broker::new();
        let transport: &dyn BrokerTransport = &broker;
        transport.declare_exchange("ex").unwrap();
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
