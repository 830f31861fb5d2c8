//! # mps-broker — an AMQP-style message broker
//!
//! In the paper's deployment, messaging between the SoundCity app and the
//! GoFlow crowd-sensing server is routed through RabbitMQ using the AMQP
//! model: *exchanges* forward messages to *queues* (or to other exchanges)
//! according to *bindings*, and topic exchanges filter on routing-key
//! patterns. This crate is a faithful in-process substitute implementing
//! the subset GoFlow relies on (Section 3.2, Figure 3 of the paper):
//!
//! * topic exchanges — GoFlow declares no other kind, and a `#` binding
//!   does what a fanout exchange would;
//! * unbounded queues;
//! * queue and **exchange-to-exchange** bindings (GoFlow chains a
//!   per-client exchange into the application exchange into the GF queue);
//! * AMQP topic patterns (`*` matches exactly one word, `#` matches zero or
//!   more words);
//! * durable queues that retain messages while a mobile consumer is
//!   disconnected, with ack/nack redelivery;
//! * per-queue **dead-letter policies**
//!   ([`Broker::configure_dead_letter`]): a message nacked back after
//!   exhausting its delivery attempts moves to a dead-letter queue instead
//!   of cycling forever — nothing is ever lost silently;
//! * a management API (declare / bind / purge / delete) and broker-wide
//!   metrics, including delivery-failure and dead-letter counters.
//!
//! A binding goes when its queue or exchange is deleted; there is no
//! unbind, as GoFlow's topology never takes one back.
//!
//! The broker is thread-safe and deliberately unclocked: delivery is
//! immediate, and the *simulated* network delays of the experiment are
//! modelled where they belong, in the mobile client's connectivity model.
//!
//! Brokers are in-memory by default; [`Broker::open_durable`]
//! write-ahead-logs topology and every queue transition and replays the
//! log on reopen — see [`mod@durability`].
//!
//! # Examples
//!
//! ```
//! use mps_broker::Broker;
//!
//! let broker = Broker::new();
//! broker.declare_exchange("app")?;
//! broker.declare_queue("inbox")?;
//! broker.bind_queue("app", "inbox", "obs.paris.*")?;
//!
//! broker.publish("app", "obs.paris.noise", br#"{"spl": 61.5}"#.as_ref())?;
//! let deliveries = broker.consume("inbox", 10)?;
//! assert_eq!(deliveries.len(), 1);
//! broker.ack("inbox", deliveries[0].tag)?;
//! # Ok::<(), mps_broker::BrokerError>(())
//! ```

// Pipeline code returns errors: one malformed upload must not panic the
// middleware. Tests may unwrap, expect and panic (clippy.toml).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod broker;
pub mod durability;
mod error;
mod message;
mod metrics;
#[cfg(test)]
mod proptests;
pub mod router;
mod topic;
mod transport;

pub use broker::{Broker, DeadLetterPolicy, ExchangeInfo, QueueInfo};
pub use durability::{DurabilityConfig, MessageView, QueueSnapshot};
pub use error::BrokerError;
pub use message::{Delivery, Message};
pub use metrics::{BrokerMetrics, MetricsSnapshot};
pub use router::TopicTrie;
pub use topic::{topic_matches, BindingPattern, CompiledPattern, PatternWord, RoutingKey};
pub use transport::BrokerTransport;
