//! Messages and deliveries.

use crate::RoutingKey;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A published message: a routing key, an opaque payload, and optional
/// string headers.
///
/// Payloads are `Arc<[u8]>`, so a message fanned out to many queues shares
/// one buffer. GoFlow publishes JSON-serialized observations.
///
/// # Examples
///
/// ```
/// use mps_broker::Message;
///
/// let msg = Message::new("obs.FR75013.noise".parse()?, br#"{"spl":60}"#.as_ref())
///     .with_header("content-type", "application/json");
/// assert_eq!(msg.header("content-type"), Some("application/json"));
/// # Ok::<(), mps_broker::BrokerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    routing_key: RoutingKey,
    payload: Arc<[u8]>,
    headers: BTreeMap<String, String>,
}

impl Message {
    /// Creates a message with the given routing key and payload.
    pub fn new(routing_key: RoutingKey, payload: impl Into<Arc<[u8]>>) -> Self {
        Self {
            routing_key,
            payload: payload.into(),
            headers: BTreeMap::new(),
        }
    }

    /// Adds a header, replacing any existing value for the same name.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.insert(name.into(), value.into());
        self
    }

    /// The routing key the message was published with.
    pub fn routing_key(&self) -> &RoutingKey {
        &self.routing_key
    }

    /// The message payload.
    pub fn payload(&self) -> &Arc<[u8]> {
        &self.payload
    }

    /// Looks up a header by name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    /// Iterates over all headers in name order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Message[{}, {} bytes]",
            self.routing_key,
            self.payload.len()
        )
    }
}

/// A message handed to a consumer, carrying the delivery tag used to
/// ack/nack it and a redelivery flag.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Per-queue delivery tag; pass to [`Broker::ack`](crate::Broker::ack)
    /// or [`Broker::nack`](crate::Broker::nack).
    pub tag: u64,
    /// The delivered message (shared, cheap to clone).
    pub message: Arc<Message>,
    /// True if the message was previously delivered and requeued.
    pub redelivered: bool,
}

impl Delivery {
    /// Shorthand for the message payload.
    pub fn payload(&self) -> &Arc<[u8]> {
        self.message.payload()
    }

    /// Shorthand for the message routing key.
    pub fn routing_key(&self) -> &RoutingKey {
        self.message.routing_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> RoutingKey {
        s.parse().unwrap()
    }

    #[test]
    fn message_accessors() {
        let msg = Message::new(key("a.b"), &b"hello"[..]);
        assert_eq!(msg.routing_key().as_str(), "a.b");
        assert_eq!(msg.payload().as_ref(), b"hello");
        assert_eq!(msg.len(), 5);
        assert!(!msg.is_empty());
    }

    #[test]
    fn empty_payload() {
        let msg = Message::new(key("a"), Vec::new());
        assert!(msg.is_empty());
        assert_eq!(msg.len(), 0);
    }

    #[test]
    fn headers_set_get_iterate() {
        let msg = Message::new(key("a"), Vec::new())
            .with_header("b", "2")
            .with_header("a", "1")
            .with_header("b", "3"); // replaces
        assert_eq!(msg.header("a"), Some("1"));
        assert_eq!(msg.header("b"), Some("3"));
        assert_eq!(msg.header("missing"), None);
        let all: Vec<_> = msg.headers().collect();
        assert_eq!(all, vec![("a", "1"), ("b", "3")]);
    }

    #[test]
    fn display_mentions_key_and_size() {
        let msg = Message::new(key("x.y"), &b"12345"[..]);
        let s = msg.to_string();
        assert!(s.contains("x.y"));
        assert!(s.contains('5'));
    }

    #[test]
    fn delivery_shorthands() {
        let msg = Arc::new(Message::new(key("q.r"), &b"p"[..]));
        let d = Delivery {
            tag: 1,
            message: Arc::clone(&msg),
            redelivered: false,
        };
        assert_eq!(d.payload().as_ref(), b"p");
        assert_eq!(d.routing_key().as_str(), "q.r");
    }
}
