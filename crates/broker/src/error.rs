//! Broker error types.

use std::error::Error;
use std::fmt;

/// Errors returned by [`Broker`](crate::Broker) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// No exchange with the given name exists.
    ExchangeNotFound(String),
    /// No queue with the given name exists.
    QueueNotFound(String),
    /// A routing key or binding pattern was syntactically invalid.
    InvalidKey(String),
    /// The delivery tag is unknown for this queue (already acked, or never
    /// delivered).
    UnknownDeliveryTag {
        /// The queue on which the ack/nack was attempted.
        queue: String,
        /// The unrecognised tag.
        tag: u64,
    },
    /// A dead-letter configuration was rejected (zero attempts, or a queue
    /// targeting itself).
    InvalidDeadLetter(String),
    /// The write-ahead log failed (I/O error, corrupt record, or an armed
    /// crash-kill fired). The broker instance must be discarded and
    /// reopened to recover.
    Durability(String),
    /// A remote broker could not be reached, or the wire exchange failed
    /// (connection refused, protocol violation, shed by backpressure).
    /// The operation may or may not have taken effect — the caller's
    /// retry machinery decides what to do, exactly as it would for a
    /// network error against a real broker.
    Transport(String),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::ExchangeNotFound(name) => write!(f, "exchange not found: {name}"),
            BrokerError::QueueNotFound(name) => write!(f, "queue not found: {name}"),
            BrokerError::InvalidKey(key) => write!(f, "invalid routing key or pattern: {key:?}"),
            BrokerError::UnknownDeliveryTag { queue, tag } => {
                write!(f, "unknown delivery tag {tag} on queue {queue}")
            }
            BrokerError::InvalidDeadLetter(reason) => {
                write!(f, "invalid dead-letter configuration: {reason}")
            }
            BrokerError::Durability(msg) => write!(f, "durability failure: {msg}"),
            BrokerError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl Error for BrokerError {}

impl From<mps_wal::WalError> for BrokerError {
    fn from(e: mps_wal::WalError) -> Self {
        BrokerError::Durability(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(BrokerError, &str)> = vec![
            (BrokerError::ExchangeNotFound("e1".into()), "e1"),
            (BrokerError::QueueNotFound("q1".into()), "q1"),
            (BrokerError::InvalidKey("a..b".into()), "a..b"),
            (
                BrokerError::UnknownDeliveryTag {
                    queue: "q".into(),
                    tag: 42,
                },
                "42",
            ),
            (
                BrokerError::InvalidDeadLetter("self target".into()),
                "self target",
            ),
            (BrokerError::Durability("torn tail".into()), "torn tail"),
            (
                BrokerError::Transport("connection refused".into()),
                "connection refused",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BrokerError>();
    }
}
