//! Store error types.

use std::error::Error;
use std::fmt;

/// Errors returned by the document store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A document to insert was not a JSON object.
    NotAnObject,
    /// A filter document was malformed; carries a description.
    BadFilter(String),
    /// An update document was malformed; carries a description.
    BadUpdate(String),
    /// An aggregation stage was malformed; carries a description.
    BadPipeline(String),
    /// The named collection does not exist (only returned by operations
    /// that refuse to auto-create, e.g. `drop`).
    CollectionNotFound(String),
    /// A sort/index key had a type that cannot be ordered (object/array).
    Unorderable(String),
    /// A durable store could not log or replay a mutation; carries a
    /// description. The in-memory state may be ahead of the log — the
    /// instance should be discarded and reopened.
    Durability(String),
    /// A remote store could not be reached, or the wire exchange failed
    /// (connection refused, protocol violation, shed by backpressure).
    /// The operation may or may not have taken effect — callers treat it
    /// like any network error against a real database.
    Transport(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotAnObject => write!(f, "document is not a JSON object"),
            StoreError::BadFilter(msg) => write!(f, "bad filter: {msg}"),
            StoreError::BadUpdate(msg) => write!(f, "bad update: {msg}"),
            StoreError::BadPipeline(msg) => write!(f, "bad aggregation pipeline: {msg}"),
            StoreError::CollectionNotFound(name) => write!(f, "collection not found: {name}"),
            StoreError::Unorderable(path) => {
                write!(f, "value at {path} has no defined ordering")
            }
            StoreError::Durability(msg) => write!(f, "durability failure: {msg}"),
            StoreError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl Error for StoreError {}

impl From<mps_wal::WalError> for StoreError {
    fn from(e: mps_wal::WalError) -> Self {
        StoreError::Durability(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::NotAnObject.to_string().contains("object"));
        assert!(StoreError::BadFilter("x".into()).to_string().contains('x'));
        assert!(StoreError::BadUpdate("y".into()).to_string().contains('y'));
        assert!(StoreError::BadPipeline("z".into())
            .to_string()
            .contains('z'));
        assert!(StoreError::CollectionNotFound("c".into())
            .to_string()
            .contains('c'));
        assert!(StoreError::Unorderable("a.b".into())
            .to_string()
            .contains("a.b"));
        assert!(StoreError::Durability("disk gone".into())
            .to_string()
            .contains("disk gone"));
        assert!(StoreError::Transport("connection refused".into())
            .to_string()
            .contains("connection refused"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
