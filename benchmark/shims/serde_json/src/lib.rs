//! std-only stand-in for `serde_json`: the value tree (re-exported from
//! the `serde` stand-in), a strict depth-limited parser, a compact
//! writer, and `json!`.
//!
//! Differences from the published crate that a reader of benchmark
//! numbers should know: typed (de)serialization goes through a [`Value`]
//! tree instead of streaming, struct keys are therefore written in sorted
//! order, and floats are written with Rust's shortest round-trip digits
//! rather than ryu's (same digits, occasionally a different exponent
//! threshold).

mod macros;
mod parse;

use serde::{Deserialize, Serialize};
pub use serde::{Error, Map, Number, Value};

/// The `Result` of this crate's functions.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts `value` to a tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Reads a `T` out of a tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value)
}

/// Compact JSON text of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.to_value().write_json(&mut out);
    Ok(out)
}

/// Compact JSON bytes of `value`.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parses one JSON document from `text`; trailing non-whitespace fails.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    T::from_value(&parse::parse(text)?)
}

/// Parses one JSON document from UTF-8 `bytes`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| Error::custom(format!("invalid UTF-8 at byte {}", e.valid_up_to())))?;
    from_str(text)
}

/// Used by `json!` for interpolated expressions.
#[doc(hidden)]
pub fn __to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}
