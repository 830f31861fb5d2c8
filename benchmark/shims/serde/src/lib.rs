//! std-only stand-in for `serde`.
//!
//! The published crate drives a streaming visitor; this one converts
//! through a JSON value tree ([`Value`]), which is all the seven product
//! crates the benchmark links need: `#[derive(Serialize, Deserialize)]`
//! on non-generic structs and unit enums, read and written only through
//! `serde_json`. The tree types live here so both the traits and the
//! `serde_json` stand-in can name them.

mod impls;
mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Error, Map, Number, Value};

/// A type that can be written as a JSON value.
pub trait Serialize {
    /// Builds the value tree for `self`.
    fn to_value(&self) -> Value;
}

/// A type that can be read back from a JSON value.
pub trait Deserialize: Sized {
    /// Reads `Self` out of a value tree.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// What a struct field of this type holds when its key is absent.
    /// Only `Option` has an answer (`None`); everything else is an error.
    fn missing(field: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{field}`")))
    }
}

/// Reads struct field `name` out of `map`; called by the derive.
#[doc(hidden)]
pub fn __field<T: Deserialize>(map: &Map, name: &str) -> Result<T, Error> {
    match map.get(name) {
        Some(value) => {
            T::from_value(value).map_err(|e| Error::custom(format!("field `{name}`: {e}")))
        }
        None => T::missing(name),
    }
}
