//! The JSON value tree.

use std::collections::btree_map::{self, BTreeMap};
use std::fmt::{self, Write as _};

/// A (de)serialization failure, with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `message`.
    pub fn custom(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON number: a non-negative integer, a negative integer or a finite
/// float. As in serde_json, `1` and `1.0` are different numbers under
/// `==`; compare through [`Number::as_f64`] for numeric equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// A float, or `None` when it is NaN or infinite (JSON has neither).
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }

    /// The number as `f64` (integers beyond 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        })
    }

    /// The number as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(u) => Some(u),
            N::NegInt(_) | N::Float(_) => None,
        }
    }

    /// The number as `i64` when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }
}

impl From<u64> for Number {
    fn from(u: u64) -> Self {
        Number(N::PosInt(u))
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        match u64::try_from(i) {
            Ok(u) => Number(N::PosInt(u)),
            Err(_) => Number(N::NegInt(i)),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(u) => write!(f, "{u}"),
            N::NegInt(i) => write!(f, "{i}"),
            // `{:?}` prints the shortest digits that read back exactly and
            // always keeps a `.0` or an exponent, so a float stays a float.
            N::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// A JSON object with keys in sorted order (serde_json's default). The
/// parameters exist only because callers spell it `Map<String, Value>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Map<K = String, V = Value>(BTreeMap<K, V>);

impl Default for Map {
    fn default() -> Self {
        Map::new()
    }
}

impl Map {
    /// An empty object.
    pub fn new() -> Self {
        Map(BTreeMap::new())
    }

    /// Inserts a member, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    /// The member at `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// The member at `key`, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.0.get_mut(key)
    }

    /// Removes and returns the member at `key`.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(key)
    }

    /// True when `key` is a member.
    pub fn contains_key(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The entry at `key` for in-place insertion.
    pub fn entry(&mut self, key: impl Into<String>) -> btree_map::Entry<'_, String, Value> {
        self.0.entry(key.into())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Members in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }

    /// Keys in order.
    pub fn keys(&self) -> btree_map::Keys<'_, String, Value> {
        self.0.keys()
    }

    /// Values in key order.
    pub fn values(&self) -> btree_map::Values<'_, String, Value> {
        self.0.values()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = btree_map::Iter<'a, String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = btree_map::IntoIter<String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map(iter.into_iter().collect())
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` or `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member `key` when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// True for an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, mutably, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Appends the compact JSON text of `self` to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => {
                // Writing to a String cannot fail.
                let _ = write!(out, "{n}");
            }
            Value::String(s) => write_json_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(key, out);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string: `"` `\` and control characters
/// escaped, everything else (including non-ASCII) written as is.
fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    let mut plain_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain_from..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain_from = i + 1;
    }
    out.push_str(&s[plain_from..]);
    out.push('"');
}

impl fmt::Display for Value {
    /// Compact JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.write_json(&mut text);
        f.write_str(&text)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Member `key`, or `null` when `self` is not an object or lacks it.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Element `index`, or `null` when `self` is not an array or is shorter.
    fn index(&self, index: usize) -> &Value {
        self.as_array().and_then(|a| a.get(index)).unwrap_or(&NULL)
    }
}

macro_rules! value_from_int {
    ($($unsigned:ty),* ; $($signed:ty),*) => {
        $(impl From<$unsigned> for Value {
            fn from(u: $unsigned) -> Value {
                Value::Number(Number::from(u as u64))
            }
        })*
        $(impl From<$signed> for Value {
            fn from(i: $signed) -> Value {
                Value::Number(Number::from(i as i64))
            }
        })*
    };
}

value_from_int!(u8, u16, u32, u64, usize; i8, i16, i32, i64, isize);

impl From<f64> for Value {
    /// Non-finite floats become `null`, as in serde_json.
    fn from(f: f64) -> Value {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Value {
        Value::from(f64::from(f))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Value {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(item: Option<T>) -> Value {
        item.map_or(Value::Null, Into::into)
    }
}
