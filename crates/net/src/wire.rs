//! Field encoding inside frame payloads, and what is generated from it.
//!
//! Frame payloads are flat sequences of little-endian fixed-width
//! integers and `u32`-length-prefixed byte strings — no self-describing
//! envelope, no varints; `docs/WIRE_PROTOCOL.md` is the normative
//! reference. [`WireWriter`] / [`WireReader`] are the primitives. On top
//! of them sits one codec trait, [`Wire`], implemented once per
//! *(Rust type, wire field)* pair — the [`field`] markers are the field
//! names the spec's tables use — and three emitters that turn an
//! operation table (`mps_broker::broker_ops!`,
//! `mps_docstore::docstore_ops!`) into the part of it this crate owns:
//! `wire_ops!` (the `op` constants and the [`OpInfo`] inventory),
//! `wire_stubs!` (a client's trait impl) and `wire_dispatch!` (a
//! server's `match`). No operation is written out anywhere else.

use crate::client::{ClientConfig, ClientPool, NetError};
use crate::server::ServiceError;
use std::fmt;
use std::sync::Arc;

/// A field-level decoding failure inside an already checksum-verified
/// payload — always a protocol bug or version skew, never line noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field was complete.
    Truncated {
        /// What the reader was trying to decode.
        field: &'static str,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Payload bytes remained after the last expected field.
    TrailingBytes(usize),
    /// A discriminant byte had no defined meaning.
    BadDiscriminant {
        /// What the discriminant selects.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { field } => write!(f, "payload truncated reading {field}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} unexpected trailing bytes"),
            WireError::BadDiscriminant { field, value } => {
                write!(f, "bad discriminant {value} for {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends wire-encoded fields to a byte vector.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Starts an empty payload.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Finishes and returns the encoded payload.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(v);
        self
    }
}

/// Reads wire-encoded fields off the front of a payload slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for reading.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated { field });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the payload is exhausted.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the payload is exhausted.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        let bytes = self.take(2, field)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the payload is exhausted.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let bytes = self.take(4, field)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the payload is exhausted.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let bytes = self.take(8, field)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the payload is exhausted.
    pub fn bytes(&mut self, field: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.u32(field)? as usize;
        self.take(len, field)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on exhaustion or
    /// [`WireError::BadUtf8`] on invalid UTF-8.
    pub fn string(&mut self, field: &'static str) -> Result<String, WireError> {
        let bytes = self.bytes(field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// The wire-field names of `docs/WIRE_PROTOCOL.md`, as marker types: the
/// `M` of [`Wire<M>`]. The integer and `bool` fields are marked by the
/// Rust primitive of the same name.
#[allow(
    non_camel_case_types,
    reason = "the markers spell the spec's field names"
)]
pub mod field {
    use std::marker::PhantomData;

    /// `u32` byte length, then that many bytes of UTF-8.
    #[derive(Debug)]
    pub enum string {}
    /// `u32` byte length, then that many raw bytes.
    #[derive(Debug)]
    pub enum bytes {}
    /// Canonical JSON text inside a `bytes` field.
    #[derive(Debug)]
    pub enum json {}
    /// No bytes at all: the reply of an operation that returns nothing.
    #[derive(Debug)]
    pub enum empty {}
    /// `u8` tag; `0` is absent, `1` is followed by one `T`.
    #[derive(Debug)]
    pub struct option<T>(PhantomData<T>);
    /// `u32` count, then that many `T`.
    #[derive(Debug)]
    pub struct seq<T>(PhantomData<T>);
    /// `string routing_key, bytes payload, u16 header count, (string
    /// name, string value)*` — a broker message.
    #[derive(Debug)]
    pub enum message {}
    /// `u64 tag, bool redelivered`, then a [`message`].
    #[derive(Debug)]
    pub enum delivery {}
    /// The `CONSUME` reply.
    pub type deliveries = seq<delivery>;
    /// A docs reply: JSON values, one `bytes` field each.
    pub type docs = seq<json>;
}
use field::{empty, option, seq, string};

/// What decoding one field yields. `Err` — the bytes are not this field;
/// the request is answered `STATUS_BAD_REQUEST`. `Ok(Err(_))` — the
/// field was read whole, but what it carries (JSON, a filter, an update)
/// does not parse; that is answered as the typed service error, and only
/// after every other field has been read. `Ok(Ok(_))` — the value.
pub type Decoded<T> = Result<Result<T, ServiceError>, WireError>;

/// The codec of one wire field `M` for one Rust type: the only place
/// that field's bytes are written or read. Implemented on the borrowed
/// form an argument is passed as (`str`, `Filter`); decoding
/// yields its owned form.
pub trait Wire<M>: ToOwned + 'static {
    /// The fewest bytes one value can occupy — what bounds how many
    /// elements a [`seq`] may announce in the bytes that remain.
    const MIN_WIRE_BYTES: usize;

    /// Appends the value.
    fn put(&self, w: &mut WireWriter);

    /// Reads one value; `field` names it in a [`WireError`].
    ///
    /// # Errors
    ///
    /// See [`Decoded`].
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<Self::Owned>;

    /// Copies whatever part of the value must also ride the request
    /// envelope's headers (a message's trace context); nothing, for most.
    fn envelope(&self, _headers: &mut Vec<(String, String)>) {}
}

/// Implements [`Wire`] for `Copy` types that are one fixed-width field.
macro_rules! wire_scalar {
    ($($ty:ty => $marker:ty [$size:literal]:
        |$v:ident, $w:ident| $put:expr, |$r:ident, $field:ident| $get:expr;)*) => {$(
        impl $crate::wire::Wire<$marker> for $ty {
            const MIN_WIRE_BYTES: usize = $size;
            fn put(&self, $w: &mut $crate::wire::WireWriter) {
                let $v = *self;
                $put;
            }
            fn get(
                $r: &mut $crate::wire::WireReader<'_>,
                $field: &'static str,
            ) -> $crate::wire::Decoded<$ty> {
                Ok(Ok($get))
            }
        }
    )*};
}
pub(crate) use wire_scalar;

wire_scalar! {
    u32 => u32 [4]: |v, w| w.u32(v), |r, field| r.u32(field)?;
    u64 => u64 [8]: |v, w| w.u64(v), |r, field| r.u64(field)?;
    usize => u64 [8]: |v, w| w.u64(v as u64), |r, field| r.u64(field)? as usize;
    usize => u32 [4]: |v, w| w.u32(v.min(u32::MAX as usize) as u32), |r, field| r.u32(field)? as usize;
    bool => bool [1]: |v, w| w.u8(u8::from(v)), |r, field| r.u8(field)? != 0;
}

impl Wire<empty> for () {
    const MIN_WIRE_BYTES: usize = 0;
    fn put(&self, _w: &mut WireWriter) {}
    fn get(_r: &mut WireReader<'_>, _field: &'static str) -> Decoded<()> {
        Ok(Ok(()))
    }
}

impl Wire<string> for str {
    const MIN_WIRE_BYTES: usize = 4;
    fn put(&self, w: &mut WireWriter) {
        w.string(self);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<String> {
        r.string(field).map(Ok)
    }
}

/// A sequence's elements are owned: `seq<string>` is a `Vec<String>`.
impl Wire<string> for String {
    const MIN_WIRE_BYTES: usize = <str as Wire<string>>::MIN_WIRE_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.as_str().put(w);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<String> {
        <str as Wire<string>>::get(r, field)
    }
}

impl<M, T: Wire<M, Owned = T> + Clone> Wire<option<M>> for Option<T> {
    const MIN_WIRE_BYTES: usize = 1;
    fn put(&self, w: &mut WireWriter) {
        match self {
            None => {
                w.u8(0);
            }
            Some(value) => {
                w.u8(1);
                value.put(w);
            }
        }
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<Option<T>> {
        if r.u8(field)? == 0 {
            return Ok(Ok(None));
        }
        Ok(T::get(r, field)?.map(Some))
    }
}

impl<M, T: Wire<M, Owned = T> + Clone> Wire<seq<M>> for [T] {
    const MIN_WIRE_BYTES: usize = 4;
    fn put(&self, w: &mut WireWriter) {
        w.u32(self.len() as u32);
        for item in self {
            item.put(w);
        }
    }
    /// Reserves for no more elements than the remaining bytes could
    /// hold: a count the payload cannot back is `Truncated` before
    /// anything is allocated. When elements are rejected the last
    /// rejection answers.
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<Vec<T>> {
        let count = r.u32(field)? as usize;
        if count > r.remaining() / T::MIN_WIRE_BYTES.max(1) {
            return Err(WireError::Truncated { field });
        }
        let mut items = Ok(Vec::with_capacity(count));
        for _ in 0..count {
            match (T::get(r, field)?, &mut items) {
                (Ok(item), Ok(items)) => items.push(item),
                (Ok(_), Err(_)) => {}
                (Err(rejected), _) => items = Err(rejected),
            }
        }
        Ok(items)
    }
}

impl<M, T: Wire<M, Owned = T> + Clone> Wire<seq<M>> for Vec<T> {
    const MIN_WIRE_BYTES: usize = 4;
    fn put(&self, w: &mut WireWriter) {
        <[T] as Wire<seq<M>>>::put(self, w);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<Vec<T>> {
        <[T] as Wire<seq<M>>>::get(r, field)
    }
}

/// Decodes a whole reply body as the one field `M`.
///
/// # Errors
///
/// See [`Decoded`]; bytes after the field are [`WireError::TrailingBytes`].
pub fn reply<M, T: Wire<M, Owned = T>>(body: &[u8]) -> Decoded<T> {
    let mut r = WireReader::new(body);
    let value = T::get(&mut r, "reply")?;
    r.expect_end()?;
    Ok(value)
}

/// What every generated client stub calls: a shared [`ClientPool`], the
/// collection name (if any) each of its request bodies starts with, and
/// how its service spells an error.
#[derive(Debug)]
pub(crate) struct Stub<E> {
    pool: Arc<ClientPool>,
    scope: Option<String>,
    /// Rebuilds the service's typed error from a status and payload.
    remote: fn(u8, &[u8]) -> E,
    /// Wraps a failure that never reached the service, or a reply that
    /// is not the field it should be.
    local: fn(String) -> E,
}

impl<E> Stub<E> {
    /// A stub dialling `addr` lazily.
    pub(crate) fn connect(
        addr: impl Into<String>,
        config: ClientConfig,
        remote: fn(u8, &[u8]) -> E,
        local: fn(String) -> E,
    ) -> Stub<E> {
        let pool = Arc::new(ClientPool::new(addr, config));
        Stub {
            pool,
            scope: None,
            remote,
            local,
        }
    }

    /// The same connection pool, addressing the collection `name`.
    pub(crate) fn scoped(&self, name: &str) -> Stub<E> {
        let scope = Some(name.to_string());
        Stub {
            pool: Arc::clone(&self.pool),
            scope,
            ..*self
        }
    }

    /// Starts a request body.
    pub(crate) fn request(&self) -> WireWriter {
        let mut w = WireWriter::new();
        if let Some(scope) = &self.scope {
            w.string(scope);
        }
        w
    }

    /// One round trip, the reply decoded as the single field `M`.
    pub(crate) fn call<M, T: Wire<M, Owned = T>>(
        &self,
        opcode: u8,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<T, E> {
        let remote = |rejected: ServiceError| (self.remote)(rejected.code, &rejected.payload);
        let answered = self.pool.call(opcode, headers, body);
        let body = answered.map_err(|err| match err {
            NetError::Remote { code, payload } => remote(ServiceError { code, payload }),
            other => (self.local)(other.to_string()),
        })?;
        match reply::<M, T>(&body) {
            Ok(value) => value.map_err(remote),
            Err(err) => Err((self.local)(format!("bad reply: {err}"))),
        }
    }
}

/// One row of a service's operation table, as data: what
/// `wire_ops!` keeps of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInfo {
    /// The opcode.
    pub value: u8,
    /// Its `SCREAMING_SNAKE` mnemonic, as in `docs/WIRE_PROTOCOL.md`.
    pub name: &'static str,
    /// Whether the body starts with the `string` name of the collection
    /// the operation addresses.
    pub scoped: bool,
    /// The request fields in wire order: `(field marker, argument name)`,
    /// the marker as `stringify!` spells it (`seq < u64 >`).
    pub request: &'static [(&'static str, &'static str)],
    /// The success reply's field marker.
    pub reply: &'static str,
}

impl OpInfo {
    /// The mnemonic of `opcode` in `ops`, a table in opcode order (what
    /// a service's telemetry labels its requests with, once per request).
    /// A retired opcode leaves a gap in the table and has no name.
    #[must_use]
    pub fn name_of(ops: &[OpInfo], opcode: u8) -> Option<&'static str> {
        let at = ops.binary_search_by_key(&opcode, |row| row.value).ok()?;
        Some(ops[at].name)
    }
}

/// Picks `then` when the bracket holds a token and `otherwise` when it is
/// empty: how the emitters branch on a row's optional parts (`degrades`,
/// a by-reference argument).
macro_rules! row_if {
    ([] { $($then:tt)* } { $($otherwise:tt)* }) => { $($otherwise)* };
    ([$present:tt] { $($then:tt)* } { $($otherwise:tt)* }) => { $($then)* };
}
pub(crate) use row_if;

/// Picks `then` for a `degrades` row of a `bare` stub set, `otherwise`
/// for every other row.
macro_rules! bare_if {
    ([bare $degrades:ident] { $($then:tt)* } { $($otherwise:tt)* }) => { $($then)* };
    ([$($other:ident)*] { $($then:tt)* } { $($otherwise:tt)* }) => { $($otherwise)* };
}
pub(crate) use bare_if;

/// Emits, from one or more groups of table rows, `pub mod op` (a `u8`
/// constant per row) and `pub const OPS: &[OpInfo]`. A group is
/// `[scoped] { rows… }`, `scoped` saying whether its operations carry a
/// leading collection name.
macro_rules! wire_ops {
    ($table:literal $([$scoped:literal] { $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)* })+) => {
        #[doc = concat!("The opcodes; see `docs/WIRE_PROTOCOL.md` ", $table, ".")]
        pub mod op {
            $($(#[doc = concat!("`", stringify!($method), "`; see [`OPS`](super::OPS).")]
            pub const $NAME: u8 = $op;)*)+
        }

        #[doc = concat!("The operation table of `docs/WIRE_PROTOCOL.md` ", $table, ", in opcode order.")]
        pub const OPS: &[$crate::wire::OpInfo] = &[$($($crate::wire::OpInfo {
            value: $op,
            name: stringify!($NAME),
            scoped: $scoped,
            request: &[$((stringify!($wire), stringify!($arg))),*],
            reply: stringify!($rwire),
        },)*)+];
    };
}
pub(crate) use wire_ops;

/// Emits a client's methods, one per row, over its `self.stub` (a
/// [`Stub`]): encode the arguments in order, call the opcode, decode the
/// reply as the row's reply field. In a `bare` set (as opposed to a
/// `result` set) a `degrades` row returns its value unwrapped and
/// answers the default on any failure.
macro_rules! wire_stubs {
    ([$error:ty, $mode:ident] $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)*) => {
        $(fn $method(&self $(, $arg: $(&$rty)? $($vty)?)*)
            -> $crate::wire::bare_if!([$mode $($degrades)?] { $ret } { Result<$ret, $error> }) {
            #[allow(unused_mut, reason = "a row without arguments writes nothing")]
            let (mut w, mut headers) = (self.stub.request(), Vec::new());
            $(let field = $crate::wire::row_if!([$($rty)?] { $arg } { &$arg });
            $crate::wire::Wire::<$wire>::put(field, &mut w);
            $crate::wire::Wire::<$wire>::envelope(field, &mut headers);)*
            let answer = self.stub.call::<$rwire, $ret>(op::$NAME, &headers, &w.finish());
            $crate::wire::bare_if!([$mode $($degrades)?] { answer.unwrap_or_default() } { answer })
        })*
    };
}
pub(crate) use wire_stubs;

/// Emits a server's `match $opcode { … }`, one arm per row, reading the
/// body through the reader `$r` (opened here with `$r in body`, or
/// already open): decode every argument to its owned form, require
/// the body to end there, surface the first rejected argument, call the
/// operation on `$inner` and encode its answer as the row's reply field.
/// `$encode` maps the operation's error to a [`ServiceError`]; `$unknown`
/// is the fallback arm's value.
macro_rules! wire_dispatch {
    ([$opcode:expr, $r:ident in $body:expr, $($context:tt)*] $($rows:tt)*) => {{
        let mut $r = $crate::wire::WireReader::new($body);
        $crate::wire::wire_dispatch! { [$opcode, $r, $($context)*] $($rows)* }
    }};
    ([$opcode:expr, $r:ident, $inner:expr, $encode:path, $unknown:expr]
        $($(#[$doc:meta])* $op:literal $NAME:ident
        fn $method:ident($($arg:ident: $(&$rty:tt)? $($vty:path)? => $wire:ty),*)
            -> $ret:ty => $rwire:ty $(, $degrades:ident)?;)*) => {
        match $opcode {
            $(op::$NAME => {
                $(let $arg = <$($rty)? $($vty)? as $crate::wire::Wire<$wire>>::get(
                    &mut $r, stringify!($arg))?;)*
                $r.expect_end()?;
                $(let $arg = $arg?;)*
                let answer = $inner.$method($($crate::wire::row_if!([$($rty)?] { &$arg } { $arg })),*);
                let answer: $ret = $crate::wire::row_if!(
                    [$($degrades)?] { answer } { answer.map_err(|error| $encode(&error))? }
                );
                let mut w = $crate::wire::WireWriter::new();
                $crate::wire::Wire::<$rwire>::put(&answer, &mut w);
                Ok(w.finish())
            })*
            _ => $unknown,
        }
    };
}
pub(crate) use wire_dispatch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_string_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(u64::MAX)
            .string("città")
            .bytes(b"\x00\xff");
        let buf = w.finish();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), u64::MAX);
        assert_eq!(r.string("f").unwrap(), "città");
        assert_eq!(r.bytes("g").unwrap(), b"\x00\xff");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_names_the_field() {
        let mut r = WireReader::new(&[1, 0]);
        assert_eq!(
            r.u32("queue_depth"),
            Err(WireError::Truncated {
                field: "queue_depth"
            })
        );
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = WireWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.string("s"), Err(WireError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_are_flagged() {
        let mut w = WireWriter::new();
        w.u8(1).u8(2);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let _ = r.u8("first").unwrap();
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn string_length_beyond_payload_truncates() {
        // Length prefix says 100 bytes but only 2 follow.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"ab");
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.bytes("s"), Err(WireError::Truncated { .. })));
    }

    fn encoded<M, T: Wire<M> + ?Sized>(value: &T) -> Vec<u8> {
        let mut w = WireWriter::new();
        value.put(&mut w);
        w.finish()
    }

    #[test]
    fn field_codecs_round_trip_through_their_markers() {
        use field::{option, seq, string};
        let names = vec!["a".to_string(), "città".to_string()];
        assert_eq!(
            reply::<seq<string>, Vec<String>>(&encoded(&names)),
            Ok(Ok(names))
        );
        let some: Option<usize> = Some(7);
        assert_eq!(
            encoded::<option<u64>, _>(&some),
            [1, 7, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(reply::<option<u64>, Option<usize>>(&[0]), Ok(Ok(None)));
        assert_eq!(reply::<field::empty, ()>(&[]), Ok(Ok(())));
        // The same `usize` is a different field under a different marker,
        // and saturates rather than wraps into the narrower one.
        assert_eq!(encoded::<u64, usize>(&9), 9u64.to_le_bytes());
        assert_eq!(encoded::<u32, usize>(&usize::MAX), u32::MAX.to_le_bytes());
        // `bool` decodes any non-zero byte as true and is written as 1.
        assert_eq!(reply::<bool, bool>(&[2]), Ok(Ok(true)));
        assert_eq!(encoded::<bool, _>(&true), [1]);
    }

    #[test]
    fn a_reply_is_exactly_one_field() {
        assert_eq!(reply::<u64, u64>(&[0; 9]), Err(WireError::TrailingBytes(1)));
        assert_eq!(
            reply::<u64, u64>(&[0; 7]),
            Err(WireError::Truncated { field: "reply" })
        );
    }

    #[test]
    fn seq_reserves_no_more_than_the_payload_could_hold() {
        use field::{seq, string};
        // `u32::MAX` elements announced, 8 bytes present: refused before
        // any element is read (and before anything is reserved).
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0; 8]);
        let mut r = WireReader::new(&hostile);
        assert_eq!(
            <[u64] as Wire<seq<u64>>>::get(&mut r, "tags"),
            Err(WireError::Truncated { field: "tags" })
        );
        assert_eq!(r.remaining(), 8, "only the count was consumed");
        // One element too many for the bytes that follow is refused the
        // same way; exactly enough decodes.
        let mut two = 3u32.to_le_bytes().to_vec();
        two.extend_from_slice(&[0; 16]);
        assert!(reply::<seq<u64>, Vec<u64>>(&two).is_err());
        two[0] = 2;
        assert_eq!(reply::<seq<u64>, Vec<u64>>(&two), Ok(Ok(vec![0, 0])));
        // A length-prefixed element is at least its 4-byte prefix.
        let mut strings = 3u32.to_le_bytes().to_vec();
        strings.extend_from_slice(&[0; 8]);
        assert!(reply::<seq<string>, Vec<String>>(&strings).is_err());
    }
}
