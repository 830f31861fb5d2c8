//! Spans: one hop's account of one observation copy.

use super::{SpanId, TraceId};
use std::fmt;

/// The pipeline hop a span was recorded at.
///
/// The variants mirror the physical stations an observation passes
/// through, in pipeline order. [`Hop::ALL`] iterates them in that order,
/// which is what the latency waterfall renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    missing_docs,
    reason = "the as_str strings and module docs are the taxonomy"
)]
pub enum Hop {
    /// Observation captured on the device (trace root).
    Sensed,
    /// Residence in the client's in-memory buffer before the first
    /// upload attempt.
    ClientBuffer,
    /// Residence in the client's bounded retry queue after a visible
    /// upload failure.
    RetryQueue,
    /// The faulty-link send decision (deliver, drop, black-hole,
    /// duplicate).
    LinkTransmit,
    /// Residence in the faulty link's delay line.
    LinkDelay,
    /// Broker exchange routing at publish time.
    BrokerPublish,
    /// Wait in a broker queue between publish and consume.
    BrokerQueue,
    /// Parked in a broker dead-letter queue after delivery attempts were
    /// exhausted.
    BrokerDlq,
    /// Written to a document-store collection (the success terminal).
    DocstoreWrite,
    /// Diverted to the quarantine collection at ingest.
    Quarantine,
    /// Membership in an assimilation batch (fan-in: one span links many
    /// observation traces).
    AssimBatch,
    /// A write-ahead-log recovery scan on server restart (one span per
    /// reopened store; only present in runs with durability on).
    WalRecovery,
}

impl Hop {
    /// Every hop, in pipeline order.
    pub const ALL: [Hop; 12] = [
        Hop::Sensed,
        Hop::ClientBuffer,
        Hop::RetryQueue,
        Hop::LinkTransmit,
        Hop::LinkDelay,
        Hop::BrokerPublish,
        Hop::BrokerQueue,
        Hop::BrokerDlq,
        Hop::DocstoreWrite,
        Hop::Quarantine,
        Hop::AssimBatch,
        Hop::WalRecovery,
    ];

    /// The snake_case name used in exports and rendered tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Hop::Sensed => "sensed",
            Hop::ClientBuffer => "client_buffer",
            Hop::RetryQueue => "retry_queue",
            Hop::LinkTransmit => "link_transmit",
            Hop::LinkDelay => "link_delay",
            Hop::BrokerPublish => "broker_publish",
            Hop::BrokerQueue => "broker_queue",
            Hop::BrokerDlq => "broker_dlq",
            Hop::DocstoreWrite => "docstore_write",
            Hop::Quarantine => "quarantine",
            Hop::AssimBatch => "assim_batch",
            Hop::WalRecovery => "wal_recovery",
        }
    }
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened to the observation copy at a hop.
///
/// **Terminal** outcomes end a trace: the observation either reached
/// durable storage (`Ok`) or was lost in a *counted* way. Non-terminal
/// outcomes (`Forwarded`, `Retried`) hand the copy to the next hop. The
/// conservation invariant checked by the e2e suite: every sensed trace
/// has exactly one terminal outcome among its primary (non-duplicate)
/// spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// Stored durably — the success terminal.
    Ok,
    /// Passed on to the next hop (non-terminal success).
    Forwarded,
    /// Released from the retry queue for another attempt
    /// (non-terminal).
    Retried,
    /// Dropped by fault injection (counted loss).
    Dropped,
    /// Swallowed by a topic black-hole window (counted loss).
    Blackholed,
    /// Parked in a dead-letter queue after exhausting delivery attempts.
    DeadLettered,
    /// Diverted to quarantine at ingest (malformed or late).
    Quarantined,
    /// Shed from a full retry queue (counted loss).
    Shed,
}

impl Outcome {
    /// Every outcome, terminals first.
    pub const ALL: [Outcome; 8] = [
        Outcome::Ok,
        Outcome::Dropped,
        Outcome::Blackholed,
        Outcome::DeadLettered,
        Outcome::Quarantined,
        Outcome::Shed,
        Outcome::Forwarded,
        Outcome::Retried,
    ];

    /// True when this outcome ends the trace (the copy will not be seen
    /// by any later hop).
    pub fn is_terminal(self) -> bool {
        !matches!(self, Outcome::Forwarded | Outcome::Retried)
    }

    /// True for terminal outcomes other than [`Outcome::Ok`] — the
    /// counted-loss outcomes the attribution table reports.
    pub fn is_loss(self) -> bool {
        self.is_terminal() && self != Outcome::Ok
    }

    /// The snake_case name used in exports and rendered tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Forwarded => "forwarded",
            Outcome::Retried => "retried",
            Outcome::Dropped => "dropped",
            Outcome::Blackholed => "blackholed",
            Outcome::DeadLettered => "dead_lettered",
            Outcome::Quarantined => "quarantined",
            Outcome::Shed => "shed",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One hop's record of one observation copy: where, when (sim-clock),
/// what happened, and why.
///
/// Build with [`SpanRecord::new`] and the chained setters, then hand to
/// [`FlightRecorder::record`], which assigns the [`SpanId`].
///
/// [`FlightRecorder::record`]: crate::trace::FlightRecorder::record
///
/// # Examples
///
/// ```
/// use mps_telemetry::trace::{Hop, Outcome, SpanRecord, TraceId};
///
/// let span = SpanRecord::new(TraceId::for_observation(4, 0), Hop::Quarantine, 120_000)
///     .started_at(60_000)
///     .outcome(Outcome::Quarantined)
///     .attr("reason", "late");
/// assert_eq!(span.duration_ms(), 60_000);
/// assert!(span.outcome.is_terminal());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// The span's own id — assigned by the recorder, zero until then.
    pub span: SpanId,
    /// The span that handed this copy over, when known. Parent links are
    /// best-effort: spans within a trace are always totally ordered by
    /// recording id, which is what reconstruction relies on.
    pub parent: Option<SpanId>,
    /// The hop that recorded the span.
    pub hop: Hop,
    /// Sim-clock start, milliseconds since the simulation epoch.
    pub start_ms: i64,
    /// Sim-clock end, milliseconds since the simulation epoch.
    pub end_ms: i64,
    /// What happened to the copy at this hop.
    pub outcome: Outcome,
    /// True when the copy is a fault-injected duplicate of the primary.
    pub duplicate: bool,
    /// Fan-in links: member traces of a batch span.
    pub links: Vec<TraceId>,
    /// Structured key-value attributes (reason codes, attempt counts…).
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// A new span at `hop` with a zero-length interval at `at_ms` and
    /// outcome [`Outcome::Forwarded`].
    pub fn new(trace: TraceId, hop: Hop, at_ms: i64) -> Self {
        Self {
            trace,
            span: SpanId::from_raw(0),
            parent: None,
            hop,
            start_ms: at_ms,
            end_ms: at_ms,
            outcome: Outcome::Forwarded,
            duplicate: false,
            links: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// Sets the start of the interval (the end stays at the recording
    /// time given to [`SpanRecord::new`]).
    pub fn started_at(mut self, start_ms: i64) -> Self {
        self.start_ms = start_ms;
        self
    }

    /// Sets the outcome.
    pub fn outcome(mut self, outcome: Outcome) -> Self {
        self.outcome = outcome;
        self
    }

    /// Sets the parent span.
    pub fn parent(mut self, parent: Option<SpanId>) -> Self {
        self.parent = parent;
        self
    }

    /// Marks the span as describing a duplicate copy.
    pub fn duplicate(mut self, duplicate: bool) -> Self {
        self.duplicate = duplicate;
        self
    }

    /// Adds a fan-in link to a member trace.
    pub fn link(mut self, trace: TraceId) -> Self {
        self.links.push(trace);
        self
    }

    /// Adds a structured attribute.
    pub fn attr(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.attrs.push((key, value.into()));
        self
    }

    /// The span's sim-clock duration in milliseconds (clamped at zero).
    pub fn duration_ms(&self) -> i64 {
        (self.end_ms - self.start_ms).max(0)
    }

    /// Serialises the span as one JSON line (hand-rolled: this crate is
    /// dependency-free).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"trace\":\"");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.trace));
        let _ =
            std::fmt::Write::write_fmt(&mut out, format_args!("\",\"span\":{}", self.span.raw()));
        if let Some(parent) = self.parent {
            let _ =
                std::fmt::Write::write_fmt(&mut out, format_args!(",\"parent\":{}", parent.raw()));
        }
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"hop\":\"{}\",\"start_ms\":{},\"end_ms\":{},\"outcome\":\"{}\"",
                self.hop, self.start_ms, self.end_ms, self.outcome
            ),
        );
        if self.duplicate {
            out.push_str(",\"duplicate\":true");
        }
        if !self.links.is_empty() {
            out.push_str(",\"links\":[");
            for (i, link) in self.links.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\"{link}\""));
            }
            out.push(']');
        }
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (key, value)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json_into(&mut out, key);
                out.push_str("\":\"");
                escape_json_into(&mut out, value);
                out.push('"');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses one JSON line previously produced by
    /// [`SpanRecord::to_jsonl`] — the inverse the fleet observability
    /// plane needs to rebuild traces from flight-recorder drains that
    /// crossed a process boundary as text.
    ///
    /// Accepts any key order and skips unknown keys, so a drain from a
    /// newer process still parses. Returns `None` on malformed input or
    /// when a required field (`trace`, `hop`, `start_ms`, `end_ms`,
    /// `outcome`) is missing. Attribute keys are interned: well-known
    /// keys map to their static spelling and a novel key leaks one small
    /// allocation, bounded in practice by the fixed attr vocabulary of
    /// the emitting process.
    pub fn from_jsonl(line: &str) -> Option<Self> {
        let mut p = JsonCursor::new(line.trim());
        p.expect(b'{')?;
        let mut trace = None;
        let mut span = SpanId::from_raw(0);
        let mut parent = None;
        let mut hop = None;
        let mut start_ms = None;
        let mut end_ms = None;
        let mut outcome = None;
        let mut duplicate = false;
        let mut links = Vec::new();
        let mut attrs = Vec::new();
        if !p.eat(b'}') {
            loop {
                let key = p.parse_string()?;
                p.expect(b':')?;
                match key.as_str() {
                    "trace" => trace = Some(p.parse_string()?.parse::<TraceId>().ok()?),
                    "span" => span = SpanId::from_raw(p.parse_u64()?),
                    "parent" => parent = Some(SpanId::from_raw(p.parse_u64()?)),
                    "hop" => {
                        let name = p.parse_string()?;
                        hop = Some(Hop::ALL.into_iter().find(|h| h.as_str() == name)?);
                    }
                    "start_ms" => start_ms = Some(p.parse_i64()?),
                    "end_ms" => end_ms = Some(p.parse_i64()?),
                    "outcome" => {
                        let name = p.parse_string()?;
                        outcome = Some(Outcome::ALL.into_iter().find(|o| o.as_str() == name)?);
                    }
                    "duplicate" => duplicate = p.parse_bool()?,
                    "links" => {
                        p.expect(b'[')?;
                        if !p.eat(b']') {
                            loop {
                                links.push(p.parse_string()?.parse::<TraceId>().ok()?);
                                if !p.eat(b',') {
                                    break;
                                }
                            }
                            p.expect(b']')?;
                        }
                    }
                    "attrs" => {
                        p.expect(b'{')?;
                        if !p.eat(b'}') {
                            loop {
                                let attr_key = p.parse_string()?;
                                p.expect(b':')?;
                                let value = p.parse_string()?;
                                attrs.push((intern_attr_key(&attr_key), value));
                                if !p.eat(b',') {
                                    break;
                                }
                            }
                            p.expect(b'}')?;
                        }
                    }
                    _ => p.skip_value(0)?,
                }
                if !p.eat(b',') {
                    break;
                }
            }
            p.expect(b'}')?;
        }
        if !p.at_end() {
            return None;
        }
        Some(Self {
            trace: trace?,
            span,
            parent,
            hop: hop?,
            start_ms: start_ms?,
            end_ms: end_ms?,
            outcome: outcome?,
            duplicate,
            links,
            attrs,
        })
    }
}

/// Returns the static spelling of a span attribute key, leaking one
/// small allocation for a key outside the workspace vocabulary (the
/// `attrs` field stores `&'static str` keys so recording stays
/// allocation-light on the hot path).
fn intern_attr_key(key: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "attempt",
        "collection",
        "copies",
        "device",
        "dir",
        "instance",
        "members",
        "opcode",
        "queue",
        "reason",
        "records_replayed",
        "routed",
        "snapshot_lsn",
        "torn_tail",
        "window",
    ];
    match KNOWN.iter().find(|k| **k == key) {
        Some(k) => k,
        None => Box::leak(key.to_owned().into_boxed_str()),
    }
}

/// A minimal single-line JSON reader for [`SpanRecord::from_jsonl`].
/// Only the subset `to_jsonl` emits is fully supported; other values
/// can at least be skipped.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        self.eat(b).then_some(())
    }

    fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    fn expect_literal(&mut self, lit: &str) -> Option<()> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            let c = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let escape = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(
                                char::from_u32(code)?.encode_utf8(&mut buf).as_bytes(),
                            );
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn parse_u64(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn parse_i64(&mut self) -> Option<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn parse_bool(&mut self) -> Option<bool> {
        match self.peek()? {
            b't' => self.expect_literal("true").map(|()| true),
            b'f' => self.expect_literal("false").map(|()| false),
            _ => None,
        }
    }

    /// Skips one value of any JSON type (for unknown keys). `depth`
    /// bounds recursion so a hostile drain can't blow the stack.
    fn skip_value(&mut self, depth: u32) -> Option<()> {
        if depth > 32 {
            return None;
        }
        match self.peek()? {
            b'"' => {
                self.parse_string()?;
            }
            b'{' => {
                self.pos += 1;
                if !self.eat(b'}') {
                    loop {
                        self.parse_string()?;
                        self.expect(b':')?;
                        self.skip_value(depth + 1)?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b'}')?;
                }
            }
            b'[' => {
                self.pos += 1;
                if !self.eat(b']') {
                    loop {
                        self.skip_value(depth + 1)?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b']')?;
                }
            }
            b't' => self.expect_literal("true")?,
            b'f' => self.expect_literal("false")?,
            b'n' => self.expect_literal("null")?,
            _ => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                if self.pos == start {
                    return None;
                }
            }
        }
        Some(())
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminality_matches_the_taxonomy() {
        for outcome in Outcome::ALL {
            let terminal = !matches!(outcome, Outcome::Forwarded | Outcome::Retried);
            assert_eq!(outcome.is_terminal(), terminal, "{outcome}");
        }
        assert!(!Outcome::Ok.is_loss());
        assert!(Outcome::Dropped.is_loss());
        assert!(!Outcome::Retried.is_loss());
    }

    #[test]
    fn hop_order_is_pipeline_order() {
        let names: Vec<_> = Hop::ALL.iter().map(|h| h.as_str()).collect();
        assert_eq!(names[0], "sensed");
        assert_eq!(*names.last().unwrap(), "wal_recovery");
        assert_eq!(names.len(), 12);
        // No duplicates.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn builder_sets_every_field() {
        let trace = TraceId::from_raw(9);
        let span = SpanRecord::new(trace, Hop::LinkDelay, 500)
            .started_at(100)
            .outcome(Outcome::Dropped)
            .parent(Some(SpanId::from_raw(3)))
            .duplicate(true)
            .link(TraceId::from_raw(10))
            .attr("reason", "random");
        assert_eq!(span.duration_ms(), 400);
        assert_eq!(span.parent, Some(SpanId::from_raw(3)));
        assert!(span.duplicate);
        assert_eq!(span.links, vec![TraceId::from_raw(10)]);
        assert_eq!(span.attrs, vec![("reason", "random".to_owned())]);
    }

    #[test]
    fn duration_clamps_negative_intervals() {
        let span = SpanRecord::new(TraceId::from_raw(1), Hop::Sensed, 10).started_at(50);
        assert_eq!(span.duration_ms(), 0);
    }

    #[test]
    fn jsonl_is_wellformed_and_complete() {
        let span = SpanRecord::new(TraceId::from_raw(0xab), Hop::Quarantine, 120)
            .started_at(60)
            .outcome(Outcome::Quarantined)
            .parent(Some(SpanId::from_raw(2)))
            .duplicate(true)
            .link(TraceId::from_raw(1))
            .attr("reason", "la\"te\n");
        let line = span.to_jsonl();
        assert_eq!(
            line,
            "{\"trace\":\"00000000000000ab\",\"span\":0,\"parent\":2,\
             \"hop\":\"quarantine\",\"start_ms\":60,\"end_ms\":120,\
             \"outcome\":\"quarantined\",\"duplicate\":true,\
             \"links\":[\"0000000000000001\"],\
             \"attrs\":{\"reason\":\"la\\\"te\\n\"}}"
        );
    }

    #[test]
    fn jsonl_round_trips_every_field() {
        let span = SpanRecord::new(TraceId::from_raw(0xab), Hop::Quarantine, 120)
            .started_at(60)
            .outcome(Outcome::Quarantined)
            .parent(Some(SpanId::from_raw(2)))
            .duplicate(true)
            .link(TraceId::from_raw(1))
            .attr("reason", "la\"te\n");
        let parsed = SpanRecord::from_jsonl(&span.to_jsonl()).expect("parses");
        assert_eq!(parsed, span);
    }

    #[test]
    fn jsonl_round_trips_the_minimal_span() {
        let span = SpanRecord::new(TraceId::from_raw(1), Hop::Sensed, -5).outcome(Outcome::Ok);
        let parsed = SpanRecord::from_jsonl(&span.to_jsonl()).expect("parses");
        assert_eq!(parsed, span);
    }

    #[test]
    fn from_jsonl_skips_unknown_keys() {
        let line = "{\"trace\":\"00000000000000ab\",\"future\":[1,{\"x\":null}],\
                    \"hop\":\"sensed\",\"start_ms\":0,\"end_ms\":3,\"outcome\":\"ok\"}";
        let parsed = SpanRecord::from_jsonl(line).expect("parses");
        assert_eq!(parsed.trace, TraceId::from_raw(0xab));
        assert_eq!(parsed.hop, Hop::Sensed);
        assert_eq!(parsed.end_ms, 3);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"trace\":\"zz\",\"hop\":\"sensed\",\"start_ms\":0,\"end_ms\":0,\"outcome\":\"ok\"}",
            "{\"trace\":\"00000000000000ab\",\"hop\":\"warp\",\"start_ms\":0,\"end_ms\":0,\"outcome\":\"ok\"}",
            "{\"trace\":\"00000000000000ab\",\"hop\":\"sensed\",\"start_ms\":0,\"end_ms\":0}",
            "{\"trace\":\"00000000000000ab\",\"hop\":\"sensed\",\"start_ms\":0,\"end_ms\":0,\"outcome\":\"ok\"}trailing",
        ] {
            assert!(SpanRecord::from_jsonl(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn from_jsonl_decodes_unicode_escapes() {
        let span = SpanRecord::new(TraceId::from_raw(7), Hop::Sensed, 0)
            .outcome(Outcome::Ok)
            .attr("reason", "tab\tbel\u{7}é");
        let parsed = SpanRecord::from_jsonl(&span.to_jsonl()).expect("parses");
        assert_eq!(parsed.attrs, span.attrs);
    }

    #[test]
    fn jsonl_minimal_span_omits_optional_fields() {
        let span = SpanRecord::new(TraceId::from_raw(1), Hop::Sensed, 0).outcome(Outcome::Ok);
        let line = span.to_jsonl();
        assert!(!line.contains("parent"));
        assert!(!line.contains("duplicate"));
        assert!(!line.contains("links"));
        assert!(!line.contains("attrs"));
        assert!(line.ends_with('}'));
    }
}
