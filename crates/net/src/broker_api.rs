//! The broker over the wire: the server-side [`BrokerService`] and the
//! client-side [`RemoteBroker`].
//!
//! Both are generated from `mps_broker::broker_ops!`, the broker's
//! operation table: every row — a method of
//! [`mps_broker::BrokerTransport`] — is one opcode in [`op`], one entry
//! of [`OPS`], one stub and one dispatch arm, and what a row's fields
//! look like on the wire is the business of the [`Wire`] codecs (the
//! broker's own types have theirs below). The layouts are specified
//! normatively in `docs/WIRE_PROTOCOL.md` §5. Trace context
//! ([`mps_types::headers::TRACE_HEADER`]) rides the *request envelope*
//! headers on publishes, so a wire capture attributes every message to
//! its trace without decoding broker payloads.

use crate::client::ClientConfig;
use crate::server::{ServiceError, WireService};
use crate::wire::field::*;
use crate::wire::{
    wire_dispatch, wire_ops, wire_scalar, wire_stubs, Decoded, OpInfo, Stub, Wire, WireError,
    WireReader, WireWriter,
};
use mps_broker::{BrokerError, BrokerTransport, DeadLetterPolicy, Delivery, ExchangeType, Message};
use mps_types::headers::{SENT_MS_HEADER, TRACE_HEADER};
use std::fmt;
use std::sync::Arc;

/// Broker error status codes (`16..=24`); see `docs/WIRE_PROTOCOL.md` §7.
pub mod err {
    /// [`mps_broker::BrokerError::ExchangeNotFound`]
    pub const EXCHANGE_NOT_FOUND: u8 = 16;
    /// [`mps_broker::BrokerError::QueueNotFound`]
    pub const QUEUE_NOT_FOUND: u8 = 17;
    /// [`mps_broker::BrokerError::ExchangeTypeMismatch`]
    pub const EXCHANGE_TYPE_MISMATCH: u8 = 18;
    /// [`mps_broker::BrokerError::InvalidKey`]
    pub const INVALID_KEY: u8 = 19;
    /// [`mps_broker::BrokerError::UnknownDeliveryTag`]
    pub const UNKNOWN_DELIVERY_TAG: u8 = 20;
    /// [`mps_broker::BrokerError::QueueFull`]
    pub const QUEUE_FULL: u8 = 21;
    /// [`mps_broker::BrokerError::InvalidDeadLetter`]
    pub const INVALID_DEAD_LETTER: u8 = 22;
    /// [`mps_broker::BrokerError::Durability`]
    pub const DURABILITY: u8 = 23;
    /// [`mps_broker::BrokerError::Transport`]
    pub const TRANSPORT: u8 = 24;
}

wire_scalar! {
    ExchangeType => u8 [1]:
        |kind, w| w.u8(match kind {
            ExchangeType::Direct => 1,
            ExchangeType::Fanout => 2,
            ExchangeType::Topic => 3,
        }),
        |r, field| match r.u8(field)? {
            1 => ExchangeType::Direct,
            2 => ExchangeType::Fanout,
            3 => ExchangeType::Topic,
            value => return Err(WireError::BadDiscriminant { field: "exchange type", value }),
        };
}

impl Wire<message> for Message {
    const MIN_WIRE_BYTES: usize = 10;
    fn put(&self, w: &mut WireWriter) {
        w.string(self.routing_key().as_str()).bytes(self.payload());
        w.u16(self.headers().count() as u16);
        for (name, value) in self.headers() {
            w.string(name).string(value);
        }
    }
    fn get(r: &mut WireReader<'_>, _field: &'static str) -> Decoded<Message> {
        let key = r.string("routing key")?;
        // Borrowed: `Message::new` makes the one copy, into its `Arc<[u8]>`.
        let payload = r.bytes("payload")?;
        let header_count = r.u16("header count")?;
        let routing_key = key.parse().map_err(|_| WireError::BadDiscriminant {
            field: "routing key",
            value: 0,
        })?;
        let mut message = Message::new(routing_key, payload);
        for _ in 0..header_count {
            let name = r.string("header name")?;
            message = message.with_header(name, r.string("header value")?);
        }
        Ok(Ok(message))
    }
    /// The trace context additionally rides the request envelope so that
    /// wire-level observers can attribute frames to traces.
    fn envelope(&self, headers: &mut Vec<(String, String)>) {
        headers.extend(
            self.headers()
                .filter(|(name, _)| *name == TRACE_HEADER || *name == SENT_MS_HEADER)
                .map(|(name, value)| (name.to_string(), value.to_string())),
        );
    }
}

impl Wire<delivery> for Delivery {
    const MIN_WIRE_BYTES: usize = 19;
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.tag).u8(u8::from(self.redelivered));
        self.message.put(w);
    }
    fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<Delivery> {
        let tag = r.u64("tag")?;
        let redelivered = r.u8("redelivered")? != 0;
        Ok(Message::get(r, field)?.map(|message| Delivery {
            tag,
            message: Arc::new(message),
            redelivered,
        }))
    }
}

impl Wire<policy> for DeadLetterPolicy {
    const MIN_WIRE_BYTES: usize = 8;
    fn put(&self, w: &mut WireWriter) {
        w.u32(self.max_delivery_attempts).string(&self.target);
    }
    fn get(r: &mut WireReader<'_>, _field: &'static str) -> Decoded<DeadLetterPolicy> {
        Ok(Ok(DeadLetterPolicy {
            max_delivery_attempts: r.u32("max delivery attempts")?,
            target: r.string("target")?,
        }))
    }
}

/// Encodes a [`BrokerError`] as a wire status + payload.
#[must_use]
pub fn encode_broker_error(error: &BrokerError) -> ServiceError {
    let mut w = WireWriter::new();
    let (code, text) = match error {
        BrokerError::ExchangeNotFound(name) => (err::EXCHANGE_NOT_FOUND, name),
        BrokerError::QueueNotFound(name) => (err::QUEUE_NOT_FOUND, name),
        BrokerError::ExchangeTypeMismatch { name } => (err::EXCHANGE_TYPE_MISMATCH, name),
        BrokerError::InvalidKey(key) => (err::INVALID_KEY, key),
        BrokerError::UnknownDeliveryTag { queue, tag } => {
            w.string(queue).u64(*tag);
            return ServiceError {
                code: err::UNKNOWN_DELIVERY_TAG,
                payload: w.finish(),
            };
        }
        BrokerError::QueueFull(name) => (err::QUEUE_FULL, name),
        BrokerError::InvalidDeadLetter(reason) => (err::INVALID_DEAD_LETTER, reason),
        BrokerError::Durability(msg) => (err::DURABILITY, msg),
        BrokerError::Transport(msg) => (err::TRANSPORT, msg),
    };
    w.string(text);
    ServiceError {
        code,
        payload: w.finish(),
    }
}

/// Decodes a wire status + payload back into the exact [`BrokerError`].
/// Unknown codes degrade to [`BrokerError::Transport`], never a panic —
/// a newer server must not crash an older client.
#[must_use]
pub fn decode_broker_error(code: u8, payload: &[u8]) -> BrokerError {
    let mut r = WireReader::new(payload);
    let decoded = match code {
        err::EXCHANGE_NOT_FOUND => r.string("name").map(BrokerError::ExchangeNotFound),
        err::QUEUE_NOT_FOUND => r.string("name").map(BrokerError::QueueNotFound),
        err::EXCHANGE_TYPE_MISMATCH => r
            .string("name")
            .map(|name| BrokerError::ExchangeTypeMismatch { name }),
        err::INVALID_KEY => r.string("key").map(BrokerError::InvalidKey),
        err::UNKNOWN_DELIVERY_TAG => r.string("queue").and_then(|queue| {
            r.u64("tag")
                .map(|tag| BrokerError::UnknownDeliveryTag { queue, tag })
        }),
        err::QUEUE_FULL => r.string("name").map(BrokerError::QueueFull),
        err::INVALID_DEAD_LETTER => r.string("reason").map(BrokerError::InvalidDeadLetter),
        err::DURABILITY => r.string("msg").map(BrokerError::Durability),
        err::TRANSPORT => r.string("msg").map(BrokerError::Transport),
        other => {
            return BrokerError::Transport(format!(
                "unknown broker error code {other}: {}",
                String::from_utf8_lossy(payload)
            ))
        }
    };
    decoded.unwrap_or_else(|wire| {
        BrokerError::Transport(format!("undecodable broker error {code}: {wire}"))
    })
}

/// Serves any [`BrokerTransport`] — usually a local [`mps_broker::Broker`] —
/// over the wire protocol.
pub struct BrokerService {
    inner: Arc<dyn BrokerTransport>,
}

impl fmt::Debug for BrokerService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerService").finish_non_exhaustive()
    }
}

impl BrokerService {
    /// Wraps a transport for serving.
    #[must_use]
    pub fn new(inner: Arc<dyn BrokerTransport>) -> BrokerService {
        BrokerService { inner }
    }
}

/// A [`BrokerTransport`] that forwards every call to a remote
/// [`BrokerService`] over a [`ClientPool`](crate::ClientPool).
#[derive(Debug)]
pub struct RemoteBroker {
    stub: Stub<BrokerError>,
}

impl RemoteBroker {
    /// Creates a remote broker dialling `addr` lazily.
    #[must_use]
    pub fn connect(addr: impl Into<String>, config: ClientConfig) -> RemoteBroker {
        let stub = Stub::connect(addr, config, decode_broker_error, BrokerError::Transport);
        RemoteBroker { stub }
    }
}

/// Expands the broker's operation table into this module's share of it.
macro_rules! broker_wire {
    ([] $($rows:tt)*) => {
        wire_ops! { "§5" [false] { $($rows)* } }

        impl WireService for BrokerService {
            fn handle(
                &self,
                opcode: u8,
                _headers: &[(String, String)],
                body: &[u8],
            ) -> Result<Vec<u8>, ServiceError> {
                let unknown = WireError::BadDiscriminant {
                    field: "broker opcode",
                    value: opcode,
                };
                wire_dispatch! {
                    [opcode, r in body, self.inner, encode_broker_error, Err(unknown.into())]
                    $($rows)*
                }
            }

            fn role(&self) -> &'static str {
                "broker"
            }

            fn opcode_name(&self, opcode: u8) -> Option<&'static str> {
                OpInfo::name_of(OPS, opcode)
            }
        }

        impl BrokerTransport for RemoteBroker {
            wire_stubs! { [BrokerError, bare] $($rows)* }
        }
    };
}
mps_broker::broker_ops!(broker_wire);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, WireServer};
    use mps_broker::Broker;

    fn start_remote() -> (WireServer, RemoteBroker) {
        let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
        let server = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(BrokerService::new(broker)),
            ServerConfig::default(),
        )
        .unwrap();
        let remote =
            RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
        (server, remote)
    }

    #[test]
    fn full_topology_and_message_flow_over_tcp() {
        let (mut server, remote) = start_remote();
        remote.declare_exchange("app", ExchangeType::Topic).unwrap();
        remote.declare_queue("inbox").unwrap();
        remote.bind_queue("app", "inbox", "obs.#").unwrap();
        assert!(remote.exchange_exists("app"));
        assert!(remote.queue_exists("inbox"));
        assert!(!remote.queue_exists("ghost"));

        let fanout = remote.publish("app", "obs.paris.noise", b"{}").unwrap();
        assert_eq!(fanout, 1);
        assert_eq!(remote.queue_depth("inbox").unwrap(), 1);

        let deliveries = remote.consume("inbox", 10).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].routing_key().as_str(), "obs.paris.noise");
        remote.ack("inbox", deliveries[0].tag).unwrap();
        assert_eq!(remote.queue_depth("inbox").unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn headers_and_dead_letters_cross_the_wire() {
        let (mut server, remote) = start_remote();
        remote
            .declare_exchange("app", ExchangeType::Direct)
            .unwrap();
        remote.declare_queue("work").unwrap();
        remote.declare_queue("dead").unwrap();
        remote.bind_queue("app", "work", "job").unwrap();
        remote.configure_dead_letter("work", 1, "dead").unwrap();
        let policy = remote.dead_letter_policy("work").unwrap().unwrap();
        assert_eq!(policy.max_delivery_attempts, 1);
        assert_eq!(policy.target, "dead");
        assert!(remote.dead_letter_policy("dead").unwrap().is_none());

        let message = Message::new("job".parse().unwrap(), b"payload".to_vec())
            .with_header(TRACE_HEADER, "t-1")
            .with_header("content-type", "application/json");
        remote.publish_message("app", message).unwrap();
        let deliveries = remote.consume("work", 1).unwrap();
        assert_eq!(deliveries[0].message.header(TRACE_HEADER), Some("t-1"));
        assert_eq!(
            deliveries[0].message.header("content-type"),
            Some("application/json")
        );
        // Nack past the delivery budget: the message must dead-letter.
        remote.nack("work", deliveries[0].tag, true).unwrap();
        assert_eq!(remote.queue_depth("dead").unwrap(), 1);
        assert_eq!(remote.queue_depth("work").unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn broker_errors_come_back_typed() {
        let (mut server, remote) = start_remote();
        assert_eq!(
            remote.publish("ghost", "k", b"").unwrap_err(),
            BrokerError::ExchangeNotFound("ghost".into())
        );
        remote.declare_queue("q").unwrap();
        assert_eq!(
            remote.ack("q", 99).unwrap_err(),
            BrokerError::UnknownDeliveryTag {
                queue: "q".into(),
                tag: 99
            }
        );
        server.shutdown();
    }

    #[test]
    fn unreachable_server_degrades_to_transport_error() {
        let (server, _) = start_remote();
        let addr = server.local_addr().to_string();
        drop(server);
        let remote = RemoteBroker::connect(addr, ClientConfig::default());
        assert!(matches!(
            remote.declare_queue("q").unwrap_err(),
            BrokerError::Transport(_)
        ));
        assert!(!remote.queue_exists("q"));
    }

    #[test]
    fn error_codec_round_trips_every_variant() {
        let cases = vec![
            BrokerError::ExchangeNotFound("e".into()),
            BrokerError::QueueNotFound("q".into()),
            BrokerError::ExchangeTypeMismatch { name: "n".into() },
            BrokerError::InvalidKey("a..b".into()),
            BrokerError::UnknownDeliveryTag {
                queue: "q".into(),
                tag: 7,
            },
            BrokerError::QueueFull("q".into()),
            BrokerError::InvalidDeadLetter("self".into()),
            BrokerError::Durability("torn".into()),
            BrokerError::Transport("refused".into()),
        ];
        for case in cases {
            let encoded = encode_broker_error(&case);
            assert_eq!(decode_broker_error(encoded.code, &encoded.payload), case);
        }
    }

    /// What the hand-kept opcode table used to be checked for, now a
    /// property of the generated inventory: every row is in the §5 band,
    /// no two share a value or a name, and the dispatcher's telemetry
    /// label is the row's mnemonic. (`tests/wire_spec.rs` holds the rows
    /// to `docs/WIRE_PROTOCOL.md`; `tests/wire_corpus.rs` their bytes.)
    #[test]
    fn ops_inventory_is_unique_in_band_and_named() {
        let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
        let service = BrokerService::new(broker);
        let values: std::collections::BTreeSet<u8> = OPS.iter().map(|op| op.value).collect();
        let names: std::collections::BTreeSet<&str> = OPS.iter().map(|op| op.name).collect();
        assert_eq!(values.len(), OPS.len(), "an opcode value collides");
        assert_eq!(names.len(), OPS.len(), "an opcode name collides");
        assert_eq!(
            values,
            (1..=OPS.len() as u8).collect(),
            "the band is dense from 1"
        );
        for info in OPS {
            assert_eq!(service.opcode_name(info.value), Some(info.name));
            assert!(
                !info.scoped,
                "{}: no broker row is collection-scoped",
                info.name
            );
        }
        assert_eq!(service.opcode_name(0), None);
        let consume = OPS[op::CONSUME as usize - 1];
        assert_eq!(consume.name, "CONSUME");
        assert_eq!(consume.request, [("string", "queue"), ("u32", "max")]);
        assert_eq!(consume.reply, "deliveries");
    }
}
