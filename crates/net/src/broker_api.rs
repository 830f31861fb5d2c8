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
//! ([`mps_telemetry::trace::TRACE_HEADER`]) rides the *request envelope*
//! headers on publishes, so a wire capture attributes every message to
//! its trace without decoding broker payloads.

use crate::client::ClientConfig;
use crate::server::{ServiceError, WireService};
use crate::wire::field::*;
use crate::wire::{
    wire_dispatch, wire_ops, wire_stubs, Decoded, OpInfo, Stub, Wire, WireError, WireReader,
    WireWriter,
};
use mps_broker::{BrokerError, BrokerTransport, Delivery, Message};
use mps_telemetry::trace::{SENT_MS_HEADER, TRACE_HEADER};
use std::fmt;
use std::sync::Arc;

/// Broker error status codes (`16..=24`); see `docs/WIRE_PROTOCOL.md` §7.
/// `18` and `21` are retired and reserved: never sent, never reused.
pub mod err {
    /// [`mps_broker::BrokerError::ExchangeNotFound`]
    pub const EXCHANGE_NOT_FOUND: u8 = 16;
    /// [`mps_broker::BrokerError::QueueNotFound`]
    pub const QUEUE_NOT_FOUND: u8 = 17;
    /// [`mps_broker::BrokerError::InvalidKey`]
    pub const INVALID_KEY: u8 = 19;
    /// [`mps_broker::BrokerError::UnknownDeliveryTag`]
    pub const UNKNOWN_DELIVERY_TAG: u8 = 20;
    /// [`mps_broker::BrokerError::InvalidDeadLetter`]
    pub const INVALID_DEAD_LETTER: u8 = 22;
    /// [`mps_broker::BrokerError::Durability`]
    pub const DURABILITY: u8 = 23;
    /// [`mps_broker::BrokerError::Transport`]
    pub const TRANSPORT: u8 = 24;
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

/// Encodes a [`BrokerError`] as a wire status + payload.
#[must_use]
pub fn encode_broker_error(error: &BrokerError) -> ServiceError {
    let mut w = WireWriter::new();
    let (code, text) = match error {
        BrokerError::ExchangeNotFound(name) => (err::EXCHANGE_NOT_FOUND, name),
        BrokerError::QueueNotFound(name) => (err::QUEUE_NOT_FOUND, name),
        BrokerError::InvalidKey(key) => (err::INVALID_KEY, key),
        BrokerError::UnknownDeliveryTag { queue, tag } => {
            w.string(queue).u64(*tag);
            return ServiceError {
                code: err::UNKNOWN_DELIVERY_TAG,
                payload: w.finish(),
            };
        }
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
/// Unknown codes — the reserved ones among them — degrade to
/// [`BrokerError::Transport`], never a panic: a newer server must not
/// crash an older client.
#[must_use]
pub fn decode_broker_error(code: u8, payload: &[u8]) -> BrokerError {
    let mut r = WireReader::new(payload);
    let decoded = match code {
        err::EXCHANGE_NOT_FOUND => r.string("name").map(BrokerError::ExchangeNotFound),
        err::QUEUE_NOT_FOUND => r.string("name").map(BrokerError::QueueNotFound),
        err::INVALID_KEY => r.string("key").map(BrokerError::InvalidKey),
        err::UNKNOWN_DELIVERY_TAG => r.string("queue").and_then(|queue| {
            r.u64("tag")
                .map(|tag| BrokerError::UnknownDeliveryTag { queue, tag })
        }),
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
            wire_stubs! { [BrokerError, result] $($rows)* }
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
        remote.declare_exchange("app").unwrap();
        remote.declare_queue("inbox").unwrap();
        remote.bind_queue("app", "inbox", "obs.#").unwrap();
        assert_eq!(remote.queue_depth("inbox").unwrap(), 0);
        assert_eq!(
            remote.queue_depth("ghost").unwrap_err(),
            BrokerError::QueueNotFound("ghost".into())
        );

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
        remote.declare_exchange("app").unwrap();
        remote.declare_queue("work").unwrap();
        remote.declare_queue("dead").unwrap();
        remote.bind_queue("app", "work", "job").unwrap();
        remote.configure_dead_letter("work", 1, "dead").unwrap();

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
        assert!(matches!(
            remote.queue_depth("q").unwrap_err(),
            BrokerError::Transport(_)
        ));
    }

    #[test]
    fn error_codec_round_trips_every_variant() {
        let cases = vec![
            BrokerError::ExchangeNotFound("e".into()),
            BrokerError::QueueNotFound("q".into()),
            BrokerError::InvalidKey("a..b".into()),
            BrokerError::UnknownDeliveryTag {
                queue: "q".into(),
                tag: 7,
            },
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
    /// in opcode order, no two share a value or a name, no retired
    /// opcode is reused, and the dispatcher's telemetry label is the
    /// row's mnemonic. (`tests/wire_spec.rs` holds the rows to
    /// `docs/WIRE_PROTOCOL.md`; `tests/wire_corpus.rs` their bytes.)
    #[test]
    fn ops_inventory_is_unique_in_band_and_named() {
        let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
        let service = BrokerService::new(broker);
        let values: Vec<u8> = OPS.iter().map(|op| op.value).collect();
        let names: std::collections::BTreeSet<&str> = OPS.iter().map(|op| op.name).collect();
        assert!(
            values.windows(2).all(|pair| pair[0] < pair[1]),
            "opcode order, no value twice"
        );
        assert_eq!(names.len(), OPS.len(), "an opcode name collides");
        let retired: Vec<u8> = RETIRED.iter().map(|(op, _, _)| *op).collect();
        let band: Vec<u8> = (1..=20).filter(|op| !retired.contains(op)).collect();
        assert_eq!(values, band, "the band is 1..=20 less the retired opcodes");
        for &op in &retired {
            assert_eq!(service.opcode_name(op), None, "{op} is retired");
        }
        for info in OPS {
            assert_eq!(service.opcode_name(info.value), Some(info.name));
            assert!(
                !info.scoped,
                "{}: no broker row is collection-scoped",
                info.name
            );
        }
        assert_eq!(service.opcode_name(0), None);
        let consume = OPS.iter().find(|info| info.value == op::CONSUME).unwrap();
        assert_eq!(consume.name, "CONSUME");
        assert_eq!(consume.request, [("string", "queue"), ("u32", "max")]);
        assert_eq!(consume.reply, "deliveries");
    }

    /// Writes a request body.
    type Body = fn(&mut WireWriter);

    /// Each retired opcode, and a request body a version-1 peer from
    /// before its retirement would send with it to this test's broker.
    const RETIRED: [(u8, &str, Body); 7] = [
        (3, "DECLARE_QUEUE_WITH_CAPACITY", |w| {
            w.string("small").u64(8);
        }),
        (4, "EXCHANGE_EXISTS", |w| {
            w.string("app");
        }),
        (5, "QUEUE_EXISTS", |w| {
            w.string("inbox");
        }),
        (8, "UNBIND_QUEUE", |w| {
            w.string("app").string("inbox").string("obs.#");
        }),
        (13, "DEAD_LETTER_POLICY", |w| {
            w.string("inbox");
        }),
        (15, "PUBLISH", |w| {
            w.string("app")
                .string("obs.nice.noise")
                .bytes(b"\x00\x01\xff");
        }),
        (18, "ACK", |w| {
            w.string("inbox").u64(1);
        }),
    ];

    /// Each retired opcode's old request, and a `DECLARE_EXCHANGE` that
    /// still carries a kind byte (1 = direct, 2 = fanout, 3 = topic),
    /// is refused over a loopback connection with `STATUS_BAD_REQUEST` —
    /// an unknown opcode, a trailing byte; the same connection serves
    /// `QUEUE_DEPTH` after each refusal, and the broker holds afterwards
    /// exactly what it held before.
    #[test]
    fn retired_operations_are_refused_over_the_wire() {
        use crate::client::{NetError, WireConn};
        use crate::rpc::STATUS_BAD_REQUEST;
        let broker = Arc::new(Broker::new());
        broker.declare_exchange("app").unwrap();
        broker.declare_queue("inbox").unwrap();
        broker.bind_queue("app", "inbox", "obs.#").unwrap();
        for payload in [&b"a"[..], b"b"] {
            broker.publish("app", "obs.paris.noise", payload).unwrap();
        }
        let in_flight = broker.consume("inbox", 1).unwrap();
        assert_eq!(in_flight[0].tag, 0);
        let held = |b: &Broker| (b.exchanges(), b.queues(), b.queue_snapshot("inbox"));
        let before = held(&broker);

        let served: Arc<dyn BrokerTransport> = broker.clone();
        let service = Arc::new(BrokerService::new(served));
        let mut server = WireServer::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
        let mut conn =
            WireConn::connect(server.local_addr().to_string(), &ClientConfig::default()).unwrap();
        let with_kind = |kind: u8| -> Vec<u8> {
            let mut w = WireWriter::new();
            w.string("metrics").u8(kind);
            w.finish()
        };
        let mut requests: Vec<(u8, String, Vec<u8>, WireError)> = RETIRED
            .iter()
            .map(|(op, name, body)| {
                let mut w = WireWriter::new();
                body(&mut w);
                let unknown = WireError::BadDiscriminant {
                    field: "broker opcode",
                    value: *op,
                };
                (*op, (*name).to_owned(), w.finish(), unknown)
            })
            .collect();
        for kind in 1..=3 {
            let name = format!("DECLARE_EXCHANGE with kind {kind}");
            let trailing = WireError::TrailingBytes(1);
            requests.push((op::DECLARE_EXCHANGE, name, with_kind(kind), trailing));
        }
        let mut depth = WireWriter::new();
        depth.string("inbox");
        let depth = depth.finish();
        for (opcode, name, body, why) in &requests {
            match conn.call(*opcode, &[], body) {
                Err(NetError::Remote { code, payload }) => {
                    assert_eq!(code, STATUS_BAD_REQUEST, "{name}");
                    assert_eq!(payload, why.to_string().as_bytes(), "{name}");
                }
                other => panic!("{name} answered {other:?}"),
            }
            let reply = conn.call(op::QUEUE_DEPTH, &[], &depth).unwrap();
            assert_eq!(
                reply,
                1u64.to_le_bytes(),
                "{name}: the connection serves on"
            );
        }
        assert_eq!(held(&broker), before);
        server.shutdown();
    }
}
