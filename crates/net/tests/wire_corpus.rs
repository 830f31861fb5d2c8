//! Golden wire frames: the bytes every broker and docstore RPC puts on
//! the wire, pinned as hex literals.
//!
//! For each opcode the corpus holds the request body the client stub
//! encodes for fixed arguments and the reply the service encodes from a
//! fixed in-memory [`Broker`] / [`Store`] state; for each `err::*` code
//! it holds the error payload. Two directions are asserted against the
//! same literals: the stubs, driven over a loopback [`WireServer`]
//! through a recording [`Tap`], must produce exactly the golden request
//! bodies (and decode the golden replies to the expected values), and
//! the services, fed the golden requests directly, must answer with
//! exactly the golden replies. A refactor of either side that moves one
//! byte fails here, by opcode name. What an older peer sends for an
//! operation or a field the wire no longer has is pinned too, as a
//! request that must be refused.
//!
//! The same frames are the seed corpus of a totality check: damaged
//! (truncated, extended, bit-flipped) under 256 seeds, no request makes
//! a dispatcher panic or over-allocate and no reply a stub.

use mps_broker::{Broker, BrokerError, BrokerTransport, DurabilityConfig, Message};
use mps_docstore::{
    DocId, DocstoreTransport, Filter, FindOptions, SortOrder, Store, StoreError, Update,
};
use mps_net::broker_api::{self, decode_broker_error, encode_broker_error};
use mps_net::docstore_api::{self, decode_store_error, encode_store_error};
use mps_net::rpc::{STATUS_BAD_REQUEST, STATUS_OK};
use mps_net::wire::{OpInfo, WireWriter};
use mps_net::{
    BrokerService, ClientConfig, ClientPool, DocstoreService, NetError, RemoteBroker, RemoteStore,
    ServerConfig, ServiceError, WireServer, WireService,
};
use mps_simcore::check::check;
use mps_simcore::SimRng;
use mps_telemetry::trace::{SENT_MS_HEADER, TRACE_HEADER};
use serde_json::{json, Value};
use std::sync::{Arc, Mutex};

// ------------------------------------------------------------- plumbing

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// One request/response exchange as the service saw it.
#[derive(Debug, Clone)]
struct Exchange {
    opcode: u8,
    headers: Vec<(String, String)>,
    request: Vec<u8>,
    status: u8,
    reply: Vec<u8>,
}

/// Records every exchange on its way to the wrapped service.
struct Tap {
    inner: Arc<dyn WireService>,
    log: Mutex<Vec<Exchange>>,
}

impl Tap {
    fn new(inner: Arc<dyn WireService>) -> Arc<Tap> {
        Arc::new(Tap {
            inner,
            log: Mutex::new(Vec::new()),
        })
    }

    fn take(&self) -> Vec<Exchange> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

impl WireService for Tap {
    fn handle(
        &self,
        opcode: u8,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Vec<u8>, ServiceError> {
        let result = self.inner.handle(opcode, headers, body);
        let (status, reply) = match &result {
            Ok(reply) => (STATUS_OK, reply.clone()),
            Err(error) => (error.code, error.payload.clone()),
        };
        self.log.lock().unwrap().push(Exchange {
            opcode,
            headers: headers.to_vec(),
            request: body.to_vec(),
            status,
            reply,
        });
        result
    }
}

fn serve(service: Arc<dyn WireService>) -> WireServer {
    WireServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback")
}

/// One corpus call: the opcode it must put on the wire and the stub
/// invocation (with fixed arguments) that does so, returning the `Debug`
/// rendering of what the stub decoded.
struct Call<C> {
    name: &'static str,
    opcode: u8,
    call: fn(&C) -> String,
}

/// The golden bytes of one corpus call: request body, response status
/// and body (hex), and the value the stub decodes the reply to.
struct Frame {
    name: &'static str,
    request: &'static str,
    status: u8,
    reply: &'static str,
    decoded: &'static str,
}

fn shown<T: std::fmt::Debug>(value: T) -> String {
    format!("{value:?}")
}

/// Documents render as their JSON text, not as the value tree's `Debug`.
fn docs(result: Result<Vec<Value>, StoreError>) -> String {
    match result {
        Ok(docs) => serde_json::to_string(&Value::Array(docs)).unwrap(),
        Err(error) => format!("Err({error:?})"),
    }
}

/// Drives every corpus call through `client` and checks what the tap
/// saw, and what the stub returned, against the literals.
fn assert_stub_direction<C>(calls: &[Call<C>], frames: &[Frame], client: &C, tap: &Tap) {
    assert_eq!(calls.len(), frames.len(), "one frame per call");
    for (call, frame) in calls.iter().zip(frames) {
        assert_eq!(call.name, frame.name, "calls and frames are in step");
        let decoded = (call.call)(client);
        let seen = tap.take();
        assert_eq!(seen.len(), 1, "{}: exactly one RPC", call.name);
        let seen = &seen[0];
        assert_eq!(seen.opcode, call.opcode, "{}: opcode", call.name);
        assert_eq!(hex(&seen.request), frame.request, "{}: request", call.name);
        assert_eq!(seen.status, frame.status, "{}: status", call.name);
        assert_eq!(hex(&seen.reply), frame.reply, "{}: reply", call.name);
        assert_eq!(decoded, frame.decoded, "{}: decoded reply", call.name);
    }
}

/// Feeds every golden request straight to `service` and checks the
/// answers against the literals.
fn assert_dispatch_direction<C>(calls: &[Call<C>], frames: &[Frame], service: &dyn WireService) {
    for (call, frame) in calls.iter().zip(frames) {
        let (status, reply) = answer(service, call.opcode, &unhex(frame.request));
        assert_eq!(status, frame.status, "{}: status", call.name);
        assert_eq!(hex(&reply), frame.reply, "{}: reply", call.name);
    }
}

fn answer(service: &dyn WireService, opcode: u8, body: &[u8]) -> (u8, Vec<u8>) {
    match service.handle(opcode, &[], body) {
        Ok(reply) => (STATUS_OK, reply),
        Err(error) => (error.code, error.payload),
    }
}

// --------------------------------------------------------------- broker

/// The fixed broker state every broker golden is answered from.
fn broker_state() -> Arc<dyn BrokerTransport> {
    let broker = Broker::new();
    broker.declare_exchange("app").unwrap();
    broker.declare_exchange("edge").unwrap();
    broker.declare_queue("inbox").unwrap();
    broker.declare_queue("dead").unwrap();
    broker.declare_queue("small").unwrap();
    broker.bind_queue("app", "inbox", "obs.#").unwrap();
    let traced = Message::new("obs.paris.noise".parse().unwrap(), &br#"{"spl":61.5}"#[..])
        .with_header(TRACE_HEADER, "t-1");
    broker.publish_message("app", traced).unwrap();
    broker.publish("app", "obs.lyon.gps", &b"hi"[..]).unwrap();
    Arc::new(broker)
}

mod bop {
    pub use mps_net::broker_api::op::*;
}

/// `publish` and `ack` are not rows of their own: they cross the wire
/// as a `PUBLISH_MESSAGE` without headers and an `ACK_MANY` of one tag.
/// `BIND_QUEUE` comes after the messages are routed, so that `work`
/// receives none of them.
const BROKER_CALLS: &[Call<RemoteBroker>] = &[
    Call {
        name: "DECLARE_EXCHANGE",
        opcode: bop::DECLARE_EXCHANGE,
        call: |b| shown(b.declare_exchange("metrics")),
    },
    Call {
        name: "DECLARE_QUEUE",
        opcode: bop::DECLARE_QUEUE,
        call: |b| shown(b.declare_queue("work")),
    },
    Call {
        name: "BIND_EXCHANGE",
        opcode: bop::BIND_EXCHANGE,
        call: |b| shown(b.bind_exchange("edge", "app", "#")),
    },
    Call {
        name: "DELETE_EXCHANGE",
        opcode: bop::DELETE_EXCHANGE,
        call: |b| shown(b.delete_exchange("metrics")),
    },
    Call {
        name: "DELETE_QUEUE",
        opcode: bop::DELETE_QUEUE,
        call: |b| shown(b.delete_queue("small")),
    },
    Call {
        name: "CONFIGURE_DEAD_LETTER",
        opcode: bop::CONFIGURE_DEAD_LETTER,
        call: |b| shown(b.configure_dead_letter("inbox", 3, "dead")),
    },
    Call {
        name: "QUEUE_DEPTH",
        opcode: bop::QUEUE_DEPTH,
        call: |b| shown(b.queue_depth("inbox")),
    },
    Call {
        name: "PUBLISH_MESSAGE (publish)",
        opcode: bop::PUBLISH_MESSAGE,
        call: |b| shown(b.publish("app", "obs.nice.noise", b"\x00\x01\xff")),
    },
    Call {
        name: "PUBLISH_MESSAGE",
        opcode: bop::PUBLISH_MESSAGE,
        call: |b| {
            let message = Message::new("obs.lyon.noise".parse().unwrap(), &b"{}"[..])
                .with_header(TRACE_HEADER, "t-2")
                .with_header(SENT_MS_HEADER, "1700")
                .with_header("content-type", "application/json");
            shown(b.publish_message("app", message))
        },
    },
    Call {
        name: "CONSUME",
        opcode: bop::CONSUME,
        call: |b| shown(b.consume("inbox", 3)),
    },
    Call {
        name: "ACK_MANY (ack)",
        opcode: bop::ACK_MANY,
        call: |b| shown(b.ack("inbox", 1)),
    },
    Call {
        name: "NACK",
        opcode: bop::NACK,
        call: |b| shown(b.nack("inbox", 2, true)),
    },
    Call {
        name: "ACK_MANY",
        opcode: bop::ACK_MANY,
        call: |b| shown(b.ack_many("inbox", &[0])),
    },
    Call {
        name: "PURGE_QUEUE",
        opcode: bop::PURGE_QUEUE,
        call: |b| shown(b.purge_queue("inbox")),
    },
    Call {
        name: "BIND_QUEUE",
        opcode: bop::BIND_QUEUE,
        call: |b| shown(b.bind_queue("app", "work", "obs.*.noise")),
    },
    Call {
        name: "PUBLISH_MESSAGE (publish, ExchangeNotFound)",
        opcode: bop::PUBLISH_MESSAGE,
        call: |b| shown(b.publish("ghost", "k", b"")),
    },
    Call {
        name: "ACK_MANY (ack, UnknownDeliveryTag)",
        opcode: bop::ACK_MANY,
        call: |b| shown(b.ack("inbox", 99)),
    },
    Call {
        name: "ACK_MANY (UnknownDeliveryTag)",
        opcode: bop::ACK_MANY,
        call: |b| shown(b.ack_many("inbox", &[7, 8])),
    },
];

/// What the parent tree puts on the wire for [`BROKER_CALLS`], in order.
/// Every frame of an operation that stayed is the bytes it was before
/// the broker shed its retired operations, but `DECLARE_EXCHANGE`'s
/// request, which lost its kind byte, and the frames `publish` and `ack`
/// now make.
const BROKER_FRAMES: &[Frame] = &[
    Frame {
        name: "DECLARE_EXCHANGE",
        request: "070000006d657472696373",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "DECLARE_QUEUE",
        request: "04000000776f726b",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "BIND_EXCHANGE",
        request: "0400000065646765030000006170700100000023",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "DELETE_EXCHANGE",
        request: "070000006d657472696373",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "DELETE_QUEUE",
        request: "05000000736d616c6c",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "CONFIGURE_DEAD_LETTER",
        request: "05000000696e626f78030000000400000064656164",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "QUEUE_DEPTH",
        request: "05000000696e626f78",
        status: 0,
        reply: "0200000000000000",
        decoded: "Ok(2)",
    },
    Frame {
        name: "PUBLISH_MESSAGE (publish)",
        request: "030000006170700e0000006f62732e6e6963652e6e6f697365030000000001ff0000",
        status: 0,
        reply: "0100000000000000",
        decoded: "Ok(1)",
    },
    Frame {
        name: "PUBLISH_MESSAGE",
        request: "030000006170700e0000006f62732e6c796f6e2e6e6f697365020000007b7d03000c000000636f6e74656e742d74797065100000006170706c69636174696f6e2f6a736f6e07000000782d747261636503000000742d320f000000782d74726163652d73656e742d6d730400000031373030",
        status: 0,
        reply: "0100000000000000",
        decoded: "Ok(1)",
    },
    Frame {
        name: "CONSUME",
        request: "05000000696e626f7803000000",
        status: 0,
        reply: "030000000000000000000000000f0000006f62732e70617269732e6e6f6973650c0000007b2273706c223a36312e357d010007000000782d747261636503000000742d310100000000000000000c0000006f62732e6c796f6e2e67707302000000686900000200000000000000000e0000006f62732e6e6963652e6e6f697365030000000001ff0000",
        decoded: "Ok([Delivery { tag: 0, message: Message { routing_key: RoutingKey(\"obs.paris.noise\"), payload: [123, 34, 115, 112, 108, 34, 58, 54, 49, 46, 53, 125], headers: {\"x-trace\": \"t-1\"} }, redelivered: false }, Delivery { tag: 1, message: Message { routing_key: RoutingKey(\"obs.lyon.gps\"), payload: [104, 105], headers: {} }, redelivered: false }, Delivery { tag: 2, message: Message { routing_key: RoutingKey(\"obs.nice.noise\"), payload: [0, 1, 255], headers: {} }, redelivered: false }])",
    },
    Frame {
        name: "ACK_MANY (ack)",
        request: "05000000696e626f78010000000100000000000000",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "NACK",
        request: "05000000696e626f78020000000000000001",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "ACK_MANY",
        request: "05000000696e626f78010000000000000000000000",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "PURGE_QUEUE",
        request: "05000000696e626f78",
        status: 0,
        reply: "0200000000000000",
        decoded: "Ok(2)",
    },
    Frame {
        name: "BIND_QUEUE",
        request: "0300000061707004000000776f726b0b0000006f62732e2a2e6e6f697365",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "PUBLISH_MESSAGE (publish, ExchangeNotFound)",
        request: "0500000067686f7374010000006b000000000000",
        status: 16,
        reply: "0500000067686f7374",
        decoded: "Err(ExchangeNotFound(\"ghost\"))",
    },
    Frame {
        name: "ACK_MANY (ack, UnknownDeliveryTag)",
        request: "05000000696e626f78010000006300000000000000",
        status: 20,
        reply: "05000000696e626f786300000000000000",
        decoded: "Err(UnknownDeliveryTag { queue: \"inbox\", tag: 99 })",
    },
    Frame {
        name: "ACK_MANY (UnknownDeliveryTag)",
        request: "05000000696e626f780200000007000000000000000800000000000000",
        status: 20,
        reply: "05000000696e626f780700000000000000",
        decoded: "Err(UnknownDeliveryTag { queue: \"inbox\", tag: 7 })",
    },
];

#[test]
fn broker_stubs_put_the_golden_bytes_on_the_wire() {
    let tap = Tap::new(Arc::new(BrokerService::new(broker_state())));
    let mut server = serve(tap.clone());
    let remote = RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
    assert_stub_direction(BROKER_CALLS, BROKER_FRAMES, &remote, &tap);
    server.shutdown();
}

#[test]
fn broker_dispatch_answers_the_golden_requests_with_the_golden_replies() {
    let service = BrokerService::new(broker_state());
    assert_dispatch_direction(BROKER_CALLS, BROKER_FRAMES, &service);
}

/// The trace context of a published message also rides the request
/// envelope (`docs/WIRE_PROTOCOL.md` §10) and nothing else does.
#[test]
fn publish_message_copies_trace_headers_onto_the_envelope() {
    let tap = Tap::new(Arc::new(BrokerService::new(broker_state())));
    let mut server = serve(tap.clone());
    let remote = RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
    for call in BROKER_CALLS {
        (call.call)(&remote);
        let seen = tap.take().remove(0);
        if call.name == "PUBLISH_MESSAGE" {
            let expected = [(TRACE_HEADER, "t-2"), (SENT_MS_HEADER, "1700")]
                .map(|(k, v)| (k.to_string(), v.to_string()));
            assert_eq!(seen.headers, expected);
        } else {
            assert!(
                seen.headers.is_empty(),
                "{}: no envelope headers",
                call.name
            );
        }
    }
    server.shutdown();
}

// ------------------------------------------------------------- docstore

/// The fixed store state every docstore golden is answered from.
fn store_state() -> Arc<dyn DocstoreTransport> {
    let store = Store::new();
    let obs = store.collection("obs");
    obs.insert_many(vec![
        json!({"city": "paris", "spl": 61.5}),
        json!({"city": "lyon", "spl": 40.0}),
        json!({"city": "paris", "spl": 72.25}),
    ])
    .unwrap();
    obs.create_index("city").unwrap();
    store
        .collection("scratch")
        .insert_one(json!({"tmp": true}))
        .unwrap();
    store
        .collection("mixed")
        .insert_many(vec![json!({"k": [1]}), json!({"k": [2]})])
        .unwrap();
    Arc::new(store)
}

mod dop {
    pub use mps_net::docstore_api::op::*;
}

fn paris() -> Filter {
    Filter::eq("city", "paris")
}

const DOCSTORE_CALLS: &[Call<RemoteStore>] = &[
    Call {
        name: "INSERT_ONE",
        opcode: dop::INSERT_ONE,
        call: |s| {
            shown(
                s.collection("obs")
                    .insert_one(json!({"city": "nice", "spl": 55.0})),
            )
        },
    },
    Call {
        name: "INSERT_MANY",
        opcode: dop::INSERT_MANY,
        call: |s| {
            shown(s.collection("obs").insert_many(vec![
                json!({"city": "paris", "spl": 30.0}),
                json!({"city": "lille", "spl": 48.5, "tags": ["a", "b"]}),
            ]))
        },
    },
    Call {
        name: "GET (present)",
        opcode: dop::GET,
        call: |s| docs(Ok(s.collection("obs").get(DocId(2)).into_iter().collect())),
    },
    Call {
        name: "GET (absent)",
        opcode: dop::GET,
        call: |s| {
            docs(Ok(s
                .collection("obs")
                .get(DocId(999))
                .into_iter()
                .collect()))
        },
    },
    Call {
        name: "LEN",
        opcode: dop::LEN,
        call: |s| shown(s.collection("obs").len()),
    },
    Call {
        name: "FIND",
        opcode: dop::FIND,
        call: |s| docs(s.collection("obs").find(&paris())),
    },
    Call {
        name: "FIND_WITH_OPTIONS",
        opcode: dop::FIND_WITH_OPTIONS,
        call: |s| {
            let options = FindOptions::new()
                .sort("spl", SortOrder::Descending)
                .limit(2);
            docs(
                s.collection("obs")
                    .find_with_options(&Filter::gte("spl", 40.0), &options),
            )
        },
    },
    Call {
        name: "COUNT",
        opcode: dop::COUNT,
        call: |s| shown(s.collection("obs").count(&paris())),
    },
    Call {
        name: "UPDATE_MANY",
        opcode: dop::UPDATE_MANY,
        call: |s| {
            shown(
                s.collection("obs")
                    .update_many(&Filter::eq("city", "lyon"), &Update::set("spl", 41.5)),
            )
        },
    },
    Call {
        name: "DELETE_MANY",
        opcode: dop::DELETE_MANY,
        call: |s| {
            shown(
                s.collection("obs")
                    .delete_many(&Filter::eq("city", "lille")),
            )
        },
    },
    Call {
        name: "CREATE_INDEX",
        opcode: dop::CREATE_INDEX,
        call: |s| shown(s.collection("obs").create_index("spl")),
    },
    Call {
        name: "DROP_INDEX",
        opcode: dop::DROP_INDEX,
        call: |s| shown(s.collection("obs").drop_index("spl")),
    },
    Call {
        name: "HAS_INDEX",
        opcode: dop::HAS_INDEX,
        call: |s| shown(s.collection("obs").has_index("city")),
    },
    Call {
        name: "INDEX_CARDINALITY (present)",
        opcode: dop::INDEX_CARDINALITY,
        call: |s| shown(s.collection("obs").index_cardinality("city")),
    },
    Call {
        name: "INDEX_CARDINALITY (absent)",
        opcode: dop::INDEX_CARDINALITY,
        call: |s| shown(s.collection("obs").index_cardinality("nope")),
    },
    Call {
        name: "DISTINCT",
        opcode: dop::DISTINCT,
        call: |s| docs(Ok(s.collection("obs").distinct("city", &Filter::True))),
    },
    Call {
        name: "ALL",
        opcode: dop::ALL,
        call: |s| docs(Ok(s.collection("obs").all())),
    },
    Call {
        name: "CLEAR",
        opcode: dop::CLEAR,
        call: |s| shown(s.collection("scratch").clear()),
    },
    Call {
        name: "HAS_COLLECTION",
        opcode: dop::HAS_COLLECTION,
        call: |s| shown(s.has_collection("obs")),
    },
    Call {
        name: "COLLECTION_NAMES",
        opcode: dop::COLLECTION_NAMES,
        call: |s| shown(s.collection_names()),
    },
    Call {
        name: "DROP_COLLECTION",
        opcode: dop::DROP_COLLECTION,
        call: |s| shown(s.drop_collection("scratch")),
    },
    Call {
        name: "TOTAL_DOCUMENTS",
        opcode: dop::TOTAL_DOCUMENTS,
        call: |s| shown(s.total_documents()),
    },
    Call {
        name: "INSERT_ONE (NotAnObject)",
        opcode: dop::INSERT_ONE,
        call: |s| shown(s.collection("obs").insert_one(json!([1, 2, 3]))),
    },
    Call {
        name: "DROP_COLLECTION (CollectionNotFound)",
        opcode: dop::DROP_COLLECTION,
        call: |s| shown(s.drop_collection("ghost")),
    },
    Call {
        name: "FIND_WITH_OPTIONS (Unorderable)",
        opcode: dop::FIND_WITH_OPTIONS,
        call: |s| {
            let options = FindOptions::new().sort("k", SortOrder::Ascending);
            docs(
                s.collection("mixed")
                    .find_with_options(&Filter::True, &options),
            )
        },
    },
];

/// What the parent tree puts on the wire for [`DOCSTORE_CALLS`], in order.
const DOCSTORE_FRAMES: &[Frame] = &[
    Frame {
        name: "INSERT_ONE",
        request: "030000006f62731a0000007b2263697479223a226e696365222c2273706c223a35352e307d",
        status: 0,
        reply: "0300000000000000",
        decoded: "Ok(DocId(3))",
    },
    Frame {
        name: "INSERT_MANY",
        request: "030000006f6273020000001b0000007b2263697479223a227061726973222c2273706c223a33302e307d2c0000007b2263697479223a226c696c6c65222c2273706c223a34382e352c2274616773223a5b2261222c2262225d7d",
        status: 0,
        reply: "0200000004000000000000000500000000000000",
        decoded: "Ok([DocId(4), DocId(5)])",
    },
    Frame {
        name: "GET (present)",
        request: "030000006f62730200000000000000",
        status: 0,
        reply: "01240000007b225f6964223a322c2263697479223a227061726973222c2273706c223a37322e32357d",
        decoded: "[{\"_id\":2,\"city\":\"paris\",\"spl\":72.25}]",
    },
    Frame {
        name: "GET (absent)",
        request: "030000006f6273e703000000000000",
        status: 0,
        reply: "00",
        decoded: "[]",
    },
    Frame {
        name: "LEN",
        request: "030000006f6273",
        status: 0,
        reply: "0600000000000000",
        decoded: "6",
    },
    Frame {
        name: "FIND",
        request: "030000006f6273180000007b2263697479223a7b22246571223a227061726973227d7d",
        status: 0,
        reply: "03000000230000007b225f6964223a302c2263697479223a227061726973222c2273706c223a36312e357d240000007b225f6964223a322c2263697479223a227061726973222c2273706c223a37322e32357d230000007b225f6964223a342c2263697479223a227061726973222c2273706c223a33302e307d",
        decoded: "[{\"_id\":0,\"city\":\"paris\",\"spl\":61.5},{\"_id\":2,\"city\":\"paris\",\"spl\":72.25},{\"_id\":4,\"city\":\"paris\",\"spl\":30.0}]",
    },
    Frame {
        name: "FIND_WITH_OPTIONS",
        request: "030000006f6273150000007b2273706c223a7b2224677465223a34302e307d7d300000007b226c696d6974223a322c22736f7274223a7b226f72646572223a2264657363222c2270617468223a2273706c227d7d",
        status: 0,
        reply: "02000000240000007b225f6964223a322c2263697479223a227061726973222c2273706c223a37322e32357d230000007b225f6964223a302c2263697479223a227061726973222c2273706c223a36312e357d",
        decoded: "[{\"_id\":2,\"city\":\"paris\",\"spl\":72.25},{\"_id\":0,\"city\":\"paris\",\"spl\":61.5}]",
    },
    Frame {
        name: "COUNT",
        request: "030000006f6273180000007b2263697479223a7b22246571223a227061726973227d7d",
        status: 0,
        reply: "0300000000000000",
        decoded: "Ok(3)",
    },
    Frame {
        name: "UPDATE_MANY",
        request: "030000006f6273170000007b2263697479223a7b22246571223a226c796f6e227d7d150000007b2224736574223a7b2273706c223a34312e357d7d",
        status: 0,
        reply: "0100000000000000",
        decoded: "Ok(1)",
    },
    Frame {
        name: "DELETE_MANY",
        request: "030000006f6273180000007b2263697479223a7b22246571223a226c696c6c65227d7d",
        status: 0,
        reply: "0100000000000000",
        decoded: "Ok(1)",
    },
    Frame {
        name: "CREATE_INDEX",
        request: "030000006f62730300000073706c",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "DROP_INDEX",
        request: "030000006f62730300000073706c",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "HAS_INDEX",
        request: "030000006f62730400000063697479",
        status: 0,
        reply: "01",
        decoded: "true",
    },
    Frame {
        name: "INDEX_CARDINALITY (present)",
        request: "030000006f62730400000063697479",
        status: 0,
        reply: "010300000000000000",
        decoded: "Some(3)",
    },
    Frame {
        name: "INDEX_CARDINALITY (absent)",
        request: "030000006f6273040000006e6f7065",
        status: 0,
        reply: "00",
        decoded: "None",
    },
    Frame {
        name: "DISTINCT",
        request: "030000006f62730400000063697479020000007b7d",
        status: 0,
        reply: "0300000006000000226c796f6e2206000000226e696365220700000022706172697322",
        decoded: "[\"lyon\",\"nice\",\"paris\"]",
    },
    Frame {
        name: "ALL",
        request: "030000006f6273",
        status: 0,
        reply: "05000000230000007b225f6964223a302c2263697479223a227061726973222c2273706c223a36312e357d220000007b225f6964223a312c2263697479223a226c796f6e222c2273706c223a34312e357d240000007b225f6964223a322c2263697479223a227061726973222c2273706c223a37322e32357d220000007b225f6964223a332c2263697479223a226e696365222c2273706c223a35352e307d230000007b225f6964223a342c2263697479223a227061726973222c2273706c223a33302e307d",
        decoded: "[{\"_id\":0,\"city\":\"paris\",\"spl\":61.5},{\"_id\":1,\"city\":\"lyon\",\"spl\":41.5},{\"_id\":2,\"city\":\"paris\",\"spl\":72.25},{\"_id\":3,\"city\":\"nice\",\"spl\":55.0},{\"_id\":4,\"city\":\"paris\",\"spl\":30.0}]",
    },
    Frame {
        name: "CLEAR",
        request: "0700000073637261746368",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "HAS_COLLECTION",
        request: "030000006f6273",
        status: 0,
        reply: "01",
        decoded: "true",
    },
    Frame {
        name: "COLLECTION_NAMES",
        request: "",
        status: 0,
        reply: "03000000050000006d69786564030000006f62730700000073637261746368",
        decoded: "[\"mixed\", \"obs\", \"scratch\"]",
    },
    Frame {
        name: "DROP_COLLECTION",
        request: "0700000073637261746368",
        status: 0,
        reply: "",
        decoded: "Ok(())",
    },
    Frame {
        name: "TOTAL_DOCUMENTS",
        request: "",
        status: 0,
        reply: "0700000000000000",
        decoded: "7",
    },
    Frame {
        name: "INSERT_ONE (NotAnObject)",
        request: "030000006f6273070000005b312c322c335d",
        status: 16,
        reply: "",
        decoded: "Err(NotAnObject)",
    },
    Frame {
        name: "DROP_COLLECTION (CollectionNotFound)",
        request: "0500000067686f7374",
        status: 20,
        reply: "0500000067686f7374",
        decoded: "Err(CollectionNotFound(\"ghost\"))",
    },
    Frame {
        name: "FIND_WITH_OPTIONS (Unorderable)",
        request: "050000006d69786564020000007b7d300000007b226c696d6974223a6e756c6c2c22736f7274223a7b226f72646572223a22617363222c2270617468223a226b227d7d",
        status: 21,
        reply: "010000006b",
        decoded: "Err(Unorderable(\"k\"))",
    },
];

#[test]
fn docstore_stubs_put_the_golden_bytes_on_the_wire() {
    let tap = Tap::new(Arc::new(DocstoreService::new(store_state())));
    let mut server = serve(tap.clone());
    let remote = RemoteStore::connect(server.local_addr().to_string(), ClientConfig::default());
    assert_stub_direction(DOCSTORE_CALLS, DOCSTORE_FRAMES, &remote, &tap);
    server.shutdown();
}

#[test]
fn docstore_dispatch_answers_the_golden_requests_with_the_golden_replies() {
    let service = DocstoreService::new(store_state());
    assert_dispatch_direction(DOCSTORE_CALLS, DOCSTORE_FRAMES, &service);
}

/// Every row of both operation tables has at least one golden frame:
/// an opcode cannot be added without its bytes being pinned here.
#[test]
fn the_corpus_covers_every_opcode() {
    let uncovered = |ops: &[OpInfo], calls: Vec<u8>| -> Vec<&str> {
        let missing = ops.iter().filter(|op| !calls.contains(&op.value));
        missing.map(|op| op.name).collect()
    };
    let broker = BROKER_CALLS.iter().map(|c| c.opcode).collect();
    let docstore = DOCSTORE_CALLS.iter().map(|c| c.opcode).collect();
    assert_eq!(uncovered(broker_api::OPS, broker), Vec::<&str>::new());
    assert_eq!(uncovered(docstore_api::OPS, docstore), Vec::<&str>::new());
    assert_eq!(broker_api::OPS.len() + docstore_api::OPS.len(), 33);
}

// -------------------------------------------------------------- ACK_MANY

fn wal_counter(name: &str) -> u64 {
    mps_telemetry::Registry::global()
        .counter_value(name)
        .unwrap_or(0)
}

/// A batched ack crosses the wire as one request and lands as one
/// group-committed append. (Before `ACK_MANY` had a row, `RemoteBroker`
/// fell back to the trait's per-tag loop: 16 requests, 16 fsyncs.) No
/// other test in this binary touches a WAL, so the process-wide
/// `wal_*` counters move only by what this one does.
#[test]
fn ack_many_over_tcp_is_one_request_and_one_group_commit() {
    let dir = std::env::temp_dir().join(format!("mps-wire-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let broker = Broker::open_durable(DurabilityConfig::new(&dir)).unwrap();
    let tap = Tap::new(Arc::new(BrokerService::new(Arc::new(broker))));
    let mut server = serve(tap.clone());
    let remote = RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
    remote.declare_exchange("app").unwrap();
    remote.declare_queue("inbox").unwrap();
    remote.bind_queue("app", "inbox", "#").unwrap();
    for i in 0..16u8 {
        remote.publish("app", "obs.noise", &[i]).unwrap();
    }
    let tags: Vec<u64> = remote
        .consume("inbox", 16)
        .unwrap()
        .iter()
        .map(|d| d.tag)
        .collect();
    assert_eq!(tags.len(), 16);

    tap.take();
    let (fsyncs, records) = (
        wal_counter("wal_fsyncs_total"),
        wal_counter("wal_appends_total"),
    );
    remote.ack_many("inbox", &tags).unwrap();
    let seen = tap.take();
    assert_eq!(seen.len(), 1, "one round trip");
    assert_eq!(seen[0].opcode, bop::ACK_MANY);
    assert_eq!(
        wal_counter("wal_appends_total") - records,
        16,
        "sixteen ack records"
    );
    assert_eq!(
        wal_counter("wal_fsyncs_total") - fsyncs,
        1,
        "in one append batch"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The batch's semantics survive the wire: after a mid-batch unknown tag
/// the remote caller gets the same typed error the embedded one does,
/// and the two brokers hold the same queue, message for message.
#[test]
fn ack_many_embedded_and_remote_agree_after_a_mid_batch_unknown_tag() {
    let brokers = [Arc::new(Broker::new()), Arc::new(Broker::new())];
    let mut server = serve(Arc::new(BrokerService::new(brokers[1].clone())));
    let remote = RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default());
    let transports: [&dyn BrokerTransport; 2] = [&*brokers[0], &remote];
    let errors = transports.map(|t| {
        t.declare_exchange("app").unwrap();
        t.declare_queue("inbox").unwrap();
        t.bind_queue("app", "inbox", "#").unwrap();
        for i in 0..6u8 {
            t.publish("app", "obs.noise", &[i]).unwrap();
        }
        let tags: Vec<u64> = t
            .consume("inbox", 5)
            .unwrap()
            .iter()
            .map(|d| d.tag)
            .collect();
        t.ack_many("inbox", &[tags[0], tags[1], 99, tags[2]])
            .unwrap_err()
    });
    let unknown = BrokerError::UnknownDeliveryTag {
        queue: "inbox".into(),
        tag: 99,
    };
    assert_eq!(errors, [unknown.clone(), unknown]);
    let [embedded, served] = brokers.map(|b| b.queue_snapshot("inbox").unwrap());
    assert_eq!(embedded, served);
    assert_eq!((embedded.ready.len(), embedded.unacked.len()), (1, 3));
    server.shutdown();
}

// ------------------------------------------------------- error payloads

fn broker_errors() -> Vec<(u8, BrokerError)> {
    use broker_api::err;
    vec![
        (
            err::EXCHANGE_NOT_FOUND,
            BrokerError::ExchangeNotFound("e".into()),
        ),
        (err::QUEUE_NOT_FOUND, BrokerError::QueueNotFound("q".into())),
        (err::INVALID_KEY, BrokerError::InvalidKey("a..b".into())),
        (
            err::UNKNOWN_DELIVERY_TAG,
            BrokerError::UnknownDeliveryTag {
                queue: "q".into(),
                tag: 7,
            },
        ),
        (
            err::INVALID_DEAD_LETTER,
            BrokerError::InvalidDeadLetter("self".into()),
        ),
        (err::DURABILITY, BrokerError::Durability("torn".into())),
        (err::TRANSPORT, BrokerError::Transport("refused".into())),
    ]
}

fn store_errors() -> Vec<(u8, StoreError)> {
    use docstore_api::err;
    vec![
        (err::NOT_AN_OBJECT, StoreError::NotAnObject),
        (err::BAD_FILTER, StoreError::BadFilter("f".into())),
        (err::BAD_UPDATE, StoreError::BadUpdate("u".into())),
        (err::BAD_PIPELINE, StoreError::BadPipeline("p".into())),
        (
            err::COLLECTION_NOT_FOUND,
            StoreError::CollectionNotFound("c".into()),
        ),
        (err::UNORDERABLE, StoreError::Unorderable("a.b".into())),
        (err::DURABILITY, StoreError::Durability("disk".into())),
        (err::TRANSPORT, StoreError::Transport("refused".into())),
    ]
}

/// Error payloads in the order of [`broker_errors`] / [`store_errors`].
const BROKER_ERROR_PAYLOADS: &[&str] = &[
    "0100000065",
    "0100000071",
    "04000000612e2e62",
    "01000000710700000000000000",
    "0400000073656c66",
    "04000000746f726e",
    "0700000072656675736564",
];
const DOCSTORE_ERROR_PAYLOADS: &[&str] = &[
    "",
    "0100000066",
    "0100000075",
    "0100000070",
    "0100000063",
    "03000000612e62",
    "040000006469736b",
    "0700000072656675736564",
];

#[test]
fn error_codecs_speak_the_golden_bytes() {
    let broker = broker_errors();
    assert_eq!(broker.len(), BROKER_ERROR_PAYLOADS.len());
    for ((code, error), payload) in broker.into_iter().zip(BROKER_ERROR_PAYLOADS) {
        let encoded = encode_broker_error(&error);
        assert_eq!(encoded.code, code, "{error:?}");
        assert_eq!(hex(&encoded.payload), *payload, "{error:?}");
        assert_eq!(decode_broker_error(code, &unhex(payload)), error);
    }
    let store = store_errors();
    assert_eq!(store.len(), DOCSTORE_ERROR_PAYLOADS.len());
    for ((code, error), payload) in store.into_iter().zip(DOCSTORE_ERROR_PAYLOADS) {
        let encoded = encode_store_error(&error);
        assert_eq!(encoded.code, code, "{error:?}");
        assert_eq!(hex(&encoded.payload), *payload, "{error:?}");
        assert_eq!(decode_store_error(code, &unhex(payload)), error);
    }
}

// --------------------------------------------- malformed request bodies

/// A hand-built request body and the answer it must get. Bodies that a
/// field-level decoder rejects answer `STATUS_BAD_REQUEST` (the text is a
/// diagnostic, not pinned); bodies whose fields all read but whose JSON,
/// filter or update does not parse answer a typed error, pinned.
struct Malformed {
    name: &'static str,
    opcode: u8,
    body: fn(&mut WireWriter),
    status: u8,
    reply: &'static str,
}

/// What a peer that still sends `skip`, `projection` and `$inc` puts on
/// the wire for the `FIND_WITH_OPTIONS`, `FIND_WITH_OPTIONS
/// (Unorderable)` and `UPDATE_MANY` calls: each must be refused, never
/// half-applied.
const OLD_FIND_WITH_OPTIONS: &str = "030000006f6273150000007b2273706c223a7b2224677465223a34302e307d7d4f0000007b226c696d6974223a322c2270726f6a656374696f6e223a5b2263697479225d2c22736b6970223a312c22736f7274223a7b226f72646572223a2264657363222c2270617468223a2273706c227d7d";
const OLD_FIND_WITH_OPTIONS_UNORDERABLE: &str = "050000006d69786564020000007b7d4b0000007b226c696d6974223a6e756c6c2c2270726f6a656374696f6e223a6e756c6c2c22736b6970223a302c22736f7274223a7b226f72646572223a22617363222c2270617468223a226b227d7d";
const OLD_UPDATE_MANY: &str = "030000006f6273170000007b2263697479223a7b22246571223a226c796f6e227d7d140000007b2224696e63223a7b2273706c223a312e357d7d";

/// Writes a hex literal's bytes as they stand.
fn write_hex(w: &mut WireWriter, hex: &str) {
    for byte in unhex(hex) {
        w.u8(byte);
    }
}

const MALFORMED_DOCSTORE: &[Malformed] = &[
    Malformed {
        name: "FIND: filter is not JSON -> typed, after the fields were read",
        opcode: dop::FIND,
        body: |w| {
            w.string("obs").bytes(b"{nope");
        },
        status: docstore_api::err::TRANSPORT,
        reply: "33000000756e6465636f6461626c652066696c7465723a206578706563746564206120737472696e67206b657920617420627974652031",
    },
    Malformed {
        name: "FIND: filter is JSON but not a filter -> BadFilter",
        opcode: dop::FIND,
        body: |w| {
            w.string("obs").bytes(br#"{"spl":{"$bogus":1}}"#);
        },
        status: docstore_api::err::BAD_FILTER,
        reply: "23000000756e6b6e6f776e206f70657261746f722024626f677573206f6e20706174682073706c",
    },
    Malformed {
        name: "UPDATE_MANY: bad filter and a missing update field -> the field error wins",
        opcode: dop::UPDATE_MANY,
        body: |w| {
            w.string("obs").bytes(b"{nope");
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
    Malformed {
        name: "UPDATE_MANY: bad filter and bad update -> the filter's error answers",
        opcode: dop::UPDATE_MANY,
        body: |w| {
            w.string("obs").bytes(b"{nope").bytes(br#"{"$nope":{}}"#);
        },
        status: docstore_api::err::TRANSPORT,
        reply: "33000000756e6465636f6461626c652066696c7465723a206578706563746564206120737472696e67206b657920617420627974652031",
    },
    Malformed {
        name: "UPDATE_MANY: good filter, bad update -> BadUpdate",
        opcode: dop::UPDATE_MANY,
        body: |w| {
            w.string("obs").bytes(b"{}").bytes(br#"{"$nope":{}}"#);
        },
        status: docstore_api::err::BAD_UPDATE,
        reply: "16000000756e6b6e6f776e206f70657261746f7220246e6f7065",
    },
    Malformed {
        name: "FIND_WITH_OPTIONS: good filter, bad options -> typed",
        opcode: dop::FIND_WITH_OPTIONS,
        body: |w| {
            w.string("obs").bytes(b"{}").bytes(br#"{"skip":"x"}"#);
        },
        status: docstore_api::err::TRANSPORT,
        reply: "160000006261642066696e64206f7074696f6e733a20736b6970",
    },
    Malformed {
        name: "FIND_WITH_OPTIONS: the skip and projection an older peer sends -> refused",
        opcode: dop::FIND_WITH_OPTIONS,
        body: |w| write_hex(w, OLD_FIND_WITH_OPTIONS),
        status: docstore_api::err::TRANSPORT,
        reply: "1c0000006261642066696e64206f7074696f6e733a2070726f6a656374696f6e",
    },
    Malformed {
        name: "FIND_WITH_OPTIONS (Unorderable): an older peer's null projection, zero skip -> refused",
        opcode: dop::FIND_WITH_OPTIONS,
        body: |w| write_hex(w, OLD_FIND_WITH_OPTIONS_UNORDERABLE),
        status: docstore_api::err::TRANSPORT,
        reply: "1c0000006261642066696e64206f7074696f6e733a2070726f6a656374696f6e",
    },
    Malformed {
        name: "UPDATE_MANY: an older peer's $inc -> BadUpdate",
        opcode: dop::UPDATE_MANY,
        body: |w| write_hex(w, OLD_UPDATE_MANY),
        status: docstore_api::err::BAD_UPDATE,
        reply: "15000000756e6b6e6f776e206f70657261746f722024696e63",
    },
    Malformed {
        name: "INSERT_MANY: two unparsable documents -> the last one's error answers",
        opcode: dop::INSERT_MANY,
        body: |w| {
            w.string("obs")
                .u32(3)
                .bytes(b"{a")
                .bytes(b"{}")
                .bytes(b"[1,");
        },
        status: docstore_api::err::TRANSPORT,
        reply: "37000000756e6465636f6461626c6520646f63756d656e743a20756e657870656374656420656e64206f6620696e70757420617420627974652033",
    },
    Malformed {
        name: "INSERT_ONE: trailing byte",
        opcode: dop::INSERT_ONE,
        body: |w| {
            w.string("obs").bytes(b"{}").u8(0);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
    Malformed {
        name: "GET: truncated id",
        opcode: dop::GET,
        body: |w| {
            w.string("obs").u32(7);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
    Malformed {
        name: "HAS_COLLECTION: name is not UTF-8",
        opcode: dop::HAS_COLLECTION,
        body: |w| {
            w.bytes(&[0xff, 0xfe]);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
];

const MALFORMED_BROKER: &[Malformed] = &[
    Malformed {
        name: "PUBLISH_MESSAGE: routing key does not parse -> field-level",
        opcode: bop::PUBLISH_MESSAGE,
        body: |w| {
            w.string("app").string("a..b").bytes(b"x").u16(0);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
    Malformed {
        name: "DECLARE_EXCHANGE: a kind byte, whatever its value, is a trailing byte",
        opcode: bop::DECLARE_EXCHANGE,
        body: |w| {
            w.string("x").u8(9);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
    Malformed {
        name: "NACK: missing requeue flag",
        opcode: bop::NACK,
        body: |w| {
            w.string("inbox").u64(0);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
    Malformed {
        name: "CONSUME: trailing bytes",
        opcode: bop::CONSUME,
        body: |w| {
            w.string("inbox").u32(1).u8(0);
        },
        status: STATUS_BAD_REQUEST,
        reply: "",
    },
];

/// Writes the retired request's bytes (every retired case answers
/// `STATUS_BAD_REQUEST`).
macro_rules! retired {
    ($($name:literal: $opcode:expr, $hex:literal;)*) => {
        &[$(Malformed {
            name: $name,
            opcode: $opcode,
            body: |w| write_hex(w, $hex),
            status: STATUS_BAD_REQUEST,
            reply: "",
        },)*]
    };
}

/// The golden requests of the operations and the field the broker no
/// longer has, as an older peer still sends them: each refused, none
/// applied. Their opcodes (3, 4, 5, 8, 13, 15, 18) are reserved in
/// `docs/WIRE_PROTOCOL.md` §5; a `DECLARE_EXCHANGE` that carries the kind
/// byte is refused for its trailing byte.
const RETIRED_BROKER: &[Malformed] = retired! {
    "DECLARE_EXCHANGE with a kind byte": bop::DECLARE_EXCHANGE, "070000006d65747269637301";
    "DECLARE_EXCHANGE (ExchangeTypeMismatch)": bop::DECLARE_EXCHANGE, "0300000061707001";
    "DECLARE_QUEUE_WITH_CAPACITY": 3, "05000000736d616c6c0800000000000000";
    "EXCHANGE_EXISTS": 4, "03000000617070";
    "QUEUE_EXISTS (absent)": 5, "0500000067686f7374";
    "UNBIND_QUEUE": 8, "0300000061707004000000776f726b0b0000006f62732e2a2e6e6f697365";
    "DEAD_LETTER_POLICY (present)": 13, "05000000696e626f78";
    "DEAD_LETTER_POLICY (absent)": 13, "0400000064656164";
    "PUBLISH": 15, "030000006170700e0000006f62732e6e6963652e6e6f697365030000000001ff";
    "PUBLISH (ExchangeNotFound)": 15, "0500000067686f7374010000006b00000000";
    "ACK": 18, "05000000696e626f780100000000000000";
    "ACK (UnknownDeliveryTag)": 18, "05000000696e626f786300000000000000";
};

#[test]
fn malformed_bodies_answer_bad_request_or_a_typed_error_as_pinned() {
    let docstore = DocstoreService::new(store_state());
    let broker = BrokerService::new(broker_state());
    for (service, cases) in [
        (&docstore as &dyn WireService, MALFORMED_DOCSTORE),
        (&broker, MALFORMED_BROKER),
        (&broker, RETIRED_BROKER),
    ] {
        for case in cases {
            let mut w = WireWriter::new();
            (case.body)(&mut w);
            let (status, reply) = answer(service, case.opcode, &w.finish());
            assert_eq!(status, case.status, "{}: status", case.name);
            if status != STATUS_BAD_REQUEST {
                assert_eq!(hex(&reply), case.reply, "{}: reply", case.name);
            }
        }
    }
}

// ------------------------------------------- totality over arbitrary bytes

/// Answers every request with whatever was last put in it.
struct Canned(Mutex<(u8, Vec<u8>)>);

impl WireService for Canned {
    fn handle(&self, _: u8, _: &[(String, String)], _: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let (status, body) = self.0.lock().unwrap().clone();
        if status == STATUS_OK {
            Ok(body)
        } else {
            Err(ServiceError {
                code: status,
                payload: body,
            })
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    Truncated,
    Extended,
    Flipped,
}

/// One seeded mutation of `bytes`; `None` when there is nothing to cut.
fn damage(r: &mut SimRng, bytes: &[u8]) -> Option<(Damage, Vec<u8>)> {
    let kind = *r.pick(&[Damage::Truncated, Damage::Extended, Damage::Flipped]);
    let mut out = bytes.to_vec();
    match kind {
        Damage::Truncated | Damage::Flipped if bytes.is_empty() => return None,
        Damage::Truncated => out.truncate(r.index(bytes.len())),
        Damage::Extended => out.extend((0..1 + r.index(8)).map(|_| r.index(256) as u8)),
        Damage::Flipped => out[r.index(bytes.len())] ^= 1 << r.index(8),
    }
    Some((kind, out))
}

/// What a stub makes of a reply it cannot use: an error, or — for the
/// operations whose signature cannot fail — the default answer.
fn is_failure(rendered: &str) -> bool {
    rendered.starts_with("Err(") || matches!(rendered, "false" | "0" | "None" | "[]")
}

/// Every decoder of the RPC layer is total: for 256 seeds, every golden
/// request and reply is truncated, extended or bit-flipped and fed to
/// the dispatcher / the stub's decoder. Nothing panics (or aborts on an
/// allocation the frame could not back); a truncated or extended body is
/// always refused — `STATUS_BAD_REQUEST` from a service, an error (or
/// the degraded default) from a stub; a flipped one decodes or errors.
fn decoders_are_total<C>(
    calls: &[Call<C>],
    frames: &[Frame],
    service: &dyn WireService,
    connect: impl Fn(String) -> C,
) {
    let canned = Arc::new(Canned(Mutex::new((STATUS_OK, Vec::new()))));
    let mut server = serve(canned.clone());
    let client = connect(server.local_addr().to_string());
    check(|r| {
        for (call, frame) in calls.iter().zip(frames) {
            if let Some((kind, request)) = damage(r, &unhex(frame.request)) {
                let (status, _) = answer(service, call.opcode, &request);
                if kind != Damage::Flipped {
                    assert_eq!(
                        status, STATUS_BAD_REQUEST,
                        "{}: {kind:?} request",
                        call.name
                    );
                }
            }
            if let Some((kind, reply)) = damage(r, &unhex(frame.reply)) {
                *canned.0.lock().unwrap() = (frame.status, reply);
                let rendered = (call.call)(&client);
                if kind != Damage::Flipped {
                    assert!(
                        is_failure(&rendered),
                        "{}: {kind:?} reply -> {rendered}",
                        call.name
                    );
                }
            }
        }
    });
    server.shutdown();
}

#[test]
fn broker_decoders_are_total_over_damaged_frames() {
    let service = BrokerService::new(broker_state());
    decoders_are_total(BROKER_CALLS, BROKER_FRAMES, &service, |addr| {
        RemoteBroker::connect(addr, ClientConfig::default())
    });
}

#[test]
fn docstore_decoders_are_total_over_damaged_frames() {
    let service = DocstoreService::new(store_state());
    decoders_are_total(DOCSTORE_CALLS, DOCSTORE_FRAMES, &service, |addr| {
        RemoteStore::connect(addr, ClientConfig::default())
    });
}

/// A count the frame cannot back is refused before anything is reserved.
/// The hand-written decoders sized a `Vec` from the wire's `u32`: this
/// 30-byte `INSERT_MANY` asked `mps-docstored` for `u32::MAX` values —
/// on the order of 100 GB — and the failed allocation aborted the daemon.
#[test]
fn a_hostile_element_count_is_a_bad_request_and_the_server_lives() {
    let mut server = serve(Arc::new(DocstoreService::new(store_state())));
    let addr = server.local_addr().to_string();
    let pool = ClientPool::new(addr.clone(), ClientConfig::default());
    let mut w = WireWriter::new();
    w.string("obs").u32(u32::MAX).bytes(br#"{"spl":61.5000}"#);
    let body = w.finish();
    assert_eq!(body.len(), 30);
    match pool.call(dop::INSERT_MANY, &[], &body) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, STATUS_BAD_REQUEST),
        other => panic!("expected a bad-request answer, got {other:?}"),
    }
    // Same connection, next request: the thread that refused it serves on.
    let remote = RemoteStore::connect(addr, ClientConfig::default());
    assert_eq!(pool.call(dop::TOTAL_DOCUMENTS, &[], &[]).unwrap().len(), 8);
    assert_eq!(remote.collection("obs").len(), 3);
    server.shutdown();
}

/// The same count in a *reply* — a hostile or corrupted server — is an
/// error at the client, not an allocation.
#[test]
fn a_hostile_element_count_in_a_reply_is_an_error_at_the_client() {
    let mut count_only = WireWriter::new();
    count_only.u32(u32::MAX);
    let canned = Arc::new(Canned(Mutex::new((STATUS_OK, count_only.finish()))));
    let mut server = serve(canned);
    let addr = server.local_addr().to_string();
    let broker = RemoteBroker::connect(addr.clone(), ClientConfig::default());
    assert!(matches!(
        broker.consume("inbox", 10),
        Err(BrokerError::Transport(_))
    ));
    let store = RemoteStore::connect(addr, ClientConfig::default());
    let obs = store.collection("obs");
    assert!(matches!(obs.find(&paris()), Err(StoreError::Transport(_))));
    assert!(matches!(
        obs.insert_many(vec![json!({})]),
        Err(StoreError::Transport(_))
    ));
    assert!(obs.all().is_empty());
    assert!(store.collection_names().is_empty());
    server.shutdown();
}
