//! The docstore over the wire: the server-side [`DocstoreService`] and
//! the client-side [`RemoteStore`] / remote collection handles.
//!
//! All three are generated from `mps_docstore::docstore_ops!`, the
//! store's operation table: every row — a method of
//! [`mps_docstore::CollectionOps`] or [`mps_docstore::DocstoreTransport`]
//! — is one opcode in [`op`], one entry of [`OPS`], one stub and one
//! dispatch arm. Every collection operation carries its collection name
//! as the first field, so one connection serves any number of
//! collections. Documents, filters and updates travel as canonical JSON
//! — filters via [`mps_docstore::Filter::to_doc`], updates via
//! [`mps_docstore::Update::to_doc`] — making the payloads readable in a
//! wire capture and implementable without this codebase. The layouts are
//! specified normatively in `docs/WIRE_PROTOCOL.md` §6.

use crate::client::ClientConfig;
use crate::server::{ServiceError, WireService};
use crate::wire::field::*;
use crate::wire::{
    wire_dispatch, wire_ops, wire_scalar, wire_stubs, Decoded, OpInfo, Stub, Wire, WireError,
    WireReader, WireWriter,
};
use mps_docstore::{
    CollectionHandle, CollectionOps, DocId, DocstoreTransport, Filter, FindOptions, SortOrder,
    StoreError, Update,
};
use serde_json::{json, Value};
use std::fmt;
use std::sync::Arc;

/// Docstore error status codes (`16..=23`); see `docs/WIRE_PROTOCOL.md` §7.
pub mod err {
    /// [`mps_docstore::StoreError::NotAnObject`]
    pub const NOT_AN_OBJECT: u8 = 16;
    /// [`mps_docstore::StoreError::BadFilter`]
    pub const BAD_FILTER: u8 = 17;
    /// [`mps_docstore::StoreError::BadUpdate`]
    pub const BAD_UPDATE: u8 = 18;
    /// [`mps_docstore::StoreError::BadPipeline`]
    pub const BAD_PIPELINE: u8 = 19;
    /// [`mps_docstore::StoreError::CollectionNotFound`]
    pub const COLLECTION_NOT_FOUND: u8 = 20;
    /// [`mps_docstore::StoreError::Unorderable`]
    pub const UNORDERABLE: u8 = 21;
    /// [`mps_docstore::StoreError::Durability`]
    pub const DURABILITY: u8 = 22;
    /// [`mps_docstore::StoreError::Transport`]
    pub const TRANSPORT: u8 = 23;
}

/// Encodes a [`StoreError`] as a wire status + payload.
#[must_use]
pub fn encode_store_error(error: &StoreError) -> ServiceError {
    let (code, text) = match error {
        StoreError::NotAnObject => return ServiceError::msg(err::NOT_AN_OBJECT, ""),
        StoreError::BadFilter(msg) => (err::BAD_FILTER, msg),
        StoreError::BadUpdate(msg) => (err::BAD_UPDATE, msg),
        StoreError::BadPipeline(msg) => (err::BAD_PIPELINE, msg),
        StoreError::CollectionNotFound(name) => (err::COLLECTION_NOT_FOUND, name),
        StoreError::Unorderable(path) => (err::UNORDERABLE, path),
        StoreError::Durability(msg) => (err::DURABILITY, msg),
        StoreError::Transport(msg) => (err::TRANSPORT, msg),
    };
    let mut w = WireWriter::new();
    w.string(text);
    ServiceError {
        code,
        payload: w.finish(),
    }
}

/// Decodes a wire status + payload back into the exact [`StoreError`].
/// Unknown codes degrade to [`StoreError::Transport`].
#[must_use]
pub fn decode_store_error(code: u8, payload: &[u8]) -> StoreError {
    let mut r = WireReader::new(payload);
    let decoded = match code {
        err::NOT_AN_OBJECT => return StoreError::NotAnObject,
        err::BAD_FILTER => r.string("msg").map(StoreError::BadFilter),
        err::BAD_UPDATE => r.string("msg").map(StoreError::BadUpdate),
        err::BAD_PIPELINE => r.string("msg").map(StoreError::BadPipeline),
        err::COLLECTION_NOT_FOUND => r.string("name").map(StoreError::CollectionNotFound),
        err::UNORDERABLE => r.string("path").map(StoreError::Unorderable),
        err::DURABILITY => r.string("msg").map(StoreError::Durability),
        err::TRANSPORT => r.string("msg").map(StoreError::Transport),
        other => {
            return StoreError::Transport(format!(
                "unknown store error code {other}: {}",
                String::from_utf8_lossy(payload)
            ))
        }
    };
    decoded.unwrap_or_else(|wire| {
        StoreError::Transport(format!("undecodable store error {code}: {wire}"))
    })
}

wire_scalar! {
    DocId => u64 [8]: |id, w| w.u64(id.0), |r, field| DocId(r.u64(field)?);
}

/// Implements [`Wire<json>`](Wire): canonical JSON text inside a `bytes`
/// field. Text that is not JSON, and JSON that is not a `$ty`, are
/// rejections, not field errors — the field itself was read.
macro_rules! wire_json {
    ($($ty:ty [$what:literal]: |$v:ident| $to_doc:expr, |$doc:ident| $from_doc:expr;)*) => {$(
        impl Wire<json> for $ty {
            const MIN_WIRE_BYTES: usize = 4;
            fn put(&self, w: &mut WireWriter) {
                let $v = self;
                // `serde_json::Value` always serializes; fall back to `null`
                // rather than panicking if that invariant ever changes.
                w.bytes(&serde_json::to_vec($to_doc).unwrap_or_else(|_| b"null".to_vec()));
            }
            fn get(r: &mut WireReader<'_>, field: &'static str) -> Decoded<$ty> {
                let parsed = serde_json::from_slice::<Value>(r.bytes(field)?).map_err(|err| {
                    StoreError::Transport(format!(concat!("undecodable ", $what, ": {}"), err))
                });
                Ok(parsed
                    .and_then(|$doc| $from_doc)
                    .map_err(|error| encode_store_error(&error)))
            }
        }
    )*};
}

wire_json! {
    Value ["document"]: |doc| doc, |doc| Ok(doc);
    Filter ["filter"]: |filter| &filter.to_doc(), |doc| Filter::parse(&doc);
    Update ["update"]: |update| &update.to_doc(), |doc| Update::parse(&doc);
    FindOptions ["find options"]:
        |options| &find_options_to_doc(options), |doc| find_options_from_doc(&doc);
}

/// Encodes [`FindOptions`] as its canonical JSON document,
/// `{"limit": .., "sort": {"order": .., "path": ..}}`.
#[must_use]
pub fn find_options_to_doc(options: &FindOptions) -> Value {
    let sort = options.sort.as_ref().map(|(path, order)| {
        json!({
            "path": path,
            "order": match order {
                SortOrder::Ascending => "asc",
                SortOrder::Descending => "desc",
            },
        })
    });
    json!({"sort": sort, "limit": options.limit})
}

/// Decodes [`FindOptions`] from its canonical JSON document.
///
/// # Errors
///
/// Returns [`StoreError::Transport`] on a malformed document, one
/// member of which is not `sort` or `limit` among them: an option this
/// store does not apply is refused, never ignored.
pub fn find_options_from_doc(doc: &Value) -> Result<FindOptions, StoreError> {
    let bad = |what: &str| StoreError::Transport(format!("bad find options: {what}"));
    let members = doc.as_object().ok_or_else(|| bad("not an object"))?;
    if let Some(unknown) = members
        .keys()
        .find(|key| !["sort", "limit"].contains(&key.as_str()))
    {
        return Err(bad(unknown));
    }
    // A member that is absent and one that is `null` mean the same.
    let member = |key: &str| members.get(key).filter(|value| !value.is_null());
    let sort = member("sort").map(|sort| {
        let path = sort.get("path").and_then(Value::as_str);
        let path = path.ok_or_else(|| bad("sort.path"))?;
        let order = match sort.get("order").and_then(Value::as_str) {
            Some("asc") => SortOrder::Ascending,
            Some("desc") => SortOrder::Descending,
            _ => return Err(bad("sort.order")),
        };
        Ok((path.to_string(), order))
    });
    let limit = member("limit").map(|limit| limit.as_u64().ok_or_else(|| bad("limit")));
    Ok(FindOptions {
        sort: sort.transpose()?,
        limit: limit.transpose()?.map(|n| n as usize),
    })
}

/// Serves any [`DocstoreTransport`] — usually a local
/// [`mps_docstore::Store`] — over the wire protocol.
pub struct DocstoreService {
    inner: Arc<dyn DocstoreTransport>,
}

impl fmt::Debug for DocstoreService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DocstoreService").finish_non_exhaustive()
    }
}

impl DocstoreService {
    /// Wraps a transport for serving.
    #[must_use]
    pub fn new(inner: Arc<dyn DocstoreTransport>) -> DocstoreService {
        DocstoreService { inner }
    }
}

/// A [`DocstoreTransport`] forwarding every call to a remote
/// [`DocstoreService`] over a [`ClientPool`](crate::ClientPool) its
/// collection handles share.
#[derive(Debug)]
pub struct RemoteStore {
    stub: Stub<StoreError>,
}

impl RemoteStore {
    /// Creates a remote store dialling `addr` lazily.
    #[must_use]
    pub fn connect(addr: impl Into<String>, config: ClientConfig) -> RemoteStore {
        let stub = Stub::connect(addr, config, decode_store_error, StoreError::Transport);
        RemoteStore { stub }
    }
}

/// One collection's operations forwarded over the wire — every body
/// starts with the collection's name; obtained via
/// [`RemoteStore::collection`] wrapped in a [`CollectionHandle`].
#[derive(Debug)]
struct RemoteCollection {
    stub: Stub<StoreError>,
}

/// Expands the store's operation table into this module's share of it.
macro_rules! docstore_wire {
    ([] collection { $($collection:tt)* } store { $($store:tt)* }) => {
        wire_ops! { "§6" [true] { $($collection)* } [false] { $($store)* } }

        impl WireService for DocstoreService {
            fn handle(
                &self,
                opcode: u8,
                _headers: &[(String, String)],
                body: &[u8],
            ) -> Result<Vec<u8>, ServiceError> {
                wire_dispatch! {
                    [opcode, r in body, self.inner, encode_store_error, {
                        // Everything else addresses a collection, named first.
                        let coll = self.inner.collection(&r.string("collection")?);
                        let unknown = WireError::BadDiscriminant {
                            field: "docstore opcode",
                            value: opcode,
                        };
                        wire_dispatch! {
                            [opcode, r, coll, encode_store_error, Err(unknown.into())]
                            $($collection)*
                        }
                    }]
                    $($store)*
                }
            }

            fn role(&self) -> &'static str {
                "docstore"
            }

            fn opcode_name(&self, opcode: u8) -> Option<&'static str> {
                OpInfo::name_of(OPS, opcode)
            }
        }

        impl DocstoreTransport for RemoteStore {
            fn collection(&self, name: &str) -> CollectionHandle {
                let stub = self.stub.scoped(name);
                CollectionHandle::new(Arc::new(RemoteCollection { stub }))
            }

            wire_stubs! { [StoreError, bare] $($store)* }
        }

        impl CollectionOps for RemoteCollection {
            wire_stubs! { [StoreError, result] $($collection)* }
        }
    };
}
mps_docstore::docstore_ops!(docstore_wire);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, WireServer};
    use mps_docstore::Store;

    fn start_remote() -> (WireServer, RemoteStore) {
        let store: Arc<dyn DocstoreTransport> = Arc::new(Store::new());
        let server = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(DocstoreService::new(store)),
            ServerConfig::default(),
        )
        .unwrap();
        let remote = RemoteStore::connect(server.local_addr().to_string(), ClientConfig::default());
        (server, remote)
    }

    #[test]
    fn documents_round_trip_over_tcp() {
        let (mut server, remote) = start_remote();
        let coll = remote.collection("obs");
        let id = coll
            .insert_one(json!({"spl": 61.5, "city": "paris"}))
            .unwrap();
        assert_eq!(coll.len(), 1);
        let doc = coll.get(id).unwrap();
        assert_eq!(doc.get("city"), Some(&json!("paris")));

        coll.insert_many(vec![
            json!({"spl": 40.0, "city": "paris"}),
            json!({"spl": 80.0, "city": "lyon"}),
        ])
        .unwrap();
        let loud = coll
            .find(&Filter::parse(&json!({"spl": {"$gte": 60}})).unwrap())
            .unwrap();
        assert_eq!(loud.len(), 2);

        let options = FindOptions::new()
            .sort("spl", SortOrder::Descending)
            .limit(1);
        let top = coll
            .find_with_options(&Filter::parse(&json!({})).unwrap(), &options)
            .unwrap();
        assert_eq!(top[0].get("spl"), Some(&json!(80.0)));

        assert!(remote.has_collection("obs"));
        assert!(!remote.has_collection("ghost"));
        assert_eq!(remote.total_documents(), 3);
        assert_eq!(remote.collection_names(), vec!["obs".to_string()]);
        server.shutdown();
    }

    #[test]
    fn updates_indexes_and_distinct_cross_the_wire() {
        let (mut server, remote) = start_remote();
        let coll = remote.collection("obs");
        for city in ["paris", "paris", "lyon"] {
            coll.insert_one(json!({"city": city, "n": 0.0})).unwrap();
        }
        let modified = coll
            .update_many(
                &Filter::parse(&json!({"city": "paris"})).unwrap(),
                &Update::set("n", 5.0),
            )
            .unwrap();
        assert_eq!(modified, 2);
        assert_eq!(
            coll.count(&Filter::parse(&json!({"n": 5.0})).unwrap())
                .unwrap(),
            2
        );

        coll.create_index("city").unwrap();
        assert!(coll.has_index("city"));
        assert_eq!(coll.index_cardinality("city"), Some(2));
        let cities = coll.distinct("city", &Filter::parse(&json!({})).unwrap());
        assert_eq!(cities.len(), 2);
        coll.drop_index("city").unwrap();
        assert!(!coll.has_index("city"));

        let deleted = coll
            .delete_many(&Filter::parse(&json!({"city": "lyon"})).unwrap())
            .unwrap();
        assert_eq!(deleted, 1);
        coll.clear().unwrap();
        assert_eq!(coll.len(), 0);
        server.shutdown();
    }

    #[test]
    fn store_errors_come_back_typed() {
        let (mut server, remote) = start_remote();
        let coll = remote.collection("obs");
        assert_eq!(
            coll.insert_one(json!([1, 2, 3])).unwrap_err(),
            StoreError::NotAnObject
        );
        assert!(matches!(
            remote.drop_collection("ghost").unwrap_err(),
            StoreError::CollectionNotFound(_)
        ));
        server.shutdown();
    }

    #[test]
    fn find_options_doc_round_trips() {
        let options = FindOptions::new()
            .sort("spl", SortOrder::Descending)
            .limit(10);
        let doc = find_options_to_doc(&options);
        let back = find_options_from_doc(&doc).unwrap();
        assert_eq!(back.sort, options.sort);
        assert_eq!(back.limit, options.limit);

        let defaults =
            find_options_from_doc(&find_options_to_doc(&FindOptions::default())).unwrap();
        assert!(defaults.sort.is_none());
        assert!(defaults.limit.is_none());
    }

    /// Every filter operator, update operator and find-options member
    /// the store does not have, with the typed error it answers — in
    /// process, from the parsers, and over a loopback connection. The
    /// typed client cannot express them, so the wire requests are built
    /// by hand, as an older peer or another implementation would send
    /// them; and the collection is left as it was.
    #[test]
    fn removed_grammar_is_refused_in_process_and_over_the_wire() {
        use crate::client::{NetError, WireConn};
        let bad_filter = |op: &str| StoreError::BadFilter(format!("unknown operator {op}"));
        let on_path = |op: &str| bad_filter(&format!("{op} on path a"));
        let filters = [
            (json!({"a": {"$ne": 1}}), on_path("$ne")),
            (json!({"a": {"$nin": [1]}}), on_path("$nin")),
            (json!({"a": {"$exists": true}}), on_path("$exists")),
            (json!({"a": {"$contains": "x"}}), on_path("$contains")),
            (json!({"$or": [{"a": 1}]}), bad_filter("$or")),
            (json!({"$not": {"a": 1}}), bad_filter("$not")),
        ];
        let bad_update = |op: &str| StoreError::BadUpdate(format!("unknown operator {op}"));
        let updates = [
            (json!({"$inc": {"a": 1}}), bad_update("$inc")),
            (json!({"$unset": {"a": 1}}), bad_update("$unset")),
            (json!({"$push": {"a": 1}}), bad_update("$push")),
            (
                json!({"$set": {"b": 1}, "$inc": {"a": 1}}),
                bad_update("$inc"),
            ),
        ];
        let bad_options = |m: &str| StoreError::Transport(format!("bad find options: {m}"));
        let options = [
            (json!({"skip": 1}), bad_options("skip")),
            (
                json!({"projection": ["a"], "limit": 1}),
                bad_options("projection"),
            ),
            (json!({"limit": 1, "skip": 0}), bad_options("skip")),
        ];
        for (doc, error) in &filters {
            assert_eq!(Filter::parse(doc).as_ref(), Err(error), "{doc}");
        }
        for (doc, error) in &updates {
            assert_eq!(Update::parse(doc).as_ref(), Err(error), "{doc}");
        }
        for (doc, error) in &options {
            assert_eq!(
                find_options_from_doc(doc).as_ref().err(),
                Some(error),
                "{doc}"
            );
        }

        let store = Arc::new(Store::new());
        store.collection("obs").insert_one(json!({"a": 1})).unwrap();
        let before = store.export_json();
        let served: Arc<dyn DocstoreTransport> = store.clone();
        let server = DocstoreService::new(served);
        let mut server =
            WireServer::bind("127.0.0.1:0", Arc::new(server), ServerConfig::default()).unwrap();
        let mut conn =
            WireConn::connect(server.local_addr().to_string(), &ClientConfig::default()).unwrap();
        let mut ask = |opcode: u8, docs: &[&Value]| {
            let mut body = WireWriter::new();
            body.string("obs");
            for doc in docs {
                body.bytes(doc.to_string().as_bytes());
            }
            match conn.call(opcode, &[], &body.finish()) {
                Err(NetError::Remote { code, payload }) => decode_store_error(code, &payload),
                other => panic!("{docs:?} answered {other:?}"),
            }
        };
        for (doc, error) in &filters {
            assert_eq!(&ask(op::FIND, &[doc]), error, "{doc}");
        }
        for (doc, error) in &updates {
            assert_eq!(&ask(op::UPDATE_MANY, &[&json!({}), doc]), error, "{doc}");
        }
        for (doc, error) in &options {
            let answer = ask(op::FIND_WITH_OPTIONS, &[&json!({}), doc]);
            assert_eq!(&answer, error, "{doc}");
        }
        assert_eq!(store.export_json(), before);
        server.shutdown();
    }

    #[test]
    fn error_codec_round_trips_every_variant() {
        let cases = vec![
            StoreError::NotAnObject,
            StoreError::BadFilter("f".into()),
            StoreError::BadUpdate("u".into()),
            StoreError::BadPipeline("p".into()),
            StoreError::CollectionNotFound("c".into()),
            StoreError::Unorderable("a.b".into()),
            StoreError::Durability("disk".into()),
            StoreError::Transport("refused".into()),
        ];
        for case in cases {
            let encoded = encode_store_error(&case);
            assert_eq!(decode_store_error(encoded.code, &encoded.payload), case);
        }
    }

    /// What the hand-kept opcode table used to be checked for, now a
    /// property of the generated inventory: every row is in the §6 band,
    /// no two share a value or a name, the collection rows (and only
    /// they) are scoped, and the dispatcher's telemetry label is the
    /// row's mnemonic. (`tests/wire_spec.rs` holds the rows to
    /// `docs/WIRE_PROTOCOL.md`; `tests/wire_corpus.rs` their bytes.)
    #[test]
    fn ops_inventory_is_unique_in_band_and_named() {
        let store: Arc<dyn DocstoreTransport> = Arc::new(Store::new());
        let service = DocstoreService::new(store);
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
            assert_eq!(
                info.scoped,
                info.value < op::HAS_COLLECTION,
                "{}",
                info.name
            );
        }
        assert_eq!(service.opcode_name(0), None);
        let update_many = OPS[op::UPDATE_MANY as usize - 1];
        assert_eq!(update_many.name, "UPDATE_MANY");
        assert_eq!(
            update_many.request,
            [("json", "filter"), ("json", "update")]
        );
        assert_eq!(update_many.reply, "u64");
    }
}
