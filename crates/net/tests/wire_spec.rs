//! `docs/WIRE_PROTOCOL.md` against the code: every normative table, in
//! both directions.
//!
//! The spec's tables — §2 frame types, §3 handshake statuses, §5 broker
//! and §6 docstore opcodes, §7 error codes, §9 admin opcodes — are read
//! as data and compared with what the code exports: the broker and
//! docstore `OPS` tables, [`FrameType::from_byte`], the `HELLO_*`
//! constants, the error codecs the `err::*` constants feed, and
//! [`admin_opcode_name`]. A spec row the code lacks, a declaration the
//! spec lacks, a value that differs, a value outside its band or shared
//! within one, a retired value or name (the `retired` tables of §5 and
//! §7) the code declares again, and an `OPS` row whose request or reply
//! fields put other §1 primitives on the wire than the spec's cells say
//! are each a failure. The admin band is also checked by behaviour: a loopback
//! [`WireServer`] answers exactly the opcodes §9 lists.

use mps_broker::{Broker, BrokerError, BrokerTransport};
use mps_docstore::StoreError;
use mps_net::admin::admin_opcode_name;
use mps_net::broker_api::{self, decode_broker_error, encode_broker_error};
use mps_net::docstore_api::{self, decode_store_error, encode_store_error};
use mps_net::rpc::{OP_SHUTDOWN, STATUS_BAD_REQUEST};
use mps_net::server::{HELLO_BAD_VERSION, HELLO_OK, HELLO_SHED};
use mps_net::wire::OpInfo;
use mps_net::{
    BrokerService, ClientConfig, FrameType, NetError, ServerConfig, WireConn, WireServer,
    ADMIN_OPCODE_MIN,
};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

const SPEC: &str = include_str!("../../../docs/WIRE_PROTOCOL.md");

/// One spec row of a band.
struct SpecRow {
    line: usize,
    value: String,
    name: String,
    request: String,
    reply: String,
}

/// The rows of the table under heading `## <section>.` whose first header
/// cell is `first` and whose preceding prose line starts with `intro`.
/// Cells are trimmed, a cell wholly in backticks unwrapped, and a table
/// in a code fence is no table.
fn band_rows(doc: &str, section: &str, first: &str, intro: &str) -> Vec<SpecRow> {
    let (mut heading, mut prose, mut in_fence) = ("", "", false);
    // Inside a table: whether it is the one wanted.
    let mut table: Option<bool> = None;
    let mut rows = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        let line = line.trim();
        in_fence ^= line.starts_with("```");
        if in_fence || !line.starts_with('|') {
            if table == Some(true) {
                break;
            }
            table = None;
            if line.starts_with("## ") {
                heading = line;
            } else if !line.is_empty() {
                prose = line;
            }
            continue;
        }
        if line.chars().all(|c| matches!(c, '|' | '-' | ':' | ' ')) {
            continue;
        }
        let mut cells = line.trim_matches('|').split('|').map(|cell| {
            let cell = cell.trim();
            let inner = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`'));
            inner
                .filter(|c| !c.contains('`'))
                .unwrap_or(cell)
                .to_owned()
        });
        let mut cell = || cells.next().unwrap_or_default();
        match table {
            None => {
                let wanted = heading.starts_with(&format!("## {section}."))
                    && prose.starts_with(intro)
                    && cell() == first;
                table = Some(wanted);
            }
            Some(true) => rows.push(SpecRow {
                line: i + 1,
                value: cell(),
                name: cell(),
                request: cell(),
                reply: cell(),
            }),
            Some(false) => {}
        }
    }
    rows
}

/// A band as the code declares it: name → value.
type Declared = BTreeMap<String, u8>;

fn ops(table: &[OpInfo]) -> Declared {
    table
        .iter()
        .map(|op| (op.name.to_owned(), op.value))
        .collect()
}

/// The error codes a codec knows, by variant name: every code that does
/// not decode to the `Transport("unknown … code …")` fallback, each of
/// which must encode back to itself.
fn error_codes<E: std::fmt::Debug>(
    band: &str,
    decode: impl Fn(u8, &[u8]) -> E,
    encode: impl Fn(&E) -> u8,
    problems: &mut Vec<String>,
) -> Declared {
    // A `string` then a `u64`: a body every variant's decoder accepts.
    let body = [&[1, 0, 0, 0, b'x'][..], &7u64.to_le_bytes()].concat();
    let mut codes = Declared::new();
    for code in 0..=u8::MAX {
        let error = decode(code, &body);
        let debug = format!("{error:?}");
        if debug.starts_with("Transport(\"unknown") {
            continue;
        }
        if encode(&error) != code {
            problems.push(format!("{band}: code {code} does not round-trip"));
        }
        let variant = debug.split(|c: char| !c.is_alphanumeric()).next();
        codes.insert(variant.unwrap_or_default().to_owned(), code);
    }
    codes
}

/// Every disagreement between `doc`'s tables and the code, each led by
/// its band (`§5`, `§7 Broker`, …).
fn problems(doc: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let broker_errors = error_codes(
        "§7 Broker",
        decode_broker_error,
        |e: &BrokerError| encode_broker_error(e).code,
        &mut problems,
    );
    let store_errors = error_codes(
        "§7 Docstore",
        decode_store_error,
        |e: &StoreError| encode_store_error(e).code,
        &mut problems,
    );
    let frames: Declared = (0..=u8::MAX)
        .filter_map(|byte| FrameType::from_byte(byte).map(|t| (format!("{t:?}"), byte)))
        .collect();
    for (name, &byte) in &frames {
        if FrameType::from_byte(byte).map(FrameType::as_byte) != Some(byte) {
            problems.push(format!("§2: `{name}` does not round-trip through {byte}"));
        }
    }
    let handshake = Declared::from([
        ("HELLO_OK".to_owned(), HELLO_OK),
        ("HELLO_SHED".to_owned(), HELLO_SHED),
        ("HELLO_BAD_VERSION".to_owned(), HELLO_BAD_VERSION),
    ]);
    let admin: Declared = (0..=u8::MAX)
        .filter_map(|op| admin_opcode_name(op).map(|name| (format!("OP_{name}"), op)))
        .collect();

    for (band, section, declared) in [
        ("§5", "5", &ops(broker_api::OPS)),
        ("§7 Broker", "7", &broker_errors),
    ] {
        for row in band_rows(doc, section, "retired", "") {
            let SpecRow { value, name, .. } = &row;
            if declared.values().any(|code| code.to_string() == *value) {
                problems.push(format!(
                    "{band}: retired {value} (`{name}`) is declared in the code"
                ));
            }
            if declared.contains_key(name) {
                problems.push(format!(
                    "{band}: retired `{name}` ({value}) is declared in the code"
                ));
            }
        }
    }
    let bands: [(&str, &str, &str, Declared, RangeInclusive<u8>); 7] = [
        ("2", "byte", "", frames, 1..=255),
        ("3", "status", "", handshake, 0..=15),
        ("5", "op", "", ops(broker_api::OPS), 1..=199),
        ("6", "op", "", ops(docstore_api::OPS), 1..=199),
        ("7", "code", "Broker", broker_errors, 16..=255),
        ("7", "code", "Docstore", store_errors, 16..=255),
        ("9", "op", "", admin, ADMIN_OPCODE_MIN..=255),
    ];
    for (section, first, intro, declared, range) in bands {
        let band = format!("§{section} {intro}");
        let rows = band_rows(doc, section, first, intro);
        compare(band.trim(), &rows, &declared, range, &mut problems);
    }
    for (section, table) in [("5", broker_api::OPS), ("6", docstore_api::OPS)] {
        let rows = band_rows(doc, section, "op", "");
        for op in table {
            let Some(row) = rows.iter().find(|row| row.name == op.name) else {
                continue;
            };
            let mut request: Vec<&str> = op.request.iter().map(|(marker, _)| *marker).collect();
            if op.scoped {
                request.insert(0, "string");
            }
            for (column, marker, cell) in [
                ("request", request.join(", "), &row.request),
                ("reply", op.reply.to_owned(), &row.reply),
            ] {
                if marker_primitives(&marker) != cell_primitives(cell) {
                    problems.push(format!(
                        "§{section} line {}: the {column} of `{}` is `{marker}` in `OPS` but \
                         `{cell}` in the spec",
                        row.line, op.name
                    ));
                }
            }
        }
    }
    problems
}

/// Holds one band's spec rows and declarations to each other.
fn compare(
    band: &str,
    rows: &[SpecRow],
    declared: &Declared,
    range: RangeInclusive<u8>,
    problems: &mut Vec<String>,
) {
    let mut spec_values: BTreeMap<u8, &str> = BTreeMap::new();
    for row in rows {
        let SpecRow {
            line, value, name, ..
        } = row;
        let Ok(number) = value.parse::<u8>() else {
            problems.push(format!("{band} line {line}: bad value `{value}`"));
            continue;
        };
        if let Some(other) = spec_values.insert(number, name) {
            problems.push(format!("{band}: `{name}` and `{other}` share {number}"));
        }
        match declared.get(name) {
            None => problems.push(format!(
                "{band} line {line}: `{name}` ({number}) is not declared in the code"
            )),
            Some(&code) if code != number => problems.push(format!(
                "{band} line {line}: `{name}` is {number} in the spec but {code} in the code"
            )),
            Some(_) => {}
        }
    }
    let mut code_values: BTreeMap<u8, &str> = BTreeMap::new();
    for (name, &value) in declared {
        if !rows.iter().any(|row| &row.name == name) {
            problems.push(format!("{band}: `{name}` ({value}) has no spec row"));
        }
        if !range.contains(&value) {
            problems.push(format!("{band}: `{name}` ({value}) is outside {range:?}"));
        }
        if let Some(other) = code_values.insert(value, name) {
            problems.push(format!(
                "{band}: `{name}` and `{other}` share {value} in the code"
            ));
        }
    }
}

/// The §1 primitives an `OPS` row's field markers put on the wire, in
/// order: what the composite markers are made of.
fn marker_primitives(markers: &str) -> Vec<&str> {
    markers
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .flat_map(|word| match word {
            "" | "empty" => vec![],
            "json" => vec!["bytes"],
            "seq" => vec!["u32"],
            "policy" => vec!["u32", "string"],
            "message" => vec!["string", "bytes", "u16", "string", "string"],
            "delivery" => vec!["u64", "bool", "string", "bytes", "u16", "string", "string"],
            word => vec![word],
        })
        .collect()
}

/// The §1 primitives a spec cell names, in order; field names and prose
/// drop out.
fn cell_primitives(cell: &str) -> Vec<&str> {
    const PRIMITIVES: &str = "u8 u16 u32 u64 bool string bytes option docs deliveries";
    cell.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|word| PRIMITIVES.split(' ').any(|primitive| primitive == *word))
        .collect()
}

#[test]
fn spec_tables_match_the_code() {
    let problems = problems(SPEC);
    assert!(problems.is_empty(), "{problems:#?}");
}

/// One test per band, so a failure names its table.
macro_rules! band_matches {
    ($($test:ident: $band:literal,)*) => {$(
        #[test]
        fn $test() {
            let problems = problems(SPEC);
            let band: Vec<&String> = problems.iter().filter(|p| p.starts_with($band)).collect();
            assert!(band.is_empty(), "{band:#?}");
        }
    )*};
}

band_matches! {
    frame_types_match: "§2",
    handshake_statuses_match: "§3",
    broker_opcodes_match: "§5",
    docstore_opcodes_match: "§6",
    broker_error_codes_match: "§7 Broker",
    docstore_error_codes_match: "§7 Docstore",
    admin_opcodes_match: "§9",
}

/// One test per mutation: the spec line starting `prefix` is edited
/// (dropped on `None`), and the comparison must report `expected`.
macro_rules! rejects {
    ($($test:ident: $prefix:literal => $edit:expr, $expected:literal;)*) => {$(
        #[test]
        fn $test() {
            let edit: fn(&str) -> Option<String> = $edit;
            let mutated: Vec<String> = SPEC
                .lines()
                .filter_map(|line| {
                    if line.starts_with($prefix) {
                        edit(line)
                    } else {
                        Some(line.to_owned())
                    }
                })
                .collect();
            let problems = problems(&mutated.join("\n"));
            assert!(problems.iter().any(|p| p.ends_with($expected)), "{problems:#?}");
        }
    )*};
}

rejects! {
    a_renumbered_frame_type: "| 3    | `Request`" => |row| Some(row.replacen('3', "5", 1)),
        "`Request` is 5 in the spec but 3 in the code";
    a_renumbered_handshake_status: "| 1      | `HELLO_SHED`"
        => |row| Some(row.replacen('1', "3", 1)),
        "`HELLO_SHED` is 3 in the spec but 1 in the code";
    a_renumbered_broker_opcode: "| 16 | `PUBLISH_MESSAGE`"
        => |row| Some(row.replacen("16", "26", 1)),
        "`PUBLISH_MESSAGE` is 26 in the spec but 16 in the code";
    a_renumbered_docstore_opcode: "| 4  | `LEN`" => |row| Some(row.replacen('4', "24", 1)),
        "`LEN` is 24 in the spec but 4 in the code";
    a_renamed_broker_error: "| 22   | `InvalidDeadLetter`"
        => |row| Some(row.replace("InvalidDeadLetter", "DeadLetterInvalid")),
        "§7 Broker: `InvalidDeadLetter` (22) has no spec row";
    a_renumbered_docstore_error: "| 20   | `CollectionNotFound`"
        => |row| Some(row.replacen("20", "24", 1)),
        "`CollectionNotFound` is 24 in the spec but 20 in the code";
    an_admin_row_the_spec_lost: "| 253 | `OP_SLOW_RPCS`" => |_| None,
        "§9: `OP_SLOW_RPCS` (253) has no spec row";
    an_ops_row_the_spec_lost: "| 20 | `ACK_MANY`" => |_| None,
        "§5: `ACK_MANY` (20) has no spec row";
    a_spec_row_the_code_lacks: "| 20 | `TOTAL_DOCUMENTS`"
        => |row| Some(format!("{row}\n| 21 | `COMPACT` | empty | empty |")),
        "`COMPACT` (21) is not declared in the code";
    a_changed_request_marker: "| 17 | `CONSUME`" => |row| Some(row.replace("u32 max", "u64 max")),
        "`CONSUME` is `string, u32` in `OPS` but `string queue, u64 max` in the spec";
    a_changed_reply_marker: "| 3  | `GET`" => |row| Some(row.replace("option<bytes", "option<u64")),
        "`GET` is `option < json >` in `OPS` but `option<u64 document>` in the spec";
    a_value_collision: "| 19 | `NACK`" => |row| Some(row.replacen("19", "17", 1)),
        "`NACK` and `CONSUME` share 17";
    an_unparsable_value: "| 16 | `PUBLISH_MESSAGE`"
        => |row| Some(row.replacen("16", "sixteen", 1)),
        "bad value `sixteen`";
    a_retired_opcode_reused: "| 15      | `PUBLISH`" => |row| Some(row.replacen("15", "16", 1)),
        "§5: retired 16 (`PUBLISH`) is declared in the code";
    a_retired_name_reused: "| 18      | `ACK`" => |row| Some(row.replace("`ACK`", "`NACK`")),
        "§5: retired `NACK` (18) is declared in the code";
    a_retired_error_code_reused: "| 21      | `QueueFull`"
        => |row| Some(row.replacen("21", "22", 1)),
        "§7 Broker: retired 22 (`QueueFull`) is declared in the code";
    a_frame_type_the_code_lacks: "| 4    | `Response`"
        => |row| Some(format!("{row}\n| 5    | `Ping` | either | none |")),
        "`Ping` (5) is not declared in the code";
    a_handshake_status_the_code_lacks: "| 2      | `HELLO_BAD_VERSION`"
        => |row| Some(format!("{row}\n| 3      | `HELLO_BUSY` | retry later |")),
        "`HELLO_BUSY` (3) is not declared in the code";
    an_error_code_the_codec_lacks: "| 23   | `Transport`          |"
        => |row| Some(format!("{row}\n| 24   | `Throttled` | empty |")),
        "`Throttled` (24) is not declared in the code";
    an_admin_opcode_the_code_lacks: "| 253 | `OP_SLOW_RPCS`"
        => |row| Some(format!("{row}\n| 254 | `OP_PAUSE` | empty | empty |")),
        "`OP_PAUSE` (254) is not declared in the code";
    a_renumbered_admin_opcode: "| 252 | `OP_FLIGHT_DRAIN`"
        => |row| Some(row.replacen("252", "254", 1)),
        "`OP_FLIGHT_DRAIN` is 254 in the spec but 252 in the code";
    a_scoped_row_without_its_collection: "| 10 | `CREATE_INDEX`"
        => |row| Some(row.replace("`string coll, string path`", "`string path`")),
        "`CREATE_INDEX` is `string, string` in `OPS` but `string path` in the spec";
    a_row_in_a_code_fence: "| 20 | `ACK_MANY`" => |row| Some(format!("```text\n{row}\n```")),
        "§5: `ACK_MANY` (20) has no spec row";
}

/// Declarations are held to their band's layout whatever the spec says.
#[test]
fn declarations_outside_their_band_or_sharing_a_value_are_rejected() {
    let doc = "## 9. Admin\n\n| op | name |\n|---|---|\n| 239 | `OP_A` |\n| 238 | `OP_B` |\n";
    let declared = Declared::from([("OP_A".to_owned(), 239), ("OP_B".to_owned(), 239)]);
    let mut problems = Vec::new();
    let rows = band_rows(doc, "9", "op", "");
    compare(
        "§9",
        &rows,
        &declared,
        ADMIN_OPCODE_MIN..=255,
        &mut problems,
    );
    assert_eq!(
        problems,
        [
            "§9 line 6: `OP_B` is 238 in the spec but 239 in the code",
            "§9: `OP_A` (239) is outside 240..=255",
            "§9: `OP_B` (239) is outside 240..=255",
            "§9: `OP_B` and `OP_A` share 239 in the code",
        ]
    );
}

#[test]
fn marker_and_cell_primitives_agree_on_composites() {
    for (markers, cell) in [
        ("", "empty"),
        (
            "string, seq < json >",
            "string coll, u32 count, count × bytes document",
        ),
        (
            "option < policy >",
            "option<u32 max_delivery_attempts, string target>",
        ),
        (
            "docs",
            "docs (below; entries are JSON values, not necessarily objects)",
        ),
    ] {
        assert_eq!(
            marker_primitives(markers),
            cell_primitives(cell),
            "{markers}"
        );
    }
    assert_ne!(marker_primitives("u64"), cell_primitives("option<u64 n>"));
}

/// Every opcode of the admin band is answered when §9 lists it and
/// refused when it does not: a dispatch arm per row, by behaviour.
#[test]
fn admin_band_answers_exactly_its_spec_rows() {
    let listed: Vec<u8> = band_rows(SPEC, "9", "op", "")
        .iter()
        .map(|row| row.value.parse().unwrap())
        .collect();
    let broker: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::new(BrokerService::new(broker)),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
    // OP_SHUTDOWN stops the server, so it goes last.
    for opcode in (ADMIN_OPCODE_MIN..OP_SHUTDOWN).chain([OP_SHUTDOWN]) {
        match conn.call(opcode, &[], b"") {
            Ok(_) => assert!(listed.contains(&opcode), "{opcode} answers but §9 lacks it"),
            Err(NetError::Remote {
                code: STATUS_BAD_REQUEST,
                ..
            }) => assert!(
                !listed.contains(&opcode),
                "§9 lists {opcode}; it is refused"
            ),
            Err(other) => panic!("opcode {opcode}: {other:?}"),
        }
    }
    server.join();
}
