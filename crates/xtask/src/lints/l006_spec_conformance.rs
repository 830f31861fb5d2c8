//! L006 — spec conformance: the wire protocol the code speaks must be
//! the one the spec documents.
//!
//! The normative tables in `docs/WIRE_PROTOCOL.md` (see
//! `mps-lint.toml` `protocol_spec`) and the declarations in the
//! `wire_api` files are two copies of the same facts — frame-type bytes,
//! handshake statuses, opcodes, error codes. A service's opcodes are the
//! rows of its operation table (`<n> NAME class fn method(arg: T =>
//! field, …) -> R => field;`, the one place an operation is stated);
//! every other band is plain constants. This pass makes divergence a CI
//! failure instead of a silent protocol fork:
//!
//! * a spec row with no declaration, and a declaration with no spec row,
//!   are both findings;
//! * a name whose value differs between spec and code is a finding
//!   anchored at the *value token* in the code;
//! * value collisions within a band, and values outside their band's
//!   reserved layout (service opcodes `1..=199`, admin `240..=255`,
//!   errors `16..`, handshake statuses `0..=15`), are findings;
//! * a table row's request and reply fields must put the same §1
//!   primitives on the wire, in the same order, as the spec's request
//!   and success-reply columns say;
//! * an opcode declared as a bare constant (the admin band, which is not
//!   a trait surface and has no table) must have a dispatch arm
//!   (`NAME =>`) in non-test code and be referenced from at least one
//!   test in its crate. Table rows need neither check: their stub and
//!   dispatch arm are generated from the row, and the golden corpus
//!   (`crates/net/tests/wire_corpus.rs`) refuses a table with an opcode
//!   it has no frames for.
//!
//! The merged spec+code inventory feeds the generated
//! `docs/OPCODES.md` (see [`crate::opcodes_doc`]), staleness-gated the
//! same way L004 gates `docs/METRICS.md`. The pass is enabled by
//! setting `protocol_spec` in `mps-lint.toml`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::config::Config;
use crate::findings::{Finding, LintId};
use crate::lexer::{Token, TokenKind};
use crate::lints::{is_ident, is_punct};
use crate::scan::SourceFile;
use crate::spec::{self, SpecRow};

/// One declared wire constant extracted from a `wire_api` file.
#[derive(Debug, Clone)]
pub struct CodeConst {
    /// Band key (`frame`, `handshake`, `<role> op`, `<role> err`).
    pub band: String,
    /// The constant (or enum-variant) name.
    pub name: String,
    /// The declared numeric value.
    pub value: i64,
    /// Workspace-relative path of the declaring file.
    pub file: String,
    /// Crate short name of the declaring file.
    pub crate_name: String,
    /// Span of the name.
    pub line: u32,
    /// Column of the name.
    pub col: u32,
    /// Caret width of the name.
    pub len: u32,
    /// Span of the value token (where mismatches are anchored).
    pub value_line: u32,
    /// Column of the value token.
    pub value_col: u32,
    /// Caret width of the value token.
    pub value_len: u32,
    /// For an operation-table row: the field markers of its request
    /// (a leading `string` for a `by_collection` row, then one per
    /// argument) and of its reply, as written.
    pub fields: Option<(String, String)>,
}

impl CodeConst {
    /// A finding anchored at the name, or (`on_value`) at the value token.
    fn finding(&self, on_value: bool, message: String, help: impl Into<String>) -> Finding {
        let (line, col, len) = if on_value {
            (self.value_line, self.value_col, self.value_len)
        } else {
            (self.line, self.col, self.len)
        };
        Finding::new(LintId::L006, &self.file, line, col, len, message).with_help(help)
    }
}

/// One row of the merged spec+code inventory (`docs/OPCODES.md`).
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Position of the band in the rendered doc.
    pub band_order: usize,
    /// Human band title (`Broker opcodes`, `Frame types`, …).
    pub band_label: String,
    /// The wire value (code wins when spec and code disagree).
    pub value: i64,
    /// Constant name.
    pub name: String,
    /// Request-body shape from the spec (`—` when not applicable).
    pub request: String,
    /// Success-reply shape from the spec (`—` when not applicable).
    pub reply: String,
    /// `file:line` of the declaration (`—` when spec-only).
    pub declared_at: String,
    /// Dispatch-arm coverage (`None` for non-opcode bands).
    pub dispatch: Option<bool>,
    /// Test coverage (`None` for non-opcode bands).
    pub tested: Option<bool>,
}

/// Parses a numeric literal's value (decimal/hex/binary/octal, with
/// `_` separators and type suffixes).
fn parse_num(raw: &str) -> Option<i64> {
    let s: String = raw.chars().filter(|c| *c != '_').collect();
    let lower = s.to_ascii_lowercase();
    let (digits, radix) = if let Some(h) = lower.strip_prefix("0x") {
        (h, 16)
    } else if let Some(b) = lower.strip_prefix("0b") {
        (b, 2)
    } else if let Some(o) = lower.strip_prefix("0o") {
        (o, 8)
    } else {
        (lower.as_str(), 10)
    };
    let digits: String = digits.chars().take_while(|c| c.is_digit(radix)).collect();
    i64::from_str_radix(&digits, radix).ok()
}

/// Extracts the wire constants a `wire_api` file declares for `role`.
fn extract(role: &str, file: &SourceFile, out: &mut Vec<CodeConst>) {
    if role == "frame" {
        extract_frame_arms(file, out);
        return;
    }
    extract_rows(role, file, out);
    let tokens = &file.tokens;
    let mut depth = 0u32;
    // Innermost named module and the brace depth of its body.
    let mut mods: Vec<(String, u32)> = Vec::new();
    let mut pending_mod: Option<String> = None;
    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.kind == TokenKind::Punct {
            match tok.text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(name) = pending_mod.take() {
                        mods.push((name, depth));
                    }
                }
                "}" => {
                    if mods.last().is_some_and(|(_, d)| *d == depth) {
                        mods.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if is_ident(tokens, i, "mod")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && is_punct(tokens, i + 2, '{')
        {
            pending_mod = Some(tokens[i + 1].text.clone());
            i += 1;
            continue;
        }
        if is_ident(tokens, i, "const") && !file.is_test_line(tok.line) {
            if let Some(decl) = read_const(tokens, i) {
                let band = match mods.last().map(|(n, _)| n.as_str()) {
                    Some("op") => Some(format!("{role} op")),
                    Some("err") => Some(format!("{role} err")),
                    None if role == "handshake" && decl.0.text.starts_with("HELLO_") => {
                        Some("handshake".to_owned())
                    }
                    None if role != "handshake" && decl.0.text.starts_with("OP_") => {
                        Some(format!("{role} op"))
                    }
                    _ => None,
                };
                if let Some(band) = band {
                    out.push(make_const(band, file, decl.0, decl.1, decl.2));
                }
            }
        }
        i += 1;
    }
}

/// Extracts the rows of an operation table:
/// `<n> NAME class fn method(arg: T => field, …) -> R => field;`.
fn extract_rows(role: &str, file: &SourceFile, out: &mut Vec<CodeConst>) {
    let tokens = &file.tokens;
    let is_kind = |i: usize, kind| tokens.get(i).is_some_and(|t: &Token| t.kind == kind);
    for (i, value_tok) in tokens.iter().enumerate() {
        let is_row = is_kind(i, TokenKind::Num)
            && is_kind(i + 1, TokenKind::Ident)
            && is_kind(i + 2, TokenKind::Ident)
            && is_ident(tokens, i + 3, "fn")
            && is_kind(i + 4, TokenKind::Ident)
            && is_punct(tokens, i + 5, '(')
            && !file.is_test_line(value_tok.line);
        let Some(value) = parse_num(&value_tok.text).filter(|_| is_row) else {
            continue;
        };
        // `name:&str=>string,kind:T=>u8)->()=>empty`, spaces gone.
        let signature: String = tokens[i + 6..]
            .iter()
            .map(|t| t.text.as_str())
            .take_while(|text| *text != ";")
            .collect();
        let Some((arguments, reply)) = signature.split_once(")->") else {
            continue;
        };
        let mut request = markers(arguments);
        if tokens[i + 2].text == "by_collection" {
            request.insert(0, "string");
        }
        let mut row = make_const(format!("{role} op"), file, &tokens[i + 1], value_tok, value);
        row.fields = Some((request.join(", "), markers(reply).join(", ")));
        out.push(row);
    }
}

/// What follows each `=>` in a `,`-separated list: the field markers.
fn markers(part: &str) -> Vec<&str> {
    let fields = part.split(',').filter_map(|field| field.split_once("=>"));
    fields.map(|(_, marker)| marker).collect()
}

/// The §1 primitives a table row's field markers put on the wire, in
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
    const PRIMITIVES: &[&str] = &[
        "u8",
        "u16",
        "u32",
        "u64",
        "bool",
        "string",
        "bytes",
        "option",
        "docs",
        "deliveries",
    ];
    cell.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|word| PRIMITIVES.contains(word))
        .collect()
}

/// Reads `const NAME: Ty = <num>` starting at the `const` keyword;
/// returns (name token, value token, value).
fn read_const(tokens: &[Token], i: usize) -> Option<(&Token, &Token, i64)> {
    let name = tokens.get(i + 1)?;
    if name.kind != TokenKind::Ident || name.text == "fn" {
        return None;
    }
    // Scan a short window for `= <num>` (the type is a plain path).
    for j in i + 2..(i + 12).min(tokens.len().saturating_sub(1)) {
        if is_punct(tokens, j, '=') && !is_punct(tokens, j + 1, '=') {
            let value_tok = tokens.get(j + 1)?;
            if value_tok.kind != TokenKind::Num {
                return None;
            }
            return Some((name, value_tok, parse_num(&value_tok.text)?));
        }
        if is_punct(tokens, j, ';') {
            return None;
        }
    }
    None
}

/// Extracts `Enum::Variant => <num>` match arms (the `as_byte`
/// direction of a frame-type enum).
fn extract_frame_arms(file: &SourceFile, out: &mut Vec<CodeConst>) {
    let tokens = &file.tokens;
    let mut seen = BTreeSet::new();
    for i in 0..tokens.len() {
        let matched = tokens[i].kind == TokenKind::Ident
            && is_punct(tokens, i + 1, ':')
            && is_punct(tokens, i + 2, ':')
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && is_punct(tokens, i + 4, '=')
            && is_punct(tokens, i + 5, '>')
            && tokens.get(i + 6).is_some_and(|t| t.kind == TokenKind::Num);
        if !matched || file.is_test_line(tokens[i].line) {
            continue;
        }
        let name = &tokens[i + 3];
        let value_tok = &tokens[i + 6];
        let Some(value) = parse_num(&value_tok.text) else {
            continue;
        };
        if seen.insert(name.text.clone()) {
            out.push(make_const("frame".to_owned(), file, name, value_tok, value));
        }
    }
}

fn make_const(
    band: String,
    file: &SourceFile,
    name: &Token,
    value_tok: &Token,
    value: i64,
) -> CodeConst {
    CodeConst {
        band,
        name: name.text.clone(),
        value,
        file: file.rel_path.clone(),
        crate_name: file.crate_name.clone(),
        line: name.line,
        col: name.col,
        len: name.len,
        value_line: value_tok.line,
        value_col: value_tok.col,
        value_len: value_tok.len,
        fields: None,
    }
}

/// The inclusive value range a band's constants must stay inside (the
/// §11 reserved layout: service opcodes `1..=199`, `200..=239`
/// reserved, `240..=255` admin, error codes `16..`, handshake statuses
/// `0..=15`).
fn band_range(band: &str) -> (i64, i64) {
    match band {
        "frame" => (1, 255),
        "handshake" => (0, 15),
        "admin op" => (240, 255),
        b if b.ends_with(" op") => (1, 199),
        b if b.ends_with(" err") => (16, 255),
        _ => (0, 255),
    }
}

/// Runs the whole conformance pass. Returns the merged inventory rows
/// for `docs/OPCODES.md` (empty when `protocol_spec` is unset).
pub fn check(
    config: &Config,
    files: &[&SourceFile],
    root: &Path,
    findings: &mut Vec<Finding>,
) -> Vec<WireRow> {
    if config.protocol_spec.is_empty() {
        return Vec::new();
    }
    let spec_path = &config.protocol_spec;
    let doc = match std::fs::read_to_string(root.join(spec_path)) {
        Ok(doc) => doc,
        Err(e) => {
            findings.push(Finding::new(
                LintId::L006,
                spec_path,
                1,
                1,
                1,
                format!("cannot read protocol spec {spec_path}: {e}"),
            ));
            return Vec::new();
        }
    };

    // Ordered service roles (everything except the two special bands).
    let mut roles: Vec<String> = Vec::new();
    for (role, _) in &config.wire_api {
        if role != "frame" && role != "handshake" && !roles.contains(role) {
            roles.push(role.clone());
        }
    }

    let (spec_rows, problems) = spec::parse(&doc, &roles);
    for p in problems {
        findings.push(
            Finding::new(LintId::L006, spec_path, p.line, 1, 0, p.message)
                .with_help("fix the table row so the conformance pass can read it"),
        );
    }

    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), *f)).collect();
    let mut consts: Vec<CodeConst> = Vec::new();
    for (role, path) in &config.wire_api {
        match by_path.get(path.as_str()) {
            Some(file) => extract(role, file, &mut consts),
            None => findings.push(
                Finding::new(
                    LintId::L006,
                    path,
                    1,
                    1,
                    1,
                    format!("wire_api file `{path}` (role `{role}`) was not found in the scan"),
                )
                .with_help("fix the path in mps-lint.toml `wire_api`"),
            ),
        }
    }

    cross_check(config, files, spec_path, &spec_rows, &consts, findings)
}

/// All cross-checks plus inventory assembly, split out for fixtures.
fn cross_check(
    config: &Config,
    files: &[&SourceFile],
    spec_path: &str,
    spec_rows: &[SpecRow],
    consts: &[CodeConst],
    findings: &mut Vec<Finding>,
) -> Vec<WireRow> {
    // Band → name → row/const maps.
    let mut spec_by_band: BTreeMap<&str, BTreeMap<&str, &SpecRow>> = BTreeMap::new();
    for row in spec_rows {
        spec_by_band
            .entry(&row.band)
            .or_default()
            .insert(&row.name, row);
    }
    let mut code_by_band: BTreeMap<&str, Vec<&CodeConst>> = BTreeMap::new();
    for c in consts {
        code_by_band.entry(&c.band).or_default().push(c);
    }

    // Name ↔ value conformance, ranges, and within-band collisions.
    for (band, band_consts) in &code_by_band {
        let spec_names = spec_by_band.get(band);
        let mut by_value: BTreeMap<i64, &str> = BTreeMap::new();
        for c in band_consts {
            match spec_names.and_then(|m| m.get(c.name.as_str())) {
                None => findings.push(c.finding(
                    false,
                    format!(
                        "`{}` (value {}) has no row in the `{band}` table of {spec_path}",
                        c.name, c.value
                    ),
                    format!(
                        "the spec is normative: add a `{band}` row for it to {spec_path} \
                         (or delete the declaration), then regenerate {}",
                        config.opcodes_doc
                    ),
                )),
                Some(row) if row.value != c.value => findings.push(c.finding(
                    true,
                    format!(
                        "`{}` is {} on the wire but {spec_path}:{} says {}",
                        c.name, c.value, row.line, row.value
                    ),
                    "the code and the normative spec disagree — a third-party \
                     implementation built from the spec cannot interoperate; fix \
                     whichever side is wrong",
                )),
                Some(row) => {
                    let fields = c.fields.iter().flat_map(|(request, reply)| {
                        [
                            ("request", request, &row.request),
                            ("reply", reply, &row.reply),
                        ]
                    });
                    for (column, declared, cell) in fields {
                        if marker_primitives(declared) != cell_primitives(cell) {
                            findings.push(c.finding(
                                false,
                                format!(
                                    "the {column} of `{}` is `{declared}` in the table \
                                     but {spec_path}:{} says `{cell}`",
                                    c.name, row.line
                                ),
                                "the row's field markers and the spec column must name \
                                 the same primitives in the same order; fix whichever \
                                 side is wrong",
                            ));
                        }
                    }
                }
            }
            let (lo, hi) = band_range(band);
            if c.value < lo || c.value > hi {
                findings.push(c.finding(
                    true,
                    format!(
                        "value {} of `{}` is outside the `{band}` range {lo}..={hi}",
                        c.value, c.name
                    ),
                    "see the reserved-range layout (service opcodes 1..=199, \
                     200..=239 reserved, 240..=255 admin, error codes 16..)",
                ));
            }
            if let Some(prev) = by_value.insert(c.value, &c.name) {
                if prev != c.name {
                    findings.push(c.finding(
                        true,
                        format!(
                            "value {} of `{}` collides with `{prev}` in band `{band}`",
                            c.value, c.name
                        ),
                        "every value in a band must be unique on the wire",
                    ));
                }
            }
        }
    }

    // Spec rows with no declared constant.
    for row in spec_rows {
        let declared = code_by_band
            .get(row.band.as_str())
            .is_some_and(|v| v.iter().any(|c| c.name == row.name));
        if !declared {
            findings.push(
                Finding::new(
                    LintId::L006,
                    spec_path,
                    row.line,
                    row.col,
                    row.len,
                    format!(
                        "spec row `{}` (value {}, band `{}`) has no declared constant",
                        row.display_name, row.value, row.band
                    ),
                )
                .with_help("declare it in the band's wire_api file or remove the row"),
            );
        }
    }

    // Dispatch-arm and test-coverage checks: opcodes declared as bare
    // constants only (a table row's arm is generated from the row).
    let op_consts: Vec<&CodeConst> = consts
        .iter()
        .filter(|c| c.band.ends_with(" op") && c.fields.is_none())
        .collect();
    let op_crates: BTreeSet<&str> = op_consts.iter().map(|c| c.crate_name.as_str()).collect();
    let op_names: BTreeSet<&str> = op_consts.iter().map(|c| c.name.as_str()).collect();
    let mut dispatched: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut tested: BTreeSet<(&str, &str)> = BTreeSet::new();
    for file in files {
        if !op_crates.contains(file.crate_name.as_str()) {
            continue;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let tok = &tokens[i];
            if tok.kind != TokenKind::Ident {
                continue;
            }
            if op_names.contains(tok.text.as_str()) {
                let key = (file.crate_name.as_str(), tok.text.as_str());
                if file.is_test_line(tok.line) {
                    tested.insert(key);
                } else if (is_punct(tokens, i + 1, '=') && is_punct(tokens, i + 2, '>'))
                    || is_punct(tokens, i + 1, '|')
                    || is_ident(tokens, i + 1, "if")
                {
                    // `NAME =>`, `NAME | OTHER =>`, `NAME if guard =>`
                    dispatched.insert(key);
                }
            }
        }
    }
    for c in &op_consts {
        let key = (c.crate_name.as_str(), c.name.as_str());
        if !dispatched.contains(&key) {
            findings.push(c.finding(
                false,
                format!(
                    "opcode `{}` has no dispatch arm in crate `{}`",
                    c.name, c.crate_name
                ),
                "add a `NAME => …` match arm in the server dispatch",
            ));
        }
        if !tested.contains(&key) {
            findings.push(c.finding(
                false,
                format!(
                    "opcode `{}` is not referenced by any test in crate `{}`",
                    c.name, c.crate_name
                ),
                "cover it with a codec round-trip or dispatch test",
            ));
        }
    }

    assemble_rows(config, spec_rows, consts, &dispatched, &tested)
}

/// Merges spec and code into the ordered inventory for OPCODES.md.
fn assemble_rows(
    config: &Config,
    spec_rows: &[SpecRow],
    consts: &[CodeConst],
    dispatched: &BTreeSet<(&str, &str)>,
    tested: &BTreeSet<(&str, &str)>,
) -> Vec<WireRow> {
    // Band order follows the config's wire_api entry order.
    let mut bands: Vec<String> = Vec::new();
    for (role, _) in &config.wire_api {
        let keys: Vec<String> = match role.as_str() {
            "frame" => vec!["frame".to_owned()],
            "handshake" => vec!["handshake".to_owned()],
            r => vec![format!("{r} op"), format!("{r} err")],
        };
        for key in keys {
            if !bands.contains(&key) {
                bands.push(key);
            }
        }
    }
    // Bands that only appear in the spec still get rendered, last.
    for row in spec_rows {
        if !bands.contains(&row.band) {
            bands.push(row.band.clone());
        }
    }

    let mut out = Vec::new();
    for (order, band) in bands.iter().enumerate() {
        let label = band_label(band);
        // Union of names, keyed for dedup and ordering by (value, name).
        let mut merged: BTreeMap<(i64, String), WireRow> = BTreeMap::new();
        for c in consts.iter().filter(|c| &c.band == band) {
            let key = (c.crate_name.as_str(), c.name.as_str());
            let is_op = band.ends_with(" op") && c.fields.is_none();
            merged.insert(
                (c.value, c.name.clone()),
                WireRow {
                    band_order: order,
                    band_label: label.clone(),
                    value: c.value,
                    name: c.name.clone(),
                    request: "—".to_owned(),
                    reply: "—".to_owned(),
                    declared_at: format!("{}:{}", c.file, c.line),
                    dispatch: is_op.then(|| dispatched.contains(&key)),
                    tested: is_op.then(|| tested.contains(&key)),
                },
            );
        }
        for row in spec_rows.iter().filter(|r| &r.band == band) {
            let entry = merged
                .iter_mut()
                .find(|((_, name), _)| name == &row.name)
                .map(|(_, v)| v);
            match entry {
                Some(wire_row) => {
                    wire_row.request = dash_if_empty(&row.request);
                    wire_row.reply = dash_if_empty(&row.reply);
                }
                None => {
                    merged.insert(
                        (row.value, row.name.clone()),
                        WireRow {
                            band_order: order,
                            band_label: label.clone(),
                            value: row.value,
                            name: row.name.clone(),
                            request: dash_if_empty(&row.request),
                            reply: dash_if_empty(&row.reply),
                            declared_at: "—".to_owned(),
                            dispatch: None,
                            tested: None,
                        },
                    );
                }
            }
        }
        out.extend(merged.into_values());
    }
    out
}

fn dash_if_empty(s: &str) -> String {
    if s.is_empty() {
        "—".to_owned()
    } else {
        s.to_owned()
    }
}

/// Human band title.
fn band_label(band: &str) -> String {
    match band {
        "frame" => "Frame types".to_owned(),
        "handshake" => "Handshake statuses".to_owned(),
        b => {
            let (role, kind) = b.rsplit_once(' ').unwrap_or((b, ""));
            let mut title: String = role
                .chars()
                .enumerate()
                .map(|(i, c)| if i == 0 { c.to_ascii_uppercase() } else { c })
                .collect();
            title.push_str(match kind {
                "op" => " opcodes",
                "err" => " error codes",
                _ => "",
            });
            title
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn api_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/wire/src/api.rs", "wire", src)
    }

    #[test]
    fn extracts_mod_op_and_mod_err_consts() {
        let file = api_file(
            "pub mod op {\n    pub const PING: u8 = 1;\n    pub const PONG: u8 = 2;\n}\n\
             pub mod err {\n    pub const BAD_PING: u8 = 16;\n}\n",
        );
        let mut consts = Vec::new();
        extract("widget", &file, &mut consts);
        assert_eq!(consts.len(), 3);
        assert_eq!(consts[0].band, "widget op");
        assert_eq!(consts[0].name, "PING");
        assert_eq!(consts[0].value, 1);
        assert_eq!(consts[2].band, "widget err");
        assert_eq!(consts[2].value, 16);
    }

    #[test]
    fn extracts_top_level_op_consts_and_hello_statuses() {
        let admin = api_file("pub const OP_PING: u8 = 250;\npub const UNRELATED: u8 = 9;\n");
        let mut consts = Vec::new();
        extract("admin", &admin, &mut consts);
        assert_eq!(consts.len(), 1);
        assert_eq!(consts[0].band, "admin op");
        assert_eq!(consts[0].value, 250);

        let hs = api_file("pub const HELLO_OK: u8 = 0;\npub const MAX: usize = 4096;\n");
        let mut consts = Vec::new();
        extract("handshake", &hs, &mut consts);
        assert_eq!(consts.len(), 1);
        assert_eq!(consts[0].band, "handshake");
        assert_eq!(consts[0].name, "HELLO_OK");
    }

    #[test]
    fn extracts_frame_enum_arms_once() {
        let file = api_file(
            "impl FrameType {\n    pub fn as_byte(self) -> u8 {\n        match self {\n\
             FrameType::Hello => 1,\n            FrameType::Request => 3,\n        }\n    }\n\
             \n    pub fn from_byte(b: u8) -> Option<Self> {\n        match b {\n\
             1 => Some(FrameType::Hello),\n            _ => None,\n        }\n    }\n}\n",
        );
        let mut consts = Vec::new();
        extract("frame", &file, &mut consts);
        assert_eq!(consts.len(), 2);
        assert_eq!(consts[0].band, "frame");
        assert_eq!(consts[0].name, "Hello");
        assert_eq!(consts[0].value, 1);
        assert_eq!(consts[1].name, "Request");
    }

    #[test]
    fn extracts_operation_table_rows_with_their_field_markers() {
        let file = api_file(
            "macro_rules! widget_ops {\n    ($emit:path) => {\n        $emit! {\n\
             /// Docs.\n            1 PING first fn ping() -> () => empty;\n\
             7 PUT by_collection\n            fn put(key: &str => string, ids: &[u64] => seq<u64>) \
             -> Option<usize> => option<u64>, degrades;\n        }\n    };\n}\n\
             macro_rules! emit { ($($op:literal $NAME:ident $class:ident fn $m:ident()),*) => {}; }\n",
        );
        let mut consts = Vec::new();
        extract("widget", &file, &mut consts);
        assert_eq!(
            consts.len(),
            2,
            "an emitter's `$op:literal $NAME:ident` is no row"
        );
        assert_eq!((consts[0].name.as_str(), consts[0].value), ("PING", 1));
        assert_eq!(consts[0].fields, Some((String::new(), "empty".to_owned())));
        assert_eq!(consts[1].band, "widget op");
        assert_eq!((consts[1].line, consts[1].value_col), (6, 1));
        // A `by_collection` row carries its collection's name first.
        assert_eq!(
            consts[1].fields,
            Some((
                "string, string, seq<u64>".to_owned(),
                "option<u64>".to_owned()
            ))
        );
    }

    #[test]
    fn row_markers_and_spec_cells_reduce_to_the_same_primitives() {
        for (markers, cell) in [
            ("", "empty"),
            ("string, u8", "string name, u8 exchange_type"),
            (
                "string, seq<json>",
                "string coll, u32 count, count × bytes document",
            ),
            (
                "option<policy>",
                "option<u32 max_delivery_attempts, string target>",
            ),
            (
                "string, message",
                "string exchange, string routing_key, bytes payload, u16 header count, \
                 (string name, string value)*",
            ),
            (
                "docs",
                "docs (below; entries are JSON values, not necessarily objects)",
            ),
            ("deliveries", "deliveries (below)"),
        ] {
            assert_eq!(
                marker_primitives(markers),
                cell_primitives(cell),
                "{markers}"
            );
        }
        assert_ne!(marker_primitives("u64"), cell_primitives("option<u64 n>"));
        assert_ne!(
            marker_primitives("string, u32"),
            cell_primitives("u32 n, string s")
        );
    }

    #[test]
    fn value_suffixes_and_radixes_parse() {
        assert_eq!(parse_num("250"), Some(250));
        assert_eq!(parse_num("250u8"), Some(250));
        assert_eq!(parse_num("0xFF"), Some(255));
        assert_eq!(parse_num("0b1010"), Some(10));
        assert_eq!(parse_num("1_000"), Some(1000));
    }

    #[test]
    fn consts_in_test_mods_are_not_wire_declarations() {
        let file = api_file(
            "pub mod op {\n    pub const PING: u8 = 1;\n}\n\
             #[cfg(test)]\nmod tests {\n    pub const FAKE: u8 = 9;\n    use super::op;\n}\n",
        );
        let mut consts = Vec::new();
        extract("widget", &file, &mut consts);
        assert_eq!(consts.len(), 1);
        assert_eq!(consts[0].name, "PING");
    }
}
