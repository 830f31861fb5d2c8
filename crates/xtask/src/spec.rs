//! Parses the normative wire-protocol spec tables for L006.
//!
//! The spec (`docs/WIRE_PROTOCOL.md`) carries machine-readable markdown
//! tables; this module extracts them into [`SpecRow`]s without any
//! markdown dependency. Four table shapes are recognised by their
//! header cells:
//!
//! * `| byte | type | … |` — frame types (band `frame`);
//! * `| status | name | … |` — handshake statuses (band `handshake`);
//! * `| op | name | request body | success reply |` — an opcode table,
//!   attributed to the configured role whose name appears in the
//!   nearest enclosing heading (band `<role> op`);
//! * `| code | error | … |` — an error-code table, attributed to the
//!   role named in the closest preceding prose line containing
//!   "`<role>` error" (band `<role> err`).
//!
//! Tables that match none of these shapes (or that cannot be attributed
//! to a configured role) are ignored, so the spec may freely contain
//! other tables. Error names are written CamelCase in the spec and
//! normalised to `SCREAMING_SNAKE` to match the declared constants.

/// One parsed normative table row, anchored to its spec line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRow {
    /// Band key: `frame`, `handshake`, `<role> op`, or `<role> err`.
    pub band: String,
    /// Constant-shaped name (error names already normalised).
    pub name: String,
    /// The name exactly as written in the spec.
    pub display_name: String,
    /// The declared numeric value.
    pub value: i64,
    /// Request-body cell (opcode tables only; empty otherwise).
    pub request: String,
    /// Success-reply cell (opcode tables only; empty otherwise).
    pub reply: String,
    /// 1-based spec line of the row.
    pub line: u32,
    /// 1-based column of the name within the row.
    pub col: u32,
    /// Caret width for the name.
    pub len: u32,
}

/// A row the parser had to skip (bad number, missing cells); reported
/// by L006 so typos in the spec itself cannot hide.
#[derive(Debug, Clone)]
pub struct SpecProblem {
    /// 1-based spec line.
    pub line: u32,
    /// What is wrong with the row.
    pub message: String,
}

/// Splits a markdown table line into trimmed cells.
fn cells(line: &str) -> Vec<String> {
    line.trim()
        .trim_start_matches('|')
        .trim_end_matches('|')
        .split('|')
        .map(|c| c.trim().to_owned())
        .collect()
}

/// Is this a `|---|---|` separator line?
fn is_separator(line: &str) -> bool {
    let trimmed = line.trim();
    trimmed.starts_with('|') && trimmed.chars().all(|c| matches!(c, '|' | '-' | ':' | ' '))
}

/// Strips surrounding whitespace from a cell, unwrapping a single
/// enclosing backtick pair (`` `NAME` `` → `NAME`). Cells with interior
/// backticks (prose such as ``empty or `u8 k` ``) are kept verbatim so
/// the markup stays balanced when re-rendered.
fn clean(cell: &str) -> String {
    let trimmed = cell.trim();
    match trimmed.strip_prefix('`').and_then(|s| s.strip_suffix('`')) {
        Some(inner) if !inner.contains('`') => inner.trim().to_owned(),
        _ => trimmed.to_owned(),
    }
}

/// `CamelCase` → `SCREAMING_SNAKE`; names already containing `_` or all
/// uppercase pass through unchanged.
pub fn normalize_name(name: &str) -> String {
    if name.contains('_') || name.chars().all(|c| !c.is_ascii_lowercase()) {
        return name.to_owned();
    }
    let mut out = String::new();
    let mut prev_lower = false;
    for c in name.chars() {
        if c.is_ascii_uppercase() && prev_lower {
            out.push('_');
        }
        prev_lower = c.is_ascii_lowercase() || c.is_ascii_digit();
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// What kind of normative table a header row announces.
enum TableKind {
    Frame,
    Handshake,
    Opcode,
    Error,
}

fn classify(header: &[String]) -> Option<TableKind> {
    let h: Vec<String> = header.iter().map(|c| c.to_ascii_lowercase()).collect();
    match (h.first().map(String::as_str), h.get(1).map(String::as_str)) {
        (Some("byte"), Some("type")) => Some(TableKind::Frame),
        (Some("status"), Some("name")) => Some(TableKind::Handshake),
        (Some("op"), Some("name")) => Some(TableKind::Opcode),
        (Some("code"), Some("error")) => Some(TableKind::Error),
        _ => None,
    }
}

/// First configured role (in order) whose name appears in `context`.
fn attribute<'a>(context: &str, roles: &'a [String]) -> Option<&'a str> {
    let lower = context.to_ascii_lowercase();
    roles
        .iter()
        .find(|r| lower.contains(&r.to_ascii_lowercase()))
        .map(String::as_str)
}

/// Parses every recognised table in `doc`. `roles` is the ordered list
/// of service roles from the config (everything in `wire_api` except
/// `frame` and `handshake`).
pub fn parse(doc: &str, roles: &[String]) -> (Vec<SpecRow>, Vec<SpecProblem>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let mut heading = String::new();
    let mut prose = String::new();
    let mut in_fence = false;
    let mut table: Option<(TableKind, Option<String>)> = None; // kind + role

    for (idx, raw) in doc.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let trimmed = raw.trim();
        if trimmed.starts_with("```") {
            in_fence = !in_fence;
            table = None;
            continue;
        }
        if in_fence {
            continue;
        }
        if trimmed.starts_with('#') {
            heading = trimmed.to_owned();
            prose.clear();
            table = None;
            continue;
        }
        if !trimmed.starts_with('|') {
            table = None;
            if !trimmed.is_empty() {
                prose = trimmed.to_owned();
            }
            continue;
        }
        if is_separator(raw) {
            continue;
        }
        let row_cells = cells(raw);
        let Some((kind, role)) = table.as_ref() else {
            // This is a header row: classify and attribute the table.
            if let Some(kind) = classify(&row_cells) {
                let role = match kind {
                    TableKind::Opcode => attribute(&heading, roles).map(str::to_owned),
                    TableKind::Error => attribute(&prose, roles)
                        .or_else(|| attribute(&heading, roles))
                        .map(str::to_owned),
                    TableKind::Frame | TableKind::Handshake => None,
                };
                table = Some((kind, role));
            } else {
                // Not a normative table; swallow its body rows.
                table = Some((TableKind::Frame, Some(String::new())));
                // A sentinel role ("") marks "ignore this table".
            }
            continue;
        };
        let band = match (kind, role) {
            (TableKind::Frame, None) => "frame".to_owned(),
            (TableKind::Handshake, None) => "handshake".to_owned(),
            (TableKind::Opcode, Some(r)) if !r.is_empty() => format!("{r} op"),
            (TableKind::Error, Some(r)) if !r.is_empty() => format!("{r} err"),
            _ => continue, // unattributable or ignored table
        };
        let (value_cell, name_cell) = match (row_cells.first(), row_cells.get(1)) {
            (Some(v), Some(n)) => (clean(v), clean(n)),
            _ => {
                problems.push(SpecProblem {
                    line: line_no,
                    message: format!("table row with fewer than two cells: `{trimmed}`"),
                });
                continue;
            }
        };
        let Ok(value) = value_cell.parse::<i64>() else {
            problems.push(SpecProblem {
                line: line_no,
                message: format!("unparsable value `{value_cell}` in band `{band}`"),
            });
            continue;
        };
        if name_cell.is_empty() {
            problems.push(SpecProblem {
                line: line_no,
                message: format!("row with value {value} in band `{band}` has an empty name"),
            });
            continue;
        }
        let col = raw.find(&name_cell).map(|p| p as u32 + 1).unwrap_or(1);
        // Only error names are CamelCase in the spec; every other band
        // writes the constant name verbatim.
        let name = if band.ends_with(" err") {
            normalize_name(&name_cell)
        } else {
            name_cell.clone()
        };
        rows.push(SpecRow {
            band,
            name,
            display_name: name_cell.clone(),
            value,
            request: row_cells.get(2).map(|c| clean(c)).unwrap_or_default(),
            reply: row_cells.get(3).map(|c| clean(c)).unwrap_or_default(),
            line: line_no,
            col,
            len: name_cell.chars().count() as u32,
        });
    }
    (rows, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# Wire protocol

## 2. Frames

| byte | type | direction | payload |
|---|---|---|---|
| 1 | `Hello` | client → server | none |
| 2 | `HelloAck` | server → client | status |

## 3. Handshake

| status | name | meaning |
|---|---|---|
| 0 | `HELLO_OK` | accepted |
| 1 | `HELLO_SHED` | shed |

## 5. Broker opcodes

| op | name | request body | success reply |
|---|---|---|---|
| 1 | `DECLARE_EXCHANGE` | `str name` | empty |
| 7 | `PUBLISH` | `str key` | `u64 fanout` |

## 7. Error codes

Broker error codes (body layouts in parentheses):

| code | error | body |
|---|---|---|
| 16 | `ExchangeNotFound` | `str` |

```text
| op | name | request body | success reply |
| 99 | `FENCED_OFF` | ignored | ignored |
```

## 9. Admin band (opcodes 240-255)

| op | name | request body | success reply |
|---|---|---|---|
| 250 | `OP_METRICS` | empty | `str` |
";

    fn roles() -> Vec<String> {
        vec!["broker".to_owned(), "admin".to_owned()]
    }

    #[test]
    fn parses_all_four_table_shapes() {
        let (rows, problems) = parse(DOC, &roles());
        assert!(problems.is_empty(), "{problems:?}");
        let bands: Vec<&str> = rows.iter().map(|r| r.band.as_str()).collect();
        assert!(bands.contains(&"frame"));
        assert!(bands.contains(&"handshake"));
        assert!(bands.contains(&"broker op"));
        assert!(bands.contains(&"broker err"));
        assert!(bands.contains(&"admin op"));
        // The fenced table must not leak through.
        assert!(!rows.iter().any(|r| r.name == "FENCED_OFF"));
    }

    #[test]
    fn opcode_rows_carry_request_and_reply_shapes() {
        let (rows, _) = parse(DOC, &roles());
        let publish = rows.iter().find(|r| r.name == "PUBLISH").unwrap();
        assert_eq!(publish.band, "broker op");
        assert_eq!(publish.value, 7);
        assert_eq!(publish.request, "str key");
        assert_eq!(publish.reply, "u64 fanout");
    }

    #[test]
    fn error_names_normalise_to_screaming_snake() {
        let (rows, _) = parse(DOC, &roles());
        let err = rows.iter().find(|r| r.band == "broker err").unwrap();
        assert_eq!(err.name, "EXCHANGE_NOT_FOUND");
        assert_eq!(err.display_name, "ExchangeNotFound");
        assert_eq!(err.value, 16);
    }

    #[test]
    fn rows_are_span_anchored() {
        let (rows, _) = parse(DOC, &roles());
        let hello = rows.iter().find(|r| r.name == "Hello").unwrap();
        let line = DOC.lines().nth(hello.line as usize - 1).unwrap();
        let start = (hello.col - 1) as usize;
        assert_eq!(&line[start..start + hello.len as usize], "Hello");
    }

    #[test]
    fn bad_values_become_problems_not_rows() {
        let doc = "| op | name | request body | success reply |\n\
                   |---|---|---|---|\n\
                   | seven | `X` | a | b |\n";
        // Attribution comes from the (empty) heading — so give the
        // parser a heading naming the role.
        let doc = format!("## Broker opcodes\n\n{doc}");
        let (rows, problems) = parse(&doc, &roles());
        assert!(rows.is_empty());
        assert_eq!(problems.len(), 1);
        assert!(problems[0].message.contains("seven"));
    }

    #[test]
    fn normalize_name_cases() {
        assert_eq!(normalize_name("ExchangeNotFound"), "EXCHANGE_NOT_FOUND");
        assert_eq!(normalize_name("Transport"), "TRANSPORT");
        assert_eq!(normalize_name("HELLO_OK"), "HELLO_OK");
        assert_eq!(normalize_name("OP_METRICS"), "OP_METRICS");
        assert_eq!(normalize_name("Hello"), "HELLO");
    }
}
