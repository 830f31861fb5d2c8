//! Fixture tests: `mps-lint` run end-to-end over checked-in mini
//! workspaces.
//!
//! * `tests/fixtures/violations` — every L001–L005 rule fires at least
//!   once, every waiver behaviour (justified, unjustified, unused) is
//!   exercised, and the checked-in `docs/METRICS.md` is deliberately
//!   stale. The full findings list is snapshotted in `expected.txt`.
//! * `tests/fixtures/clean` — a conforming crate: ordered collections,
//!   no panic paths, convention-conforming metric names, header
//!   literals confined to `headers_home`, a current metrics doc, and
//!   exactly one justified-and-used waiver.
//! * `tests/fixtures/l006` — spec↔table drift: a renumbered row, an
//!   unspecced row, a value collision, a row whose request fields and
//!   one whose reply field disagree with the spec's columns, a
//!   spec-only row, and a stale `docs/OPCODES.md`.
//! * `tests/fixtures/l007` — raw wire integers at call, comparison and
//!   field-init sites (including inside test code).
//! * `tests/fixtures/l008` — a lock-order cycle and blocking I/O under
//!   a live guard, next to two clean patterns that must not fire.
//! * `tests/fixtures/conformant` — L006/L007/L008 all enabled on a
//!   crate whose operation table conforms: nothing fires and the
//!   checked-in `docs/OPCODES.md` is current.

use std::path::{Path, PathBuf};
use xtask::findings::LintId;
use xtask::LintOutcome;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> LintOutcome {
    xtask::run_lint(&fixture_root(name), false, false).expect("fixture workspace lints")
}

/// Compares a fixture's findings to its `expected.txt` snapshot.
fn assert_snapshot(name: &str, outcome: &LintOutcome) {
    let got: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| {
            if f.waived {
                format!("{} (waived)", f.compact())
            } else {
                f.compact()
            }
        })
        .collect();
    let expected_path = fixture_root(name).join("expected.txt");
    let expected = std::fs::read_to_string(&expected_path).expect("expected.txt");
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        got, expected,
        "findings diverged from the snapshot; if the change is intended, \
         update tests/fixtures/{name}/expected.txt"
    );
}

#[test]
fn violations_fixture_matches_expected_findings() {
    let outcome = lint("violations");
    assert_snapshot("violations", &outcome);
    assert_eq!(outcome.error_count, 15);
}

#[test]
fn violations_fixture_fires_every_rule() {
    let outcome = lint("violations");
    for id in [
        LintId::L001,
        LintId::L002,
        LintId::L003,
        LintId::L004,
        LintId::L005,
        LintId::W001,
        LintId::W002,
    ] {
        assert!(
            outcome.findings.iter().any(|f| f.lint == id),
            "fixture should trigger {id}"
        );
    }
}

#[test]
fn spans_are_token_accurate() {
    let outcome = lint("violations");
    // `Instant::now` on line 12: the span covers the whole banned path.
    let l001 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::L001)
        .expect("L001 fires");
    assert_eq!((l001.line, l001.col), (12, 20));
    assert_eq!(l001.len, "Instant::now".len() as u32);
    // `.unwrap()` on line 13: the span covers exactly the method name.
    let l003 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::L003)
        .expect("L003 fires");
    assert_eq!((l003.line, l003.col), (13, 43));
    assert_eq!(l003.len, "unwrap".len() as u32);
    // The report quotes the offending source line with a caret run of
    // the span's width directly underneath.
    assert!(outcome
        .report
        .contains("let first = queue.get(\"x-request-id\").unwrap();"));
    assert!(outcome.report.contains("^^^^^^\n"));
}

#[test]
fn waiver_lifecycle_is_reported() {
    let outcome = lint("violations");
    let waived: Vec<_> = outcome.findings.iter().filter(|f| f.waived).collect();
    assert_eq!(
        waived.len(),
        2,
        "justified + unjustified waivers both suppress"
    );
    // The justified waiver carries its justification; the unjustified
    // one does not (and W001 reports it).
    assert!(waived.iter().any(
        |f| f.justification.as_deref() == Some("fixture: values is non-empty by construction")
    ));
    assert!(waived.iter().any(|f| f.justification.is_none()));
    let w001 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::W001)
        .expect("W001 fires");
    assert_eq!(w001.line, 28);
    let w002 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::W002)
        .expect("W002 fires");
    assert_eq!(w002.line, 34);
}

#[test]
fn stale_metrics_doc_is_an_error() {
    let outcome = lint("violations");
    let stale = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::L004 && f.file == "docs/METRICS.md")
        .expect("stale doc gate fires");
    assert!(!stale.waived);
    assert!(stale.message.contains("stale"));
}

#[test]
fn clean_fixture_has_no_errors() {
    let outcome = lint("clean");
    assert_eq!(
        outcome.error_count, 0,
        "clean fixture should pass:\n{}",
        outcome.report
    );
    // Its one waiver is justified, used, and reported as waived.
    assert_eq!(outcome.findings.len(), 1);
    let waived = &outcome.findings[0];
    assert!(waived.waived);
    assert_eq!(waived.lint, LintId::L003);
    assert!(waived.justification.is_some());
}

#[test]
fn clean_fixture_metrics_doc_is_current() {
    let outcome = lint("clean");
    let checked_in =
        std::fs::read_to_string(fixture_root("clean").join("docs/METRICS.md")).expect("doc");
    assert_eq!(outcome.metrics_doc, checked_in);
    assert!(outcome
        .metrics_doc
        .contains("`sensor_pipe_delay_ms` | histogram"));
    assert!(outcome.metrics_doc.contains("`reason`"));
}

#[test]
fn l006_fixture_matches_expected_findings() {
    let outcome = lint("l006");
    assert_snapshot("l006", &outcome);
    assert_eq!(outcome.error_count, 8, "{}", outcome.report);
    assert!(outcome.findings.iter().all(|f| f.lint == LintId::L006));
}

#[test]
fn l006_value_mismatch_is_span_accurate() {
    // The acceptance criterion: a deliberately renumbered opcode (the
    // fixture's table row says `4 SET` where the spec says 3) is caught
    // with a span anchored exactly on the value token.
    let outcome = lint("l006");
    let mismatch = outcome
        .findings
        .iter()
        .find(|f| f.message.contains("on the wire but"))
        .expect("value mismatch fires");
    assert_eq!(
        mismatch.message,
        "`SET` is 4 on the wire but docs/SPEC.md:10 says 3"
    );
    assert_eq!(mismatch.file, "crates/widget/src/api.rs");
    // `            4 SET first fn set(…` — line 12, the `4` at column 13.
    assert_eq!((mismatch.line, mismatch.col, mismatch.len), (12, 13, 1));
    // The rendered report quotes the line and carets the value.
    assert!(outcome
        .report
        .contains("4 SET first fn set(value: u64 => u64)"));
}

#[test]
fn l006_reports_spec_only_rows_and_stale_doc() {
    let outcome = lint("l006");
    let spec_only = outcome
        .findings
        .iter()
        .find(|f| f.file == "docs/SPEC.md")
        .expect("spec-only row fires");
    assert!(spec_only
        .message
        .contains("spec row `GONE` (value 9, band `widget op`) has no declared constant"));
    let stale = outcome
        .findings
        .iter()
        .find(|f| f.file == "docs/OPCODES.md")
        .expect("stale opcodes doc fires");
    assert!(stale.message.contains("stale"));
    let collision = outcome
        .findings
        .iter()
        .find(|f| f.message.contains("collides"))
        .expect("value collision fires");
    assert!(collision
        .message
        .contains("value 1 of `DUP` collides with `PING` in band `widget op`"));
}

#[test]
fn l006_holds_table_rows_to_the_spec_columns() {
    // The row's field markers are expanded to §1 primitives and compared
    // with the primitives the spec's cell names, in order.
    let outcome = lint("l006");
    let messages: Vec<&str> = outcome
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .filter(|m| m.contains("in the table but"))
        .collect();
    assert_eq!(
        messages,
        [
            "the request of `GET` is `string` in the table but docs/SPEC.md:11 says `u64 key`",
            "the reply of `COUNT` is `u64` in the table but docs/SPEC.md:12 says `option<u64 n>`",
        ]
    );
}

#[test]
fn l007_fixture_matches_expected_findings() {
    let outcome = lint("l007");
    assert_snapshot("l007", &outcome);
    assert_eq!(outcome.error_count, 5, "{}", outcome.report);
    assert!(outcome.findings.iter().all(|f| f.lint == LintId::L007));
    // Raw literals in *test* code are violations too: the last finding
    // sits inside the fixture's `#[cfg(test)]` module.
    assert!(outcome
        .findings
        .iter()
        .any(|f| f.line == 55 && f.message.contains("`7` at a `call` site")));
}

#[test]
fn l008_fixture_matches_expected_findings() {
    let outcome = lint("l008");
    assert_snapshot("l008", &outcome);
    assert_eq!(outcome.error_count, 2, "{}", outcome.report);
    let cycle = outcome
        .findings
        .iter()
        .find(|f| f.message.contains("lock-order cycle"))
        .expect("cycle fires");
    assert!(cycle
        .message
        .contains("lock-order cycle in crate `locks`: `alpha` → `beta` → `alpha`"));
    let blocking = outcome
        .findings
        .iter()
        .find(|f| f.message.contains("blocking"))
        .expect("blocking-under-guard fires");
    assert!(blocking
        .message
        .contains("blocking `write_all` call while holding lock `alpha` (line 33)"));
}

#[test]
fn conformant_fixture_is_clean() {
    let outcome = lint("conformant");
    assert_eq!(
        outcome.error_count, 0,
        "conformant fixture should pass:\n{}",
        outcome.report
    );
    assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
}

#[test]
fn conformant_fixture_opcodes_doc_is_current_and_stable() {
    let outcome = lint("conformant");
    let checked_in =
        std::fs::read_to_string(fixture_root("conformant").join("docs/OPCODES.md")).expect("doc");
    assert_eq!(
        outcome.opcodes_doc, checked_in,
        "regenerate with --write-opcodes-doc"
    );
    // Rendering is deterministic: a second run yields the same bytes.
    let again = lint("conformant");
    assert_eq!(outcome.opcodes_doc, again.opcodes_doc);
    assert!(outcome.opcodes_doc.contains("`PING`"));
    assert!(outcome.opcodes_doc.contains("`BAD_PING`"));
}
