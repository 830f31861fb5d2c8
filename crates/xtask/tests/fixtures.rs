//! Fixture tests: `mps-lint` run end-to-end over checked-in mini
//! workspaces.
//!
//! * `tests/fixtures/violations` — L005 fires, and every waiver
//!   behaviour (justified, unjustified, unused) is exercised. The full
//!   findings list is snapshotted in `expected.txt`.
//! * `tests/fixtures/clean` — a conforming crate: header literals
//!   confined to `headers_home` and exactly one justified-and-used
//!   waiver.
//! * `tests/fixtures/l007` — raw wire integers at call, comparison and
//!   field-init sites (including inside test code).
//! * `tests/fixtures/l008` — a lock-order cycle and blocking I/O under
//!   a live guard, next to two clean patterns that must not fire.

use std::path::{Path, PathBuf};
use xtask::findings::LintId;
use xtask::LintOutcome;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> LintOutcome {
    xtask::run_lint(&fixture_root(name)).expect("fixture workspace lints")
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
    assert_eq!(outcome.error_count, 4);
}

#[test]
fn violations_fixture_fires_every_rule() {
    let outcome = lint("violations");
    for id in [LintId::L005, LintId::W001, LintId::W002] {
        assert!(
            outcome.findings.iter().any(|f| f.lint == id),
            "fixture should trigger {id}"
        );
    }
}

#[test]
fn spans_are_token_accurate() {
    let outcome = lint("violations");
    // `"x-request-id"` on line 8: the span covers the whole literal,
    // quotes included.
    let l005 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::L005)
        .expect("L005 fires");
    assert_eq!((l005.line, l005.col), (8, 24));
    assert_eq!(l005.len, "\"x-request-id\"".len() as u32);
    // The report quotes the offending source line with a caret run of
    // the span's width directly underneath.
    assert!(outcome
        .report
        .contains("message.set_header(\"x-request-id\", \"r-1\");"));
    assert!(outcome.report.contains(" ^^^^^^^^^^^^^^\n"));
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
    assert!(waived
        .iter()
        .any(|f| f.justification.as_deref() == Some("fixture: mirrors the shared constant")));
    assert!(waived.iter().any(|f| f.justification.is_none()));
    let w001 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::W001)
        .expect("W001 fires");
    assert_eq!(w001.line, 20);
    let w002 = outcome
        .findings
        .iter()
        .find(|f| f.lint == LintId::W002)
        .expect("W002 fires");
    assert_eq!(w002.line, 26);
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
    assert_eq!(waived.lint, LintId::L005);
    assert!(waived.justification.is_some());
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
