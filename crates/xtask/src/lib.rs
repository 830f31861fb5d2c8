//! `mps-lint` — the workspace invariant checker.
//!
//! Run as `cargo run -p xtask -- lint`. The tool lexes every workspace
//! source file (a small hand-rolled lexer; no external dependencies)
//! and enforces the invariants only a token scan can see:
//!
//! * **L005 header keys** — message-header literals only in the shared
//!   constants module;
//! * **L007 wire-constant confinement** — raw opcode literals only in
//!   the declaring api modules;
//! * **L008 lock discipline** — no lock-order cycles, no blocking I/O
//!   under a live guard.
//!
//! Violations are waived inline with
//! `// mps-lint: allow(<id>) -- <justification>`; unjustified (W001)
//! and unused (W002) waivers are themselves findings. What clippy or a
//! typed test can hold is held there instead; `docs/STATIC_ANALYSIS.md`
//! says where each rule lives.

pub mod config;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod scan;
pub mod waivers;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use config::Config;
use findings::Finding;

/// The result of one lint run.
#[derive(Debug)]
pub struct LintOutcome {
    /// Every finding, waived ones included, sorted by location.
    pub findings: Vec<Finding>,
    /// The full rustc-style report.
    pub report: String,
    /// Unwaived findings — nonzero means the run failed.
    pub error_count: usize,
}

/// Runs every lint over the workspace at `root`.
pub fn run_lint(root: &Path) -> Result<LintOutcome, String> {
    let config = Config::load(&root.join("mps-lint.toml")).map_err(|e| e.to_string())?;
    let files = scan::load_workspace(root)
        .map_err(|e| format!("cannot scan workspace at {}: {e}", root.display()))?;
    Ok(run_lint_on(&config, &files))
}

/// Runs every lint over already-loaded files. Split out so tests can
/// lint an in-memory workspace.
pub fn run_lint_on(config: &Config, files: &[scan::SourceFile]) -> LintOutcome {
    let files: Vec<&scan::SourceFile> = files
        .iter()
        .filter(|f| !config.exclude.contains(&f.crate_name))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut all_waivers = Vec::new();

    let mut lock_graphs: BTreeMap<&str, lints::l008_lock_discipline::CrateGraph> = BTreeMap::new();
    for file in &files {
        lints::l005_header_keys::check(file, config, &mut findings);
        lints::l007_wire_literals::check(file, config, &mut findings);
        if config.lock_discipline.contains(&file.crate_name) {
            let graph = lock_graphs.entry(file.crate_name.as_str()).or_default();
            lints::l008_lock_discipline::check_file(file, graph, &mut findings);
        }
        let (waivers, waiver_findings) = waivers::parse_waivers(&file.rel_path, &file.comments);
        all_waivers.extend(waivers);
        findings.extend(waiver_findings);
    }
    for (crate_name, graph) in &lock_graphs {
        lints::l008_lock_discipline::check_crate_graph(crate_name, graph, &mut findings);
    }

    waivers::apply_waivers(&mut findings, &mut all_waivers);
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));

    let by_path: BTreeMap<&str, &scan::SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), *f)).collect();
    let mut report = String::new();
    for finding in &findings {
        let line = by_path
            .get(finding.file.as_str())
            .and_then(|f| f.line_text(finding.line));
        let _ = writeln!(report, "{}", finding.render(line));
    }
    let error_count = findings.iter().filter(|f| !f.waived).count();
    let waived_count = findings.len() - error_count;
    let _ = writeln!(
        report,
        "mps-lint: {} file(s) scanned, {error_count} error(s), {waived_count} waived",
        files.len()
    );

    LintOutcome {
        findings,
        report,
        error_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan::SourceFile;

    #[test]
    fn end_to_end_waiver_lifecycle() {
        let files = vec![SourceFile::parse(
            "crates/pipe/src/lib.rs",
            "pipe",
            "fn f() {\n    // mps-lint: allow(L005) -- mirrors the shared constant\n    h(\"x-trace\");\n    h(\"x-trace\");\n}\n",
        )];
        let outcome = run_lint_on(&Config::default(), &files);
        // Line 3 waived; line 4 not.
        assert_eq!(outcome.findings.len(), 2);
        assert!(outcome.findings[0].waived);
        assert!(!outcome.findings[1].waived);
        assert_eq!(outcome.error_count, 1);
    }

    #[test]
    fn excluded_crates_are_not_scanned() {
        let files = vec![SourceFile::parse(
            "crates/tool/src/lib.rs",
            "tool",
            "fn f() { h(\"x-trace\"); }\n",
        )];
        let config = Config {
            exclude: vec!["tool".to_owned()],
            ..Config::default()
        };
        let outcome = run_lint_on(&config, &files);
        assert!(outcome.findings.is_empty());
        assert!(outcome.report.contains("0 file(s) scanned"));
    }

    #[test]
    fn report_is_rustc_shaped() {
        let files = vec![SourceFile::parse(
            "crates/pipe/src/lib.rs",
            "pipe",
            "fn f() { h(\"x-trace\"); }\n",
        )];
        let outcome = run_lint_on(&Config::default(), &files);
        assert!(outcome.report.contains("error[L005]"));
        assert!(outcome.report.contains("--> crates/pipe/src/lib.rs:1:12"));
        assert!(outcome.report.contains("^^^^^^^^^"));
        assert_eq!(outcome.error_count, 1);
    }
}
