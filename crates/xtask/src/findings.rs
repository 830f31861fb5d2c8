//! Findings and their rustc-style rendering.

use std::fmt::Write as _;

/// Stable identifiers for every rule the tool can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// Ad-hoc message-header key literal outside the canonical
    /// constants module.
    L005,
    /// Wire-constant confinement: raw opcode/frame-type integer
    /// literals in call, comparison, or field-init position instead of
    /// a named constant.
    L007,
    /// Lock discipline: lock-order cycles and blocking I/O performed
    /// while a guard is live.
    L008,
    /// A waiver comment without a written justification.
    W001,
    /// A waiver comment that matched no finding.
    W002,
}

impl LintId {
    /// Every ID, in declaration order.
    pub const ALL: [LintId; 5] = [
        LintId::L005,
        LintId::L007,
        LintId::L008,
        LintId::W001,
        LintId::W002,
    ];

    /// The stable ID string (`L005`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::L005 => "L005",
            LintId::L007 => "L007",
            LintId::L008 => "L008",
            LintId::W001 => "W001",
            LintId::W002 => "W002",
        }
    }

    /// Parses an ID as written in a waiver (`allow(L005)`).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|id| id.as_str() == s)
    }
}

impl std::fmt::Display for LintId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported violation, anchored to a source span.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub lint: LintId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Caret width in characters (0 renders a single caret).
    pub len: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it (rendered as a `help:` note).
    pub help: Option<String>,
    /// Set when an inline waiver covers this finding.
    pub waived: bool,
    /// The waiver justification, when waived.
    pub justification: Option<String>,
}

impl Finding {
    /// A finding with no help text yet.
    pub fn new(lint: LintId, file: &str, line: u32, col: u32, len: u32, message: String) -> Self {
        Self {
            lint,
            file: file.to_owned(),
            line,
            col,
            len,
            message,
            help: None,
            waived: false,
            justification: None,
        }
    }

    /// Attaches a `help:` note.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Renders this finding rustc-style, quoting `source_line` when
    /// available.
    pub fn render(&self, source_line: Option<&str>) -> String {
        let mut out = String::new();
        let severity = if self.waived { "waived" } else { "error" };
        let _ = writeln!(out, "{severity}[{}]: {}", self.lint, self.message);
        let _ = writeln!(out, "  --> {}:{}:{}", self.file, self.line, self.col);
        if let Some(text) = source_line {
            let gutter = self.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, "{pad} |");
            let _ = writeln!(out, "{gutter} | {text}");
            let caret_pad = " ".repeat(self.col.saturating_sub(1) as usize);
            let carets = "^".repeat(self.len.max(1) as usize);
            let _ = writeln!(out, "{pad} | {caret_pad}{carets}");
        }
        if let Some(help) = &self.help {
            let _ = writeln!(out, "   = help: {help}");
        }
        if let Some(justification) = &self.justification {
            let _ = writeln!(out, "   = waived: {justification}");
        }
        out
    }

    /// The compact one-line form used in fixture snapshots:
    /// `L005 crates/pipe/src/lib.rs:4:19`.
    pub fn compact(&self) -> String {
        format!("{} {}:{}:{}", self.lint, self.file, self.line, self.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_span_and_caret() {
        let f = Finding::new(
            LintId::L005,
            "crates/x/src/lib.rs",
            3,
            9,
            9,
            "header key literal".to_owned(),
        )
        .with_help("import the constant");
        let rendered = f.render(Some("let k = \"x-trace\";"));
        assert!(rendered.contains("error[L005]: header key literal"));
        assert!(rendered.contains("--> crates/x/src/lib.rs:3:9"));
        assert!(rendered.contains("^^^^^^^^^"));
        assert!(rendered.contains("help: import the constant"));
    }

    #[test]
    fn waived_findings_render_as_waived() {
        let mut f = Finding::new(LintId::L007, "a.rs", 1, 1, 1, "raw opcode".to_owned());
        f.waived = true;
        f.justification = Some("codec test".to_owned());
        let rendered = f.render(None);
        assert!(rendered.starts_with("waived[L007]"));
        assert!(rendered.contains("waived: codec test"));
    }

    #[test]
    fn ids_round_trip() {
        for id in LintId::ALL {
            assert_eq!(LintId::parse(id.as_str()), Some(id));
        }
        assert_eq!(LintId::parse("L001"), None, "retired");
    }
}
