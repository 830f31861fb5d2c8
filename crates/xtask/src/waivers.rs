//! Inline waivers: `// mps-lint: allow(<id>[, <id>…]) -- <justification>`.
//!
//! A waiver covers findings on **its own line and the line directly
//! below it** (so it can sit at the end of the offending line or on the
//! line above). Every waiver must carry a justification after ` -- `;
//! a bare waiver is itself a finding (W001), and a waiver that matches
//! no finding is reported as unused (W002) so stale waivers cannot
//! accumulate.

use crate::findings::{Finding, LintId};
use crate::lexer::Comment;

/// One parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Workspace-relative path of the file the waiver sits in.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The lint IDs being waived.
    pub ids: Vec<LintId>,
    /// The written justification (empty string when missing).
    pub justification: String,
    /// Set when any finding was suppressed by this waiver.
    pub used: bool,
}

/// Extracts waivers from a file's comments. Malformed waivers (an
/// `mps-lint:` marker that doesn't parse) are reported as W001 findings
/// immediately.
pub fn parse_waivers(file: &str, comments: &[Comment]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for comment in comments {
        let Some(pos) = comment.text.find("mps-lint:") else {
            continue;
        };
        let rest = comment.text[pos + "mps-lint:".len()..].trim();
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            findings.push(
                Finding::new(
                    LintId::W001,
                    file,
                    comment.line,
                    1,
                    0,
                    format!("malformed waiver `{}`", comment.text),
                )
                .with_help("write `// mps-lint: allow(L00X) -- <justification>`"),
            );
            continue;
        };
        let (id_list, tail) = args;
        let mut ids = Vec::new();
        let mut bad_id = None;
        for raw_id in id_list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match LintId::parse(raw_id) {
                Some(id) => ids.push(id),
                None => bad_id = Some(raw_id.to_owned()),
            }
        }
        if let Some(bad) = bad_id {
            findings.push(
                Finding::new(
                    LintId::W001,
                    file,
                    comment.line,
                    1,
                    0,
                    format!("unknown lint id `{bad}` in waiver"),
                )
                .with_help("known ids: L005, L007, L008"),
            );
            continue;
        }
        let justification = tail
            .trim()
            .strip_prefix("--")
            .map(|j| j.trim().to_owned())
            .unwrap_or_default();
        if justification.is_empty() {
            findings.push(
                Finding::new(
                    LintId::W001,
                    file,
                    comment.line,
                    1,
                    0,
                    "waiver without a written justification".to_owned(),
                )
                .with_help("append ` -- <why this violation is acceptable here>` to the waiver"),
            );
            // Unjustified waivers still suppress (the W001 itself keeps
            // the run red), so one problem is reported, not two.
        }
        waivers.push(Waiver {
            file: file.to_owned(),
            line: comment.line,
            ids,
            justification,
            used: false,
        });
    }
    (waivers, findings)
}

/// Marks findings covered by a waiver on the same or preceding line,
/// then reports unused waivers as W002.
pub fn apply_waivers(findings: &mut Vec<Finding>, waivers: &mut [Waiver]) {
    for finding in findings.iter_mut() {
        if matches!(finding.lint, LintId::W001 | LintId::W002) {
            continue;
        }
        for waiver in waivers.iter_mut() {
            let covers_line = finding.line == waiver.line || finding.line == waiver.line + 1;
            if waiver.file == finding.file && covers_line && waiver.ids.contains(&finding.lint) {
                finding.waived = true;
                if !waiver.justification.is_empty() {
                    finding.justification = Some(waiver.justification.clone());
                }
                waiver.used = true;
                break;
            }
        }
    }
    for waiver in waivers.iter().filter(|w| !w.used) {
        findings.push(
            Finding::new(
                LintId::W002,
                &waiver.file,
                waiver.line,
                1,
                0,
                format!(
                    "unused waiver for {}",
                    waiver
                        .ids
                        .iter()
                        .map(|id| id.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_help("the waived lint no longer fires here; delete the waiver"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str, line: u32) -> Comment {
        Comment {
            text: text.to_owned(),
            line,
        }
    }

    #[test]
    fn parses_ids_and_justification() {
        let (waivers, findings) = parse_waivers(
            "a.rs",
            &[comment(
                "mps-lint: allow(L005, L007) -- a codec test spells the wire",
                7,
            )],
        );
        assert!(findings.is_empty());
        assert_eq!(waivers.len(), 1);
        assert_eq!(waivers[0].ids, vec![LintId::L005, LintId::L007]);
        assert_eq!(waivers[0].justification, "a codec test spells the wire");
    }

    #[test]
    fn missing_justification_is_w001() {
        let (waivers, findings) = parse_waivers("a.rs", &[comment("mps-lint: allow(L005)", 3)]);
        assert_eq!(waivers.len(), 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, LintId::W001);
    }

    #[test]
    fn unknown_id_is_w001() {
        let (waivers, findings) =
            parse_waivers("a.rs", &[comment("mps-lint: allow(L003) -- retired", 3)]);
        assert!(waivers.is_empty());
        assert_eq!(findings[0].lint, LintId::W001);
    }

    #[test]
    fn waiver_covers_same_and_next_line_only() {
        let mut waivers = vec![Waiver {
            file: "a.rs".into(),
            line: 10,
            ids: vec![LintId::L005],
            justification: "invariant".into(),
            used: false,
        }];
        let mut findings = vec![
            Finding::new(LintId::L005, "a.rs", 10, 1, 1, "same line".into()),
            Finding::new(LintId::L005, "a.rs", 11, 1, 1, "next line".into()),
            Finding::new(LintId::L005, "a.rs", 12, 1, 1, "too far".into()),
        ];
        apply_waivers(&mut findings, &mut waivers);
        assert!(findings[0].waived);
        assert!(findings[1].waived);
        assert!(!findings[2].waived);
        assert_eq!(findings[0].justification.as_deref(), Some("invariant"));
    }

    #[test]
    fn unused_waiver_becomes_w002() {
        let mut waivers = vec![Waiver {
            file: "a.rs".into(),
            line: 4,
            ids: vec![LintId::L007],
            justification: "why".into(),
            used: false,
        }];
        let mut findings = Vec::new();
        apply_waivers(&mut findings, &mut waivers);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, LintId::W002);
    }

    #[test]
    fn waiver_does_not_cover_other_lints_or_files() {
        let mut waivers = vec![Waiver {
            file: "a.rs".into(),
            line: 5,
            ids: vec![LintId::L007],
            justification: "why".into(),
            used: false,
        }];
        let mut findings = vec![
            Finding::new(LintId::L008, "a.rs", 5, 1, 1, "other lint".into()),
            Finding::new(LintId::L007, "b.rs", 5, 1, 1, "other file".into()),
        ];
        apply_waivers(&mut findings, &mut waivers);
        assert!(!findings[0].waived);
        assert!(!findings[1].waived);
        // Plus the unused-waiver report.
        assert_eq!(findings[2].lint, LintId::W002);
    }
}
