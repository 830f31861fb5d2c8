//! L005 — header keys: message-header names come from shared constants.
//!
//! The broker's messages carry extension headers (`x-trace`,
//! `x-trace-sent-ms`, …) that multiple crates must agree on
//! byte-for-byte — a typo on one side silently drops trace propagation,
//! which is exactly the cross-layer blindness the tracing PR exists to
//! remove. Header-key string literals are therefore only allowed in the
//! shared constants module (`mps-types`, see `mps-lint.toml`
//! `headers_home`); everyone else imports the constant.

use crate::config::Config;
use crate::findings::{Finding, LintId};
use crate::lexer::TokenKind;
use crate::scan::SourceFile;

/// Does `s` look like an extension header key (`x-` + kebab-case)?
fn is_header_key(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("x-") else {
        return false;
    };
    !rest.is_empty()
        && rest.starts_with(|c: char| c.is_ascii_lowercase() || c.is_ascii_digit())
        && rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Runs L005 over one file.
pub fn check(file: &SourceFile, config: &Config, findings: &mut Vec<Finding>) {
    if file.rel_path == config.headers_home {
        return;
    }
    for token in &file.tokens {
        if token.kind != TokenKind::Str
            || !is_header_key(&token.text)
            || file.is_test_line(token.line)
        {
            continue;
        }
        findings.push(
            Finding::new(
                LintId::L005,
                &file.rel_path,
                token.line,
                token.col,
                token.len,
                format!(
                    "header key literal \"{}\" outside the shared constants module",
                    token.text
                ),
            )
            .with_help(format!(
                "import the constant from `{}` so both sides of the wire agree \
                 byte-for-byte; or waive: // mps-lint: allow(L005) -- <why>",
                config.headers_home
            )),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, "pipe", src);
        let config = Config::parse("").unwrap();
        let mut findings = Vec::new();
        check(&file, &config, &mut findings);
        findings
    }

    #[test]
    fn flags_header_literals_elsewhere() {
        let findings = run(
            "crates/pipe/src/lib.rs",
            "fn f(m: &mut Msg) { m.set_header(\"x-trace\", id); }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("x-trace"));
    }

    #[test]
    fn allows_the_constants_module() {
        let findings = run(
            "crates/types/src/headers.rs",
            "pub const TRACE_HEADER: &str = \"x-trace\";",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn ignores_non_header_strings_and_tests() {
        let findings = run(
            "crates/pipe/src/lib.rs",
            "fn f() { let a = \"x-ray vision\"; let b = \"prefix-x-\"; }\n#[cfg(test)]\nmod tests { fn t() { set(\"x-trace\"); } }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn header_key_shape() {
        assert!(is_header_key("x-trace"));
        assert!(is_header_key("x-trace-sent-ms"));
        assert!(!is_header_key("x-"));
        assert!(!is_header_key("x-Trace"));
        assert!(!is_header_key("x-ray vision"));
        assert!(!is_header_key("trace"));
    }
}
