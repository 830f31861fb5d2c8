//! L007 — wire-constant confinement: usage sites name their opcodes.
//!
//! A raw integer in opcode position (`self.call(7, body)`,
//! `opcode == 9`, `RpcFrame { opcode: 17, … }`) is a protocol fact the
//! compiler cannot connect to its declaration: when the spec renumbers,
//! the literal silently keeps speaking the old protocol — the exact
//! drift the paper blames for silent data loss between deployed
//! versions. Mirroring L005's header-key confinement, integer literals
//! in wire positions are only allowed inside the declaring api modules
//! (the `wire_api` files from `mps-lint.toml`); everywhere else —
//! clients, servers, the fleet scraper, *and tests* — the constant must
//! be named so renumbering is one edit.
//!
//! Three syntactic patterns are flagged:
//!
//! * a numeric literal as the **first argument** of an opcode-taking
//!   call (`.call(` — `ClientPool`'s, `WireConn`'s and every
//!   wrapper's; the broker and docstore stubs that used to be
//!   such call sites are generated from their operation table and name
//!   `op::NAME` by construction, but the admin plane, the fleet
//!   scraper, the smoke binary and the tests still write theirs by
//!   hand);
//! * a comparison of an `opcode`/`frame_type` identifier against a
//!   numeric literal (either side of `==`/`!=`);
//! * a struct-literal field init `opcode: <num>` / `frame_type: <num>`.
//!
//! Unlike most lints, L007 deliberately applies to test code: tests
//! that hard-code `9` keep passing when the constant moves, which is
//! how conformance suites rot.

use crate::config::Config;
use crate::findings::{Finding, LintId};
use crate::lexer::TokenKind;
use crate::lints::is_punct;
use crate::scan::SourceFile;

/// Calls whose first argument is an opcode byte.
const OPCODE_CALLS: &[&str] = &["call"];

/// Identifiers whose comparison/field value is a wire constant.
const WIRE_IDENTS: &[&str] = &["opcode", "frame_type"];

/// Runs L007 over one file.
pub fn check(file: &SourceFile, config: &Config, findings: &mut Vec<Finding>) {
    // The declaring api modules may spell out raw values (that is where
    // the numbers live, including deliberate raw-byte codec tests).
    if config
        .wire_api
        .iter()
        .any(|(_, path)| path == &file.rel_path)
    {
        return;
    }
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        let tok = &tokens[i];
        // `.call*(<num>` — opcode literal as first call argument.
        if tok.kind == TokenKind::Ident
            && OPCODE_CALLS.contains(&tok.text.as_str())
            && is_punct(tokens, i.wrapping_sub(1), '.')
            && is_punct(tokens, i + 1, '(')
        {
            if let Some(num) = tokens.get(i + 2).filter(|t| t.kind == TokenKind::Num) {
                report(file, num, &tok.text, findings);
            }
        }
        if tok.kind != TokenKind::Ident || !WIRE_IDENTS.contains(&tok.text.as_str()) {
            continue;
        }
        // `opcode == <num>` / `opcode != <num>`.
        if (is_punct(tokens, i + 1, '=') && is_punct(tokens, i + 2, '='))
            || (is_punct(tokens, i + 1, '!') && is_punct(tokens, i + 2, '='))
        {
            if let Some(num) = tokens.get(i + 3).filter(|t| t.kind == TokenKind::Num) {
                report(file, num, &tok.text, findings);
            }
        }
        // `<num> == opcode` / `<num> != opcode`.
        if is_punct(tokens, i.wrapping_sub(1), '=')
            && (is_punct(tokens, i.wrapping_sub(2), '=')
                || is_punct(tokens, i.wrapping_sub(2), '!'))
        {
            // `a != b` lexes as `!`,`=` and `a == b` as `=`,`=` — in
            // both cases the literal sits three tokens back.
            if let Some(num) = tokens
                .get(i.wrapping_sub(3))
                .filter(|t| t.kind == TokenKind::Num)
            {
                report(file, num, &tok.text, findings);
            }
        }
        // Struct-literal init `opcode: <num>` (not a type ascription —
        // a numeric literal can never be a type).
        if is_punct(tokens, i + 1, ':') && !is_punct(tokens, i + 2, ':') {
            if let Some(num) = tokens.get(i + 2).filter(|t| t.kind == TokenKind::Num) {
                report(file, num, &tok.text, findings);
            }
        }
    }
}

fn report(
    file: &SourceFile,
    num: &crate::lexer::Token,
    context: &str,
    findings: &mut Vec<Finding>,
) {
    findings.push(
        Finding::new(
            LintId::L007,
            &file.rel_path,
            num.line,
            num.col,
            num.len,
            format!("raw wire constant `{}` at a `{context}` site", num.text),
        )
        .with_help(
            "name the constant from the declaring api module (op::…, err::…, OP_…) so \
             renumbering the protocol is a single edit; raw values are only allowed in \
             the wire_api modules themselves",
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, "net", src);
        let config =
            Config::parse("wire_api = [\"broker=crates/net/src/broker_api.rs\"]\n").unwrap();
        let mut findings = Vec::new();
        check(&file, &config, &mut findings);
        findings
    }

    #[test]
    fn flags_literal_first_call_argument() {
        let findings = run(
            "crates/net/src/client.rs",
            "fn f(c: &C) { c.call(7, body); c.call(op::ACK, body); }",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].message,
            "raw wire constant `7` at a `call` site"
        );
    }

    #[test]
    fn flags_comparisons_both_sides_and_negation() {
        let findings = run(
            "crates/net/src/server.rs",
            "fn f(opcode: u8) -> bool { opcode == 9 || 3 == opcode || opcode != 17 }",
        );
        assert_eq!(findings.len(), 3);
    }

    #[test]
    fn flags_struct_field_init() {
        let findings = run(
            "crates/net/src/rpc.rs",
            "fn f() -> Req { Req { opcode: 17, body: vec![] } }",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn applies_to_test_code_too() {
        let findings = run(
            "crates/net/src/server.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(c: &C) { c.call(1, vec![]); }\n}\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn declaring_api_module_is_exempt() {
        let findings = run(
            "crates/net/src/broker_api.rs",
            "fn f(c: &C) { c.call(7, body); }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn named_constants_and_unrelated_code_pass() {
        let findings = run(
            "crates/net/src/client.rs",
            "fn f(c: &C, opcode: u8) {\n\
             c.call(op::PUBLISH, body);\n\
             if opcode == op::ACK {}\n\
             let r = Req { opcode: op::NACK };\n\
             let x: u8 = 7;\n\
             recall(7);\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
