//! Workspace discovery and per-file source model.
//!
//! The scanner walks `crates/*/src/**/*.rs` plus the umbrella crate's
//! `src/`, lexes every file once, and computes which lines are *test
//! code* so lints can skip them:
//!
//! * files whose path contains `/tests/`, `/benches/` or `/examples/`,
//!   or that are named `proptests.rs` (the workspace convention for
//!   `#[cfg(test)] mod proptests;` include files), are test code
//!   entirely;
//! * `#![cfg(test)]` as a leading inner attribute marks the whole file;
//! * `#[cfg(test)] mod … { … }` regions are test code, brace-matched
//!   on the token stream.

use crate::lexer::{self, Comment, Token, TokenKind};
use std::path::{Path, PathBuf};

/// One lexed workspace source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Short crate name (`broker` for `crates/broker/…`; empty for the
    /// umbrella `src/`).
    pub crate_name: String,
    /// Raw source lines, for span rendering.
    pub lines: Vec<String>,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// All comments.
    pub comments: Vec<Comment>,
    /// `test_lines[line - 1]` is true when the line is test code.
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lexes `text` as the file at `rel_path`.
    pub fn parse(rel_path: &str, crate_name: &str, text: &str) -> Self {
        let lexed = lexer::lex(text);
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut test_lines = vec![false; lines.len()];
        let whole_file_test = rel_path.contains("/tests/")
            || rel_path.contains("/benches/")
            || rel_path.starts_with("tests/")
            || rel_path.starts_with("benches/")
            || rel_path.starts_with("examples/")
            || rel_path.contains("/examples/")
            || rel_path.ends_with("proptests.rs")
            || has_inner_cfg_test(&lexed.tokens);
        if whole_file_test {
            test_lines.iter_mut().for_each(|l| *l = true);
        } else {
            for (start, end) in cfg_test_regions(&lexed.tokens) {
                for line in start..=end.min(lines.len() as u32) {
                    if let Some(slot) = test_lines.get_mut(line.saturating_sub(1) as usize) {
                        *slot = true;
                    }
                }
            }
        }
        Self {
            rel_path: rel_path.to_owned(),
            crate_name: crate_name.to_owned(),
            lines,
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_lines,
        }
    }

    /// Is this 1-based line inside test code?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The raw text of a 1-based line, for finding rendering.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(String::as_str)
    }
}

/// Scans the attribute whose `[` is at `open`: the index of its closing
/// `]` (`tokens.len()` when unterminated), and whether it is a `cfg`
/// mentioning `test` (`#[cfg(test)]`, `#[cfg(all(test, …))]`, …).
fn attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut body: Vec<&str> = Vec::new();
    for (j, token) in tokens.iter().enumerate().skip(open) {
        match token.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j, body.first() == Some(&"cfg") && body.contains(&"test"));
                }
            }
            other => body.push(other),
        }
    }
    (tokens.len(), false)
}

/// Is token `i` the `#` of an outer attribute (`#[`)?
fn outer_attribute_at(tokens: &[Token], i: usize) -> bool {
    tokens[i].kind == TokenKind::Punct
        && tokens[i].text == "#"
        && tokens.get(i + 1).is_some_and(|t| t.text == "[")
}

/// Does the file start with `#![cfg(test)]` (possibly after other inner
/// attributes)?
fn has_inner_cfg_test(tokens: &[Token]) -> bool {
    let mut i = 0;
    while i + 2 < tokens.len()
        && tokens[i].text == "#"
        && tokens[i + 1].text == "!"
        && tokens[i + 2].text == "["
    {
        let (close, cfg_test) = attribute(tokens, i + 2);
        if cfg_test {
            return true;
        }
        i = close + 1;
    }
    false
}

/// Finds `(start_line, end_line)` for every `#[cfg(test)] mod … { … }`
/// region (also `#[cfg(all(test, …))]` etc. — any `cfg` attribute
/// mentioning `test`).
fn cfg_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !outer_attribute_at(tokens, i) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let (j, cfg_test) = attribute(tokens, i + 1);
        if !cfg_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name { … }` or a
        // `#[cfg(test)]`-gated item. Only `mod` bodies become regions;
        // a gated single item (e.g. `#[cfg(test)] fn helper()`) is
        // brace-matched the same way.
        let mut k = j + 1;
        while k < tokens.len() && outer_attribute_at(tokens, k) {
            k = attribute(tokens, k + 1).0 + 1;
        }
        // The item's `{ … }` body; none when a `;` comes first (e.g.
        // `#[cfg(test)] mod proptests;` has no body in this file).
        let body = tokens[k..]
            .iter()
            .position(|t| t.text == "{" || t.text == ";");
        let Some(open) = body.map(|p| p + k).filter(|&p| tokens[p].text == "{") else {
            i = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let end = (open..tokens.len())
            .find(|&end| {
                match tokens[end].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .unwrap_or(tokens.len());
        let end_line = tokens.get(end).map_or(u32::MAX, |t| t.line);
        regions.push((start_line, end_line));
        i = end + 1;
    }
    regions
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Loads every workspace source file under `root` (`crates/*/src` and
/// the umbrella `src/`).
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for file in rust_files(&crate_dir.join("src")) {
            out.push(load_file(root, &file, &crate_name)?);
        }
    }
    for file in rust_files(&root.join("src")) {
        out.push(load_file(root, &file, "")?);
    }
    Ok(out)
}

fn load_file(root: &Path, file: &Path, crate_name: &str) -> std::io::Result<SourceFile> {
    let text = std::fs::read_to_string(file)?;
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(SourceFile::parse(&rel, crate_name, &text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn proptests_and_test_dirs_are_whole_file_test() {
        for path in [
            "crates/x/src/proptests.rs",
            "crates/x/tests/integration.rs",
            "crates/x/benches/speed.rs",
            "examples/demo.rs",
        ] {
            let f = SourceFile::parse(path, "x", "fn f() { x.unwrap(); }\n");
            assert!(f.is_test_line(1), "{path} should be test code");
        }
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "x",
            "#![cfg(test)]\nfn f() { x.unwrap(); }\n",
        );
        assert!(f.is_test_line(2));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod tests { }\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn non_test_cfg_is_not_marked() {
        let src = "#[cfg(feature = \"extra\")]\nmod extra { fn f() {} }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn nested_braces_inside_test_mod() {
        let src = "#[cfg(test)]\nmod tests {\n    fn a() { if x { y() } }\n    fn b() {}\n}\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }
}
