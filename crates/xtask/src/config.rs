//! The `mps-lint.toml` configuration file.
//!
//! The config declares *which crates belong to which discipline* — the
//! lint rules themselves live in code. A deliberately small TOML subset
//! is parsed by hand (top-level `key = "string"` and
//! `key = ["a", "b", …]` entries, `#` comments, arrays may span lines)
//! so the tool stays dependency-free.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed `mps-lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Workspace-relative path of the canonical header-key constants
    /// (the one file allowed to contain `x-…` literals, L005).
    pub headers_home: String,
    /// Crates skipped entirely (the lint tool itself: its sources and
    /// tests are full of deliberately-violating examples).
    pub exclude: Vec<String>,
    /// `role=path` pairs naming the files that declare wire constants,
    /// the only files allowed to spell raw opcode values (L007).
    pub wire_api: Vec<(String, String)>,
    /// Crates (short names) whose lock acquisition order and
    /// guard-held blocking calls L008 analyses. Empty disables L008.
    pub lock_discipline: Vec<String>,
}

/// A config-file error with enough context to fix it.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mps-lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Loads and validates the config at `path`.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Parses config text. See the module docs for the accepted subset.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut scalars: BTreeMap<String, String> = BTreeMap::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected `key = value`, got `{line}`",
                    idx + 1
                )));
            };
            let key = key.trim().to_owned();
            let mut value = value.trim().to_owned();
            if value.starts_with('[') {
                // Collect continuation lines until the closing bracket.
                while !value.contains(']') {
                    let Some((_, next)) = lines.next() else {
                        return Err(ConfigError(format!(
                            "line {}: unterminated array for `{key}`",
                            idx + 1
                        )));
                    };
                    value.push(' ');
                    value.push_str(strip_comment(next).trim());
                }
                let inner = value
                    .trim_start_matches('[')
                    .rsplit_once(']')
                    .map(|(head, _)| head)
                    .unwrap_or_default();
                let items = inner
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_string(s, idx + 1, &key))
                    .collect::<Result<Vec<_>, _>>()?;
                values.insert(key, items);
            } else {
                scalars.insert(key.clone(), parse_string(&value, idx + 1, &key)?);
            }
        }
        let take_list = |key: &str| values.get(key).cloned().unwrap_or_default();
        Ok(Self {
            headers_home: scalars
                .get("headers_home")
                .cloned()
                .unwrap_or_else(|| "crates/types/src/headers.rs".to_owned()),
            exclude: take_list("exclude"),
            wire_api: take_list("wire_api")
                .into_iter()
                .map(|entry| match entry.split_once('=') {
                    Some((role, path)) if !role.trim().is_empty() && !path.trim().is_empty() => {
                        Ok((role.trim().to_owned(), path.trim().to_owned()))
                    }
                    _ => Err(ConfigError(format!(
                        "`wire_api` entries must look like \"role=path\", got `{entry}`"
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()?,
            lock_discipline: take_list("lock_discipline"),
        })
    }
}

fn strip_comment(line: &str) -> &str {
    // Only strip `#` outside quotes; config values never contain `#`.
    match line.find('#') {
        Some(pos) if line[..pos].matches('"').count().is_multiple_of(2) => &line[..pos],
        _ => line,
    }
}

fn parse_string(raw: &str, line: usize, key: &str) -> Result<String, ConfigError> {
    let raw = raw.trim();
    if raw.len() >= 2 && raw.starts_with('"') && raw.ends_with('"') {
        Ok(raw[1..raw.len() - 1].to_owned())
    } else {
        Err(ConfigError(format!(
            "line {line}: `{key}` values must be double-quoted strings, got `{raw}`"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lists_scalars_and_comments() {
        let cfg = Config::parse(
            r#"
# lock-checked crates
lock_discipline = [
    "broker",  # the broker
    "goflow",
]
headers_home = "crates/types/src/headers.rs"
"#,
        )
        .unwrap();
        assert_eq!(cfg.lock_discipline, vec!["broker", "goflow"]);
        assert_eq!(cfg.headers_home, "crates/types/src/headers.rs");
    }

    #[test]
    fn unquoted_values_are_rejected() {
        assert!(Config::parse("exclude = [xtask]").is_err());
    }

    #[test]
    fn defaults_for_paths() {
        let cfg = Config::parse("").unwrap();
        assert_eq!(cfg.headers_home, "crates/types/src/headers.rs");
        assert!(cfg.wire_api.is_empty());
        assert!(cfg.lock_discipline.is_empty());
    }

    #[test]
    fn wire_api_entries_split_into_role_and_path() {
        let cfg = Config::parse(
            "wire_api = [\"frame=crates/net/src/frame.rs\", \"admin=crates/net/src/admin.rs\"]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.wire_api,
            vec![
                ("frame".to_owned(), "crates/net/src/frame.rs".to_owned()),
                ("admin".to_owned(), "crates/net/src/admin.rs".to_owned()),
            ]
        );
    }

    #[test]
    fn malformed_wire_api_entry_is_an_error() {
        assert!(Config::parse("wire_api = [\"no-equals-sign\"]").is_err());
        assert!(Config::parse("wire_api = [\"=path-only\"]").is_err());
    }
}
