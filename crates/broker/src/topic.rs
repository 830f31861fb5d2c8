//! Routing keys and AMQP topic-pattern matching.
//!
//! AMQP routing keys are dot-separated words (`obs.FR75013.Feedback`).
//! Topic-exchange binding patterns may use two wildcards: `*` matches
//! exactly one word, `#` matches zero or more words. GoFlow uses these to
//! filter crowd-sensed messages by location and data type (Figure 3).

use crate::BrokerError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Maximum routing-key length accepted (mirrors AMQP's 255-byte limit).
const MAX_KEY_LEN: usize = 255;

fn validate_words(s: &str, allow_wildcards: bool) -> Result<(), BrokerError> {
    if s.is_empty() || s.len() > MAX_KEY_LEN {
        return Err(BrokerError::InvalidKey(s.to_owned()));
    }
    for word in s.split('.') {
        if word.is_empty() {
            return Err(BrokerError::InvalidKey(s.to_owned()));
        }
        let is_wildcard = word == "*" || word == "#";
        if is_wildcard {
            if !allow_wildcards {
                return Err(BrokerError::InvalidKey(s.to_owned()));
            }
            continue;
        }
        if !word
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(BrokerError::InvalidKey(s.to_owned()));
        }
    }
    Ok(())
}

/// A validated message routing key: non-empty dot-separated words of
/// ASCII alphanumerics, `-` and `_`, without wildcards.
///
/// # Examples
///
/// ```
/// use mps_broker::RoutingKey;
///
/// let key: RoutingKey = "obs.FR75013.Feedback".parse()?;
/// assert_eq!(key.words().count(), 3);
/// # Ok::<(), mps_broker::BrokerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RoutingKey(String);

impl RoutingKey {
    /// Validates and creates a routing key.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidKey`] if the key is empty, too long,
    /// has empty words, or contains wildcard or non-key characters.
    pub fn new(key: impl Into<String>) -> Result<Self, BrokerError> {
        let key = key.into();
        Self::validate(&key)?;
        Ok(Self(key))
    }

    /// Checks that `key` is one [`new`](Self::new) accepts, without
    /// making a key of it.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn validate(key: &str) -> Result<(), BrokerError> {
        validate_words(key, false)
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over the key's dot-separated words.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }
}

impl FromStr for RoutingKey {
    type Err = BrokerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RoutingKey::new(s)
    }
}

impl fmt::Display for RoutingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for RoutingKey {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A validated topic-exchange binding pattern; like a routing key but words
/// may also be the wildcards `*` (one word) and `#` (zero or more words).
///
/// # Examples
///
/// ```
/// use mps_broker::BindingPattern;
///
/// let pattern: BindingPattern = "obs.#.Feedback".parse()?;
/// assert!(pattern.matches_key("obs.FR75013.Feedback".parse()?));
/// # Ok::<(), mps_broker::BrokerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BindingPattern(String);

impl BindingPattern {
    /// Validates and creates a binding pattern.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidKey`] on syntactically invalid
    /// patterns.
    pub fn new(pattern: impl Into<String>) -> Result<Self, BrokerError> {
        let pattern = pattern.into();
        validate_words(&pattern, true)?;
        Ok(Self(pattern))
    }

    /// The pattern as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this pattern matches `key` under AMQP topic semantics.
    pub fn matches(&self, key: &RoutingKey) -> bool {
        topic_matches(&self.0, key.as_str())
    }

    /// Convenience form of [`BindingPattern::matches`] taking the key by
    /// value.
    pub fn matches_key(&self, key: RoutingKey) -> bool {
        self.matches(&key)
    }
}

impl FromStr for BindingPattern {
    type Err = BrokerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BindingPattern::new(s)
    }
}

impl fmt::Display for BindingPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for BindingPattern {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// AMQP topic match: does `pattern` match `key`?
///
/// Words are dot-separated; `*` matches exactly one word and `#` matches
/// zero or more words. This is the raw algorithm; prefer the validated
/// [`BindingPattern`]/[`RoutingKey`] wrappers in APIs. It re-splits both
/// strings per call and is retained as the naive reference the trie
/// router is property-tested against; the publish hot path uses
/// [`CompiledPattern`] and the per-exchange trie instead.
///
/// # Examples
///
/// ```
/// use mps_broker::topic_matches;
///
/// assert!(topic_matches("a.*.c", "a.b.c"));
/// assert!(topic_matches("a.#", "a"));
/// assert!(topic_matches("#", "anything.at.all"));
/// assert!(!topic_matches("a.*", "a.b.c"));
/// ```
pub fn topic_matches(pattern: &str, key: &str) -> bool {
    let pat: Vec<&str> = pattern.split('.').collect();
    let key: Vec<&str> = key.split('.').collect();
    // dp[j] = does pat[..i] match key[..j]; iterate i over pattern words.
    let mut dp = vec![false; key.len() + 1];
    dp[0] = true;
    for &pw in &pat {
        if pw == "#" {
            // '#' matches zero or more words: propagate any true forward.
            let mut any = false;
            for slot in dp.iter_mut() {
                any |= *slot;
                *slot = any;
            }
        } else {
            // '*' or literal word consumes exactly one key word.
            let mut next = vec![false; key.len() + 1];
            for j in 1..=key.len() {
                if dp[j - 1] && (pw == "*" || pw == key[j - 1]) {
                    next[j] = true;
                }
            }
            dp = next;
        }
    }
    dp[key.len()]
}

/// One word of a [`CompiledPattern`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternWord {
    /// `*` — matches exactly one key word.
    Star,
    /// `#` — matches zero or more key words.
    Hash,
    /// A literal word, matched byte-for-byte.
    Literal(String),
}

/// A binding pattern compiled once at bind time: the words are pre-split
/// and wildcard-classified, so matching never re-parses the pattern
/// string. This is what exchanges store per binding and what the topic
/// trie is built from.
///
/// # Examples
///
/// ```
/// use mps_broker::{BindingPattern, CompiledPattern};
///
/// let pattern: BindingPattern = "obs.*.Feedback".parse()?;
/// let compiled = CompiledPattern::new(&pattern);
/// assert!(compiled.matches_words(&["obs", "FR75013", "Feedback"]));
/// assert!(!compiled.matches_words(&["obs", "FR75013", "Noise"]));
/// # Ok::<(), mps_broker::BrokerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    words: Vec<PatternWord>,
}

impl CompiledPattern {
    /// Compiles a validated pattern by splitting it into classified words.
    pub fn new(pattern: &BindingPattern) -> Self {
        let words = pattern
            .as_str()
            .split('.')
            .map(|w| match w {
                "*" => PatternWord::Star,
                "#" => PatternWord::Hash,
                literal => PatternWord::Literal(literal.to_owned()),
            })
            .collect();
        Self { words }
    }

    /// The pre-split pattern words.
    pub fn words(&self) -> &[PatternWord] {
        &self.words
    }

    /// Whether this pattern matches an already-split routing key.
    ///
    /// Same dynamic program as [`topic_matches`], but over the pre-split
    /// words: the caller splits the key once per publish instead of once
    /// per binding per publish.
    pub fn matches_words(&self, key: &[&str]) -> bool {
        let mut dp = vec![false; key.len() + 1];
        dp[0] = true;
        for pw in &self.words {
            match pw {
                PatternWord::Hash => {
                    let mut any = false;
                    for slot in dp.iter_mut() {
                        any |= *slot;
                        *slot = any;
                    }
                }
                PatternWord::Star | PatternWord::Literal(_) => {
                    let mut next = vec![false; key.len() + 1];
                    for j in 1..=key.len() {
                        let word_ok = match pw {
                            PatternWord::Literal(w) => w == key[j - 1],
                            _ => true,
                        };
                        if dp[j - 1] && word_ok {
                            next[j] = true;
                        }
                    }
                    dp = next;
                }
            }
        }
        dp[key.len()]
    }
}

impl From<&BindingPattern> for CompiledPattern {
    fn from(pattern: &BindingPattern) -> Self {
        CompiledPattern::new(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_patterns_match_exactly() {
        assert!(topic_matches("a.b.c", "a.b.c"));
        assert!(!topic_matches("a.b.c", "a.b"));
        assert!(!topic_matches("a.b", "a.b.c"));
        assert!(!topic_matches("a.b.c", "a.b.d"));
    }

    #[test]
    fn star_matches_exactly_one_word() {
        assert!(topic_matches("a.*.c", "a.b.c"));
        assert!(topic_matches("*", "a"));
        assert!(!topic_matches("*", "a.b"));
        assert!(!topic_matches("a.*", "a"));
        assert!(!topic_matches("a.*.c", "a.b.b.c"));
    }

    #[test]
    fn hash_matches_zero_or_more() {
        assert!(topic_matches("#", "a"));
        assert!(topic_matches("#", "a.b.c"));
        assert!(topic_matches("a.#", "a"));
        assert!(topic_matches("a.#", "a.b.c.d"));
        assert!(topic_matches("#.c", "c"));
        assert!(topic_matches("#.c", "a.b.c"));
        assert!(!topic_matches("#.c", "a.b"));
    }

    #[test]
    fn mixed_wildcards() {
        assert!(topic_matches("a.#.z", "a.z"));
        assert!(topic_matches("a.#.z", "a.b.c.z"));
        assert!(topic_matches("a.*.#", "a.b"));
        assert!(topic_matches("a.*.#", "a.b.c.d"));
        assert!(!topic_matches("a.*.#", "a"));
        assert!(topic_matches("#.#", "a"));
        assert!(topic_matches("#.*.#", "a.b.c"));
        assert!(!topic_matches("*.*", "a"));
    }

    #[test]
    fn rabbitmq_documentation_examples() {
        // From the RabbitMQ topic tutorial: quick.orange.rabbit etc.
        let p1 = "*.orange.*";
        let p2 = "*.*.rabbit";
        let p3 = "lazy.#";
        assert!(topic_matches(p1, "quick.orange.rabbit"));
        assert!(topic_matches(p2, "quick.orange.rabbit"));
        assert!(topic_matches(p1, "lazy.orange.elephant"));
        assert!(topic_matches(p3, "lazy.brown.fox"));
        assert!(topic_matches(p3, "lazy.pink.rabbit"));
        assert!(!topic_matches(p1, "quick.brown.fox"));
        assert!(!topic_matches(p2, "quick.orange.male.rabbit"));
        assert!(topic_matches(p3, "lazy.orange.male.rabbit"));
    }

    #[test]
    fn routing_key_validation() {
        assert!(RoutingKey::new("obs.FR75013.Feedback").is_ok());
        assert!(RoutingKey::new("a-b_c.d1").is_ok());
        assert!(RoutingKey::new("").is_err());
        assert!(RoutingKey::new("a..b").is_err());
        assert!(
            RoutingKey::new("a.*").is_err(),
            "wildcards not allowed in keys"
        );
        assert!(RoutingKey::new("a.#").is_err());
        assert!(RoutingKey::new("a b").is_err());
        assert!(RoutingKey::new("x".repeat(256)).is_err());
    }

    #[test]
    fn pattern_validation() {
        assert!(BindingPattern::new("obs.*.Feedback").is_ok());
        assert!(BindingPattern::new("#").is_ok());
        assert!(BindingPattern::new("a.**").is_err(), "** is not a word");
        assert!(BindingPattern::new("a..b").is_err());
        assert!(BindingPattern::new("").is_err());
    }

    #[test]
    fn pattern_matches_wrapper() {
        let p: BindingPattern = "obs.#".parse().unwrap();
        let k: RoutingKey = "obs.FR75013.noise".parse().unwrap();
        assert!(p.matches(&k));
        assert!(p.matches_key(k));
    }

    #[test]
    fn key_accessors() {
        let k: RoutingKey = "a.b".parse().unwrap();
        assert_eq!(k.as_str(), "a.b");
        assert_eq!(k.as_ref(), "a.b");
        assert_eq!(k.to_string(), "a.b");
        assert_eq!(k.words().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn compiled_pattern_words_are_classified() {
        let p: BindingPattern = "obs.*.#.Feedback".parse().unwrap();
        let c = CompiledPattern::new(&p);
        assert_eq!(
            c.words(),
            &[
                PatternWord::Literal("obs".to_owned()),
                PatternWord::Star,
                PatternWord::Hash,
                PatternWord::Literal("Feedback".to_owned()),
            ]
        );
        assert_eq!(CompiledPattern::from(&p), c);
    }

    #[test]
    fn compiled_pattern_agrees_with_naive_matcher() {
        let patterns = [
            "a.b.c", "a.*.c", "a.#", "#", "#.c", "a.#.z", "a.*.#", "#.#", "#.*.#", "*.*",
        ];
        let keys = ["a", "a.b", "a.b.c", "a.z", "a.b.c.z", "c", "x.y"];
        for pat in patterns {
            let compiled = CompiledPattern::new(&pat.parse().unwrap());
            for key in keys {
                let words: Vec<&str> = key.split('.').collect();
                assert_eq!(
                    compiled.matches_words(&words),
                    topic_matches(pat, key),
                    "pattern {pat} vs key {key}"
                );
            }
        }
    }

    #[test]
    fn serde_transparent() {
        let k: RoutingKey = "a.b".parse().unwrap();
        assert_eq!(serde_json::to_string(&k).unwrap(), "\"a.b\"");
        let p: BindingPattern = "a.#".parse().unwrap();
        assert_eq!(serde_json::to_string(&p).unwrap(), "\"a.#\"");
    }
}
