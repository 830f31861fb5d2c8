//! Trie-indexed routing: the broker's publish hot path.
//!
//! Every exchange is a topic exchange, as every exchange of GoFlow's
//! topology is. Exchanges used to route by linearly scanning a
//! `Vec<Binding>` and re-matching every topic pattern per message; each
//! now holds a word-segmented [`TopicTrie`] with explicit `*` and `#`
//! wildcard child nodes and a precomputed `#`-closure per node, so a
//! routing key is matched by walking its words once instead of running
//! the pattern DP against every binding. A literal pattern matches its
//! own key alone, and `#` matches every key.
//!
//! On top of the tries sits a bounded `RouteCache` memoizing the full
//! breadth-first destination set per `(entry exchange, routing key)`; a
//! bind or delete drops the entries of the exchanges that reach the one
//! it changed. The naive matcher
//! ([`crate::topic_matches`] / `BindingPattern::matches`) is retained as
//! the reference implementation the trie is property-tested against.

use crate::topic::{CompiledPattern, PatternWord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How many `(exchange, key)` entries the routing-result cache may hold
/// before it flushes. Flush-on-full keeps the policy deterministic and
/// the memory bound hard. A steady-state key set smaller than this never
/// flushes; GoFlow's is not one past 1 024 keys: every observation key
/// starts with the client's id (`{client}.obs.{datatype}.{location}`),
/// so a crowd of more clients than that flushes the whole cache once
/// every 1 024 new keys. `route_cache_counted_at_goflow_crowd`
/// (`crates/goflow/src/channels.rs`) counts it: three round-robin rounds
/// of one key per client read 50 hits and 25 misses at 25 clients, and
/// 0 hits and 6 273 misses at 2 091 clients.
pub(crate) const ROUTE_CACHE_CAPACITY: usize = 1024;

/// A word-segmented trie over topic binding patterns.
///
/// Each node owns a literal-word edge map plus optional `*` (one word)
/// and `#` (zero or more words) child nodes. Bindings are stored as
/// opaque `usize` ids on the node where their pattern ends. Matching
/// walks the already-split routing key once; a `(node, position)`
/// visited set bounds the `#` backtracking so pathological stacks of
/// wildcards stay linear in `nodes × key words`.
///
/// Every node also carries its **`#`-closure**: the ids reachable from it
/// through chains of `#` edges each matching zero words. Without it,
/// `a.#` could not match the key `a` — the walk ends at the `a` node with
/// no words left to feed the `#` child. The closure is recomputed on
/// insert (bindings change rarely; routing is the hot path).
///
/// # Examples
///
/// ```
/// use mps_broker::router::TopicTrie;
/// use mps_broker::CompiledPattern;
///
/// let mut trie = TopicTrie::new();
/// trie.insert(&CompiledPattern::new(&"obs.paris.#".parse()?), 0);
/// trie.insert(&CompiledPattern::new(&"obs.*.noise".parse()?), 1);
/// assert_eq!(trie.matches(&["obs", "paris", "noise"]), vec![0, 1]);
/// assert_eq!(trie.matches(&["obs", "lyon", "noise"]), vec![1]);
/// assert_eq!(trie.matches(&["obs", "paris"]), vec![0]);
/// # Ok::<(), mps_broker::BrokerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopicTrie {
    /// Node arena; index 0 is the root. Children are always allocated
    /// after their parent, so child indexes are strictly greater — the
    /// closure pass below relies on that ordering.
    nodes: Vec<TrieNode>,
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    literal: BTreeMap<String, usize>,
    star: Option<usize>,
    hash: Option<usize>,
    /// Bindings whose pattern ends at this node.
    terminals: Vec<usize>,
    /// Bindings reachable from here via `#` edges each matching zero
    /// words (`a.#`, `a.#.#`, … all match the bare key `a`).
    hash_closure: Vec<usize>,
}

/// An empty trie, root and all.
impl Default for TopicTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl TopicTrie {
    /// An empty trie (just the root node).
    pub fn new() -> Self {
        Self {
            nodes: vec![TrieNode::default()],
        }
    }

    /// Number of bindings stored.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.terminals.len()).sum()
    }

    /// Whether the trie holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a compiled pattern under an opaque binding id.
    pub fn insert(&mut self, pattern: &CompiledPattern, binding: usize) {
        let mut node = 0;
        for word in pattern.words() {
            node = match word {
                PatternWord::Star => self.star_child(node),
                PatternWord::Hash => self.hash_child(node),
                PatternWord::Literal(w) => self.literal_child(node, w),
            };
        }
        self.nodes[node].terminals.push(binding);
        self.recompute_closures();
    }

    fn literal_child(&mut self, node: usize, word: &str) -> usize {
        if let Some(&child) = self.nodes[node].literal.get(word) {
            return child;
        }
        let child = self.alloc();
        self.nodes[node].literal.insert(word.to_owned(), child);
        child
    }

    fn star_child(&mut self, node: usize) -> usize {
        if let Some(child) = self.nodes[node].star {
            return child;
        }
        let child = self.alloc();
        self.nodes[node].star = Some(child);
        child
    }

    fn hash_child(&mut self, node: usize) -> usize {
        if let Some(child) = self.nodes[node].hash {
            return child;
        }
        let child = self.alloc();
        self.nodes[node].hash = Some(child);
        child
    }

    fn alloc(&mut self) -> usize {
        self.nodes.push(TrieNode::default());
        self.nodes.len() - 1
    }

    /// Recomputes every node's `#`-closure. Children have larger indexes
    /// than their parents, so one reverse pass sees each `#` child's
    /// closure before the parent needs it.
    fn recompute_closures(&mut self) {
        let mut closures: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for n in (0..self.nodes.len()).rev() {
            if let Some(h) = self.nodes[n].hash {
                let mut closure = self.nodes[h].terminals.clone();
                closure.extend_from_slice(&closures[h]);
                closures[n] = closure;
            }
        }
        for (node, closure) in self.nodes.iter_mut().zip(closures) {
            node.hash_closure = closure;
        }
    }

    /// Binding ids matching an already-split routing key, sorted and
    /// deduplicated (a binding like `a.#.#` has several derivations for
    /// one key; it must still deliver once).
    pub fn matches(&self, key_words: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.nodes.len() * (key_words.len() + 1)];
        self.walk(0, key_words, 0, &mut visited, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn walk(
        &self,
        node: usize,
        key: &[&str],
        pos: usize,
        visited: &mut [bool],
        out: &mut Vec<usize>,
    ) {
        let slot = node * (key.len() + 1) + pos;
        if visited[slot] {
            return;
        }
        visited[slot] = true;
        let n = &self.nodes[node];
        if pos == key.len() {
            out.extend_from_slice(&n.terminals);
            out.extend_from_slice(&n.hash_closure);
            return;
        }
        if let Some(&child) = n.literal.get(key[pos]) {
            self.walk(child, key, pos + 1, visited, out);
        }
        if let Some(child) = n.star {
            self.walk(child, key, pos + 1, visited, out);
        }
        if let Some(child) = n.hash {
            // `#` consumes zero or more words: enter its child node at
            // every remaining split point (including consuming nothing
            // and consuming the whole rest of the key).
            for split in pos..=key.len() {
                self.walk(child, key, split, visited, out);
            }
        }
    }
}

/// A trie of the patterns in order, each under its position as binding
/// id: how an exchange reindexes after bindings were removed (a deletion
/// compacts the binding list, shifting ids).
impl<'a> FromIterator<&'a CompiledPattern> for TopicTrie {
    fn from_iter<I: IntoIterator<Item = &'a CompiledPattern>>(patterns: I) -> Self {
        let mut trie = TopicTrie::new();
        for (id, pattern) in patterns.into_iter().enumerate() {
            trie.insert(pattern, id);
        }
        trie
    }
}

/// A bounded memo of fully-routed destination sets.
///
/// Keyed by `(entry exchange, routing key)`; the value is the sorted set
/// of destination queues the breadth-first exchange walk produced. On
/// every topology change — bind, queue or exchange deletion — the broker
/// drops the entries whose entry exchange
/// reaches the changed one ([`RouteCache::invalidate_exchanges`]), and
/// the cache flushes itself wholesale when it reaches capacity, keeping
/// both the staleness rule and the memory bound auditable.
#[derive(Debug)]
pub(crate) struct RouteCache {
    capacity: usize,
    entries: usize,
    by_exchange: BTreeMap<String, BTreeMap<String, Arc<Vec<String>>>>,
}

impl Default for RouteCache {
    fn default() -> Self {
        Self::new(ROUTE_CACHE_CAPACITY)
    }
}

impl RouteCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: 0,
            by_exchange: BTreeMap::new(),
        }
    }

    /// The cached destination set for this publish, if still valid.
    pub(crate) fn get(&self, exchange: &str, key: &str) -> Option<Arc<Vec<String>>> {
        self.by_exchange
            .get(exchange)
            .and_then(|keys| keys.get(key))
            .cloned()
    }

    /// Memoizes a routed destination set, flushing first when full.
    pub(crate) fn insert(&mut self, exchange: &str, key: &str, targets: Arc<Vec<String>>) {
        if self.entries >= self.capacity {
            self.invalidate();
        }
        let previous = self
            .by_exchange
            .entry(exchange.to_owned())
            .or_default()
            .insert(key.to_owned(), targets);
        if previous.is_none() {
            self.entries += 1;
        }
    }

    /// Drops every cached route (the topology changed under it).
    pub(crate) fn invalidate(&mut self) {
        self.by_exchange.clear();
        self.entries = 0;
    }

    /// Drops only the cached routes whose *entry* exchange is in
    /// `entries` — the sharper form of [`RouteCache::invalidate`] used
    /// when a topology change can only affect routes that traverse the
    /// changed exchange (the broker passes the reverse-reachable set).
    /// Routes entered through unrelated exchanges stay warm.
    pub(crate) fn invalidate_exchanges(&mut self, entries: &BTreeSet<String>) {
        for name in entries {
            if let Some(keys) = self.by_exchange.remove(name) {
                self.entries = self.entries.saturating_sub(keys.len());
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic_matches;

    fn compiled(pattern: &str) -> CompiledPattern {
        CompiledPattern::new(&pattern.parse().expect("valid pattern"))
    }

    fn trie_of(patterns: &[&str]) -> TopicTrie {
        let compiled: Vec<CompiledPattern> = patterns.iter().map(|p| compiled(p)).collect();
        compiled.iter().collect()
    }

    fn naive_of(patterns: &[&str], key: &str) -> Vec<usize> {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| topic_matches(p, key))
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn trie_agrees_with_naive_matcher() {
        let patterns = [
            "a.b.c",
            "a.*.c",
            "a.#",
            "#",
            "#.c",
            "a.#.z",
            "a.*.#",
            "#.#",
            "#.*.#",
            "*.*",
            "a.#.#",
            "lazy.#",
            "*.orange.*",
        ];
        let keys = [
            "a",
            "a.b",
            "a.b.c",
            "a.z",
            "a.b.c.z",
            "c",
            "x.y",
            "lazy.orange.rabbit",
            "quick.orange.rabbit",
        ];
        let trie = trie_of(&patterns);
        for key in keys {
            let words: Vec<&str> = key.split('.').collect();
            assert_eq!(trie.matches(&words), naive_of(&patterns, key), "key {key}");
        }
    }

    #[test]
    fn hash_closure_matches_zero_words() {
        let trie = trie_of(&["a.#", "a.#.#"]);
        assert_eq!(trie.matches(&["a"]), vec![0, 1]);
    }

    #[test]
    fn stacked_hashes_deliver_once() {
        // Several derivations of `a.#.#` cover `a.b`; the id must come
        // back deduplicated.
        let trie = trie_of(&["a.#.#"]);
        assert_eq!(trie.matches(&["a", "b"]), vec![0]);
        assert_eq!(trie.matches(&["a", "b", "c", "d"]), vec![0]);
    }

    #[test]
    fn pathological_wildcard_stack_stays_fast() {
        let trie = trie_of(&["#.#.#.#.#.#.#.#"]);
        let key: Vec<String> = (0..64).map(|i| format!("w{i}")).collect();
        let words: Vec<&str> = key.iter().map(String::as_str).collect();
        // The (node, position) visited set makes this linear-ish; without
        // it the walk would explore ~64^8 derivations.
        assert_eq!(trie.matches(&words), vec![0]);
    }

    #[test]
    fn trie_len_counts_bindings() {
        let mut trie = TopicTrie::new();
        assert!(trie.is_empty());
        trie.insert(&compiled("a.b"), 0);
        trie.insert(&compiled("a.b"), 1); // same pattern, two bindings
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn rebuild_renumbers_bindings() {
        let trie = trie_of(&["a.#", "b.#"]);
        assert_eq!(trie.matches(&["b", "x"]), vec![1]);
    }

    #[test]
    fn per_exchange_invalidation_spares_unrelated_entries() {
        let mut cache = RouteCache::new(16);
        let targets = Arc::new(vec!["q".to_owned()]);
        cache.insert("a", "k1", Arc::clone(&targets));
        cache.insert("a", "k2", Arc::clone(&targets));
        cache.insert("b", "k1", Arc::clone(&targets));
        let gone: BTreeSet<String> = ["a".to_owned()].into();
        cache.invalidate_exchanges(&gone);
        assert_eq!(cache.len(), 1);
        assert!(cache.get("a", "k1").is_none());
        assert!(cache.get("a", "k2").is_none());
        assert!(cache.get("b", "k1").is_some(), "unrelated entry survives");
        // Invalidating an exchange with no cached routes is a no-op.
        cache.invalidate_exchanges(&gone);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn route_cache_bounds_and_invalidates() {
        let mut cache = RouteCache::new(2);
        let targets = Arc::new(vec!["q".to_owned()]);
        cache.insert("e", "k1", Arc::clone(&targets));
        cache.insert("e", "k1", Arc::clone(&targets)); // overwrite, not growth
        cache.insert("e", "k2", Arc::clone(&targets));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("e", "k1").as_deref(), Some(&vec!["q".to_owned()]));
        // At capacity: the next insert flushes everything first.
        cache.insert("e", "k3", Arc::clone(&targets));
        assert_eq!(cache.len(), 1);
        assert!(cache.get("e", "k1").is_none());
        cache.invalidate();
        assert_eq!(cache.len(), 0);
        assert!(cache.get("e", "k3").is_none());
    }
}
