//! A path-compressed radix tree of score vectors with LRU eviction (the
//! SGLang-style "radix cache" specialised to whole-context score
//! memoisation).
//!
//! Decoding revisits contexts that share long token prefixes: every step
//! of a hole extends the previous step's context by one token, `n`
//! lockstep samples share the prompt, and concurrent queries over the
//! same template share almost everything. Storing score vectors in a tree
//! keyed by the token path makes that sharing structural — shared
//! prefixes are stored once — and makes bounded eviction cheap: evicting
//! the least-recently-used *entry* prunes only its private suffix, never
//! a shared spine still in use.
//!
//! Each edge holds a run of tokens, and a node's children are keyed by
//! the first token of their edge. A walk compares whole edges as slices,
//! so it visits one node per entry or branch point on its path, not one
//! per context token: a 600-token prompt followed by 100 decode steps is
//! a chain of 101 nodes. Every non-root node holds an entry or has at
//! least two children — `insert` splits an edge where a new key diverges
//! or ends inside it, and eviction folds a node left valueless with one
//! child into that child — so the tree keeps at most `2·entries + 1`
//! nodes.
//!
//! Like the per-run [`CachedLm`](lmql_lm::CachedLm), this cache is
//! LRU-bounded so long-running servers reach a steady state instead of
//! leaking; here the budgets are an entry count and approximate bytes.
//!
//! Keys stay zero-copy on the lookup path: walks take borrowed
//! `&[TokenId]` slices (the scheduler hands over the same `Arc<[TokenId]>`
//! payload it queued), and an insert copies only the part of its key that
//! no cached path already spells out.

use lmql_lm::Logits;
use lmql_tokenizer::TokenId;

/// Sentinel for "no node" in the arena / LRU links.
const NIL: usize = usize::MAX;

/// Per-entry bookkeeping overhead assumed by the byte budget (node,
/// child slot, LRU links). An estimate — the budget bounds growth, it
/// is not an allocator audit.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Budgets for a [`RadixCache`].
#[derive(Debug, Clone, Copy)]
pub struct RadixCacheConfig {
    /// Maximum number of cached entries (contexts with a stored score
    /// vector). At least 1.
    pub max_entries: usize,
    /// Maximum approximate bytes across all cached entries. An entry
    /// is charged 8 bytes per score, 4 per key token and 96 for its
    /// bookkeeping. The most recent entry is kept even when it alone is
    /// over budget.
    pub max_bytes: usize,
}

impl Default for RadixCacheConfig {
    fn default() -> Self {
        RadixCacheConfig {
            max_entries: 16_384,
            max_bytes: 256 << 20,
        }
    }
}

/// Hit/miss/eviction counters and current occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RadixStats {
    /// `get` calls that found a cached value.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached.
    pub bytes: usize,
}

impl RadixStats {
    /// Fraction of lookups served from cache (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Node {
    /// `(first token of the child's edge, child)`, sorted by token.
    children: Vec<(TokenId, usize)>,
    parent: usize,
    /// Tokens on the edge from `parent` to this node; empty only at the
    /// root.
    edge: Vec<TokenId>,
    value: Option<Logits>,
    /// Approximate bytes charged for `value`.
    bytes: usize,
    /// LRU links, valid only while `value.is_some()`.
    lru_prev: usize,
    lru_next: usize,
}

impl Node {
    fn new(parent: usize, edge: Vec<TokenId>) -> Self {
        Node {
            children: Vec::new(),
            parent,
            edge,
            value: None,
            bytes: 0,
            lru_prev: NIL,
            lru_next: NIL,
        }
    }

    fn child(&self, first: TokenId) -> Option<usize> {
        self.children
            .binary_search_by_key(&first, |&(t, _)| t)
            .ok()
            .map(|i| self.children[i].1)
    }

    /// Points the slot for `first` at `child`, adding the slot if absent.
    fn set_child(&mut self, first: TokenId, child: usize) {
        match self.children.binary_search_by_key(&first, |&(t, _)| t) {
            Ok(i) => self.children[i].1 = child,
            Err(i) => self.children.insert(i, (first, child)),
        }
    }

    fn remove_child(&mut self, first: TokenId) {
        if let Ok(i) = self.children.binary_search_by_key(&first, |&(t, _)| t) {
            self.children.remove(i);
        }
    }
}

/// The cache. Single-threaded by itself; the
/// [`Scheduler`](crate::Scheduler) wraps it in a mutex.
#[derive(Debug)]
pub struct RadixCache {
    config: RadixCacheConfig,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most-recently-used entry node.
    lru_head: usize,
    /// Least-recently-used entry node.
    lru_tail: usize,
    entries: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RadixCache {
    /// An empty cache with the given budgets.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn new(config: RadixCacheConfig) -> Self {
        assert!(config.max_entries > 0, "radix cache needs at least 1 entry");
        RadixCache {
            config,
            nodes: vec![Node::new(NIL, Vec::new())],
            free: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
            entries: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> RadixStats {
        RadixStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries,
            bytes: self.bytes,
        }
    }

    /// Looks up the score vector cached for exactly `key`, marking it
    /// most recently used.
    pub fn get(&mut self, key: &[TokenId]) -> Option<Logits> {
        let hit = self.lookup(key);
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// A second look at a `key` whose [`get`](Self::get) just missed: a
    /// miss counts nothing more, and a hit turns that earlier miss into a
    /// hit, so one logical lookup counts once however often it is
    /// re-checked.
    pub(crate) fn recheck(&mut self, key: &[TokenId]) -> Option<Logits> {
        let hit = self.lookup(key);
        if hit.is_some() {
            self.misses -= 1;
            self.hits += 1;
        }
        hit
    }

    /// Caches `value` for `key`, then evicts least-recently-used entries
    /// until the budgets hold. Overwriting an existing entry refreshes
    /// its recency.
    pub fn insert(&mut self, key: &[TokenId], value: Logits) {
        let idx = self.insert_path(key);
        let new_bytes = value.len() * 8 + key.len() * 4 + ENTRY_OVERHEAD_BYTES;
        if self.nodes[idx].value.is_some() {
            // Overwrite in place.
            self.bytes = self.bytes - self.nodes[idx].bytes + new_bytes;
            self.nodes[idx].value = Some(value);
            self.nodes[idx].bytes = new_bytes;
            self.touch(idx);
        } else {
            self.nodes[idx].value = Some(value);
            self.nodes[idx].bytes = new_bytes;
            self.entries += 1;
            self.bytes += new_bytes;
            self.lru_push_front(idx);
        }
        self.evict_to_budget();
    }

    /// Number of live tree nodes (root included) — exposed for tests
    /// asserting structural sharing and pruning.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Checks every structural invariant — child slots keyed by their
    /// edge's first token, parent links, every non-root node holding an
    /// entry or branching, the LRU list covering exactly the entries, the
    /// entry and byte totals — and panics naming the first one broken.
    /// A test hook: it walks the whole tree.
    pub fn assert_invariants(&self) {
        let mut stack = vec![0];
        let (mut reached, mut valued, mut bytes) = (0, 0, 0);
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            reached += 1;
            if node.value.is_some() {
                valued += 1;
                bytes += node.bytes;
            }
            if idx != 0 {
                assert!(!node.edge.is_empty(), "node {idx} has an empty edge");
                assert!(
                    node.value.is_some() || node.children.len() >= 2,
                    "node {idx} holds no entry and has {} child(ren)",
                    node.children.len()
                );
            }
            assert!(
                node.children.windows(2).all(|w| w[0].0 < w[1].0),
                "children of node {idx} are not sorted by first token"
            );
            for &(first, child) in &node.children {
                assert_eq!(self.nodes[child].parent, idx, "parent link of {child}");
                assert_eq!(
                    self.nodes[child].edge.first(),
                    Some(&first),
                    "slot of {child}"
                );
                stack.push(child);
            }
        }
        assert_eq!(reached, self.node_count(), "unreachable live nodes");
        assert_eq!(valued, self.entries, "entry count");
        assert_eq!(bytes, self.bytes, "byte total");
        let (mut listed, mut prev, mut cur) = (0, NIL, self.lru_head);
        while cur != NIL {
            assert!(
                self.nodes[cur].value.is_some(),
                "LRU node {cur} holds no entry"
            );
            assert_eq!(self.nodes[cur].lru_prev, prev, "LRU back link of {cur}");
            listed += 1;
            prev = cur;
            cur = self.nodes[cur].lru_next;
        }
        assert_eq!(prev, self.lru_tail, "LRU tail");
        assert_eq!(listed, self.entries, "LRU length");
    }

    /// The value cached for exactly `key`, touching its recency.
    fn lookup(&mut self, key: &[TokenId]) -> Option<Logits> {
        let idx = self.walk(key)?;
        let value = self.nodes[idx].value.clone()?;
        self.touch(idx);
        Some(value)
    }

    /// The node whose path spells exactly `key`, if there is one.
    fn walk(&self, mut key: &[TokenId]) -> Option<usize> {
        let mut idx = 0;
        while let Some(&first) = key.first() {
            idx = self.nodes[idx].child(first)?;
            key = key.strip_prefix(self.nodes[idx].edge.as_slice())?;
        }
        Some(idx)
    }

    /// The node for `key`, splitting an edge or adding a leaf as needed.
    fn insert_path(&mut self, mut key: &[TokenId]) -> usize {
        let mut idx = 0;
        while let Some(&first) = key.first() {
            let Some(child) = self.nodes[idx].child(first) else {
                let leaf = self.alloc(idx, key.to_vec());
                self.nodes[idx].set_child(first, leaf);
                return leaf;
            };
            let edge = &self.nodes[child].edge;
            let common = edge.iter().zip(key).take_while(|(a, b)| a == b).count();
            idx = if common == edge.len() {
                child
            } else {
                self.split(child, common)
            };
            key = &key[common..];
        }
        idx
    }

    /// Splits `idx`'s edge after its first `at` tokens (`0 < at <
    /// edge.len()`): a new node takes the head and `idx` hangs below it
    /// with the tail, keeping its index (and so its LRU position).
    /// Returns the new node.
    fn split(&mut self, idx: usize, at: usize) -> usize {
        let parent = self.nodes[idx].parent;
        let head: Vec<TokenId> = self.nodes[idx].edge.drain(..at).collect();
        let first = head[0];
        let mid = self.alloc(parent, head);
        let tail_first = self.nodes[idx].edge[0];
        self.nodes[idx].parent = mid;
        self.nodes[mid].children.push((tail_first, idx));
        self.nodes[parent].set_child(first, mid);
        mid
    }

    fn alloc(&mut self, parent: usize, edge: Vec<TokenId>) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Node::new(parent, edge);
                idx
            }
            None => {
                self.nodes.push(Node::new(parent, edge));
                self.nodes.len() - 1
            }
        }
    }

    /// Returns `idx` to the free list, dropping its edge and child slots.
    fn release(&mut self, idx: usize) {
        self.nodes[idx] = Node::new(NIL, Vec::new());
        self.free.push(idx);
    }

    fn evict_to_budget(&mut self) {
        while self.entries > self.config.max_entries
            || (self.bytes > self.config.max_bytes && self.entries > 1)
        {
            let victim = self.lru_tail;
            if victim == NIL {
                break;
            }
            self.remove_entry(victim);
            self.evictions += 1;
        }
    }

    /// Drops the entry at `idx`, prunes now-useless suffix nodes, and
    /// folds a node left valueless with one child into that child.
    fn remove_entry(&mut self, idx: usize) {
        self.lru_unlink(idx);
        self.bytes -= self.nodes[idx].bytes;
        self.entries -= 1;
        self.nodes[idx].value = None;
        self.nodes[idx].bytes = 0;
        // Prune childless valueless nodes up the spine (shared prefixes
        // with live descendants or live values stay).
        let mut cur = idx;
        while cur != 0 && self.nodes[cur].value.is_none() && self.nodes[cur].children.is_empty() {
            let parent = self.nodes[cur].parent;
            let first = self.nodes[cur].edge[0];
            self.nodes[parent].remove_child(first);
            self.release(cur);
            cur = parent;
        }
        if cur != 0 && self.nodes[cur].value.is_none() && self.nodes[cur].children.len() == 1 {
            self.fold_into_child(cur);
        }
    }

    /// Merges the valueless, single-child `idx` into its child: the child
    /// takes `idx`'s edge as a prefix of its own and `idx`'s slot in the
    /// parent, keeping its index (and so its value and LRU position).
    fn fold_into_child(&mut self, idx: usize) {
        let (_, child) = self.nodes[idx].children[0];
        let parent = self.nodes[idx].parent;
        let mut edge = std::mem::take(&mut self.nodes[idx].edge);
        edge.extend_from_slice(&self.nodes[child].edge);
        let first = edge[0];
        self.nodes[child].edge = edge;
        self.nodes[child].parent = parent;
        self.nodes[parent].set_child(first, child);
        self.release(idx);
    }

    fn touch(&mut self, idx: usize) {
        if self.lru_head != idx {
            self.lru_unlink(idx);
            self.lru_push_front(idx);
        }
    }

    fn lru_push_front(&mut self, idx: usize) {
        self.nodes[idx].lru_prev = NIL;
        self.nodes[idx].lru_next = self.lru_head;
        if self.lru_head != NIL {
            self.nodes[self.lru_head].lru_prev = idx;
        }
        self.lru_head = idx;
        if self.lru_tail == NIL {
            self.lru_tail = idx;
        }
    }

    fn lru_unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].lru_prev, self.nodes[idx].lru_next);
        if prev != NIL {
            self.nodes[prev].lru_next = next;
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.nodes[next].lru_prev = prev;
        } else {
            self.lru_tail = prev;
        }
        self.nodes[idx].lru_prev = NIL;
        self.nodes[idx].lru_next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits(tag: f64) -> Logits {
        Logits::from_vec(vec![tag, tag + 1.0])
    }

    fn key(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    fn cache(max_entries: usize) -> RadixCache {
        RadixCache::new(RadixCacheConfig {
            max_entries,
            max_bytes: usize::MAX,
        })
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let mut c = cache(16);
        c.insert(&key(&[1, 2, 3]), logits(7.0));
        assert_eq!(c.get(&key(&[1, 2, 3])), Some(logits(7.0)));
        assert_eq!(c.get(&key(&[1, 2])), None, "prefix is not an entry");
        assert_eq!(c.get(&key(&[1, 2, 3, 4])), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn empty_context_is_a_valid_key() {
        let mut c = cache(4);
        c.insert(&[], logits(1.0));
        assert_eq!(c.get(&[]), Some(logits(1.0)));
        assert_eq!(c.get(&key(&[5])), None);
    }

    #[test]
    fn shared_prefixes_share_spine_nodes() {
        let mut c = cache(16);
        c.insert(&key(&[1, 2, 3]), logits(1.0));
        c.insert(&key(&[1, 2, 4]), logits(2.0));
        // root + the [1,2] branch + leaves [3] and [4].
        assert_eq!(c.node_count(), 4);
        c.assert_invariants();
    }

    #[test]
    fn decode_steps_add_one_node_each() {
        // A 600-token prompt, then 100 decode steps each extending the
        // previous context by one token: the prompt is one edge, each
        // step one more node below it.
        let mut c = cache(1_000);
        let mut ctx: Vec<TokenId> = (0..600).map(TokenId).collect();
        c.insert(&ctx, logits(0.0));
        for step in 0..100 {
            ctx.push(TokenId(10_000 + step));
            c.insert(&ctx, logits(f64::from(step)));
        }
        assert_eq!(c.node_count(), 102);
        assert_eq!(c.get(&ctx), Some(logits(99.0)));
        assert_eq!(c.get(&ctx[..600]), Some(logits(0.0)));
        assert_eq!(c.get(&ctx[..300]), None, "inside the prompt edge");
        c.assert_invariants();
    }

    #[test]
    fn insert_splits_an_edge_where_keys_diverge_or_end() {
        let mut c = cache(16);
        c.insert(&key(&[1, 2, 3, 4, 5]), logits(1.0));
        assert_eq!(c.node_count(), 2);
        // Diverges inside the edge: a valueless branch at [1,2] with two
        // leaves.
        c.insert(&key(&[1, 2, 9]), logits(2.0));
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.get(&key(&[1, 2])), None, "the branch holds no entry");
        // Ends inside the [3,4,5] edge: the split node takes the entry.
        c.insert(&key(&[1, 2, 3]), logits(3.0));
        assert_eq!(c.node_count(), 5);
        for (k, tag) in [
            (&[1, 2, 3, 4, 5][..], 1.0),
            (&[1, 2, 9], 2.0),
            (&[1, 2, 3], 3.0),
        ] {
            assert_eq!(c.get(&key(k)), Some(logits(tag)), "{k:?}");
        }
        c.assert_invariants();
    }

    #[test]
    fn eviction_folds_a_lone_child_into_its_parent() {
        let mut c = cache(3);
        c.insert(&key(&[1, 2]), logits(1.0));
        c.insert(&key(&[1, 2, 3, 4]), logits(2.0));
        c.insert(&key(&[1, 2, 5]), logits(3.0));
        // root → [1,2] (entry) → {[3,4], [5]}.
        assert_eq!(c.node_count(), 4);
        let _ = c.get(&key(&[1, 2])); // [1,2,3,4] becomes the LRU entry
        c.insert(&key(&[7]), logits(4.0)); // evicts [1,2,3,4]
        assert_eq!(c.node_count(), 4, "[3,4] leaf pruned, [7] added");
        // Touch the other two, so [1,2] is the LRU entry. Evicting it
        // leaves it valueless with one child: [5] folds into it.
        let _ = c.get(&key(&[1, 2, 5]));
        let _ = c.get(&key(&[7]));
        c.insert(&key(&[8]), logits(5.0));
        assert_eq!(c.node_count(), 4, "root + [1,2,5] + [7] + [8]");
        c.assert_invariants();
        assert_eq!(c.get(&key(&[1, 2, 5])), Some(logits(3.0)));
        assert!(c.get(&key(&[1, 2])).is_none());
    }

    #[test]
    fn folded_entry_keeps_its_lru_position() {
        let mut c = cache(3);
        c.insert(&key(&[1, 2]), logits(1.0));
        c.insert(&key(&[1, 2, 3]), logits(2.0));
        c.insert(&key(&[4]), logits(3.0));
        // Oldest first: [1,2], [1,2,3], [4].
        c.insert(&key(&[5]), logits(4.0)); // evicts [1,2]; [3] folds up
        assert_eq!(c.node_count(), 4, "root + [1,2,3] + [4] + [5]");
        c.assert_invariants();
        // Still the oldest entry after the fold, so it goes next.
        c.insert(&key(&[6]), logits(5.0));
        assert!(c.get(&key(&[1, 2, 3])).is_none());
        assert_eq!(c.get(&key(&[4])), Some(logits(3.0)));
        c.assert_invariants();
    }

    #[test]
    fn lru_evicts_least_recent_and_prunes() {
        let mut c = cache(2);
        c.insert(&key(&[1]), logits(1.0));
        c.insert(&key(&[2]), logits(2.0));
        let _ = c.get(&key(&[1])); // 1 becomes most recent
        c.insert(&key(&[3]), logits(3.0)); // evicts 2
        assert!(c.get(&key(&[2])).is_none());
        assert!(c.get(&key(&[1])).is_some());
        assert!(c.get(&key(&[3])).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
        // Node for token 2 pruned: root + nodes for 1 and 3.
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn eviction_keeps_shared_spines_with_live_values() {
        let mut c = cache(2);
        c.insert(&key(&[1, 2]), logits(1.0));
        c.insert(&key(&[1, 2, 3]), logits(2.0));
        let _ = c.get(&key(&[1, 2, 3]));
        c.insert(&key(&[9]), logits(3.0)); // evicts [1,2], the LRU entry
        assert!(c.get(&key(&[1, 2])).is_none());
        assert_eq!(c.get(&key(&[1, 2, 3])), Some(logits(2.0)));
        // The [1,2] spine survives inside the live [1,2,3]'s edge: root +
        // [1,2,3] + [9].
        assert_eq!(c.node_count(), 3);
        c.assert_invariants();
    }

    #[test]
    fn recheck_counts_only_a_hit() {
        let mut c = cache(4);
        assert!(c.get(&key(&[1])).is_none());
        assert!(c.recheck(&key(&[1])).is_none(), "a second miss");
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        assert!(c.get(&key(&[2])).is_none());
        c.insert(&key(&[2]), logits(2.0));
        assert_eq!(c.recheck(&key(&[2])), Some(logits(2.0)));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn byte_budget_evicts() {
        let per_entry = 2 * 8 + 4 + ENTRY_OVERHEAD_BYTES;
        let mut c = RadixCache::new(RadixCacheConfig {
            max_entries: 100,
            max_bytes: per_entry * 2,
        });
        c.insert(&key(&[1]), logits(1.0));
        c.insert(&key(&[2]), logits(2.0));
        c.insert(&key(&[3]), logits(3.0));
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= per_entry * 2);
        assert!(c.get(&key(&[1])).is_none(), "oldest entry went first");
    }

    #[test]
    fn overwrite_refreshes_recency_and_bytes() {
        let mut c = cache(2);
        c.insert(&key(&[1]), logits(1.0));
        c.insert(&key(&[2]), logits(2.0));
        c.insert(&key(&[1]), logits(9.0)); // overwrite → most recent
        c.insert(&key(&[3]), logits(3.0)); // evicts 2
        assert_eq!(c.get(&key(&[1])), Some(logits(9.0)));
        assert!(c.get(&key(&[2])).is_none());
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn hit_rate_reports() {
        let mut c = cache(8);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(&key(&[1]), logits(1.0));
        let _ = c.get(&key(&[1]));
        let _ = c.get(&key(&[2]));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
