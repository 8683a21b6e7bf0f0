//! Model-based testing of [`RadixCache`] against a naive LRU oracle.
//!
//! The oracle is the obvious implementation: a flat list of (key, value)
//! pairs kept in recency order. The radix cache must agree with it on
//! every lookup result, every hit/miss decision, every eviction choice,
//! the bytes charged, and the set of surviving entries — across
//! thousands of randomised operations at several entry and byte budgets.
//! After every operation the tree must also keep its compressed shape:
//! every non-root node holds an entry or branches.

use lmql_engine::{RadixCache, RadixCacheConfig};
use lmql_lm::Logits;
use lmql_tokenizer::TokenId;
use rand::prelude::*;

/// The naive reference: most recently used last.
struct Oracle {
    config: RadixCacheConfig,
    entries: Vec<(Vec<TokenId>, Logits)>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The byte charge of one entry, as [`RadixCacheConfig::max_bytes`]
/// documents it.
fn charge(key: &[TokenId], value: &Logits) -> usize {
    value.len() * 8 + key.len() * 4 + 96
}

impl Oracle {
    fn new(config: RadixCacheConfig) -> Self {
        Oracle {
            config,
            entries: Vec::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &[TokenId]) -> Option<Logits> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.hits += 1;
                let entry = self.entries.remove(i);
                let value = entry.1.clone();
                self.entries.push(entry);
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: &[TokenId], value: Logits) {
        if let Some(i) = self.entries.iter().position(|(k, _)| k == key) {
            let (k, v) = self.entries.remove(i);
            self.bytes -= charge(&k, &v);
        }
        self.bytes += charge(key, &value);
        self.entries.push((key.to_vec(), value));
        while self.entries.len() > self.config.max_entries
            || (self.bytes > self.config.max_bytes && self.entries.len() > 1)
        {
            let (k, v) = self.entries.remove(0);
            self.bytes -= charge(&k, &v);
            self.evictions += 1;
        }
    }
}

/// Short keys over a tiny alphabet: constant prefix sharing, overwrites
/// and re-lookups.
fn short_key(rng: &mut StdRng, _last: &[TokenId]) -> Vec<TokenId> {
    let len = rng.gen_range(0..=6);
    (0..len).map(|_| TokenId(rng.gen_range(0u32..4))).collect()
}

/// Decode-shaped keys: the previous key or a cut of one of three long
/// runs (the first two share 12 tokens), extended by up to two tokens —
/// so edges split, end and fold deep inside long runs.
fn decode_key(rng: &mut StdRng, last: &[TokenId]) -> Vec<TokenId> {
    const RUNS: [&[u32]; 3] = [
        &[
            0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 0, 2, 1, 3, 1, 0, 3, 2,
        ],
        &[
            0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 2, 2, 2, 0, 1, 3, 3, 1, 0, 2,
        ],
        &[3, 3, 3, 1, 2, 0, 1, 0, 2, 2, 1, 3, 0, 0, 1, 2, 3, 1, 2, 0],
    ];
    let mut key = if rng.gen_bool(0.4) {
        last.to_vec()
    } else {
        let run = RUNS[rng.gen_range(0..RUNS.len())];
        run[..rng.gen_range(0..=run.len())]
            .iter()
            .map(|&t| TokenId(t))
            .collect()
    };
    for _ in 0..rng.gen_range(0..=2) {
        key.push(TokenId(rng.gen_range(0u32..4)));
    }
    key
}

type KeyGen = fn(&mut StdRng, &[TokenId]) -> Vec<TokenId>;

fn run_against_oracle(config: RadixCacheConfig, keys: KeyGen, seed: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = RadixCache::new(config);
    let mut oracle = Oracle::new(config);
    let mut last = Vec::new();

    for op in 0..ops {
        let key = keys(&mut rng, &last);
        if rng.gen_range(0..10) < 6 {
            // Score vectors of 1–3 entries, so the byte charge varies.
            let value = Logits::from_vec(vec![op as f64; rng.gen_range(1..=3)]);
            cache.insert(&key, value.clone());
            oracle.insert(&key, value);
        } else {
            assert_eq!(
                cache.get(&key),
                oracle.get(&key),
                "lookup diverged at op {op} ({config:?}, seed {seed})"
            );
        }
        last = key;

        let stats = cache.stats();
        assert_eq!(stats.entries, oracle.entries.len());
        assert_eq!(stats.bytes, oracle.bytes);
        assert_eq!(stats.hits, oracle.hits);
        assert_eq!(stats.misses, oracle.misses);
        assert_eq!(stats.evictions, oracle.evictions);
        cache.assert_invariants();
        assert!(cache.node_count() <= 2 * stats.entries + 1);
    }

    // Final state: exactly the oracle's surviving entries, value for value.
    for (key, value) in &oracle.entries {
        assert_eq!(
            cache.get(key).as_ref(),
            Some(value),
            "surviving entry mismatch ({config:?}, seed {seed})"
        );
    }
}

fn entry_budget(max_entries: usize) -> RadixCacheConfig {
    RadixCacheConfig {
        max_entries,
        max_bytes: usize::MAX,
    }
}

#[test]
fn radix_cache_matches_lru_oracle() {
    for capacity in [1, 2, 3, 8, 64] {
        for seed in 0..4 {
            run_against_oracle(entry_budget(capacity), short_key, seed, 2_000);
        }
    }
}

#[test]
fn decode_shaped_keys_match_lru_oracle() {
    for capacity in [1, 2, 3, 8, 64] {
        for seed in 0..4 {
            run_against_oracle(entry_budget(capacity), decode_key, seed, 2_000);
        }
    }
}

#[test]
fn byte_budget_matches_lru_oracle() {
    // An entry costs 104 bytes and up here, so these budgets hold from
    // one entry to a few dozen; the entry budget never binds.
    for max_bytes in [150, 400, 1_000, 4_000] {
        let config = RadixCacheConfig {
            max_entries: 10_000,
            max_bytes,
        };
        for seed in 0..4 {
            run_against_oracle(config, short_key, seed, 2_000);
            run_against_oracle(config, decode_key, seed, 2_000);
        }
    }
}

#[test]
fn unbounded_cache_matches_hashmap() {
    // With no eviction pressure the cache is just a map keyed by token
    // sequence; check against std's HashMap directly.
    use std::collections::HashMap;
    let mut rng = StdRng::seed_from_u64(42);
    let mut cache = RadixCache::new(RadixCacheConfig::default());
    let mut map: HashMap<Vec<TokenId>, Logits> = HashMap::new();
    for op in 0..3_000 {
        let key = short_key(&mut rng, &[]);
        if rng.gen_bool(0.5) {
            let value = Logits::from_vec(vec![op as f64, -(op as f64)]);
            cache.insert(&key, value.clone());
            map.insert(key, value);
        } else {
            assert_eq!(cache.get(&key), map.get(&key).cloned());
        }
    }
    assert_eq!(cache.stats().entries, map.len());
    assert_eq!(cache.stats().evictions, 0);
}
