//! Score caching keyed on the full token context.
//!
//! The paper notes (§4 "Performance Considerations") that because functions
//! are pure and deterministic, "results can be cached based on the function
//! arguments". The same applies to the model itself when several beams or
//! samples run in lockstep over shared prefixes: identical contexts need
//! only one forward pass. [`CachedLm`] memoises `score()` per context.
//!
//! The cache is the same path-compressed [`RadixCache`] the engine's
//! scheduler keeps per replica, bounded here by an entry count alone:
//! least-recently-used entries are evicted past a configurable capacity,
//! so long-lived processes (servers, benchmark sweeps) reach a steady
//! state instead of holding every context ever scored. A decode step
//! extends the previous context by one token, so storing it adds one
//! node with a one-token edge; neither the context nor the logits are
//! copied.

use crate::{LanguageModel, LmResult, Logits, RadixCache, RadixCacheConfig};
use lmql_tokenizer::{TokenId, Vocabulary};
use std::sync::{Mutex, MutexGuard};

/// A memoising wrapper: `score()` results are cached by context, with LRU
/// eviction past a capacity (default [`CachedLm::DEFAULT_CAPACITY`]).
///
/// Wrap *outside* a [`MeteredLm`](crate::MeteredLm) to make cache hits free
/// (`CachedLm<MeteredLm<L>>`), or inside to still count them as queries.
///
/// # Example
///
/// ```
/// use lmql_lm::{CachedLm, LanguageModel, MeteredLm, UniformLm, UsageMeter};
/// use lmql_tokenizer::{Bpe, TokenId};
/// use std::sync::Arc;
///
/// let bpe = Arc::new(Bpe::char_level(""));
/// let meter = UsageMeter::new();
/// let lm = CachedLm::new(MeteredLm::new(UniformLm::new(bpe), meter.clone()));
/// let _ = lm.score(&[TokenId(1)]);
/// let _ = lm.score(&[TokenId(1)]); // cache hit: no extra model query
/// assert_eq!(meter.snapshot().model_queries, 1);
/// ```
#[derive(Debug)]
pub struct CachedLm<L> {
    inner: L,
    capacity: usize,
    tree: Mutex<RadixCache>,
}

impl<L: LanguageModel> CachedLm<L> {
    /// Default capacity (cached contexts) for [`CachedLm::new`]: ample
    /// for any single query run, bounded for long-lived processes.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Wraps `inner` with the default capacity.
    pub fn new(inner: L) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Wraps `inner`, keeping at most `capacity` cached contexts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(inner: L, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        CachedLm {
            inner,
            capacity,
            tree: Mutex::new(RadixCache::new(RadixCacheConfig {
                max_entries: capacity,
                max_bytes: usize::MAX,
            })),
        }
    }

    /// Maximum number of cached contexts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.tree().stats().hits
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> u64 {
        self.tree().stats().misses
    }

    /// Number of entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.tree().stats().evictions
    }

    /// Number of contexts currently cached.
    pub fn len(&self) -> usize {
        self.tree().stats().entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tree(&self) -> MutexGuard<'_, RadixCache> {
        self.tree.lock().expect("lm cache poisoned")
    }
}

impl<L: LanguageModel> LanguageModel for CachedLm<L> {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    /// Serves hits from the cache and forwards only the distinct misses
    /// to the inner model — as one inner call, so a batched backend below
    /// still sees a single dispatch. Duplicate contexts share one inner
    /// query (and therefore one verdict); only successes are cached (a
    /// failed call must stay retryable, not become a poisoned entry).
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        // Per output slot: the cached logits, or which entry of `need`
        // (distinct misses, first-appearance order) answers it. A repeat
        // of an earlier miss in the same batch misses the tree too (it is
        // stored only after scoring), so every slot counts as one lookup;
        // batches are a decoder step wide, so a scan of `need` finds the
        // repeat.
        let mut out: Vec<Result<Logits, usize>> = Vec::with_capacity(contexts.len());
        let mut need: Vec<&[TokenId]> = Vec::new();
        {
            let mut tree = self.tree();
            for &ctx in contexts {
                out.push(tree.get(ctx).ok_or_else(|| {
                    need.iter().position(|n| *n == ctx).unwrap_or_else(|| {
                        need.push(ctx);
                        need.len() - 1
                    })
                }));
            }
        }
        // Hits never touch the inner model.
        let scored = if need.is_empty() {
            Vec::new()
        } else {
            self.inner.try_score_batch(&need)
        };
        let results = out
            .into_iter()
            .map(|slot| slot.or_else(|j| scored[j].clone()))
            .collect();
        let mut tree = self.tree();
        for (ctx, result) in need.iter().zip(scored) {
            if let Ok(logits) = result {
                tree.insert(ctx, logits);
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeteredLm, UniformLm, UsageMeter};
    use lmql_tokenizer::Bpe;
    use std::sync::Arc;

    fn uniform() -> UniformLm {
        UniformLm::new(Arc::new(Bpe::char_level("")))
    }

    #[test]
    fn hits_and_misses_counted() {
        let lm = CachedLm::new(uniform());
        let _ = lm.score(&[TokenId(0)]);
        let _ = lm.score(&[TokenId(0)]);
        let _ = lm.score(&[TokenId(1)]);
        assert_eq!(lm.hits(), 1);
        assert_eq!(lm.misses(), 2);
        assert_eq!(lm.len(), 2);
    }

    #[test]
    fn cache_outside_meter_saves_queries() {
        let meter = UsageMeter::new();
        let lm = CachedLm::new(MeteredLm::new(uniform(), meter.clone()));
        for _ in 0..5 {
            let _ = lm.score(&[TokenId(7)]);
        }
        assert_eq!(meter.snapshot().model_queries, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let lm = CachedLm::with_capacity(uniform(), 2);
        let _ = lm.score(&[TokenId(1)]);
        let _ = lm.score(&[TokenId(2)]);
        let _ = lm.score(&[TokenId(1)]); // 1 most recent
        let _ = lm.score(&[TokenId(3)]); // evicts 2
        assert_eq!(lm.evictions(), 1);
        assert_eq!(lm.len(), 2);
        let _ = lm.score(&[TokenId(1)]); // still cached
        assert_eq!(lm.hits(), 2);
        let _ = lm.score(&[TokenId(2)]); // was evicted
        assert_eq!(lm.misses(), 4);
    }

    #[test]
    fn batch_mixes_hits_and_misses_in_one_dispatch() {
        let meter = UsageMeter::new();
        let lm = CachedLm::new(MeteredLm::new(uniform(), meter.clone()));
        let a = [TokenId(1)];
        let b = [TokenId(2)];
        let c = [TokenId(3)];
        let _ = lm.score(&a);
        let batch: Vec<&[TokenId]> = vec![&a, &b, &c, &b];
        let out = lm.score_batch(&batch);
        assert_eq!(out[0], lm.score(&a));
        assert_eq!(out[1], out[3], "duplicate contexts share one query");
        let u = meter.snapshot();
        // 1 single miss up front + one batch of the 2 distinct misses.
        assert_eq!(u.model_queries, 3);
        assert_eq!(u.batch_dispatches, 1);
        assert_eq!(u.batched_queries, 2);
        assert_eq!(lm.hits(), 2); // the `a` hit in the batch + final check
        assert_eq!(lm.misses(), 4); // a, b, c, duplicate b
    }
}
