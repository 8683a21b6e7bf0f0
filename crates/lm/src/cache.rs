//! Score caching keyed on the full token context.
//!
//! The paper notes (§4 "Performance Considerations") that because functions
//! are pure and deterministic, "results can be cached based on the function
//! arguments". The same applies to the model itself when several beams or
//! samples run in lockstep over shared prefixes: identical contexts need
//! only one forward pass. [`CachedLm`] memoises `score()` per context.
//!
//! The cache is bounded: least-recently-used entries are evicted past a
//! configurable capacity, so long-lived processes (servers, benchmark
//! sweeps) reach a steady state instead of holding every context ever
//! scored. The cross-query variant, a radix tree shared by every
//! execution on a replica, lives in the engine crate as `RadixCache`.

use crate::{LanguageModel, LmResult, Logits};
use lmql_tokenizer::{TokenId, Vocabulary};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// LRU bookkeeping: entries carry a monotonically increasing use stamp,
/// and a stamp-ordered index finds the coldest entry in `O(log n)`. The
/// map key and the stamp index share one `Arc<[TokenId]>` allocation per
/// entry (lookups by `&[TokenId]` go through the std `Borrow<[T]>` impl).
#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<Arc<[TokenId]>, (Logits, u64)>,
    order: BTreeMap<u64, Arc<[TokenId]>>,
    stamp: u64,
}

impl CacheState {
    fn touch(&mut self, context: &[TokenId]) -> Option<Logits> {
        let (logits, old) = self.map.get_mut(context)?;
        let logits = logits.clone();
        let old = std::mem::replace(old, self.stamp);
        self.stamp += 1;
        let key = self.order.remove(&old).expect("stamp index out of sync");
        self.order.insert(self.stamp - 1, key);
        Some(logits)
    }

    fn insert(&mut self, context: Arc<[TokenId]>, logits: Logits) {
        let stamp = self.stamp;
        self.stamp += 1;
        let key = Arc::clone(&context);
        if let Some((_, old)) = self.map.insert(context, (logits, stamp)) {
            self.order.remove(&old);
        }
        self.order.insert(stamp, key);
    }

    /// Evicts entries down to `capacity`, returning how many were dropped.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut dropped = 0;
        while self.map.len() > capacity {
            let (_, key) = self.order.pop_first().expect("cache non-empty");
            self.map.remove(&key);
            dropped += 1;
        }
        dropped
    }
}

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
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
            state: Mutex::new(CacheState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached contexts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of contexts currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("lm cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the cache.
    pub fn clear(&self) {
        let mut st = self.state.lock().expect("lm cache poisoned");
        st.map.clear();
        st.order.clear();
    }

    /// Consumes the wrapper, returning the inner model.
    pub fn into_inner(self) -> L {
        self.inner
    }

    fn store(&self, context: &[TokenId], logits: Logits) {
        let mut st = self.state.lock().expect("lm cache poisoned");
        st.insert(Arc::from(context), logits);
        let dropped = st.evict_to(self.capacity);
        if dropped > 0 {
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
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
        // (distinct misses, first-appearance order) answers it. Batches
        // are a decoder step wide, so a scan of `need` finds duplicates
        // without hashing every context a second time.
        let mut out: Vec<Result<Logits, usize>> = Vec::with_capacity(contexts.len());
        let mut need: Vec<&[TokenId]> = Vec::new();
        {
            let mut st = self.state.lock().expect("lm cache poisoned");
            for &ctx in contexts {
                if let Some(j) = need.iter().position(|n| *n == ctx) {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    out.push(Err(j));
                } else if let Some(hit) = st.touch(ctx) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    out.push(Ok(hit));
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    out.push(Err(need.len()));
                    need.push(ctx);
                }
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
        for (ctx, result) in need.iter().zip(scored) {
            if let Ok(logits) = result {
                self.store(ctx, logits);
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
    fn clear_forgets() {
        let lm = CachedLm::new(uniform());
        let _ = lm.score(&[TokenId(0)]);
        lm.clear();
        assert!(lm.is_empty());
        let _ = lm.score(&[TokenId(0)]);
        assert_eq!(lm.misses(), 2);
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
