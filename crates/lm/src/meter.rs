//! Cost accounting: the paper's §6 performance metrics.
//!
//! - **Model queries** — number of next-token prediction calls (`f`),
//! - **Decoder calls** — number of decoding loops started (one per
//!   `generate()` call or per LMQL hole-decoding run, plus one per scored
//!   distribution value),
//! - **Billable tokens** — per decoder call, prompt tokens processed plus
//!   tokens generated (the billing model of API-gated LMs like GPT-3).

use crate::{LanguageModel, LmResult, Logits};
use lmql_obs::{Counter, Registry};
use lmql_tokenizer::{TokenId, Vocabulary};

/// A snapshot of the §6 counters, plus the batching and prefix-cache
/// statistics added by the concurrent inference engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Calls to the underlying model `f` for next-token prediction
    /// (contexts scored; a batched dispatch of `k` contexts counts `k`).
    pub model_queries: u64,
    /// Decoding loops started (plus one per scored distribution value).
    pub decoder_calls: u64,
    /// Σ over decoder calls of (prompt tokens + generated tokens).
    pub billable_tokens: u64,
    /// Batched dispatches (model calls carrying more than one context).
    pub batch_dispatches: u64,
    /// Contexts scored through batched dispatches (⊆ `model_queries`).
    pub batched_queries: u64,
    /// Scheduler prefix-cache hits (contexts answered without the model).
    pub cache_hits: u64,
    /// Scheduler prefix-cache misses.
    pub cache_misses: u64,
}

impl Usage {
    /// Estimated cost in US cents at a given price per 1000 billable
    /// tokens. The paper uses GPT-3 davinci pricing, $0.02/1k tokens
    /// (= 2¢/1k).
    pub fn cost_cents(&self, cents_per_1k_tokens: f64) -> f64 {
        self.billable_tokens as f64 / 1000.0 * cents_per_1k_tokens
    }

    /// Round trips to the model: each call counts once, however many
    /// contexts it carried. This is the latency-side metric microbatching
    /// improves.
    pub fn dispatches(&self) -> u64 {
        self.batch_dispatches + (self.model_queries - self.batched_queries)
    }

    /// Mean contexts per batched dispatch (0 when none happened).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_dispatches == 0 {
            0.0
        } else {
            self.batched_queries as f64 / self.batch_dispatches as f64
        }
    }

    /// Fraction of scheduler lookups served by the prefix cache
    /// (0 when no lookups were recorded).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::ops::Sub for Usage {
    type Output = Usage;
    fn sub(self, rhs: Usage) -> Usage {
        Usage {
            model_queries: self.model_queries - rhs.model_queries,
            decoder_calls: self.decoder_calls - rhs.decoder_calls,
            billable_tokens: self.billable_tokens - rhs.billable_tokens,
            batch_dispatches: self.batch_dispatches - rhs.batch_dispatches,
            batched_queries: self.batched_queries - rhs.batched_queries,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
        }
    }
}

/// A shared, thread-safe handle to the usage counters.
///
/// Clones share the same counters, so a meter can be handed to both a
/// [`MeteredLm`] wrapper and a decoder.
///
/// # Example
///
/// ```
/// use lmql_lm::UsageMeter;
///
/// let meter = UsageMeter::new();
/// meter.record_decoder_call(120);
/// meter.record_model_query();
/// let u = meter.snapshot();
/// assert_eq!(u.decoder_calls, 1);
/// assert_eq!(u.billable_tokens, 120);
/// assert_eq!(u.model_queries, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UsageMeter {
    model_queries: Counter,
    decoder_calls: Counter,
    billable_tokens: Counter,
    batch_dispatches: Counter,
    batched_queries: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    /// Subtracted from the live counters by `snapshot`, so `reset` works
    /// on monotonic cells without touching other clones' history.
    floor: ResetFloor,
}

/// The reset floor: the counter values at the last `reset()`. Kept behind
/// a mutex because it is only touched on `reset`/`snapshot`, never on the
/// recording hot path.
type ResetFloor = std::sync::Arc<std::sync::Mutex<Usage>>;

impl UsageMeter {
    /// A fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers this meter's counters into `registry` under
    /// `<prefix>.<counter>` names (e.g. `lm.model_queries`), so they
    /// appear in the registry's text exposition alongside engine and
    /// server metrics. Recording stays lock-free; the registry only reads
    /// the shared cells at snapshot time.
    ///
    /// # Panics
    ///
    /// Panics if any of the names is already registered.
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        let pairs: [(&str, &Counter); 7] = [
            ("model_queries", &self.model_queries),
            ("decoder_calls", &self.decoder_calls),
            ("billable_tokens", &self.billable_tokens),
            ("batch_dispatches", &self.batch_dispatches),
            ("batched_queries", &self.batched_queries),
            ("cache_hits", &self.cache_hits),
            ("cache_misses", &self.cache_misses),
        ];
        for (name, counter) in pairs {
            registry.register_counter(&format!("{prefix}.{name}"), counter.clone());
        }
    }

    /// Counts one call to the model `f`.
    pub fn record_model_query(&self) {
        self.model_queries.inc();
    }

    /// Counts one batched dispatch scoring `contexts` contexts: the
    /// contexts are model queries, the dispatch is one round trip.
    pub fn record_batch(&self, contexts: u64) {
        self.model_queries.add(contexts);
        self.batched_queries.add(contexts);
        self.batch_dispatches.inc();
    }

    /// Counts one scheduler prefix-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Counts one scheduler prefix-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Counts one decoder call with its billable token total
    /// (prompt tokens + generated tokens).
    pub fn record_decoder_call(&self, billable_tokens: u64) {
        self.decoder_calls.inc();
        self.billable_tokens.add(billable_tokens);
    }

    /// Adds billable tokens to the current decoder call (used when the
    /// generated length is only known incrementally).
    pub fn record_billable_tokens(&self, tokens: u64) {
        self.billable_tokens.add(tokens);
    }

    fn raw(&self) -> Usage {
        Usage {
            model_queries: self.model_queries.get(),
            decoder_calls: self.decoder_calls.get(),
            billable_tokens: self.billable_tokens.get(),
            batch_dispatches: self.batch_dispatches.get(),
            batched_queries: self.batched_queries.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> Usage {
        // Hold the floor lock across the raw read: a concurrent `reset`
        // could otherwise move the floor past values we already read and
        // underflow the subtraction.
        let floor = self.floor.lock().expect("meter poisoned");
        self.raw() - *floor
    }

    /// Resets all counters to zero (for this meter and its clones; the
    /// underlying cells are monotonic, so registry expositions keep the
    /// lifetime totals).
    pub fn reset(&self) {
        let mut floor = self.floor.lock().expect("meter poisoned");
        *floor = self.raw();
    }
}

/// Wraps a model so every scored context is counted as a model query on
/// the given meter.
#[derive(Debug, Clone)]
pub struct MeteredLm<L> {
    inner: L,
    meter: UsageMeter,
}

impl<L: LanguageModel> MeteredLm<L> {
    /// Wraps `inner`, recording on `meter`.
    pub fn new(inner: L, meter: UsageMeter) -> Self {
        MeteredLm { inner, meter }
    }

    /// The meter this wrapper records on.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// Consumes the wrapper, returning the inner model.
    pub fn into_inner(self) -> L {
        self.inner
    }
}

impl<L: LanguageModel> LanguageModel for MeteredLm<L> {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    /// One context is one model query; `k > 1` contexts are one batched
    /// dispatch of `k` queries; an empty call records nothing.
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        match contexts.len() {
            0 => {}
            1 => self.meter.record_model_query(),
            k => self.meter.record_batch(k as u64),
        }
        self.inner.try_score_batch(contexts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformLm;
    use lmql_tokenizer::Bpe;
    use std::sync::Arc;

    #[test]
    fn metered_lm_counts_queries() {
        let bpe = Arc::new(Bpe::char_level(""));
        let meter = UsageMeter::new();
        let lm = MeteredLm::new(UniformLm::new(bpe), meter.clone());
        let _ = lm.score(&[]);
        let _ = lm.score(&[TokenId(0)]);
        assert_eq!(meter.snapshot().model_queries, 2);
    }

    #[test]
    fn clones_share_counters() {
        let a = UsageMeter::new();
        let b = a.clone();
        a.record_decoder_call(10);
        b.record_decoder_call(5);
        assert_eq!(a.snapshot().decoder_calls, 2);
        assert_eq!(a.snapshot().billable_tokens, 15);
    }

    #[test]
    fn reset_zeroes() {
        let m = UsageMeter::new();
        m.record_model_query();
        m.reset();
        assert_eq!(m.snapshot(), Usage::default());
    }

    #[test]
    fn cost_estimate() {
        let u = Usage {
            billable_tokens: 3000,
            ..Usage::default()
        };
        assert!((u.cost_cents(2.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn usage_sub() {
        let a = Usage {
            model_queries: 5,
            decoder_calls: 3,
            billable_tokens: 100,
            batch_dispatches: 2,
            batched_queries: 4,
            cache_hits: 6,
            cache_misses: 8,
        };
        let b = Usage {
            model_queries: 2,
            decoder_calls: 1,
            billable_tokens: 40,
            batch_dispatches: 1,
            batched_queries: 2,
            cache_hits: 3,
            cache_misses: 4,
        };
        let d = a - b;
        assert_eq!(d.model_queries, 3);
        assert_eq!(d.decoder_calls, 2);
        assert_eq!(d.billable_tokens, 60);
        assert_eq!(d.batch_dispatches, 1);
        assert_eq!(d.batched_queries, 2);
        assert_eq!(d.cache_hits, 3);
        assert_eq!(d.cache_misses, 4);
    }

    #[test]
    fn batch_recording_and_derived_stats() {
        let bpe = Arc::new(Bpe::char_level(""));
        let meter = UsageMeter::new();
        let lm = MeteredLm::new(UniformLm::new(bpe), meter.clone());
        let c1 = [TokenId(0)];
        let c2 = [TokenId(0), TokenId(1)];
        let batch: Vec<&[TokenId]> = vec![&c1, &c2];
        let out = lm.score_batch(&batch);
        assert_eq!(out.len(), 2);
        let _ = lm.score(&c1); // one unbatched call on top
        let u = meter.snapshot();
        assert_eq!(u.model_queries, 3);
        assert_eq!(u.batch_dispatches, 1);
        assert_eq!(u.batched_queries, 2);
        assert_eq!(u.dispatches(), 2, "one batch + one single call");
        assert!((u.mean_batch_size() - 2.0).abs() < 1e-12);
        // A one-context batch is a single query; an empty one is nothing.
        let _ = lm.score_batch(&[&c1]);
        let _ = lm.score_batch(&[]);
        let u = meter.snapshot();
        assert_eq!((u.model_queries, u.batch_dispatches), (4, 1));
    }

    #[test]
    fn cache_hit_rate_derives() {
        let meter = UsageMeter::new();
        meter.record_cache_hit();
        meter.record_cache_hit();
        meter.record_cache_hit();
        meter.record_cache_miss();
        let u = meter.snapshot();
        assert!((u.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(Usage::default().cache_hit_rate(), 0.0);
    }
}
