//! The benchmark's model substrate and its measuring wrappers.
//!
//! [`FixedCostLm`] is ROADMAP item 1's prerequisite (a): a model whose
//! cost is a *constant operation count* (zero, or a per-batch amount plus
//! a per-item slope), so the stack above the model can be measured apart
//! from it. Its logits are a pure function of the context, computed with
//! integer hashing only, so results are bit-reproducible on any machine.
//!
//! [`TimedLm`] and [`TimedTool`] wrap the hosted model and every tool:
//! they count always (the end-to-end `model_queries_per_query` is the
//! number of contexts that reach the wrapped model) and record a span per
//! call only while a traced pass is running.

use crate::trace::Spans;
use lmql::{Tool, ToolSchema, Value};
use lmql_lm::{LanguageModel, LmResult, Logits};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64 finalizer: the one integer mixer the benchmark uses for
/// logits, work loops and input generation.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How much arithmetic one forward pass performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWork {
    /// Mixer rounds per `score`/`score_batch` call.
    pub per_batch_ops: u64,
    /// Additional mixer rounds per context in the call.
    pub per_item_ops: u64,
}

impl FixedWork {
    /// No arithmetic beyond producing the logit vector.
    pub const ZERO: FixedWork = FixedWork {
        per_batch_ops: 0,
        per_item_ops: 0,
    };
}

/// Boosted continuations per context; the highest boost wins an
/// unmasked argmax, the others decide what a mask falls back to.
const BOOSTS: u64 = 4;

/// A model with a constant cost and context-hashed logits.
///
/// Every token has a fixed base score in `[0, 1)`; a context raises
/// [`BOOSTS`] tokens picked by hashing the whole context. EOS sits far
/// below everything, so a hole ends where its constraints or its token
/// budget end it — output lengths follow from the query text, not from
/// the model, which keeps the count metrics steady across seeds.
#[derive(Debug)]
pub struct FixedCostLm {
    bpe: Arc<Bpe>,
    base: Vec<f64>,
    work: FixedWork,
}

impl FixedCostLm {
    /// A model over `bpe`'s vocabulary performing `work` per call.
    pub fn new(bpe: Arc<Bpe>, work: FixedWork) -> Self {
        let eos = bpe.vocab().eos();
        let base = bpe
            .vocab()
            .ids()
            .map(|t| {
                if t == eos {
                    -40.0
                } else {
                    (mix(u64::from(t.0)) >> 11) as f64 / (1u64 << 53) as f64
                }
            })
            .collect();
        FixedCostLm { bpe, base, work }
    }

    fn logits(&self, context: &[TokenId]) -> Logits {
        let mut scores = self.base.clone();
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ context.len() as u64;
        for t in context {
            h = (h ^ u64::from(t.0)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let eos = self.bpe.vocab().eos().index();
        let n = scores.len() as u64;
        for j in 0..BOOSTS {
            let mut id = (mix(h ^ j) % n) as usize;
            if id == eos {
                id = (id + 1) % scores.len();
            }
            scores[id] += (2 * (BOOSTS - j)) as f64;
        }
        Logits::from_vec(scores)
    }

    /// `ops` dependent mixer rounds. The chain cannot be shortened or
    /// vectorised, so wall time is proportional to `ops` on a given core.
    fn burn(ops: u64, seed: u64) {
        let mut x = black_box(seed);
        for _ in 0..ops {
            x = mix(x);
        }
        black_box(x);
    }
}

impl LanguageModel for FixedCostLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }

    fn score(&self, context: &[TokenId]) -> Logits {
        Self::burn(
            self.work.per_batch_ops + self.work.per_item_ops,
            context.len() as u64,
        );
        self.logits(context)
    }

    fn score_batch(&self, contexts: &[&[TokenId]]) -> Vec<Logits> {
        Self::burn(
            self.work.per_batch_ops + self.work.per_item_ops * contexts.len() as u64,
            contexts.len() as u64,
        );
        contexts.iter().map(|c| self.logits(c)).collect()
    }

    /// The scheduler dispatches through this entry point; without the
    /// override the trait's default would score item by item and the
    /// per-batch cost would be paid once per context.
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.score_batch(contexts).into_iter().map(Ok).collect()
    }
}

/// Call counters shared between a wrapper and the harness.
#[derive(Debug, Default)]
pub struct CallProbe {
    /// Calls made (`score` + `score_batch`, or tool invocations).
    pub calls: AtomicU64,
    /// Items across those calls (contexts scored; equals `calls` for tools).
    pub items: AtomicU64,
}

impl CallProbe {
    /// `(calls, items)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.items.load(Ordering::Relaxed),
        )
    }
}

/// Counts one call covering `items` work items and, while `spans` is
/// recording, times it as a span named `name`.
fn counted<T>(
    probe: &CallProbe,
    spans: &Spans,
    name: &'static str,
    items: usize,
    f: impl FnOnce() -> T,
) -> T {
    probe.calls.fetch_add(1, Ordering::Relaxed);
    probe.items.fetch_add(items as u64, Ordering::Relaxed);
    if !spans.is_recording() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    spans.record(name, start, items as u64);
    out
}

/// Counts every forward pass of the wrapped model and, while `spans` is
/// recording, times each one as an `lm.score` span.
pub struct TimedLm {
    inner: Arc<dyn LanguageModel>,
    probe: Arc<CallProbe>,
    spans: Spans,
}

impl TimedLm {
    /// Wraps `inner`; `probe` and `spans` stay with the harness.
    pub fn new(inner: Arc<dyn LanguageModel>, probe: Arc<CallProbe>, spans: Spans) -> Self {
        TimedLm {
            inner,
            probe,
            spans,
        }
    }

    fn call<T>(&self, items: usize, f: impl FnOnce() -> T) -> T {
        counted(&self.probe, &self.spans, "lm.score", items, f)
    }
}

// Every entry point forwards to the same entry point of the wrapped
// model, so wrapping changes nothing about how a batch is scored.
impl LanguageModel for TimedLm {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    fn score(&self, context: &[TokenId]) -> Logits {
        self.call(1, || self.inner.score(context))
    }

    fn score_batch(&self, contexts: &[&[TokenId]]) -> Vec<Logits> {
        self.call(contexts.len(), || self.inner.score_batch(contexts))
    }

    fn try_score(&self, context: &[TokenId]) -> LmResult<Logits> {
        self.call(1, || self.inner.try_score(context))
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.call(contexts.len(), || self.inner.try_score_batch(contexts))
    }
}

/// Counts every invocation of the wrapped tool and, while `spans` is
/// recording, times each one as a `tool.invoke` span.
pub struct TimedTool {
    inner: Arc<dyn Tool>,
    probe: Arc<CallProbe>,
    spans: Spans,
}

impl TimedTool {
    /// Wraps `inner`; `probe` and `spans` stay with the harness.
    pub fn new(inner: Arc<dyn Tool>, probe: Arc<CallProbe>, spans: Spans) -> Self {
        TimedTool {
            inner,
            probe,
            spans,
        }
    }
}

impl Tool for TimedTool {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> ToolSchema {
        self.inner.schema()
    }

    fn invoke(&self, func: &str, args: &[Value]) -> Result<Value, String> {
        counted(&self.probe, &self.spans, "tool.invoke", 1, || {
            self.inner.invoke(func, args)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(work: FixedWork) -> (Arc<Bpe>, FixedCostLm) {
        let bpe = Arc::new(Bpe::char_level("abc"));
        let lm = FixedCostLm::new(Arc::clone(&bpe), work);
        (bpe, lm)
    }

    fn bits(l: &Logits) -> Vec<u64> {
        l.scores().iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn logits_are_a_pure_function_of_the_context() {
        let (bpe, zero) = model(FixedWork::ZERO);
        let (_, busy) = model(FixedWork {
            per_batch_ops: 1000,
            per_item_ops: 100,
        });
        let a = bpe.encode("hello world");
        let b = bpe.encode("hello worle");
        assert_eq!(bits(&zero.score(&a)), bits(&zero.score(&a)));
        assert_eq!(bits(&zero.score(&a)), bits(&busy.score(&a)));
        assert_ne!(bits(&zero.score(&a)), bits(&zero.score(&b)));
        assert_eq!(zero.score(&a).len(), bpe.vocab().len());
    }

    #[test]
    fn batch_items_equal_single_scores() {
        let (bpe, lm) = model(FixedWork {
            per_batch_ops: 500,
            per_item_ops: 50,
        });
        let ctxs = [bpe.encode("a"), bpe.encode("ab"), bpe.encode("")];
        let refs: Vec<&[TokenId]> = ctxs.iter().map(Vec::as_slice).collect();
        let batch = lm.score_batch(&refs);
        assert_eq!(batch.len(), 3);
        for (got, ctx) in batch.iter().zip(&ctxs) {
            assert_eq!(bits(got), bits(&lm.score(ctx)));
        }
    }

    #[test]
    fn eos_never_wins_an_unmasked_argmax() {
        let (bpe, lm) = model(FixedWork::ZERO);
        let eos = bpe.vocab().eos();
        for text in ["", "a", "abc abc", "zzzzzzzz"] {
            let next = lm.score(&bpe.encode(text)).softmax(1.0).argmax();
            assert_ne!(next, eos, "context {text:?}");
        }
    }

    #[test]
    fn timed_lm_counts_calls_and_contexts() {
        let (bpe, lm) = model(FixedWork::ZERO);
        let probe = Arc::new(CallProbe::default());
        let timed = TimedLm::new(Arc::new(lm), Arc::clone(&probe), Spans::new());
        let ctx = bpe.encode("ab");
        timed.score(&ctx);
        timed.score_batch(&[&ctx, &ctx, &ctx]);
        assert_eq!(probe.read(), (2, 4));
        // The scheduler's entry point counts one call for the whole batch.
        let out = timed.try_score_batch(&[&ctx, &ctx]);
        assert_eq!(out.len(), 2);
        assert_eq!(probe.read(), (3, 6));
    }
}
