//! An interpolated n-gram language model.
//!
//! This is the reproduction's free-running generative model: it produces
//! statistically plausible continuations of its training corpus, which is
//! all the LMQL runtime requires of a model (§4). It stands in for GPT-2
//! style models in examples that need open-ended text (e.g. the Fig. 1a
//! joke query).

use crate::{LanguageModel, LmResult, Logits};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::collections::HashMap;
use std::sync::Arc;

/// Interpolation weight decay per order step (higher orders weigh more).
const BACKOFF: f64 = 0.35;
/// Additive smoothing for the unigram distribution.
const DELTA: f64 = 0.05;

/// An order-`N` n-gram model with interpolated backoff over token counts.
///
/// Training documents are separated by blank lines (`\n\n`); each document
/// is terminated by EOS so the model learns where sequences end.
///
/// # Example
///
/// ```
/// use lmql_lm::{LanguageModel, NGramLm};
/// use lmql_tokenizer::BpeTrainer;
/// use std::sync::Arc;
///
/// let corpus = "the cat sat.\n\nthe cat ran.\n\nthe dog sat.";
/// let bpe = Arc::new(BpeTrainer::new().merges(50).train(corpus));
/// let lm = NGramLm::train(Arc::clone(&bpe), corpus, 3);
/// let ctx = bpe.encode("the cat");
/// let next = lm.score(&ctx).softmax(1.0).argmax();
/// // " sat" / " ran" territory — certainly a token seen after "the cat".
/// assert!(!bpe.vocab().is_special(next));
/// ```
#[derive(Debug)]
pub struct NGramLm {
    bpe: Arc<Bpe>,
    order: usize,
    /// `counts[k]` maps a length-`k` context to next-token counts.
    counts: Vec<HashMap<Vec<TokenId>, HashMap<TokenId, u32>>>,
    /// `totals[k]` maps a length-`k` context to its total count.
    totals: Vec<HashMap<Vec<TokenId>, u32>>,
    /// Smoothed unigram probability per vocabulary entry — the
    /// interpolation base case. It is independent of context, so it is
    /// built once here instead of once per scored context.
    unigram: Vec<f64>,
}

impl NGramLm {
    /// Trains an order-`order` model on `corpus` using `bpe` for
    /// tokenisation.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`.
    pub fn train(bpe: Arc<Bpe>, corpus: &str, order: usize) -> Self {
        assert!(order >= 1, "n-gram order must be at least 1");
        let mut counts: Vec<HashMap<Vec<TokenId>, HashMap<TokenId, u32>>> =
            vec![HashMap::new(); order];
        let mut totals: Vec<HashMap<Vec<TokenId>, u32>> = vec![HashMap::new(); order];

        let eos = bpe.vocab().eos();
        for doc in corpus.split("\n\n") {
            if doc.trim().is_empty() {
                continue;
            }
            let mut tokens = bpe.encode(doc);
            tokens.push(eos);
            for i in 0..tokens.len() {
                for k in 0..order.min(i + 1) {
                    let ctx = tokens[i - k..i].to_vec();
                    *counts[k]
                        .entry(ctx.clone())
                        .or_default()
                        .entry(tokens[i])
                        .or_insert(0) += 1;
                    *totals[k].entry(ctx).or_insert(0) += 1;
                }
            }
        }

        let vocab_len = bpe.vocab().len() as f64;
        let uni_total = *totals[0].get(&Vec::new()).unwrap_or(&0) as f64;
        let uni_counts = counts[0].get(&Vec::new());
        let unigram = bpe
            .vocab()
            .ids()
            .map(|t| {
                let count = uni_counts.and_then(|m| m.get(&t)).copied().unwrap_or(0) as f64;
                (count + DELTA) / (uni_total + DELTA * vocab_len)
            })
            .collect();

        NGramLm {
            bpe,
            order,
            counts,
            totals,
            unigram,
        }
    }

    /// The model's order (maximum context length + 1).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Interpolated probability of `next` given `context`, starting from
    /// the precomputed unigram base.
    fn prob_from_base(&self, context: &[TokenId], next: TokenId, base: f64) -> f64 {
        let mut p = base;
        // Interpolate higher orders where the context was observed.
        let mut weight = 1.0 - BACKOFF;
        for k in 1..self.order {
            if context.len() < k {
                break;
            }
            let ctx = &context[context.len() - k..];
            if let Some(&total) = self.totals[k].get(ctx) {
                let count = self.counts[k]
                    .get(ctx)
                    .and_then(|m| m.get(&next))
                    .copied()
                    .unwrap_or(0) as f64;
                let pk = count / total as f64;
                p = weight * pk + (1.0 - weight) * p;
            }
            weight *= 1.0 - BACKOFF;
        }
        p
    }
}

impl LanguageModel for NGramLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        contexts
            .iter()
            .map(|ctx| {
                // Collected straight into the shared buffer: one
                // allocation per call.
                Ok(self
                    .bpe
                    .vocab()
                    .ids()
                    .zip(&self.unigram)
                    .map(|(t, &base)| self.prob_from_base(ctx, t, base).ln())
                    .collect())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_tokenizer::BpeTrainer;

    fn tiny() -> (Arc<Bpe>, NGramLm) {
        let corpus = "a b c.\n\na b d.\n\na b c.";
        let bpe = Arc::new(BpeTrainer::new().merges(0).train(corpus));
        let lm = NGramLm::train(Arc::clone(&bpe), corpus, 3);
        (bpe, lm)
    }

    #[test]
    fn frequent_continuation_wins() {
        let (bpe, lm) = tiny();
        let ctx = bpe.encode("a b");
        let next = lm.score(&ctx).softmax(1.0).argmax();
        // "a b" is followed by " c" twice and " d" once; " c" encodes as
        // [" ", "c"] at the char level, so the next token is " ".
        assert_eq!(bpe.vocab().token_str(next), " ");
        let mut ctx2 = ctx.clone();
        ctx2.push(next);
        let next2 = lm.score(&ctx2).softmax(1.0).argmax();
        assert_eq!(bpe.vocab().token_str(next2), "c");
    }

    #[test]
    fn eos_predicted_at_document_end() {
        let (bpe, lm) = tiny();
        let ctx = bpe.encode("a b c.");
        let next = lm.score(&ctx).softmax(1.0).argmax();
        assert_eq!(next, bpe.vocab().eos());
    }

    #[test]
    fn all_tokens_have_positive_probability() {
        let (bpe, lm) = tiny();
        let dist = lm.score(&bpe.encode("zzz")).softmax(1.0);
        assert!(dist.probs().iter().all(|&p| p > 0.0));
    }

    #[test]
    #[should_panic(expected = "order must be at least 1")]
    fn zero_order_rejected() {
        let bpe = Arc::new(Bpe::char_level(""));
        let _ = NGramLm::train(bpe, "x", 0);
    }
}
