//! The scoring-consistency check every [`LanguageModel`] must pass.

use crate::{LanguageModel, LmError, Logits};
use lmql_tokenizer::TokenId;

/// Asserts that `lm` answers `contexts` the same way through every entry
/// point: an empty batch is empty; a batch holding every context twice
/// gives each copy what a single `try_score` gave — the same bits, or the
/// same error, so one failing item leaves its partners `Ok`; and the
/// infallible `score` / `score_batch` agree on the contexts that succeed.
///
/// # Panics
///
/// Panics on the first disagreement.
pub fn assert_scoring_consistent(lm: &dyn LanguageModel, contexts: &[&[TokenId]]) {
    let bits = |l: Logits| -> Vec<u64> { l.scores().iter().map(|s| s.to_bits()).collect() };
    assert!(lm.try_score_batch(&[]).is_empty(), "empty batch");
    let single: Vec<Result<Vec<u64>, LmError>> =
        contexts.iter().map(|c| lm.try_score(c).map(bits)).collect();
    let doubled: Vec<&[TokenId]> = contexts.iter().chain(contexts).copied().collect();
    let batched = lm.try_score_batch(&doubled);
    assert_eq!(batched.len(), doubled.len(), "one result per context");
    for (i, got) in batched.into_iter().enumerate() {
        let want = &single[i % contexts.len()];
        assert_eq!(&got.map(bits), want, "batch item {i} vs single call");
    }
    let (healthy, want): (Vec<&[TokenId]>, Vec<&Vec<u64>>) = contexts
        .iter()
        .zip(&single)
        .filter_map(|(c, r)| r.as_ref().ok().map(|w| (*c, w)))
        .unzip();
    let infallible = lm.score_batch(&healthy);
    for ((ctx, got), want) in healthy.iter().zip(infallible).zip(want) {
        assert_eq!(&bits(got), want, "score_batch vs try_score");
        assert_eq!(&bits(lm.score(ctx)), want, "score vs try_score");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        corpus, CachedLm, ChaosLm, FaultPlan, LmResult, MeteredLm, MockLm, ScriptedLm, UniformLm,
        UsageMeter,
    };
    use lmql_tokenizer::{Bpe, Vocabulary};
    use std::sync::Arc;

    const POISON: TokenId = TokenId(3);

    /// Fails fatally on contexts that start with [`POISON`].
    struct PoisonLm(UniformLm);

    impl LanguageModel for PoisonLm {
        fn vocab(&self) -> &Vocabulary {
            self.0.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            contexts
                .iter()
                .map(|c| match c.first() {
                    Some(&POISON) => Err(LmError::fatal("poisoned context")),
                    _ => self.0.try_score(c),
                })
                .collect()
        }
    }

    fn poison() -> PoisonLm {
        PoisonLm(UniformLm::new(Arc::new(Bpe::char_level(""))))
    }

    const CONTEXTS: [&[TokenId]; 4] = [
        &[],
        &[TokenId(1)],
        &[POISON, TokenId(2)],
        &[TokenId(2), TokenId(1), TokenId(4)],
    ];

    #[test]
    fn every_model_scores_consistently() {
        let bpe = Arc::new(Bpe::char_level(""));
        assert_scoring_consistent(&UniformLm::new(Arc::clone(&bpe)), &CONTEXTS);
        assert_scoring_consistent(&MockLm::new(Arc::clone(&bpe), "hi"), &CONTEXTS);
        assert_scoring_consistent(&ScriptedLm::new(bpe, []), &CONTEXTS);
        let (bpe, ngram) = (corpus::standard_bpe(), corpus::standard_ngram());
        let text = bpe.encode("The little prince said");
        let ctxs: Vec<&[TokenId]> = (0..text.len()).map(|n| &text[..n]).collect();
        assert_scoring_consistent(ngram.as_ref(), &ctxs);
        assert_scoring_consistent(&poison(), &CONTEXTS);
        let faultless = ChaosLm::new(poison(), FaultPlan::transient(7, 0.0));
        assert_scoring_consistent(&faultless, &CONTEXTS);
    }

    #[test]
    fn cache_over_meter_scores_consistently_and_counts_per_call_shape() {
        let meter = UsageMeter::new();
        let lm = CachedLm::new(MeteredLm::new(poison(), meter.clone()));
        assert_scoring_consistent(&lm, &CONTEXTS);
        // Singles: 4 queries (the failure is not cached). Doubled batch:
        // the 3 cached hit, the poisoned pair folds into one query — a
        // one-context call, so no batch dispatch. Nothing after that
        // reaches the model, and the empty batch recorded nothing.
        let u = meter.snapshot();
        assert_eq!((u.model_queries, u.batch_dispatches), (5, 0));
        assert_eq!((lm.hits(), lm.misses()), (6 + 3 + 3, 4 + 2));
    }
}
