//! The core language-model interface.

use crate::{LmResult, Logits};
use lmql_tokenizer::{TokenId, Vocabulary};

/// A next-token predictor `f : V^k → R^{|V|}` (§2.1 of the paper).
///
/// Implementations are treated as black boxes: given a token context they
/// return one raw score per vocabulary entry. Everything else — softmax,
/// temperature, masking, decoding — is layered on top, exactly as the paper
/// factors it.
///
/// Implementing a model means [`vocab`](Self::vocab) plus the one scoring
/// primitive, [`try_score_batch`](Self::try_score_batch);
/// [`try_score`](Self::try_score), [`score`](Self::score) and
/// [`score_batch`](Self::score_batch) are conveniences derived from it, so
/// single, batched, fallible and infallible scoring agree bit for bit by
/// construction. Do not override them.
///
/// Implementors must be `Send + Sync` so decoders can share models across
/// beams and threads.
///
/// # Example
///
/// ```
/// use lmql_lm::{LanguageModel, UniformLm};
/// use lmql_tokenizer::{Bpe, TokenId};
/// use std::sync::Arc;
///
/// let bpe = Arc::new(Bpe::char_level(""));
/// let lm = UniformLm::new(Arc::clone(&bpe));
/// let logits = lm.score(&[TokenId(0)]);
/// assert_eq!(logits.len(), lm.vocab().len());
/// ```
pub trait LanguageModel: Send + Sync {
    /// The vocabulary this model scores over.
    fn vocab(&self) -> &Vocabulary;

    /// Raw (pre-softmax) scores for the next token of every context, in
    /// order, with **per-item** results: one context's failure leaves its
    /// batch partners' answers intact, which is what lets a scheduler
    /// recover merged single-flight waiters individually instead of
    /// poisoning the whole batch.
    ///
    /// Returns exactly one result per context (none for an empty slice);
    /// each `Ok` vector has `self.vocab().len()` entries and depends only
    /// on its own context. In-process models never fail; backends that can
    /// (remote connections, fault-injection wrappers) classify failures as
    /// transient or fatal via [`LmError`](crate::LmError).
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>>;

    /// [`try_score_batch`](Self::try_score_batch) for one context.
    fn try_score(&self, context: &[TokenId]) -> LmResult<Logits> {
        self.try_score_batch(&[context])
            .pop()
            .expect("one result per context")
    }

    /// Infallible [`try_score`](Self::try_score).
    ///
    /// # Panics
    ///
    /// Panics if the model call fails (past any retry layer's budget).
    fn score(&self, context: &[TokenId]) -> Logits {
        self.try_score(context)
            .unwrap_or_else(|e| panic!("model call failed: {e}"))
    }

    /// Infallible [`try_score_batch`](Self::try_score_batch).
    ///
    /// # Panics
    ///
    /// Panics if any context's model call fails.
    fn score_batch(&self, contexts: &[&[TokenId]]) -> Vec<Logits> {
        self.try_score_batch(contexts)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("model call failed: {e}")))
            .collect()
    }
}

/// Models behind common smart pointers forward the two required methods.
macro_rules! forward_language_model {
    ($($ptr:ty),*) => {$(
        impl<L: LanguageModel + ?Sized> LanguageModel for $ptr {
            fn vocab(&self) -> &Vocabulary {
                (**self).vocab()
            }
            fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
                (**self).try_score_batch(contexts)
            }
        }
    )*};
}
forward_language_model!(&L, std::sync::Arc<L>, Box<L>);
