//! Deterministic models for tests.

use crate::{LanguageModel, LmResult, Logits};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::Arc;

/// A model that scores every token equally. With argmax decoding this
/// always picks the lowest token id — useful for exercising mask logic,
/// since the decoded token is whatever the mask admits first.
#[derive(Debug, Clone)]
pub struct UniformLm {
    bpe: Arc<Bpe>,
}

impl UniformLm {
    /// A uniform model over `bpe`'s vocabulary.
    pub fn new(bpe: Arc<Bpe>) -> Self {
        UniformLm { bpe }
    }
}

impl LanguageModel for UniformLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        vec![Ok(Logits::constant(self.bpe.vocab().len(), 0.0)); contexts.len()]
    }
}

/// A model that plays back a fixed text continuation regardless of prompt
/// content, then emits EOS.
///
/// The continuation is tracked by *generated length*: the `n`-th scored
/// context after [`MockLm::start`] puts all mass on the `n`-th token of the
/// scripted text. This makes unit tests for decoders fully deterministic.
///
/// For context-sensitive behaviour use
/// [`ScriptedLm`](crate::ScriptedLm) instead.
#[derive(Debug)]
pub struct MockLm {
    bpe: Arc<Bpe>,
    script: Vec<TokenId>,
    /// Context length at which generation starts (prompt length).
    base_len: std::sync::atomic::AtomicUsize,
}

impl MockLm {
    /// A model that will emit `text` then EOS.
    pub fn new(bpe: Arc<Bpe>, text: &str) -> Self {
        let script = bpe.encode(text);
        MockLm {
            bpe,
            script,
            base_len: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Declares the prompt length: generation offsets are counted from
    /// here. Decoders call this implicitly by scoring; tests call it when
    /// they change prompts mid-test.
    pub fn start(&self, prompt_len: usize) {
        self.base_len
            .store(prompt_len, std::sync::atomic::Ordering::SeqCst);
    }
}

impl LanguageModel for MockLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let base = self.base_len.load(std::sync::atomic::Ordering::SeqCst);
        contexts
            .iter()
            .map(|context| {
                let offset = context.len().saturating_sub(base);
                let mut logits = Logits::constant(self.bpe.vocab().len(), -10.0);
                match self.script.get(offset) {
                    Some(&t) => logits.set(t, 10.0),
                    None => logits.set(self.bpe.vocab().eos(), 10.0),
                }
                Ok(logits)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scores_equal() {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = UniformLm::new(bpe);
        let l = lm.score(&[]);
        assert!(l.scores().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn mock_plays_script_then_eos() {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = MockLm::new(Arc::clone(&bpe), "hi");
        lm.start(3);
        let ctx = vec![TokenId(0); 3];
        let first = lm.score(&ctx).softmax(1.0).argmax();
        assert_eq!(bpe.vocab().token_str(first), "h");
        let mut ctx2 = ctx.clone();
        ctx2.push(first);
        let second = lm.score(&ctx2).softmax(1.0).argmax();
        assert_eq!(bpe.vocab().token_str(second), "i");
        let mut ctx3 = ctx2.clone();
        ctx3.push(second);
        let third = lm.score(&ctx3).softmax(1.0).argmax();
        assert_eq!(third, bpe.vocab().eos());
    }
}
