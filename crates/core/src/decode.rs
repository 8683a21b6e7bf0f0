//! Constrained decoding (the paper's Alg. 2) and decoder strategies.

use crate::constraints::{MaskConfig, MaskEngine, MaskOutcome, Masker};
use crate::debug::StopReason;
use crate::{Error, Result, StreamSink};
use lmql_arena::Rope;
use lmql_lm::LanguageModel;
use lmql_tokenizer::{Bpe, TokenContext, TokenId, TokenSet, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Tunables shared by all decoders.
#[derive(Debug, Clone)]
pub struct DecodeOptions {
    /// Softmax temperature `τ` (§2.1).
    pub temperature: f64,
    /// Hard cap on tokens generated per hole (the `max_length`-style
    /// safety net; decoding stops at the cap with the value as-is).
    pub max_tokens_per_hole: usize,
    /// RNG seed for `sample` decoding.
    pub seed: u64,
    /// Mask-generation engine (§5): exact reference or symbolic FollowMap.
    pub engine: MaskEngine,
    /// Mask-generation tuning (memoization, constraint automata). The
    /// default turns both on; use [`MaskConfig::reference`] to recover
    /// the unaccelerated engines.
    pub mask: MaskConfig,
    /// HuggingFace-style n-gram blocking (the `no_repeat_ngram_size`
    /// decoder parameter of Fig. 11): a token is masked if appending it
    /// would repeat an n-gram already present in the context. `0`
    /// disables blocking.
    pub no_repeat_ngram: usize,
    /// Speculative scoring (§4): issue the model's forward pass in
    /// parallel with mask computation, hiding mask latency behind the
    /// model. Costs one extra (wasted) model query on the final step of
    /// each hole, exactly like the real system's speculative prediction.
    pub speculative: bool,
    /// Structured trace recorder. Disabled by default: a disabled tracer
    /// records nothing and allocates nothing, so leaving this at its
    /// default is free.
    pub tracer: lmql_obs::Tracer,
    /// Streaming event sink (DESIGN.md §11). Inactive by default: every
    /// emit is a no-op costing one branch. When active, the decode loop
    /// emits a [`TokenDelta`](crate::QueryEvent::TokenDelta) per picked
    /// token and checks the sink for cooperative cancellation between
    /// tokens.
    pub sink: crate::StreamSink,
    /// Program-level parallelism (DESIGN.md §14): decode provably
    /// independent holes concurrently and join them in program order.
    /// On by default; applies to `argmax` runs only (sampling threads
    /// one RNG through the holes and beams have their own batch loop).
    /// Disable to bisect — results are byte-identical either way.
    pub parallel_holes: bool,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            temperature: 1.0,
            max_tokens_per_hole: 64,
            seed: 0,
            engine: MaskEngine::default(),
            mask: MaskConfig::default(),
            no_repeat_ngram: 0,
            speculative: false,
            tracer: lmql_obs::Tracer::disabled(),
            sink: crate::StreamSink::none(),
            parallel_holes: true,
        }
    }
}

impl DecodeOptions {
    /// Applies the decoder clause's keyword parameters on top of these
    /// options (`temperature`, `max_length`, `no_repeat_ngram_size`).
    pub fn with_decoder_params(mut self, spec: &lmql_syntax::ast::DecoderSpec) -> Self {
        self.temperature = spec.float_param("temperature", self.temperature);
        self.max_tokens_per_hole = spec
            .int_param("max_length", self.max_tokens_per_hole as i64)
            .max(1) as usize;
        self.no_repeat_ngram = spec
            .int_param("no_repeat_ngram_size", self.no_repeat_ngram as i64)
            .max(0) as usize;
        self
    }
}

/// Fills `blocked` with the tokens that would repeat an `n`-gram already
/// present in `context` (HuggingFace's `no_repeat_ngram_size` semantics):
/// for the last `n-1` context tokens as a prefix, every token that
/// completed that prefix to an existing `n`-gram is blocked. The buffer is
/// the step's scratch ([`StepScratch`]), allocated once per hole instead
/// of once per token.
fn ngram_blocked_into(context: &[TokenId], n: usize, blocked: &mut TokenSet) {
    blocked.clear();
    if n == 0 || context.len() < n {
        return;
    }
    let prefix = &context[context.len() - (n - 1)..];
    for window in context.windows(n) {
        if &window[..n - 1] == prefix {
            blocked.insert(window[n - 1]);
        }
    }
}

/// How `pick` (Alg. 2, line 5) chooses from the masked distribution.
#[derive(Debug)]
pub enum Pick {
    /// Highest probability (greedy).
    Argmax,
    /// Sample from the categorical distribution.
    Sample(Box<StdRng>),
}

impl Pick {
    /// An argmax picker.
    pub fn argmax() -> Self {
        Pick::Argmax
    }

    /// A seeded sampler.
    pub fn sample(seed: u64) -> Self {
        Pick::Sample(Box::new(StdRng::seed_from_u64(seed)))
    }
}

/// The outcome of decoding one hole.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedValue {
    /// The hole's value (stop phrase included, if one triggered).
    pub value: String,
    /// Sum of masked log-probabilities of the chosen tokens.
    pub log_prob: f64,
    /// Number of tokens generated.
    pub tokens: usize,
    /// Why decoding ended.
    pub stopped_by: StopReason,
    /// Under an active sink, for a picked EOS: that step's admissible
    /// count and EOS log-probability, for the hole's
    /// [`VariableDone`](crate::QueryEvent::VariableDone).
    pub eos_step: Option<(usize, f64)>,
}

/// What one Alg. 2 step does, decided from its mask before any model
/// call. Argmax, sampling and beam search all classify a step through
/// [`StepScratch::plan`], so they stop, fail and fast-forward alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StepPlan {
    /// The hole ends here, its value as-is.
    Stop(StopReason),
    /// No token is admissible and EOS is not: Alg. 2's failure exit.
    DeadEnd,
    /// The automaton forces this token (EOS inadmissible): append it with
    /// log-prob 0.0 without scoring (fast-forward, DESIGN.md §12).
    Forced(TokenId),
    /// Score the context and pick under [`StepScratch::mask`].
    Score,
}

/// The decode step's caller-owned scratch, refilled in place each step
/// (one per hole, or one per beam search).
pub(crate) struct StepScratch {
    /// The last [`StepPlan::Score`] step's mask: the admissible tokens,
    /// plus EOS when admissible, minus the `no_repeat_ngram` block.
    pub(crate) mask: TokenSet,
    /// The n-gram block (absent, and free, when blocking is off).
    blocked: Option<TokenSet>,
    eos: TokenId,
}

impl StepScratch {
    pub(crate) fn new(vocab: &Vocabulary, options: &DecodeOptions) -> Self {
        StepScratch {
            mask: TokenSet::empty(vocab.len()),
            blocked: (options.no_repeat_ngram > 0).then(|| TokenSet::empty(vocab.len())),
            eos: vocab.eos(),
        }
    }

    /// Classifies one step of a hole that has generated `tokens` tokens
    /// onto `context`, given `outcome`, the mask `masker` computed last.
    /// The checks run in one order for every decoder: a completed stop
    /// phrase, then an empty mask with EOS admissible, then the token
    /// budget, then the dead end, then the n-gram block (which may
    /// exhaust the mask), then the automaton's forced token.
    pub(crate) fn plan(
        &mut self,
        masker: &Masker,
        outcome: &MaskOutcome,
        tokens: usize,
        context: &[TokenId],
        options: &DecodeOptions,
    ) -> StepPlan {
        if outcome.must_stop {
            return StepPlan::Stop(StopReason::StopPhrase);
        }
        if outcome.allowed.is_empty() && outcome.eos_allowed {
            return StepPlan::Stop(StopReason::MaskExhausted);
        }
        if tokens >= options.max_tokens_per_hole {
            return StepPlan::Stop(StopReason::Budget);
        }
        if outcome.is_dead_end() {
            return StepPlan::DeadEnd;
        }
        self.mask.fill_from(&outcome.allowed);
        if outcome.eos_allowed {
            self.mask.insert(self.eos);
        }
        if let Some(blocked) = &mut self.blocked {
            ngram_blocked_into(context, options.no_repeat_ngram, blocked);
            self.mask.subtract_with(blocked);
            if self.mask.is_empty() {
                return StepPlan::Stop(StopReason::MaskExhausted);
            }
        }
        masker
            .forced_token(outcome)
            .map_or(StepPlan::Score, StepPlan::Forced)
    }
}

/// A hole being decoded: its value so far and the number of tokens
/// generated into it. The tokens themselves are pushed onto the run's
/// [`TokenContext`] as-is, extending the trace's encoding into Alg. 2's
/// `uv` (no per-step re-encoding, which could even re-factorise the value
/// differently).
#[derive(Debug, Clone, Default)]
pub(crate) struct HoleState {
    pub(crate) value: String,
    pub(crate) tokens: usize,
}

impl HoleState {
    /// Alg. 2's append: streams `t` as `var`'s next
    /// [`TokenDelta`](crate::QueryEvent::TokenDelta) with its log-prob and
    /// the step's `(admissible count, EOS admissible)`, then extends the
    /// value and pushes `t` onto `context`. Returns the token's text.
    pub(crate) fn append<'v>(
        &mut self,
        context: &mut TokenContext,
        sink: &StreamSink,
        vocab: &'v Vocabulary,
        var: &str,
        (t, log_prob): (TokenId, f64),
        (allowed, eos_allowed): (usize, bool),
    ) -> &'v str {
        let text = vocab.token_str(t);
        sink.token_delta(var, text, log_prob, allowed, eos_allowed);
        self.value.push_str(text);
        context.push(t);
        self.tokens += 1;
        text
    }
}

/// Brings `context` up to `trace`, appending the bytes it has not seen
/// (through `buf`, a reused scratch): a hole's value and the template
/// text after it are encoded once, from the context's open chunk on.
pub(crate) fn sync_context(bpe: &Bpe, context: &mut TokenContext, trace: &Rope, buf: &mut String) {
    trace.write_suffix(context.text_len(), buf);
    context.append(bpe, buf);
}

/// Drops the tokens a hole pushed onto the context when decoding ends,
/// on every exit path.
struct PushedTokens<'a>(&'a mut TokenContext);

impl Drop for PushedTokens<'_> {
    fn drop(&mut self) {
        self.0.truncate_pushed();
    }
}

/// Decodes a value for hole `var` given `context`, the encoding of the
/// interaction trace so far.
///
/// The hole's tokens are pushed onto `context` while it decodes and
/// truncated off again before this returns, so the caller's context is
/// left as it was passed in.
///
/// Implements Alg. 2: at each step compute the mask, stop on dead ends or
/// forced stops, renormalise the masked distribution, pick a token, append.
///
/// Under an active sink each picked token streams as a
/// [`TokenDelta`](crate::QueryEvent::TokenDelta) carrying its step's
/// mask size and EOS flag — the Appendix A.3 debugger's row.
///
/// # Errors
///
/// [`Error::NoValidContinuation`] when every token is masked and EOS is
/// inadmissible before any progress can be made.
#[allow(clippy::too_many_arguments)]
pub fn decode_hole<L: LanguageModel + ?Sized>(
    lm: &L,
    bpe: &Arc<Bpe>,
    masker: &mut Masker,
    where_expr: Option<&lmql_syntax::ast::Expr>,
    scope: &HashMap<String, crate::Value>,
    context: &mut TokenContext,
    var: &str,
    pick: &mut Pick,
    options: &DecodeOptions,
) -> Result<DecodedValue> {
    let (tracer, sink) = (options.tracer.clone(), &options.sink);
    let mut hole_span = tracer.span_lazy("decode", || format!("hole:{var}"));
    let vocab = bpe.vocab();
    let context = PushedTokens(context);
    let mut hole = HoleState::default();
    let mut log_prob = 0.0;
    let mut eos_step = None;
    // Per-hole scratch, refilled in place each step: with the automata
    // path serving pooled outcomes and the in-place softmax/mask below,
    // the steady-state loop body allocates nothing beyond the model's
    // own logits buffer (pinned by `tests/alloc_budget.rs`).
    let mut step = StepScratch::new(vocab, options);
    let mut dist = lmql_lm::Distribution::empty();
    let no_valid_continuation = || Error::NoValidContinuation {
        var: var.to_owned(),
    };

    let stopped_by = loop {
        // Cooperative cancellation: a dropped stream handle (or a
        // disconnected client) stops the run between tokens.
        if sink.cancelled() {
            return Err(Error::Cancelled);
        }
        // Speculative mode (§4): kick off the forward pass while the mask
        // is being computed; the logits are wasted if this step turns out
        // to stop decoding.
        let (speculative_logits, outcome) = if options.speculative {
            let (logits, outcome) = std::thread::scope(|scope_| {
                let handle = scope_.spawn(|| {
                    let _span = tracer.span("model", "score_speculative");
                    lm.try_score(context.0.tokens())
                });
                let outcome = masker.compute(where_expr, scope, var, &hole.value);
                (handle.join().expect("scoring thread panicked"), outcome)
            });
            (Some(logits), outcome)
        } else {
            (None, masker.compute(where_expr, scope, var, &hole.value))
        };
        let plan = step.plan(masker, &outcome, hole.tokens, context.0.tokens(), options);
        let allowed = (sink.mask_size(&outcome.allowed), outcome.eos_allowed);
        masker.recycle(outcome);
        match plan {
            StepPlan::Stop(reason) => break reason,
            StepPlan::DeadEnd => return Err(no_valid_continuation()),
            // Speculative mode already paid for the forward pass, so it
            // keeps the scored path.
            StepPlan::Forced(t) if speculative_logits.is_none() => {
                let mut ff_span = tracer.span("decode", "fast_forward");
                if let Pick::Sample(rng) = pick {
                    // The scored path draws one uniform sample per
                    // token; a singleton distribution maps every draw
                    // to `t`. Burn the draw so the RNG stream — and
                    // every later sampled token — stays identical.
                    let _: f64 = rng.gen();
                }
                masker.note_fast_forward(1);
                let text = hole.append(context.0, sink, vocab, var, (t, 0.0), allowed);
                if ff_span.is_recording() {
                    ff_span.arg("token", text.to_owned());
                }
                continue;
            }
            StepPlan::Forced(_) | StepPlan::Score => {}
        }
        let logits = match speculative_logits {
            Some(logits) => logits?,
            None => {
                let mut span = tracer.span("model", "score");
                span.arg("context_tokens", context.0.tokens().len() as u64);
                lm.try_score(context.0.tokens())?
            }
        };
        // In-place softmax + mask renormalisation into the per-hole
        // scratch: bit-identical to `softmax(..)` / `masked(..)` (same
        // floating-point operation order), zero allocations at steady
        // state.
        logits.softmax_into(options.temperature, &mut dist);
        if !dist.mask_in_place(&step.mask) {
            return Err(no_valid_continuation());
        }
        let t = match pick {
            Pick::Argmax => dist.argmax(),
            Pick::Sample(rng) => dist.sample(rng),
        };
        let lp = dist.log_prob(t);
        if t == vocab.eos() {
            eos_step = sink.is_active().then_some((allowed.0, lp));
            break StopReason::Eos;
        }
        log_prob += lp;
        hole.append(context.0, sink, vocab, var, (t, lp), allowed);
    };

    if hole_span.is_recording() {
        hole_span.arg("tokens", hole.tokens as u64);
        hole_span.arg("stopped_by", format!("{stopped_by:?}"));
    }
    Ok(DecodedValue {
        value: hole.value,
        log_prob,
        tokens: hole.tokens,
        stopped_by,
        eos_step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_lm::{Episode, ScriptedLm};
    use lmql_syntax::parse_expr;

    fn context(bpe: &Bpe, trace: &str) -> TokenContext {
        let mut context = TokenContext::new();
        context.append(bpe, trace);
        context
    }

    fn setup(script: &str) -> (Arc<Bpe>, ScriptedLm, Masker) {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("P:", script)]);
        let masker = Masker::new(MaskEngine::Exact, bpe.clone());
        (bpe, lm, masker)
    }

    #[test]
    fn unconstrained_decodes_script_to_eos() {
        let (bpe, lm, mut masker) = setup(" hello.");
        let out = decode_hole(
            &lm,
            &bpe,
            &mut masker,
            None,
            &HashMap::new(),
            &mut context(&bpe, "P:"),
            "X",
            &mut Pick::argmax(),
            &DecodeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.value, " hello.");
        assert!(out.tokens > 0);
    }

    #[test]
    fn stops_at_truncates_inclusively() {
        let (bpe, lm, mut masker) = setup(" one. two. three.");
        let e = parse_expr("stops_at(X, \".\")").unwrap();
        let out = decode_hole(
            &lm,
            &bpe,
            &mut masker,
            Some(&e),
            &HashMap::new(),
            &mut context(&bpe, "P:"),
            "X",
            &mut Pick::argmax(),
            &DecodeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.value, " one.");
    }

    #[test]
    fn membership_constraint_forces_option() {
        // The script says " maybe" but the constraint only allows yes/no;
        // masking forces the model onto an option.
        let (bpe, lm, mut masker) = setup(" maybe");
        let e = parse_expr("X in [\" yes\", \" no\"]").unwrap();
        let out = decode_hole(
            &lm,
            &bpe,
            &mut masker,
            Some(&e),
            &HashMap::new(),
            &mut context(&bpe, "P:"),
            "X",
            &mut Pick::argmax(),
            &DecodeOptions::default(),
        )
        .unwrap();
        assert!(out.value == " yes" || out.value == " no");
    }

    #[test]
    fn max_tokens_caps_generation() {
        let (bpe, lm, mut masker) = setup(" this is a very long script that keeps going");
        let opts = DecodeOptions {
            max_tokens_per_hole: 5,
            ..DecodeOptions::default()
        };
        let out = decode_hole(
            &lm,
            &bpe,
            &mut masker,
            None,
            &HashMap::new(),
            &mut context(&bpe, "P:"),
            "X",
            &mut Pick::argmax(),
            &opts,
        )
        .unwrap();
        assert_eq!(out.tokens, 5);
    }

    #[test]
    fn impossible_constraint_is_dead_end() {
        let (bpe, lm, mut masker) = setup(" x");
        let e = parse_expr("X in [\"a\"] and X in [\"b\"]").unwrap();
        let err = decode_hole(
            &lm,
            &bpe,
            &mut masker,
            Some(&e),
            &HashMap::new(),
            &mut context(&bpe, "P:"),
            "X",
            &mut Pick::argmax(),
            &DecodeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::NoValidContinuation { .. }));
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let (bpe, lm, mut masker) = setup(" result text here");
        let mut run = |seed| {
            decode_hole(
                &lm,
                &bpe,
                &mut masker,
                None,
                &HashMap::new(),
                &mut context(&bpe, "P:"),
                "X",
                &mut Pick::sample(seed),
                &DecodeOptions {
                    temperature: 1.5,
                    ..DecodeOptions::default()
                },
            )
            .unwrap()
            .value
        };
        assert_eq!(run(7), run(7));
    }
}
