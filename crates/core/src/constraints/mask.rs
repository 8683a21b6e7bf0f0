//! Decoding-mask generation: Alg. 2's `compute_mask`.
//!
//! Two engines produce the mask:
//!
//! - [`MaskEngine::Exact`] — the reference engine: evaluate the `where`
//!   clause under `v ← u·t` with FINAL semantics for every candidate token
//!   `t` and mask the `FIN(⊥)` ones. Always sound and complete for
//!   one-token lookahead; costs one expression evaluation per vocabulary
//!   entry per step.
//! - [`MaskEngine::Symbolic`] — the FollowMap engine of §5.2: compose
//!   per-operator FOLLOW sets through the constraint expression and
//!   resolve them to vocabulary bitmasks via the prefix trie. The ablation
//!   benchmark `followmap` compares the two.
//!
//! Both engines additionally enforce `stops_at` *containment*: a token
//! that would extend the value past a stopping phrase (the phrase would
//! appear strictly inside the value) is masked, so decoding halts exactly
//! at the phrase.

use crate::constraints::automata_cache::{AutomataCache, AutomatonKey};
use crate::constraints::eval::{eval_final, EvalCtx};
use crate::constraints::follow::{follow_sets, scan_vocab, FollowCtx, ScanCache, SetPool};
use crate::constraints::memo::{MaskKey, MaskMemo};
use crate::Value;
use lmql_syntax::ast::Expr;
use lmql_tokenizer::{TokenSet, TokenTrie, Vocabulary};
use std::collections::HashMap;
use std::sync::Arc;

/// Which mask-generation engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskEngine {
    /// Per-token FINAL evaluation (reference).
    Exact,
    /// Symbolic FollowMap composition (default; falls back to per-token
    /// evaluation for unrecognised leaf shapes).
    #[default]
    Symbolic,
}

/// Tuning knobs for mask generation. The defaults memoize and compile
/// automata; every fast path can be disabled to recover the reference
/// behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskConfig {
    /// Memoize mask outcomes keyed on `(expr, referenced scope values,
    /// var, value)` (see [`MaskMemo`]).
    pub memo: bool,
    /// Capacity of the per-masker memo created when no shared memo is
    /// installed.
    pub memo_capacity: usize,
    /// Compile eager `where` clauses to constraint automata and serve
    /// masks per automaton state (DESIGN.md §12). Clauses that don't
    /// compile — custom operators above all — fall back transparently.
    pub automata: bool,
}

impl Default for MaskConfig {
    fn default() -> Self {
        MaskConfig {
            memo: true,
            memo_capacity: 256,
            automata: true,
        }
    }
}

impl MaskConfig {
    /// The reference configuration: no memo, no automata.
    pub fn reference() -> Self {
        MaskConfig {
            memo: false,
            automata: false,
            ..MaskConfig::default()
        }
    }
}

/// Counter handles for mask-generation metrics, registered once and
/// bumped lock-free on the decode path.
#[derive(Debug, Clone)]
pub struct MaskMetrics {
    hits: lmql_obs::Counter,
    misses: lmql_obs::Counter,
    scan_tokens: lmql_obs::Counter,
    automata_hits: lmql_obs::Counter,
    automata_fallbacks: lmql_obs::Counter,
    fast_forwarded: lmql_obs::Counter,
    automata_states: lmql_obs::Gauge,
    compile_us: lmql_obs::Histogram,
}

impl MaskMetrics {
    /// Registers (or re-attaches to) the mask counters in `registry`:
    /// `mask.cache.hit`, `mask.cache.miss`, `mask.scan.tokens`
    /// (candidates classified by a per-token scan: the Exact engine's
    /// every step, the FollowMap engine's fallback leaves), plus the
    /// automaton family — `automata.hit` (mask served from a
    /// cached automaton state), `automata.fallback` (clause didn't
    /// compile), `automata.fast_forwarded_tokens` (tokens appended
    /// without an LM call), `automata.states` (distinct states
    /// discovered) and the `automata.compile_us` histogram.
    pub fn register(registry: &lmql_obs::Registry) -> Self {
        MaskMetrics {
            hits: registry.counter("mask.cache.hit"),
            misses: registry.counter("mask.cache.miss"),
            scan_tokens: registry.counter("mask.scan.tokens"),
            automata_hits: registry.counter("automata.hit"),
            automata_fallbacks: registry.counter("automata.fallback"),
            fast_forwarded: registry.counter("automata.fast_forwarded_tokens"),
            automata_states: registry.gauge("automata.states"),
            compile_us: registry.histogram("automata.compile_us"),
        }
    }
}

/// The result of one mask computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskOutcome {
    /// Admissible regular (non-EOS) tokens.
    pub allowed: TokenSet,
    /// Whether ending the hole here satisfies the constraints.
    pub eos_allowed: bool,
    /// A `stops_at` phrase is already satisfied: the decoder must stop and
    /// keep the phrase in the value.
    pub must_stop: bool,
}

impl MaskOutcome {
    /// `true` when no token can be produced and EOS is inadmissible —
    /// Alg. 2's failure exit.
    pub fn is_dead_end(&self) -> bool {
        !self.must_stop && !self.eos_allowed && self.allowed.is_empty()
    }
}

/// Stateful mask generator for one query run (owns the scan caches and
/// scratch-set pool; optionally shares a [`MaskMemo`] across runs).
pub struct Masker {
    engine: MaskEngine,
    vocab_owner: Arc<dyn VocabSource>,
    trie: TokenTrie,
    cache: ScanCache,
    custom: crate::constraints::CustomOps,
    tracer: lmql_obs::Tracer,
    config: MaskConfig,
    memo: Option<Arc<MaskMemo>>,
    pool: SetPool,
    metrics: Option<MaskMetrics>,
    /// Shared store of compiled automata (lazily created when
    /// [`MaskConfig::automata`] is on and none was installed).
    automata: Option<Arc<AutomataCache>>,
    /// The automaton (or cached rejection) for the clause computed last,
    /// so steady-state steps skip the cache mutex entirely.
    current_automaton: Option<(AutomatonKey, Option<Arc<lmql_automata::Automaton>>)>,
    /// Reusable product-state scratch buffer (zero-alloc hot path).
    state_key: Vec<u64>,
    /// Whether the last computed outcome came from an automaton state —
    /// the precondition for [`Masker::forced_token`].
    last_from_automaton: bool,
}

/// Anything that can lend a [`Vocabulary`] (object-safe facade so `Masker`
/// can hold tokenizers of any kind).
pub trait VocabSource: Send + Sync {
    /// The vocabulary to mask over.
    fn vocabulary(&self) -> &Vocabulary;
}

impl VocabSource for lmql_tokenizer::Bpe {
    fn vocabulary(&self) -> &Vocabulary {
        self.vocab()
    }
}

impl std::fmt::Debug for Masker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Masker")
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl Masker {
    /// A masker over the tokenizer's vocabulary.
    pub fn new(engine: MaskEngine, vocab_owner: Arc<dyn VocabSource>) -> Self {
        let trie = TokenTrie::new(vocab_owner.vocabulary());
        let pool = SetPool::new(vocab_owner.vocabulary().len());
        Masker {
            engine,
            vocab_owner,
            trie,
            cache: ScanCache::default(),
            custom: crate::constraints::CustomOps::new(),
            tracer: lmql_obs::Tracer::disabled(),
            config: MaskConfig::default(),
            memo: None,
            pool,
            metrics: None,
            automata: None,
            current_automaton: None,
            state_key: Vec::new(),
            last_from_automaton: false,
        }
    }

    /// Installs user-defined constraint operators (Appendix A.1).
    pub fn with_custom_ops(mut self, ops: crate::constraints::CustomOps) -> Self {
        self.custom = ops;
        self
    }

    /// Installs a trace recorder: every mask computation records a span,
    /// with a nested span for the engine-specific evaluation (FollowMap
    /// composition or exact per-token FINAL evaluation).
    pub fn with_tracer(mut self, tracer: lmql_obs::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides the mask-generation configuration.
    pub fn with_config(mut self, config: MaskConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a shared memo (e.g. the engine's cross-query memo). Only
    /// sound when every sharer masks over the same vocabulary object —
    /// the memo key carries the vocabulary identity, so a mismatch costs
    /// misses, never wrong bits.
    pub fn with_memo(mut self, memo: Arc<MaskMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Registers and bumps mask metrics in `registry`.
    pub fn with_metrics(mut self, registry: &lmql_obs::Registry) -> Self {
        self.metrics = Some(MaskMetrics::register(registry));
        self
    }

    /// Installs a shared automata cache (e.g. the engine's cross-query
    /// cache). Like [`Masker::with_memo`], sharing is always sound: the
    /// automaton key carries vocabulary identity, engine, operator
    /// generation and scope fingerprints.
    pub fn with_automata_cache(mut self, cache: Arc<AutomataCache>) -> Self {
        self.automata = Some(cache);
        self
    }

    /// The engine in use.
    pub fn engine(&self) -> MaskEngine {
        self.engine
    }

    /// The active configuration.
    pub fn config(&self) -> MaskConfig {
        self.config
    }

    /// Computes the mask for the next token of hole `var`, currently
    /// holding `value`, under `where_expr` and the scope.
    ///
    /// With [`MaskConfig::memo`] enabled, the outcome is served from the
    /// memo when this exact `(expr, referenced scope values, var, value)`
    /// state was computed before — bit-identical by construction, since
    /// the mask is a pure function of the key.
    pub fn compute(
        &mut self,
        where_expr: Option<&Expr>,
        scope: &HashMap<String, Value>,
        var: &str,
        value: &str,
    ) -> MaskOutcome {
        let mut mask_span = self.tracer.span("mask", "compute_mask");
        self.last_from_automaton = false;
        let Some(expr) = where_expr else {
            // Unconstrained hole: everything is admissible.
            let eos = self.vocab_owner.vocabulary().eos();
            let mut allowed = self.pool.take_full();
            allowed.remove(eos);
            return MaskOutcome {
                allowed,
                eos_allowed: true,
                must_stop: false,
            };
        };

        // Constraint-automaton path (DESIGN.md §12): when the clause
        // compiles, the mask is a pure function of the automaton state,
        // so a revisited state is a hash lookup instead of a vocabulary
        // scan. A state's first visit delegates to `compute_uncached` —
        // the masks served here are the engine's own bits.
        if self.config.automata {
            if let Some(aut) = self.automaton_for(expr, scope, var) {
                let mut key = std::mem::take(&mut self.state_key);
                aut.state_of(value, &mut key);
                if let Some(hit) = aut.cached(&key) {
                    self.state_key = key;
                    self.last_from_automaton = true;
                    if let Some(m) = &self.metrics {
                        m.automata_hits.inc();
                    }
                    if mask_span.is_recording() {
                        mask_span.arg("automaton_hit", 1u64);
                    }
                    // Pooled copy: at steady state (decode loops recycle
                    // outcomes via `Masker::recycle`) serving a cached
                    // state allocates nothing.
                    return MaskOutcome {
                        allowed: self.pool.take_copy(&hit.allowed),
                        eos_allowed: hit.eos_allowed,
                        must_stop: hit.must_stop,
                    };
                }
                let outcome = self.compute_uncached(expr, scope, var, value, &mut mask_span);
                let (_, new_state) = aut.insert(
                    &key,
                    lmql_automata::StateMask {
                        allowed: outcome.allowed.clone(),
                        eos_allowed: outcome.eos_allowed,
                        must_stop: outcome.must_stop,
                    },
                );
                if new_state {
                    if let Some(m) = &self.metrics {
                        m.automata_states.add(1);
                    }
                }
                self.state_key = key;
                self.last_from_automaton = true;
                return outcome;
            }
            if let Some(m) = &self.metrics {
                m.automata_fallbacks.inc();
            }
        }

        let key = if self.config.memo {
            let vlen = self.vocab_owner.vocabulary().len();
            let key = MaskKey::new(
                self.engine,
                (Arc::as_ptr(&self.vocab_owner).cast::<()>() as usize, vlen),
                self.custom.generation(),
                expr,
                scope,
                var,
                value,
            );
            let memo = self
                .memo
                .get_or_insert_with(|| MaskMemo::new(self.config.memo_capacity));
            if let Some(hit) = memo.get(&key) {
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                if mask_span.is_recording() {
                    mask_span.arg("memo_hit", 1u64);
                }
                return hit;
            }
            if let Some(m) = &self.metrics {
                m.misses.inc();
            }
            Some(key)
        } else {
            None
        };

        let outcome = self.compute_uncached(expr, scope, var, value, &mut mask_span);
        if let Some(key) = key {
            self.memo
                .as_ref()
                .expect("memo created by the lookup above")
                .insert(key, outcome.clone());
        }
        outcome
    }

    /// The compiled automaton for the clause, compiling (and caching the
    /// result, including rejections) on first sight. The last-used slot
    /// keeps steady-state decode steps off the cache mutex.
    fn automaton_for(
        &mut self,
        expr: &Expr,
        scope: &HashMap<String, Value>,
        var: &str,
    ) -> Option<Arc<lmql_automata::Automaton>> {
        let vlen = self.vocab_owner.vocabulary().len();
        let key = AutomatonKey::new(
            self.engine,
            (Arc::as_ptr(&self.vocab_owner).cast::<()>() as usize, vlen),
            self.custom.generation(),
            expr,
            scope,
            var,
        );
        if let Some((cached_key, slot)) = &self.current_automaton {
            if *cached_key == key {
                return slot.clone();
            }
        }
        let cache = match &self.automata {
            Some(c) => Arc::clone(c),
            None => {
                let c = AutomataCache::new();
                self.automata = Some(Arc::clone(&c));
                c
            }
        };
        let custom = &self.custom;
        let metrics = &self.metrics;
        let slot = cache.get_or_compile(key, || {
            let started = std::time::Instant::now();
            let compiled = lmql_automata::compile(
                expr,
                var,
                &crate::constraints::automata_cache::ScopeValues(scope),
                &|name| custom.contains(name),
            );
            if let Some(m) = metrics {
                m.compile_us.record(started.elapsed().as_micros() as u64);
            }
            compiled.ok()
        });
        self.current_automaton = Some((key, slot.clone()));
        slot
    }

    /// When the automaton produced the last outcome and that outcome
    /// admits exactly one token (and forbids ending the hole), returns
    /// it: the decoder can append it without querying the model
    /// (SGLang-style fast-forwarding). `None` for FollowMap-path
    /// outcomes — only automaton states are cheap enough to prove the
    /// singleton chain step by step.
    pub fn forced_token(&self, outcome: &MaskOutcome) -> Option<lmql_tokenizer::TokenId> {
        if !self.last_from_automaton || outcome.must_stop || outcome.eos_allowed {
            return None;
        }
        let mut it = outcome.allowed.iter();
        let t = it.next()?;
        it.next().is_none().then_some(t)
    }

    /// Records `n` fast-forwarded (forced, not model-scored) tokens.
    pub fn note_fast_forward(&self, n: u64) {
        if let Some(m) = &self.metrics {
            m.fast_forwarded.add(n);
        }
    }

    /// Returns a consumed outcome's bitset to the scratch pool. Decode
    /// loops call this once per step so the next [`Masker::compute`] can
    /// reuse the allocation instead of making a new one — the pool half
    /// of the steady-state zero-allocation contract (DESIGN.md §13).
    pub fn recycle(&mut self, outcome: MaskOutcome) {
        self.pool.put(outcome.allowed);
    }

    /// Takes a pooled copy of `mask` (same bits, recycled allocation
    /// when one is available). Pair with [`Masker::recycle_mask`].
    pub fn pooled_copy(&mut self, mask: &TokenSet) -> TokenSet {
        self.pool.take_copy(mask)
    }

    /// Returns a scratch bitset taken via [`Masker::pooled_copy`] to the
    /// pool.
    pub fn recycle_mask(&mut self, mask: TokenSet) {
        self.pool.put(mask);
    }

    fn compute_uncached(
        &mut self,
        expr: &Expr,
        scope: &HashMap<String, Value>,
        var: &str,
        value: &str,
        mask_span: &mut lmql_obs::SpanGuard,
    ) -> MaskOutcome {
        let stop_phrases = collect_stop_phrases(expr, var);
        if stop_phrases.iter().any(|s| value.ends_with(s.as_str())) {
            return MaskOutcome {
                allowed: self.pool.take_empty(),
                eos_allowed: true,
                must_stop: true,
            };
        }

        // EOS admissibility: the completed value must not make the clause
        // false. Undetermined (future holes) is tolerated.
        let final_eval = eval_final(
            expr,
            &EvalCtx {
                scope,
                var,
                value,
                var_final: true,
                custom: Some(&self.custom),
            },
        );
        let eos_allowed = final_eval.truthy() != Some(false);

        let (mut allowed, scanned) = match self.engine {
            MaskEngine::Exact => {
                let _span = self.tracer.span("mask", "exact_eval");
                self.exact_allowed(expr, scope, var, value)
            }
            MaskEngine::Symbolic => {
                let _span = self.tracer.span("mask", "follow_eval");
                let mut ctx = FollowCtx {
                    scope,
                    var,
                    value,
                    vocab: self.vocab_owner.vocabulary(),
                    trie: &self.trie,
                    cache: &mut self.cache,
                    custom: Some(&self.custom),
                    pool: &mut self.pool,
                    scanned: 0,
                };
                let fs = follow_sets(expr, &mut ctx);
                let scanned = ctx.scanned;
                let mut allowed = fs.definitely_false;
                self.pool.put(fs.definitely_true);
                allowed.complement_in_place();
                (allowed, scanned)
            }
        };
        if scanned > 0 {
            if let Some(m) = &self.metrics {
                m.scan_tokens.add(scanned);
            }
        }
        let vocab = self.vocab_owner.vocabulary();
        allowed.remove(vocab.eos());

        // stops_at containment: mask tokens that run past a stop phrase.
        for phrase in &stop_phrases {
            allowed.subtract_with(self.cache.tokens_containing_beyond(vocab, phrase));
            // Cross-boundary overruns: value ends with a proper prefix of
            // the phrase; tokens that complete the phrase *and continue*
            // are masked (tokens completing it exactly are fine).
            for (k, _) in phrase.char_indices().skip(1) {
                if value.ends_with(&phrase[..k]) {
                    for t in self.trie.tokens_with_prefix(&phrase[k..]) {
                        if vocab.token_str(t).len() > phrase.len() - k {
                            allowed.remove(t);
                        }
                    }
                }
            }
        }

        if mask_span.is_recording() {
            mask_span.arg("allowed", allowed.count() as u64);
            mask_span.arg("eos_allowed", u64::from(eos_allowed));
        }
        MaskOutcome {
            allowed,
            eos_allowed,
            must_stop: false,
        }
    }

    /// The Exact engine's admissible tokens and the number of candidates
    /// it classified.
    fn exact_allowed(
        &mut self,
        expr: &Expr,
        scope: &HashMap<String, Value>,
        var: &str,
        value: &str,
    ) -> (TokenSet, u64) {
        let mut allowed = self.pool.take_empty();
        let custom = &self.custom;
        // A token is allowed unless FINAL evaluation is definitely false.
        let scanned = scan_vocab(self.vocab_owner.vocabulary(), value, |id, candidate| {
            let fv = eval_final(
                expr,
                &EvalCtx {
                    scope,
                    var,
                    value: candidate,
                    var_final: false,
                    custom: Some(custom),
                },
            );
            if !fv.is_definitely_false() {
                allowed.insert(id);
            }
        });
        (allowed, scanned)
    }
}

/// Extracts the `stops_at(var, phrase)` phrases applying to `var` from a
/// constraint expression.
pub fn collect_stop_phrases(expr: &Expr, var: &str) -> Vec<String> {
    let mut out = Vec::new();
    walk_stop_phrases(expr, var, &mut out);
    out
}

fn walk_stop_phrases(expr: &Expr, var: &str, out: &mut Vec<String>) {
    match expr {
        Expr::Call { func, args, .. } => {
            if let Expr::Name { name, .. } = func.as_ref() {
                if name == "stops_at" && args.len() == 2 {
                    if let (Expr::Name { name: v, .. }, Expr::Str { value: s, .. }) =
                        (&args[0], &args[1])
                    {
                        if v == var {
                            out.push(s.clone());
                        }
                    }
                }
            }
        }
        Expr::BoolOp { operands, .. } => {
            for o in operands {
                walk_stop_phrases(o, var, out);
            }
        }
        Expr::Not { operand, .. } => walk_stop_phrases(operand, var, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_syntax::parse_expr;
    use lmql_tokenizer::Bpe;

    fn masker(engine: MaskEngine) -> (Masker, Arc<Bpe>) {
        let bpe = Arc::new(Bpe::char_level(""));
        (Masker::new(engine, bpe.clone()), bpe)
    }

    fn allowed_strs(m: &MaskOutcome, bpe: &Bpe) -> Vec<String> {
        m.allowed
            .iter()
            .map(|t| bpe.vocab().token_str(t).to_owned())
            .collect()
    }

    #[test]
    fn no_where_allows_everything_but_eos() {
        let (mut m, bpe) = masker(MaskEngine::Exact);
        let out = m.compute(None, &HashMap::new(), "X", "");
        assert!(out.eos_allowed);
        assert_eq!(out.allowed.count(), bpe.vocab().len() - 1);
    }

    #[test]
    fn engines_agree_on_membership() {
        let e = parse_expr("X in [\"yes\", \"no\"]").unwrap();
        let scope = HashMap::new();
        let (mut exact, bpe) = masker(MaskEngine::Exact);
        let (mut symb, _) = masker(MaskEngine::Symbolic);
        for value in ["", "y", "n", "ye"] {
            let a = exact.compute(Some(&e), &scope, "X", value);
            let b = symb.compute(Some(&e), &scope, "X", value);
            assert_eq!(
                allowed_strs(&a, &bpe),
                allowed_strs(&b, &bpe),
                "value {value:?}"
            );
            assert_eq!(a.eos_allowed, b.eos_allowed, "value {value:?}");
        }
    }

    #[test]
    fn membership_mask_allows_only_aligned() {
        let e = parse_expr("X in [\"yes\", \"no\"]").unwrap();
        let (mut m, bpe) = masker(MaskEngine::Symbolic);
        let out = m.compute(Some(&e), &HashMap::new(), "X", "");
        let allowed = allowed_strs(&out, &bpe);
        assert_eq!(allowed, vec!["n", "y"]);
        assert!(!out.eos_allowed, "empty string is not a valid option");
        let out = m.compute(Some(&e), &HashMap::new(), "X", "yes");
        assert!(out.eos_allowed);
        assert!(out.allowed.is_empty());
    }

    #[test]
    fn stop_phrase_triggers_must_stop() {
        let e = parse_expr("stops_at(X, \".\")").unwrap();
        let (mut m, _) = masker(MaskEngine::Exact);
        let out = m.compute(Some(&e), &HashMap::new(), "X", "done.");
        assert!(out.must_stop);
        let out = m.compute(Some(&e), &HashMap::new(), "X", "done");
        assert!(!out.must_stop);
    }

    #[test]
    fn stop_phrase_masks_overruns() {
        // Char-level vocab: the "." token itself is allowed (ends with the
        // phrase); any multi-char token containing "." mid-way would be
        // masked — at char level every token is length 1, so check the
        // boundary rule with a phrase of length 2.
        let e = parse_expr("stops_at(X, \"ab\")").unwrap();
        let (mut m, bpe) = masker(MaskEngine::Exact);
        let out = m.compute(Some(&e), &HashMap::new(), "X", "xa");
        // Token "b" completes the phrase exactly: allowed.
        let b = bpe.vocab().id_of("b").unwrap();
        assert!(out.allowed.contains(b));
        assert!(!out.must_stop);
    }

    #[test]
    fn dead_end_detected() {
        let e = parse_expr("X in [\"a\"] and X in [\"b\"]").unwrap();
        let (mut m, _) = masker(MaskEngine::Exact);
        let out = m.compute(Some(&e), &HashMap::new(), "X", "");
        assert!(out.is_dead_end());
    }

    #[test]
    fn collect_stop_phrases_finds_all() {
        let e = parse_expr(
            "stops_at(R, \"?\") and stops_at(R, \"\\n\") and stops_at(OTHER, \"!\") and len(R) < 5",
        )
        .unwrap();
        assert_eq!(collect_stop_phrases(&e, "R"), vec!["?", "\n"]);
        assert_eq!(collect_stop_phrases(&e, "OTHER"), vec!["!"]);
    }

    #[test]
    fn not_contains_masks_newline_tokens() {
        let e = parse_expr("not \"\\n\" in X").unwrap();
        let scope = HashMap::new();
        for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
            let (mut m, bpe) = masker(engine);
            let out = m.compute(Some(&e), &scope, "X", "some text");
            let nl = bpe.vocab().id_of("\n").unwrap();
            assert!(!out.allowed.contains(nl), "engine {engine:?}");
            assert!(out.eos_allowed);
        }
    }
}
