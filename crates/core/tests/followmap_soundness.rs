//! FollowMap soundness (Theorem 5.1) over *random* vocabularies.
//!
//! The companion suite in `mask_soundness.rs` checks the theorem against
//! one fixed vocabulary; here every case also draws a fresh small
//! vocabulary, so the eager mask is exercised over many distinct
//! tokenisations of the same constraints. The oracle is brute force:
//! decode a candidate token, then search all completions up to a bounded
//! depth — if any completion satisfies the constraint, the token was
//! decodable and must not have been masked (`T_Q ⊆ M`).

use lmql::constraints::{
    collect_stop_phrases, eval_final, EvalCtx, MaskConfig, MaskEngine, Masker, VocabSource,
};
use lmql_syntax::parse_expr;
use lmql_tokenizer::{TokenId, Vocabulary};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::sync::Arc;

/// A bare vocabulary as a mask source (no BPE needed for mask tests).
#[derive(Debug)]
struct RawVocab(Vocabulary);

impl VocabSource for RawVocab {
    fn vocabulary(&self) -> &Vocabulary {
        &self.0
    }
}

/// Candidate-token pool. Each case samples a small subsequence as its
/// vocabulary — overlapping tokens ("a"/"ab"/"abc"), stop-phrase
/// carriers ("a.", "b."), digits for `int`, and whitespace for `words`.
const POOL: &[&str] = &[
    "a", "b", "c", "d", "ab", "ba", "bc", "cd", "abc", "a.", "b.", ".", "!", " ", "x", "yz", "1",
    "42",
];

/// Generates a random small vocabulary (3–8 distinct pool tokens, order
/// preserved) plus a trace decodable in it (0–3 of its own tokens). The
/// trace depends on the vocabulary, so a single strategy draws both.
#[derive(Debug, Clone, Copy)]
struct CaseStrategy;

impl Strategy for CaseStrategy {
    type Value = (Vec<&'static str>, String);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let size = 3 + rng.below(6) as usize;
        // Uniform order-preserving subset of POOL with exactly `size`
        // elements: include each token with probability need/remaining.
        let mut tokens: Vec<&'static str> = Vec::with_capacity(size);
        let mut remaining = POOL.len() as u64;
        let mut need = size as u64;
        for &tok in POOL {
            if need > 0 && rng.below(remaining) < need {
                tokens.push(tok);
                need -= 1;
            }
            remaining -= 1;
        }
        let mut value = String::new();
        for _ in 0..rng.below(4) {
            value.push_str(tokens[rng.below(tokens.len() as u64) as usize]);
        }
        (tokens, value)
    }
}

/// All constraint templates the generator draws from. Each must be a
/// valid `where` clause over hole variable `X`.
fn constraint_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("X in [\"ab\", \"abc\", \"cd.\"]".to_owned()),
        Just("X in [\"a\"]".to_owned()),
        Just("len(X) < 4".to_owned()),
        Just("len(X) <= 2".to_owned()),
        Just("len(X) > 1".to_owned()),
        Just("not \".\" in X".to_owned()),
        Just("\"b\" in X".to_owned()),
        Just("X == \"abc\"".to_owned()),
        Just("stops_at(X, \".\")".to_owned()),
        Just("stops_at(X, \"!\")".to_owned()),
        Just("int(X)".to_owned()),
        Just("len(words(X)) < 3".to_owned()),
        Just("X not in [\"x\", \"a.\"]".to_owned()),
        Just("\"b\" not in X".to_owned()),
    ];
    prop_oneof![
        leaf.clone(),
        (leaf.clone(), leaf.clone()).prop_map(|(a, b)| format!("{a} and {b}")),
        (leaf.clone(), leaf).prop_map(|(a, b)| format!("{a} or {b}")),
    ]
}

/// Bounded decode-then-check: can `value` be completed to satisfy `expr`
/// by appending at most `depth` more vocabulary tokens (or stopping
/// right here)?
fn has_legal_completion(
    expr: &lmql_syntax::ast::Expr,
    scope: &HashMap<String, lmql::Value>,
    tokens: &[&str],
    value: &str,
    depth: usize,
) -> bool {
    let fv = eval_final(
        expr,
        &EvalCtx {
            scope,
            var: "X",
            value,
            var_final: true,
            custom: None,
        },
    );
    if fv.truthy() != Some(false) {
        return true;
    }
    if depth == 0 {
        return false;
    }
    tokens
        .iter()
        .any(|t| has_legal_completion(expr, scope, tokens, &format!("{value}{t}"), depth - 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Theorem 5.1 under random vocabularies: a token the brute-force
    /// oracle can decode into a legal value is never masked.
    #[test]
    fn eager_mask_never_excludes_a_decodable_token(
        (tokens, value) in CaseStrategy,
        constraint in constraint_strategy(),
        engine in prop_oneof![Just(MaskEngine::Exact), Just(MaskEngine::Symbolic)],
    ) {
        let expr = parse_expr(&constraint).unwrap();
        let scope = HashMap::new();
        let v = Arc::new(RawVocab(Vocabulary::from_tokens(tokens.iter().copied())));
        let mut masker =
            Masker::new(engine, v.clone()).with_config(MaskConfig::reference());
        let out = masker.compute(Some(&expr), &scope, "X", &value);
        // The accelerated configuration (memo on) must reproduce the
        // reference mask bit for bit, so the soundness property below
        // transfers to the fast paths too.
        let mut fast = Masker::new(engine, v.clone()).with_config(MaskConfig {
            memo: true,
            automata: false,
            ..MaskConfig::default()
        });
        prop_assert_eq!(&fast.compute(Some(&expr), &scope, "X", &value), &out);
        // Recomputing through the warm memo must be transparent as well.
        prop_assert_eq!(&fast.compute(Some(&expr), &scope, "X", &value), &out);
        // The compiled constraint automaton (DESIGN.md §12) must also
        // reproduce the reference bit for bit — first through a fresh
        // state (delegating to the engine), then through its state cache.
        let mut compiled = Masker::new(engine, v.clone()).with_config(MaskConfig {
            memo: false,
            ..MaskConfig::default()
        });
        prop_assert_eq!(&compiled.compute(Some(&expr), &scope, "X", &value), &out);
        prop_assert_eq!(&compiled.compute(Some(&expr), &scope, "X", &value), &out);
        if out.must_stop {
            // Stop phrase already satisfied; no mask to check.
            return Ok(());
        }
        for (i, tok) in tokens.iter().enumerate() {
            let id = TokenId(i as u32);
            if out.allowed.contains(id) {
                continue;
            }
            let candidate = format!("{value}{tok}");
            // The containment rule for stops_at masks tokens that run
            // *past* the phrase even when a legal completion exists;
            // that is intentional truncation, not a soundness issue.
            let overruns_stop = collect_stop_phrases(&expr, "X")
                .iter()
                .any(|p| candidate.contains(p.as_str()) && !candidate.ends_with(p.as_str()));
            if overruns_stop {
                continue;
            }
            prop_assert!(
                !has_legal_completion(&expr, &scope, &tokens, &candidate, 2),
                "{engine:?} masked token {tok:?} after value {value:?} under {constraint:?} \
                 with vocabulary {tokens:?}, but a legal completion exists"
            );
        }
    }
}
