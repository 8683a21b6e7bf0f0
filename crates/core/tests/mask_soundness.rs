//! Property tests for Theorem 5.1 (Brzozowski soundness) and engine
//! agreement.
//!
//! Soundness: for any constraint and partial value, a token that admits a
//! *legal completion* (found by bounded brute-force search) must never be
//! masked — `T_Q ⊆ M` in the paper's notation.
//!
//! Engine agreement: the symbolic FollowMap engine must be at least as
//! permissive as the exact per-token engine (it may over-approximate, but
//! never prune more).

use lmql::constraints::{eval_final, EvalCtx, MaskEngine, Masker, VocabSource};
use lmql_syntax::parse_expr;
use lmql_tokenizer::{TokenId, Vocabulary};
use proptest::prelude::*;
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

const TOKENS: &[&str] = &[
    "a", "b", "c", "ab", "bc", "abc", ".", "!", " ", "x", "yz", "a.",
];

fn vocab() -> Arc<RawVocab> {
    Arc::new(RawVocab(Vocabulary::from_tokens(TOKENS.iter().copied())))
}

/// All constraint templates the generator draws from. Each must be a valid
/// `where` clause over hole variable `X`.
fn constraint_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("X in [\"ab\", \"abc\", \"bc.\"]".to_owned()),
        Just("X in [\"a\"]".to_owned()),
        Just("len(X) < 4".to_owned()),
        Just("len(X) <= 2".to_owned()),
        Just("len(X) > 1".to_owned()),
        Just("not \".\" in X".to_owned()),
        Just("\"b\" in X".to_owned()),
        Just("X == \"abc\"".to_owned()),
        Just("stops_at(X, \".\")".to_owned()),
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

/// Values reachable by concatenating up to 2 vocabulary tokens.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(TOKENS), 0..=2).prop_map(|v| v.concat())
}

/// Bounded search: can `value` be completed to satisfy `expr` by appending
/// at most `depth` more tokens (or stopping right here)?
fn has_legal_completion(
    expr: &lmql_syntax::ast::Expr,
    scope: &HashMap<String, lmql::Value>,
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
    TOKENS
        .iter()
        .any(|t| has_legal_completion(expr, scope, &format!("{value}{t}"), depth - 1))
}

/// Theorem 5.1 for one draw: every token `engine` masks after `value`
/// under `constraint` has no legal completion.
fn check_masked_tokens_have_no_legal_completion(
    constraint: &str,
    value: &str,
    engine: MaskEngine,
) -> Result<(), TestCaseError> {
    let expr = parse_expr(constraint).unwrap();
    let scope = HashMap::new();
    let v = vocab();
    let mut masker = Masker::new(engine, v.clone());
    let out = masker.compute(Some(&expr), &scope, "X", value);
    if out.must_stop {
        // Stop phrase already satisfied; no mask to check.
        return Ok(());
    }
    for (i, tok) in TOKENS.iter().enumerate() {
        let id = TokenId(i as u32);
        if !out.allowed.contains(id) {
            let candidate = format!("{value}{tok}");
            // The containment rule for stops_at masks tokens that run
            // *past* the phrase even when a legal completion exists;
            // that is intentional truncation, not a soundness issue.
            let overruns_stop = lmql::constraints::collect_stop_phrases(&expr, "X")
                .iter()
                .any(|p| candidate.contains(p.as_str()) && !candidate.ends_with(p.as_str()));
            if overruns_stop {
                continue;
            }
            prop_assert!(
                !has_legal_completion(&expr, &scope, &candidate, 2),
                "{engine:?} masked token {tok:?} after value {value:?} under {constraint:?}, \
                 but a legal completion exists"
            );
        }
    }
    Ok(())
}

/// Two-word values (`word word`): the value strategy above draws at most
/// two tokens, so it almost never reaches one — and only there does a
/// word-count bound decide whether a token merges into the last word.
fn two_word_value_strategy() -> impl Strategy<Value = String> {
    let word = proptest::sample::select(&["a", "b", "ab", "bc", "abc", "x", "yz"]);
    (word, word).prop_map(|(a, b)| format!("{a} {b}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 5.1: tokens with a legal completion are never masked.
    #[test]
    fn masked_tokens_have_no_legal_completion(
        constraint in constraint_strategy(),
        value in value_strategy(),
        engine in prop_oneof![Just(MaskEngine::Exact), Just(MaskEngine::Symbolic)],
    ) {
        check_masked_tokens_have_no_legal_completion(&constraint, &value, engine)?;
    }

    /// Theorem 5.1 under `len(words(X)) < k` / `<= k` on two-word values:
    /// a token continuing the last word adds no word, so it stays
    /// admissible while the bound still holds.
    #[test]
    fn word_bounds_keep_tokens_that_extend_the_last_word(
        value in two_word_value_strategy(),
        op in proptest::sample::select(&["<", "<="]),
        bound in 2i64..5,
        engine in prop_oneof![Just(MaskEngine::Exact), Just(MaskEngine::Symbolic)],
    ) {
        let constraint = format!("len(words(X)) {op} {bound}");
        check_masked_tokens_have_no_legal_completion(&constraint, &value, engine)?;
    }

    /// The symbolic engine never prunes more than the exact engine.
    #[test]
    fn symbolic_is_superset_of_exact(
        constraint in constraint_strategy(),
        value in value_strategy(),
    ) {
        let expr = parse_expr(&constraint).unwrap();
        let scope = HashMap::new();
        let v = vocab();
        let mut exact = Masker::new(MaskEngine::Exact, v.clone());
        let mut symbolic = Masker::new(MaskEngine::Symbolic, v.clone());
        let a = exact.compute(Some(&expr), &scope, "X", &value);
        let b = symbolic.compute(Some(&expr), &scope, "X", &value);
        prop_assert_eq!(a.must_stop, b.must_stop);
        if a.must_stop {
            return Ok(());
        }
        prop_assert_eq!(a.eos_allowed, b.eos_allowed, "constraint {}", constraint);
        for id in a.allowed.iter() {
            prop_assert!(
                b.allowed.contains(id),
                "symbolic pruned token {:?} that exact allows (constraint {:?}, value {:?})",
                v.vocabulary().token_str(id),
                constraint,
                value
            );
        }
    }

    /// EOS admissibility agrees with concrete final evaluation.
    #[test]
    fn eos_agrees_with_final_eval(
        constraint in constraint_strategy(),
        value in value_strategy(),
    ) {
        let expr = parse_expr(&constraint).unwrap();
        let scope = HashMap::new();
        let v = vocab();
        let mut masker = Masker::new(MaskEngine::Exact, v.clone());
        let out = masker.compute(Some(&expr), &scope, "X", &value);
        if out.must_stop {
            return Ok(());
        }
        let fv = eval_final(
            &expr,
            &EvalCtx {
                scope: &scope,
                var: "X",
                value: &value,
                var_final: true,
                custom: None,
            },
        );
        prop_assert_eq!(out.eos_allowed, fv.truthy() != Some(false));
    }
}
