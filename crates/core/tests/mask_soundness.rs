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
//!
//! Hole independence: a conjunct that cannot observe the decoding hole
//! `X` — it names only another hole `Y` and calls no custom operator —
//! leaves the mask bit for bit as it was, while a custom operator still
//! constrains it whatever its arguments name.

use lmql::constraints::{
    eval_final, CustomOp, CustomOps, EvalCtx, Fin, FinalValue, MaskConfig, MaskEngine, Masker,
    OpCtx, VocabSource,
};
use lmql::Value;
use lmql_syntax::parse_expr;
use lmql_tokenizer::{TokenId, Vocabulary};
use proptest::prelude::*;
use proptest::sample::select;
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

/// Leaves over the decoding hole `X`.
const X_LEAVES: &[&str] = &[
    "X in [\"ab\", \"abc\", \"bc.\"]",
    "X in [\"a\"]",
    "len(X) < 4",
    "len(X) <= 2",
    "len(X) > 1",
    "not \".\" in X",
    "\"b\" in X",
    "X == \"abc\"",
    "stops_at(X, \".\")",
    "int(X)",
    "len(words(X)) < 3",
    "X not in [\"x\", \"a.\"]",
    "\"b\" not in X",
];

/// Leaves over a second hole `Y` only, free of custom operators: a future
/// hole when `Y` is unbound, a fixed value when the scope binds it.
const Y_LEAVES: &[&str] = &[
    "len(Y) < 3",
    "Y in [\"ab\", \"x.\"]",
    "\"b\" in Y",
    "Y == \"abc\"",
    "int(Y)",
    "len(words(Y)) > 1",
    "stops_at(Y, \".\")",
    "not \".\" in Y",
];

/// Leaves reading both holes (the FollowMap engine scans for these).
const MIXED_LEAVES: &[&str] = &["X == Y", "len(X) < len(Y)"];

/// Single leaves and binary `and`/`or` combinations of `leaf`.
fn clauses(leaf: BoxedStrategy<String>) -> impl Strategy<Value = String> {
    prop_oneof![
        leaf.clone(),
        (leaf.clone(), leaf.clone()).prop_map(|(a, b)| format!("{a} and {b}")),
        (leaf.clone(), leaf).prop_map(|(a, b)| format!("{a} or {b}")),
    ]
}

/// Clauses over `X` alone.
fn x_constraint_strategy() -> impl Strategy<Value = String> {
    clauses(select(X_LEAVES).prop_map(str::to_owned).boxed())
}

/// All constraint templates the generator draws from: leaves over the
/// decoding hole `X`, over a second hole `Y`, and over both.
fn constraint_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![select(X_LEAVES), select(Y_LEAVES), select(MIXED_LEAVES)];
    clauses(leaf.prop_map(str::to_owned).boxed())
}

/// `Y` unbound (a future hole) or bound to a value in scope.
fn scope_strategy() -> impl Strategy<Value = HashMap<String, Value>> {
    select(&[None, Some("ab"), Some("x."), Some("a b c"), Some("42")]).prop_map(|y| {
        y.map(|y| ("Y".to_owned(), Value::Str(y.to_owned())))
            .into_iter()
            .collect()
    })
}

/// Values reachable by concatenating up to 2 vocabulary tokens.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(TOKENS), 0..=2).prop_map(|v| v.concat())
}

/// Bounded search: can `value` be completed to satisfy `expr` by appending
/// at most `depth` more tokens (or stopping right here)?
fn has_legal_completion(
    expr: &lmql_syntax::ast::Expr,
    scope: &HashMap<String, Value>,
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
    scope: &HashMap<String, Value>,
    value: &str,
    engine: MaskEngine,
) -> Result<(), TestCaseError> {
    let expr = parse_expr(constraint).unwrap();
    let v = vocab();
    let mut masker = Masker::new(engine, v.clone());
    let out = masker.compute(Some(&expr), scope, "X", value);
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
                !has_legal_completion(&expr, scope, &candidate, 2),
                "{engine:?} masked token {tok:?} after value {value:?} under {constraint:?} \
                 in scope {scope:?}, but a legal completion exists"
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 5.1: tokens with a legal completion are never masked.
    #[test]
    fn masked_tokens_have_no_legal_completion(
        constraint in constraint_strategy(),
        scope in scope_strategy(),
        value in value_strategy(),
        engine in prop_oneof![Just(MaskEngine::Exact), Just(MaskEngine::Symbolic)],
    ) {
        check_masked_tokens_have_no_legal_completion(&constraint, &scope, &value, engine)?;
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
        check_masked_tokens_have_no_legal_completion(&constraint, &HashMap::new(), &value, engine)?;
    }

    /// The symbolic engine never prunes more than the exact engine.
    #[test]
    fn symbolic_is_superset_of_exact(
        constraint in constraint_strategy(),
        scope in scope_strategy(),
        value in value_strategy(),
    ) {
        let expr = parse_expr(&constraint).unwrap();
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
        scope in scope_strategy(),
        value in value_strategy(),
    ) {
        let expr = parse_expr(&constraint).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A conjunct over an unbound second hole cannot change with the
    /// next token of `X`, so `A and L(Y)` masks exactly like `A` — with
    /// and without the automaton and memo layers.
    #[test]
    fn unbound_hole_conjunct_keeps_the_mask(
        a in x_constraint_strategy(),
        l in select(Y_LEAVES),
        value in value_strategy(),
        engine in prop_oneof![Just(MaskEngine::Exact), Just(MaskEngine::Symbolic)],
    ) {
        let scope = HashMap::new();
        let v = vocab();
        let alone = parse_expr(&a).unwrap();
        let with = parse_expr(&format!("({a}) and {l}")).unwrap();
        let expected = Masker::new(engine, v.clone())
            .with_config(MaskConfig::reference())
            .compute(Some(&alone), &scope, "X", &value);
        for config in [MaskConfig::reference(), MaskConfig::default()] {
            let got = Masker::new(engine, v.clone())
                .with_config(config)
                .compute(Some(&with), &scope, "X", &value);
            prop_assert_eq!(
                &got,
                &expected,
                "{:?} {:?}: `({}) and {}` after {:?}",
                engine,
                config,
                a,
                l,
                value
            );
        }
    }
}

/// `shorter_than(n)`: the hole value has fewer than `n` characters. Its
/// argument never names the hole; it reads the value through its context.
struct ShorterThan;

impl CustomOp for ShorterThan {
    fn forward(&self, args: &[Value], ctx: &OpCtx<'_>) -> Result<Value, String> {
        let Some(Value::Int(n)) = args.first() else {
            return Err("shorter_than() expects an integer".to_owned());
        };
        Ok(Value::Bool((ctx.value.chars().count() as i64) < *n))
    }

    fn final_hint(&self, _args: &[FinalValue], result: &Value, _ctx: &OpCtx<'_>) -> Fin {
        // The value only grows: a violation is final.
        if result.truthy() {
            Fin::Var
        } else {
            Fin::Fin
        }
    }
}

/// A custom operator observes the hole whatever its arguments name, so
/// it is never treated as hole-independent: its verdict still prunes.
#[test]
fn custom_op_without_hole_arguments_still_masks() {
    let mut ops = CustomOps::new();
    ops.register("shorter_than", Arc::new(ShorterThan));
    let expr = parse_expr("shorter_than(3) and len(Y) < 5").unwrap();
    let v = vocab();
    for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
        for config in [MaskConfig::reference(), MaskConfig::default()] {
            let mut masker = Masker::new(engine, v.clone())
                .with_config(config)
                .with_custom_ops(ops.clone());
            let out = masker.compute(Some(&expr), &HashMap::new(), "X", "a");
            for (i, tok) in TOKENS.iter().enumerate() {
                assert_eq!(
                    out.allowed.contains(TokenId(i as u32)),
                    1 + tok.chars().count() < 3,
                    "{engine:?} {config:?}: token {tok:?} after \"a\""
                );
            }
        }
    }
}
