//! Differential tests for the mask fast paths: memoization and the
//! pooled scratch-set plumbing must be *bit-identical* to the reference
//! configuration (no memo, no automata) for both engines.
//!
//! The two engines are deliberately NOT compared against each other —
//! Symbolic over-approximates `allowed` relative to Exact by design.
//! Each engine is compared against *its own* reference output across
//! every accelerated configuration.

use lmql::constraints::{MaskConfig, MaskEngine, MaskMemo, MaskOutcome, Masker, VocabSource};
use lmql::Value;
use lmql_syntax::parse_expr;
use lmql_tokenizer::Vocabulary;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
struct RawVocab(Vocabulary);

impl VocabSource for RawVocab {
    fn vocabulary(&self) -> &Vocabulary {
        &self.0
    }
}

/// A small vocabulary with overlapping tokens, stop-phrase carriers,
/// digits and whitespace (mirrors the soundness suite's pool).
fn small_vocab() -> Arc<RawVocab> {
    Arc::new(RawVocab(Vocabulary::from_tokens([
        "a", "b", "c", "d", "ab", "ba", "bc", "cd", "abc", "a.", "b.", ".", "!", " ", "x", "yz",
        "1", "42",
    ])))
}

/// A synthetic ~330-token vocabulary whose size is not a multiple of 64,
/// so vocabulary scans exercise a partial tail word.
fn wide_vocab() -> Arc<RawVocab> {
    let toks: Vec<String> = (0..329)
        .map(|i| match i % 7 {
            0 => format!("w{i}"),
            1 => format!("{i}"),
            2 => format!(" t{i}"),
            3 => format!("x{i}."),
            4 => format!("ab{i}"),
            5 => format!("{}{i}", ".".repeat(i % 3 + 1)),
            _ => format!("z{i}!"),
        })
        .collect();
    Arc::new(RawVocab(Vocabulary::from_tokens(
        toks.iter().map(String::as_str),
    )))
}

/// Constraint templates over hole variable `X`; `X in options` reads the
/// scope.
const CONSTRAINTS: &[&str] = &[
    "X in [\"ab\", \"abc\", \"cd.\"]",
    "len(X) < 4",
    "not \".\" in X",
    "\"b\" in X",
    "X == \"abc\"",
    "stops_at(X, \".\") and len(X) <= 6",
    "int(X)",
    "len(words(X)) < 3",
    "X not in [\"x\", \"a.\"]",
    "len(X) > 1 or \"1\" in X",
    "X in options",
];

/// Deterministic step values, including repeats (memo hits) and
/// monotonically growing prefixes (a decode in progress).
const VALUES: &[&str] = &["", "a", "ab", "ab", "", "abc", "a.", "1", "ab", " ", "a"];

fn scope_variants() -> Vec<HashMap<String, Value>> {
    let mut with_options = HashMap::new();
    with_options.insert(
        "options".to_owned(),
        Value::List(vec!["ab".into(), "abc".into()]),
    );
    let mut other_options = HashMap::new();
    other_options.insert("options".to_owned(), Value::List(vec!["a.".into()]));
    vec![HashMap::new(), with_options, other_options]
}

/// Runs the full (constraint × scope × value) grid through one masker,
/// collecting outcomes in order.
fn run_grid(masker: &mut Masker) -> Vec<MaskOutcome> {
    let scopes = scope_variants();
    let mut out = Vec::new();
    for constraint in CONSTRAINTS {
        let expr = parse_expr(constraint).unwrap();
        for scope in &scopes {
            for value in VALUES {
                out.push(masker.compute(Some(&expr), scope, "X", value));
            }
        }
    }
    out
}

fn accelerated_configs() -> Vec<(&'static str, MaskConfig)> {
    vec![
        (
            "memo",
            MaskConfig {
                memo: true,
                ..MaskConfig::default()
            },
        ),
        (
            "memo tiny-capacity",
            MaskConfig {
                memo: true,
                memo_capacity: 3, // constant eviction churn
                ..MaskConfig::default()
            },
        ),
    ]
}

#[test]
fn accelerated_configs_match_reference_bit_for_bit() {
    for vocab in [small_vocab(), wide_vocab()] {
        for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
            let reference = run_grid(
                &mut Masker::new(engine, vocab.clone()).with_config(MaskConfig::reference()),
            );
            for (name, config) in accelerated_configs() {
                let got = run_grid(&mut Masker::new(engine, vocab.clone()).with_config(config));
                assert_eq!(got.len(), reference.len());
                for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        g,
                        r,
                        "{engine:?} config `{name}` diverged from reference at grid step {i} \
                         (vocab size {})",
                        vocab.vocabulary().len()
                    );
                }
            }
        }
    }
}

#[test]
fn shared_memo_across_maskers_is_transparent() {
    let vocab = wide_vocab();
    let memo = MaskMemo::new(512);
    for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
        let reference =
            run_grid(&mut Masker::new(engine, vocab.clone()).with_config(MaskConfig::reference()));
        // First masker populates the shared memo, second reads it back.
        // Automata off: this exercises the memo layer specifically, which
        // compiled constraints would otherwise bypass.
        let no_automata = MaskConfig {
            automata: false,
            ..MaskConfig::default()
        };
        let mut warm = Masker::new(engine, vocab.clone())
            .with_config(no_automata)
            .with_memo(Arc::clone(&memo));
        let first = run_grid(&mut warm);
        let mut reader = Masker::new(engine, vocab.clone())
            .with_config(no_automata)
            .with_memo(Arc::clone(&memo));
        let second = run_grid(&mut reader);
        assert_eq!(first, reference, "{engine:?}: populating pass diverged");
        assert_eq!(second, reference, "{engine:?}: reading pass diverged");
    }
    assert!(!memo.is_empty(), "the shared memo was never populated");
}

#[test]
fn memo_metrics_report_hits_and_misses() {
    let registry = lmql_obs::Registry::new();
    let mut masker = Masker::new(MaskEngine::Symbolic, small_vocab())
        .with_config(MaskConfig {
            memo: true,
            // Automata off: compiled constraints would intercept computes
            // before the memo, breaking the hit+miss == total accounting.
            automata: false,
            ..MaskConfig::default()
        })
        .with_metrics(&registry);
    run_grid(&mut masker);
    let snap = registry.snapshot();
    let hits = snap.counter("mask.cache.hit").unwrap_or(0);
    let misses = snap.counter("mask.cache.miss").unwrap_or(0);
    assert!(hits > 0, "repeated grid values must hit the memo");
    assert!(misses > 0, "distinct grid states must miss the memo");
    // Every compute either hits or misses.
    let scopes = scope_variants().len() as u64;
    let total = (CONSTRAINTS.len() * VALUES.len()) as u64 * scopes;
    assert_eq!(hits + misses, total);
}

#[test]
fn custom_op_registration_splits_memo_entries() {
    use lmql::constraints::{CustomOp, CustomOps, OpCtx};

    /// `shorter_than_three(X)`: at most 2 characters.
    struct ShorterThanThree;
    impl CustomOp for ShorterThanThree {
        fn forward(&self, args: &[Value], _ctx: &OpCtx<'_>) -> Result<Value, String> {
            let s = args[0].as_str().ok_or("expected a string")?;
            Ok(Value::Bool(s.chars().count() <= 2))
        }
        fn final_hint(
            &self,
            _args: &[lmql::constraints::FinalValue],
            result: &Value,
            _ctx: &OpCtx<'_>,
        ) -> lmql::constraints::Fin {
            // Length only grows: a violation is final.
            match result {
                Value::Bool(false) => lmql::constraints::Fin::Fin,
                _ => lmql::constraints::Fin::Var,
            }
        }
    }

    let vocab = small_vocab();
    let expr = parse_expr("shorter_than_three(X)").unwrap();
    let scope = HashMap::new();
    let memo = MaskMemo::new(64);

    let mut ops = CustomOps::new();
    ops.register("shorter_than_three", Arc::new(ShorterThanThree));
    let mut with_op = Masker::new(MaskEngine::Exact, vocab.clone())
        .with_custom_ops(ops)
        .with_memo(Arc::clone(&memo));
    let constrained = with_op.compute(Some(&expr), &scope, "X", "ab");

    // Same expression, same memo, but no registered op: the call is
    // undetermined and prunes nothing. A shared memo entry here would be
    // unsound — the generation tag must split the keys.
    let mut without_op = Masker::new(MaskEngine::Exact, vocab.clone()).with_memo(Arc::clone(&memo));
    let unconstrained = without_op.compute(Some(&expr), &scope, "X", "ab");

    assert!(
        constrained.allowed.count() < unconstrained.allowed.count(),
        "the registered operator must constrain more than the unknown call \
         (constrained {} vs {})",
        constrained.allowed.count(),
        unconstrained.allowed.count()
    );
}
