//! Differential tests for compiled constraint automata (DESIGN.md §12):
//! with `MaskConfig::automata` on, every mask must be *bit-identical* to
//! the reference (uncompiled) configuration for both engines, clauses
//! the compiler rejects must fall back transparently, and end-to-end
//! query results — plain and streamed — must not change by a single bit.
//!
//! The automaton serves masks from a per-state cache keyed by a product
//! of per-leaf DFA states, so the interesting cases are: repeated values
//! (state-cache hits), growing prefixes (fresh states delegating to the
//! engine), dead states, and clauses mixing compilable and rejected
//! leaves.

use lmql::constraints::{
    AutomataCache, CustomOp, CustomOps, Fin, FinalValue, MaskConfig, MaskEngine, MaskOutcome,
    Masker, OpCtx, VocabSource,
};
use lmql::{QueryEvent, Runtime, StreamSink, Value};
use lmql_lm::corpus;
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

fn small_vocab() -> Arc<RawVocab> {
    Arc::new(RawVocab(Vocabulary::from_tokens([
        "a", "b", "c", "d", "ab", "ba", "bc", "cd", "abc", "a.", "b.", ".", "!", " ", "x", "yz",
        "1", "42", "-", "cad",
    ])))
}

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

/// Constraint templates over hole variable `X`, stressing every leaf the
/// compiler supports (options, substring haystack, needle containment,
/// equality, stop phrases, length metrics, int shape) plus clauses it
/// must reject (unknown calls, unresolvable names) and mixtures of both.
const CONSTRAINTS: &[&str] = &[
    // Options / equality.
    "X in [\"ab\", \"abc\", \"cd.\"]",
    "X == \"abc\"",
    "X != \"ab\"",
    "X not in [\"x\", \"a.\"]",
    "X in options",
    // Substring-of-haystack and needle containment.
    "X in \"abracadabra\"",
    "\"b\" in X",
    "not \".\" in X",
    "\"ab\" not in X",
    // Stop phrases, including multi-character ones.
    "stops_at(X, \".\") and len(X) <= 6",
    "stops_at(X, \"ab\")",
    "stops_at(X, \"b.\") and not \"!\" in X",
    // Length metrics and int shape.
    "len(X) < 4",
    "len(words(X)) < 3",
    "len(X) > 1 or \"1\" in X",
    "int(X)",
    // Rejected clauses (fallback path must stay bit-identical too).
    "unknown_op(X)",
    "len(X) < 4 and unknown_op(X)",
    "X in unresolvable_name",
];

/// Step values: repeats (state-cache hits), growing prefixes (a decode
/// in progress), dead values, digits, whitespace and stop-phrase ends.
const VALUES: &[&str] = &[
    "", "a", "ab", "ab", "", "abc", "a.", "1", "-", "-4", "ab", " ", "a", "abra", "q", "b.",
];

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

fn assert_grids_equal(got: &[MaskOutcome], want: &[MaskOutcome], label: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, r)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, r, "{label} diverged from reference at grid step {i}");
    }
}

#[test]
fn automaton_masks_bit_equal_to_reference() {
    for vocab in [small_vocab(), wide_vocab()] {
        for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
            let reference = run_grid(
                &mut Masker::new(engine, vocab.clone()).with_config(MaskConfig::reference()),
            );
            // Memo off isolates the automaton: every mask is either an
            // automaton-state hit or a direct engine computation.
            let automata_only = MaskConfig {
                memo: false,
                ..MaskConfig::default()
            };
            let mut masker = Masker::new(engine, vocab.clone()).with_config(automata_only);
            let first = run_grid(&mut masker);
            assert_grids_equal(
                &first,
                &reference,
                &format!("{engine:?}/automata cold pass"),
            );
            // Second pass over the same masker is served almost entirely
            // from cached automaton states — still bit-identical.
            let second = run_grid(&mut masker);
            assert_grids_equal(
                &second,
                &reference,
                &format!("{engine:?}/automata warm pass"),
            );
        }
    }
}

#[test]
fn default_config_matches_reference_with_automata_and_memo() {
    for vocab in [small_vocab(), wide_vocab()] {
        for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
            let reference = run_grid(
                &mut Masker::new(engine, vocab.clone()).with_config(MaskConfig::reference()),
            );
            let got = run_grid(&mut Masker::new(engine, vocab.clone()));
            assert_grids_equal(&got, &reference, &format!("{engine:?}/default config"));
        }
    }
}

#[test]
fn automaton_metrics_report_hits_states_and_compile_time() {
    let registry = lmql_obs::Registry::new();
    let mut masker = Masker::new(MaskEngine::Symbolic, small_vocab())
        .with_config(MaskConfig {
            memo: false,
            ..MaskConfig::default()
        })
        .with_metrics(&registry);
    run_grid(&mut masker);
    run_grid(&mut masker); // warm pass: repeated states must hit
    let snap = registry.snapshot();
    let hits = snap.counter("automata.hit").unwrap_or(0);
    let fallbacks = snap.counter("automata.fallback").unwrap_or(0);
    let states = snap.gauge("automata.states").unwrap_or(0);
    let compiles = snap.histogram("automata.compile_us").map_or(0, |h| h.count);
    assert!(hits > 0, "repeated grid values must hit automaton states");
    assert!(
        fallbacks > 0,
        "the grid's rejected clauses must count as fallbacks"
    );
    assert!(states > 0, "discovered states must be gauged");
    assert!(
        compiles > 0,
        "fresh compilations must record automata.compile_us"
    );
}

/// The shared automata cache is a bounded LRU: a stream of distinct
/// clauses (compilable and rejected alike) never grows it past its
/// capacity, and a clause that was evicted recompiles to bit-equal masks.
#[test]
fn shared_cache_is_bounded_and_evicted_clauses_recompile_bit_equal() {
    let vocab = small_vocab();
    let cache = AutomataCache::new();
    let masker = || {
        Masker::new(MaskEngine::Symbolic, vocab.clone())
            .with_config(MaskConfig {
                memo: false,
                ..MaskConfig::default()
            })
            .with_automata_cache(Arc::clone(&cache))
    };
    let scope = HashMap::new();
    let first = parse_expr(CONSTRAINTS[0]).unwrap();
    let grid = |m: &mut Masker| -> Vec<MaskOutcome> {
        VALUES
            .iter()
            .map(|v| m.compute(Some(&first), &scope, "X", v))
            .collect()
    };
    let before = grid(&mut masker());
    assert_eq!(cache.len(), 1);

    let mut churn = masker();
    for i in 0..AutomataCache::CAPACITY + 64 {
        let clause = if i % 8 == 0 {
            format!("unknown_op_{i}(X)") // a cached rejection
        } else {
            format!("X in [\"ab\", \"k{i}\"]")
        };
        let expr = parse_expr(&clause).unwrap();
        churn.compute(Some(&expr), &scope, "X", "a");
        assert!(cache.len() <= AutomataCache::CAPACITY, "grew past the cap");
    }
    assert_eq!(cache.len(), AutomataCache::CAPACITY);

    // `first` was the least recently used entry, so it is long gone: a
    // fresh masker recompiles it and must reproduce every mask.
    let after = grid(&mut masker());
    assert_grids_equal(&after, &before, "recompiled after eviction");
    let reference: Vec<MaskOutcome> = {
        let mut m =
            Masker::new(MaskEngine::Symbolic, vocab.clone()).with_config(MaskConfig::reference());
        grid(&mut m)
    };
    assert_grids_equal(&after, &reference, "recompiled vs reference");
}

#[test]
fn custom_operator_clauses_fall_back_to_followmap() {
    /// `shorter_than_three(X)`: at most 2 characters.
    struct ShorterThanThree;
    impl CustomOp for ShorterThanThree {
        fn forward(&self, args: &[Value], _ctx: &OpCtx<'_>) -> Result<Value, String> {
            let s = args[0].as_str().ok_or("expected a string")?;
            Ok(Value::Bool(s.chars().count() <= 2))
        }
        fn final_hint(&self, _args: &[FinalValue], result: &Value, _ctx: &OpCtx<'_>) -> Fin {
            match result {
                Value::Bool(false) => Fin::Fin,
                _ => Fin::Var,
            }
        }
    }

    let vocab = small_vocab();
    // The whole clause must be rejected: a custom op anywhere in the
    // expression can read the full value, so no leaf abstraction is safe.
    let expr = parse_expr("shorter_than_three(X) and len(X) < 5").unwrap();
    let scope = HashMap::new();
    let mut ops = CustomOps::new();
    ops.register("shorter_than_three", Arc::new(ShorterThanThree));

    let registry = lmql_obs::Registry::new();
    let mut with_automata = Masker::new(MaskEngine::Exact, vocab.clone())
        .with_custom_ops(ops.clone())
        .with_metrics(&registry);
    let mut reference = Masker::new(MaskEngine::Exact, vocab.clone())
        .with_custom_ops(ops)
        .with_config(MaskConfig::reference());
    for value in ["", "a", "ab", "abc", "ab"] {
        let got = with_automata.compute(Some(&expr), &scope, "X", value);
        let want = reference.compute(Some(&expr), &scope, "X", value);
        assert_eq!(got, want, "custom-op fallback diverged at value {value:?}");
    }
    let snap = registry.snapshot();
    assert!(
        snap.counter("automata.fallback").unwrap_or(0) > 0,
        "custom-op clause must be counted as a fallback"
    );
    assert_eq!(
        snap.counter("automata.hit").unwrap_or(0),
        0,
        "custom-op clause must never be served from an automaton"
    );
}

const E2E_QUERIES: &[&str] = &[
    // Stop-phrase constrained argmax (compiles to a Stop leaf).
    "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n",
    // Conjunction of compilable leaves, sampled (RNG stream must align).
    "sample(n=2, temperature=1.2)\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\") and len(THING) < 40\n",
    // Beam search with an options constraint.
    "beam(n=2)\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\") and not \"!\" in THING\n",
];

fn e2e_runtime(automata: bool) -> Runtime {
    let mut rt = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe());
    rt.options_mut().max_tokens_per_hole = 24;
    rt.options_mut().mask.automata = automata;
    rt
}

#[test]
fn end_to_end_results_identical_with_and_without_automata() {
    for source in E2E_QUERIES {
        let with = e2e_runtime(true).run(source).expect("automata run");
        let without = e2e_runtime(false).run(source).expect("reference run");
        assert_eq!(with.runs.len(), without.runs.len(), "query: {source}");
        for (a, b) in with.runs.iter().zip(&without.runs) {
            assert_eq!(a.trace, b.trace, "trace differs for query: {source}");
            assert_eq!(
                a.log_prob.to_bits(),
                b.log_prob.to_bits(),
                "log-prob not bit-exact for query: {source}"
            );
            let holes_a: Vec<_> = a.hole_records.iter().map(|r| (&r.var, &r.value)).collect();
            let holes_b: Vec<_> = b.hole_records.iter().map(|r| (&r.var, &r.value)).collect();
            assert_eq!(holes_a, holes_b, "holes differ for query: {source}");
        }
    }
}

#[test]
fn streamed_runs_reassemble_identically_with_automata() {
    for source in E2E_QUERIES {
        let reference = e2e_runtime(false).run(source).expect("reference run");

        let (sink, collector) = StreamSink::collector();
        let streamed = e2e_runtime(true)
            .run_streamed(source, sink)
            .expect("streamed automata run");
        let events = collector.events();
        assert!(!events.is_empty(), "stream produced no events");
        assert_eq!(streamed.runs.len(), reference.runs.len());

        // The event stream alone — emitted through the automaton path,
        // including any fast-forwarded tokens — rebuilds the reference
        // result byte for byte.
        let rebuilt = lmql::Reassembler::from_events(&events).expect("reassembly");
        assert!(rebuilt.error.is_none(), "stream ended in error");
        assert_eq!(rebuilt.runs.len(), reference.runs.len());
        for (got, want) in rebuilt.runs.iter().zip(&reference.runs) {
            assert_eq!(got.trace, want.trace, "trace differs for query: {source}");
            let want_holes: Vec<(String, String)> = want
                .hole_records
                .iter()
                .map(|r| (r.var.clone(), r.value.clone()))
                .collect();
            assert_eq!(got.holes, want_holes, "holes differ for query: {source}");
            assert_eq!(
                got.log_prob.to_bits(),
                want.log_prob.to_bits(),
                "log-prob not bit-exact for query: {source}"
            );
        }
        // Token deltas reassemble the same final text per path.
        assert!(events
            .iter()
            .any(|e| matches!(e, QueryEvent::TokenDelta { .. })));
    }
}
