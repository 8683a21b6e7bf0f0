//! Integration tests for the decoder features layered on Alg. 2:
//! `no_repeat_ngram_size`, `max_length`, speculative scoring, and the
//! debug trace.

use lmql::{DebugTrace, DecodeOptions, QueryResult, Runtime, StopReason, StreamSink};
use lmql_lm::{Episode, LanguageModel, LmResult, Logits, MeteredLm, ScriptedLm, UsageMeter};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::Arc;

fn runtime(script: &str) -> Runtime {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode::plain("P:", script)],
    ));
    Runtime::new(lm, bpe)
}

/// Runs `source` with a collecting sink and folds the events into the
/// step debugger's trace.
fn run_traced(rt: &Runtime, source: &str) -> (QueryResult, DebugTrace) {
    let (sink, events) = StreamSink::collector();
    let result = rt.run_streamed(source, sink).unwrap();
    let vocab = Bpe::char_level("").vocab().len();
    (result, DebugTrace::from_events(&events.events(), vocab))
}

/// A model that wants to repeat "ab" forever.
struct Repeater {
    bpe: Arc<Bpe>,
}

impl LanguageModel for Repeater {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let one = |context: &&[TokenId]| {
            let mut logits = Logits::constant(self.bpe.vocab().len(), 0.0);
            let text = self.bpe.decode(context);
            let next = if text.ends_with('a') { "b" } else { "a" };
            logits.set(self.bpe.vocab().id_of(next).unwrap(), 10.0);
            Ok(logits)
        };
        contexts.iter().map(one).collect()
    }
}

#[test]
fn no_repeat_ngram_breaks_loops() {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(Repeater {
        bpe: Arc::clone(&bpe),
    });
    let rt = Runtime::new(lm, Arc::clone(&bpe));
    // With 2-gram blocking the "abab…" cycle is broken: once "ab" and
    // "ba" have occurred, their repetitions are masked and the decoder is
    // pushed onto other tokens (HuggingFace semantics: blocking
    // redistributes, it does not stop generation).
    let result = rt
        .run("argmax(no_repeat_ngram_size=2, max_length=20)\n    \"P:[X]\"\nfrom \"m\"\n")
        .unwrap();
    let v = result.best().var_str("X").unwrap();
    assert!(!v.contains("abab"), "2-gram repeated: {v:?}");
    // Every consecutive character pair occurs at most once. The context
    // includes the prompt "P:", whose boundary pair is exempt.
    let chars: Vec<char> = format!("P:{v}").chars().collect();
    let mut seen = std::collections::HashSet::new();
    for w in chars.windows(2) {
        assert!(seen.insert((w[0], w[1])), "repeated pair {w:?} in {v:?}");
    }

    // Control: without blocking, the repeater loops forever (to the cap).
    let unblocked = rt
        .run("argmax(max_length=20)\n    \"P:[X]\"\nfrom \"m\"\n")
        .unwrap();
    assert!(unblocked.best().var_str("X").unwrap().contains("ababab"));
}

#[test]
fn max_length_param_caps_generation() {
    let rt = runtime(" a very long script that keeps going and going and going");
    let result = rt
        .run("argmax(max_length=4)\n    \"P:[X]\"\nfrom \"m\"\n")
        .unwrap();
    assert_eq!(result.best().var_str("X").unwrap().chars().count(), 4);
}

/// The token budget is checked before the dead end: a hole whose cap
/// falls where the constraint still needs more tokens stops with its
/// value as-is (`DecodeOptions::max_tokens_per_hole`), under every
/// decoder alike.
#[test]
fn budget_stops_before_a_dead_end_under_every_decoder() {
    let rt = runtime("aaaa");
    for decoder in [
        "argmax(max_length=2)",
        "sample(n=1, max_length=2)",
        "beam(n=1, max_length=2)",
    ] {
        let source =
            format!("{decoder}\n    \"P:[X]\"\nfrom \"m\"\nwhere X in [\"aaaa\"] and len(X) < 3\n");
        let (result, trace) = run_traced(&rt, &source);
        assert_eq!(result.best().var_str("X"), Some("aa"), "{decoder}");
        assert_eq!(trace.holes.len(), 1, "{decoder}");
        assert_eq!(trace.holes[0].stopped_by, StopReason::Budget, "{decoder}");
    }
}

#[test]
fn speculative_mode_same_output_extra_queries() {
    let script = " speculative output.";
    let query = "argmax\n    \"P:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";

    let run = |speculative: bool| {
        let bpe = Arc::new(Bpe::char_level(""));
        let meter = UsageMeter::new();
        let lm = Arc::new(MeteredLm::new(
            ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("P:", script)]),
            meter.clone(),
        ));
        let rt = Runtime::new(lm, Arc::clone(&bpe)).with_options(DecodeOptions {
            speculative,
            ..DecodeOptions::default()
        });
        let result = rt.run(query).unwrap();
        (result.best().trace.clone(), meter.snapshot().model_queries)
    };

    let (trace_seq, queries_seq) = run(false);
    let (trace_spec, queries_spec) = run(true);
    assert_eq!(trace_seq, trace_spec, "speculation must not change output");
    // Speculation wastes exactly the final step's forward pass.
    assert_eq!(queries_spec, queries_seq + 1);
}

#[test]
fn debug_trace_records_steps_and_reason() {
    let rt = runtime(" short.");
    let (result, trace) = run_traced(
        &rt,
        "argmax\n    \"P:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n",
    );
    assert_eq!(result.best().var_str("X"), Some(" short."));
    assert_eq!(trace.holes.len(), 1);
    let hole = &trace.holes[0];
    assert_eq!(hole.var, "X");
    assert_eq!(hole.value, " short.");
    assert_eq!(hole.stopped_by, StopReason::StopPhrase);
    assert_eq!(hole.steps.len(), " short.".len(), "one step per char token");
    assert!(hole.steps.iter().all(|s| s.prob > 0.0));
    assert!(trace.render().contains("[X] stopped by stop phrase"));
}

#[test]
fn debug_trace_covers_distribution_holes() {
    let rt = runtime(" yes");
    let (_, trace) = run_traced(
        &rt,
        "argmax\n    \"P:[X]\"\nfrom \"m\"\ndistribute X in [\" yes\", \" no\"]\n",
    );
    assert_eq!(trace.holes.len(), 1);
    assert_eq!(trace.holes[0].stopped_by, StopReason::Distribution);
    assert!(trace.holes[0].steps.is_empty());
}
