//! Integration tests for scripted beam search (§4) through the public
//! runtime API.

use lmql::{FnTool, QueryEvent, Runtime, StreamSink, Value};
use lmql_lm::{Branch, Episode, LanguageModel, LmResult, Logits, ScriptedLm, SCRIPT_LOGIT};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::{Arc, Mutex};

fn runtime(episodes: Vec<Episode>) -> Runtime {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    Runtime::new(lm, bpe)
}

#[test]
fn beams_all_satisfy_constraints() {
    let rt = runtime(vec![Episode {
        trigger: "M:".to_owned(),
        script: "abc".to_owned(),
        digressions: vec![],
        branches: vec![Branch {
            at: 0,
            text: "abd".to_owned(),
            weight: SCRIPT_LOGIT - 0.5,
        }],
    }]);
    let result = rt
        .run("beam(n=3)\n    \"M:[X]\"\nfrom \"m\"\nwhere X in [\"abc\", \"abd\", \"zzz\"]\n")
        .unwrap();
    assert!(!result.runs.is_empty());
    assert!(result.runs.len() <= 3);
    for run in &result.runs {
        let v = run.var_str("X").unwrap();
        // Every surviving beam is a member of the allowed set — including
        // the low-probability "zzz" kept alive by beam diversity.
        assert!(
            ["abc", "abd", "zzz"].contains(&v),
            "constraint violated: {v:?}"
        );
    }
    // Best-first ordering with the script continuation winning.
    assert_eq!(result.best().var_str("X"), Some("abc"));
    assert_eq!(result.runs[1].var_str("X"), Some("abd"), "branch is second");
}

#[test]
fn beams_respect_stop_phrases() {
    let rt = runtime(vec![Episode::plain("S:", " one. two. three.")]);
    let result = rt
        .run("beam(n=2)\n    \"S:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n")
        .unwrap();
    // stops_at is a stopping condition, not a requirement: a beam may
    // also end at EOS before any period. But no beam ever runs past the
    // first period, and the best beam follows the script to it.
    for run in &result.runs {
        let v = run.var_str("X").unwrap();
        assert!(v.matches('.').count() <= 1, "ran past the stop: {v:?}");
        if let Some(pos) = v.find('.') {
            assert_eq!(pos, v.len() - 1, "text after the stop phrase: {v:?}");
        }
    }
    assert_eq!(result.best().var_str("X"), Some(" one."));
}

#[test]
fn beam_branches_run_different_externals() {
    // The two beams take different ACTION values, and each action calls
    // the external with a different argument — per-beam control flow with
    // side effects, the §4 scripted-beam-search scenario.
    let rt_builder = || {
        let mut rt = runtime(vec![Episode {
            trigger: "Act:".to_owned(),
            script: " go 'left'\n".to_owned(),
            digressions: vec![],
            branches: vec![Branch {
                at: 0,
                text: " go 'right'\n".to_owned(),
                weight: SCRIPT_LOGIT - 0.3,
            }],
        }]);
        rt.register_tool(Arc::new(FnTool::new("nav", "reward", |args| {
            let side = args[0].as_str().ok_or("expected str")?;
            Ok(Value::Str(format!(
                "reward-for-{}",
                side.trim_matches('\'')
            )))
        })));
        rt
    };
    let rt = rt_builder();
    let result = rt
        .run(
            r#"
import nav
beam(n=2)
    "Act: go '[SIDE]\n"
    r = nav.reward(SIDE[:-1])
    "outcome: {r}\n"
from "m"
where stops_at(SIDE, "'")
"#,
        )
        .unwrap();
    let traces: Vec<&str> = result.runs.iter().map(|r| r.trace.as_str()).collect();
    assert!(
        traces.iter().any(|t| t.contains("reward-for-left")),
        "{traces:?}"
    );
    assert!(
        traces.iter().any(|t| t.contains("reward-for-right")),
        "{traces:?}"
    );
}

#[test]
fn beam_n1_matches_argmax() {
    let query_beam = "beam(n=1)\n    \"P:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
    let query_argmax = "argmax\n    \"P:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
    let rt = runtime(vec![Episode::plain("P:", " same answer. more")]);
    let beam = rt.run(query_beam).unwrap();
    let argmax = rt.run(query_argmax).unwrap();
    assert_eq!(beam.best().trace, argmax.best().trace);
}

/// A model that wants to repeat "ab" forever (with "c" a distant second,
/// so a second beam has somewhere to go).
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
            logits.set(self.bpe.vocab().id_of("c").unwrap(), 8.0);
            Ok(logits)
        };
        contexts.iter().map(one).collect()
    }
}

/// Beam search honours `no_repeat_ngram_size` (Fig. 11's decoder
/// parameter): no hypothesis repeats a bigram, while without the
/// parameter the same model loops.
#[test]
fn beam_no_repeat_ngram_breaks_loops_in_every_hypothesis() {
    let run = |decoder: &str| {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(Repeater {
            bpe: Arc::clone(&bpe),
        });
        let rt = Runtime::new(lm, bpe);
        let events = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&events);
        let sink = StreamSink::callback(move |e: &QueryEvent| log.lock().unwrap().push(e.clone()));
        let result = rt
            .run_streamed(&format!("{decoder}\n    \"P:[X]\"\nfrom \"m\"\n"), sink)
            .unwrap();
        let events = std::mem::take(&mut *events.lock().unwrap());
        (result, events)
    };

    let (blocked, _) = run("beam(n=2, no_repeat_ngram_size=2, max_length=12)");
    assert_eq!(blocked.runs.len(), 2);
    for run in &blocked.runs {
        let v = run.var_str("X").unwrap();
        // The context includes the prompt, as in the argmax test.
        let chars: Vec<char> = format!("P:{v}").chars().collect();
        let mut seen = std::collections::HashSet::new();
        for w in chars.windows(2) {
            assert!(seen.insert((w[0], w[1])), "repeated pair {w:?} in {v:?}");
        }
    }

    // Control: the parameter absent is the parameter at 0 — the same
    // looping hypotheses, log-prob bits and event stream.
    let (plain, plain_events) = run("beam(n=2, max_length=12)");
    assert!(plain.best().var_str("X").unwrap().contains("ababab"));
    let (zero, zero_events) = run("beam(n=2, no_repeat_ngram_size=0, max_length=12)");
    assert_eq!(plain_events, zero_events);
    for (a, b) in plain.runs.iter().zip(&zero.runs) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
    }
}
