//! Integration tests for scripted beam search (§4) through the public
//! runtime API.

use lmql::{FnTool, QueryEvent, Runtime, StopReason, StreamSink, Value};
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

/// One finished hole: `(var, value, stopped_by, picked EOS's
/// (admissible count, log-prob bits))`.
type HoleEnd = (String, String, StopReason, Option<(usize, u64)>);

/// What `argmax` and `beam(n=1)` must agree on for one query: the
/// result, every `TokenDelta` (log-prob compared bit for bit), every
/// `VariableDone`'s value and stop reason, and the `Usage` counters.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: String,
    /// `(var, text, log-prob bits, admissible count, EOS admissible)`.
    deltas: Vec<(String, String, u64, usize, bool)>,
    holes: Vec<HoleEnd>,
    /// `(model queries, decoder calls, billable tokens)`.
    usage: Option<(u64, u64, u64)>,
}

/// Runs `source` on a fresh runtime and reduces its event stream to an
/// [`Observed`] plus the best run's cumulative log-prob.
fn observe(episodes: &[Episode], source: &str, automata: bool) -> (Observed, f64) {
    let mut rt = runtime(episodes.to_vec());
    rt.options_mut().mask.automata = automata;
    let (sink, collector) = StreamSink::collector();
    let result = rt
        .run_streamed(source, sink)
        .unwrap_or_else(|e| panic!("{source}: {e}"));
    let mut observed = Observed {
        trace: result.best().trace.clone(),
        deltas: Vec::new(),
        holes: Vec::new(),
        usage: None,
    };
    for event in collector.take() {
        match event {
            QueryEvent::TokenDelta {
                var,
                text,
                log_prob,
                allowed,
                eos_allowed,
                ..
            } => observed
                .deltas
                .push((var, text, log_prob.to_bits(), allowed, eos_allowed)),
            QueryEvent::VariableDone {
                var,
                value,
                stopped_by,
                eos_step,
                ..
            } => observed.holes.push((
                var,
                value,
                stopped_by,
                eos_step.map(|(allowed, lp)| (allowed, lp.to_bits())),
            )),
            QueryEvent::Usage {
                model_queries,
                decoder_calls,
                billable_tokens,
            } => observed.usage = Some((model_queries, decoder_calls, billable_tokens)),
            _ => {}
        }
    }
    (observed, result.best().log_prob)
}

/// `beam(n=1)` is `argmax`: one hypothesis, the most likely token per
/// step. A grid over every way a step ends or is forced — a stop phrase,
/// an option list whose tail the automaton forces, n-gram blocking, the
/// token budget (also where it meets a dead end), EOS, and a two-hole
/// query — each with the automata on (fast-forward) and off (every token
/// scored).
#[test]
fn beam_n1_matches_argmax() {
    let mut stops = Vec::new();
    let mut fast_forwarded = 0;
    let rows: [(&str, &str, &str, Vec<Episode>); 8] = [
        (
            "",
            "P:[X]",
            "where stops_at(X, \".\")",
            vec![Episode::plain("P:", " same answer. more")],
        ),
        (
            "",
            "P:[X]",
            "where X in [\" yes please\", \" no thanks\"]",
            vec![Episode::plain("P:", " yes please")],
        ),
        (
            "no_repeat_ngram_size=2, max_length=12",
            "P:[X]",
            "where not \"\\n\" in X",
            vec![Episode::plain("P:", "abababababababab")],
        ),
        (
            "no_repeat_ngram_size=2",
            "P:[X]",
            "where X in [\"abab\"]",
            vec![Episode::plain("P:", "abab")],
        ),
        (
            "max_length=5",
            "P:[X]",
            "where not \"\\n\" in X",
            vec![Episode::plain("P:", " this is a long script")],
        ),
        (
            "max_length=2",
            "P:[X]",
            "where X in [\"aaaa\"] and len(X) < 3",
            vec![Episode::plain("P:", "aaaa")],
        ),
        (
            "",
            "P:[X]",
            "where len(X) < 10",
            vec![Episode::plain("P:", " hi")],
        ),
        (
            "",
            "P:[X]\\nQ:[Y]",
            "where X in [\" red\", \" blue\"] and stops_at(Y, \".\")",
            vec![
                Episode::plain("P:", " blue"),
                Episode::plain("Q:", " a colour. more"),
            ],
        ),
    ];
    for (params, prompt, clause, episodes) in &rows {
        let mut model_queries = Vec::new();
        for automata in [true, false] {
            let query = |decoder: &str| {
                let decoder = match (decoder, params.is_empty()) {
                    ("argmax", true) => "argmax".to_owned(),
                    ("argmax", false) => format!("argmax({params})"),
                    (_, true) => "beam(n=1)".to_owned(),
                    (_, false) => format!("beam(n=1, {params})"),
                };
                format!("{decoder}\n    \"{prompt}\"\nfrom \"m\"\n{clause}\n")
            };
            let label = format!("{prompt} {clause} ({params}), automata {automata}");
            let (argmax, argmax_lp) = observe(episodes, &query("argmax"), automata);
            let (beam, beam_lp) = observe(episodes, &query("beam"), automata);
            assert!(!argmax.deltas.is_empty(), "{label}: nothing decoded");
            assert_eq!(argmax, beam, "{label}");
            // A beam's score also counts each picked EOS (it ranks
            // hypotheses that end at different places); argmax's sums
            // the appended tokens only. Beyond that, only the summation
            // order differs.
            let eos: f64 = argmax
                .holes
                .iter()
                .filter_map(|h| h.3)
                .map(|(_, bits)| f64::from_bits(bits))
                .sum();
            assert!(
                (argmax_lp + eos - beam_lp).abs() <= 1e-12,
                "{label}: {argmax_lp} + {eos} vs {beam_lp}"
            );
            stops.extend(argmax.holes.iter().map(|h| h.2));
            model_queries.push(argmax.usage.expect("a Usage event").0);
        }
        fast_forwarded += usize::from(model_queries[0] < model_queries[1]);
    }
    // The grid reaches every way a hole ends, and the automata rows
    // really skip model calls.
    for stop in [
        StopReason::StopPhrase,
        StopReason::MaskExhausted,
        StopReason::Budget,
        StopReason::Eos,
    ] {
        assert!(stops.contains(&stop), "no row stops by {stop:?}");
    }
    assert!(fast_forwarded >= 2, "{fast_forwarded} rows fast-forward");
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
