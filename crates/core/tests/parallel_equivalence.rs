//! Differential byte-identity for program-level hole parallelism
//! (DESIGN.md §14).
//!
//! The dependency-scheduled decode path is an *optimisation*, never a
//! semantic: for every query — each example program in `examples/` plus
//! a generated grid of multi-hole bodies, across all four decoder
//! clauses — running with `parallel_holes` on must be byte-identical to
//! running fully sequentially. Identical traces, variable bindings,
//! bit-exact log-probabilities, identical `decoder_calls` and
//! `billable_tokens`, and an identical event stream (reassembling to the
//! same result).
//!
//! The one deliberately un-compared counter is `Usage.model_queries`:
//! parallel groups may engage constraint-automata fast-forwarding
//! differently than sequential decoding (a whole-clause compile sees
//! sibling names as unresolved), so the number of forward passes can
//! legitimately differ while every produced byte stays the same.

use lmql::constraints::{CustomOp, Fin, FinalValue, OpCtx};
use lmql::{
    compile_source, plan_holes, DebugTrace, FnTool, QueryEvent, Reassembler, Runtime, StreamSink,
    Value,
};
use lmql_lm::{corpus, Branch, Digression, Episode, ScriptedLm, ScriptedLmBuilder, SCRIPT_LOGIT};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Zeroes the counter that may legitimately differ (see module doc).
fn normalize_usage(events: &mut [QueryEvent]) {
    for e in events {
        if let QueryEvent::Usage { model_queries, .. } = e {
            *model_queries = 0;
        }
    }
}

/// Runs `source` twice — parallel holes on (the default) and off — and
/// asserts byte-identity of results, usage and streams.
fn assert_equivalent(name: &str, make: &dyn Fn() -> Runtime, source: &str) {
    // Direct (non-streamed) execution.
    let par_rt = make();
    let par = par_rt.run(source);
    let seq_rt = {
        let mut rt = make();
        rt.options_mut().parallel_holes = false;
        rt
    };
    let seq = seq_rt.run(source);
    match (&par, &seq) {
        (Ok(p), Ok(s)) => {
            assert_eq!(p.runs.len(), s.runs.len(), "{name}: run count");
            for (a, b) in p.runs.iter().zip(&s.runs) {
                assert_eq!(a.trace, b.trace, "{name}: trace");
                assert_eq!(a.variables, b.variables, "{name}: variable bindings");
                assert_eq!(
                    a.log_prob.to_bits(),
                    b.log_prob.to_bits(),
                    "{name}: log-prob bits ({} vs {})",
                    a.log_prob,
                    b.log_prob
                );
            }
            assert_eq!(p.distribution, s.distribution, "{name}: distribution");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{name}: error messages");
        }
        (p, s) => panic!("{name}: parallel {p:?} but sequential {s:?}"),
    }
    let pu = par_rt.meter().snapshot();
    let su = seq_rt.meter().snapshot();
    assert_eq!(pu.decoder_calls, su.decoder_calls, "{name}: decoder_calls");
    assert_eq!(
        pu.billable_tokens, su.billable_tokens,
        "{name}: billable_tokens"
    );

    // Streamed execution: identical event sequences (usage-normalised)
    // and identical reassembly.
    let (sink, collector) = StreamSink::collector();
    let _ = make().run_streamed(source, sink);
    let mut par_events = collector.take();
    let (sink, collector) = StreamSink::collector();
    let seq_rt = {
        let mut rt = make();
        rt.options_mut().parallel_holes = false;
        rt
    };
    let _ = seq_rt.run_streamed(source, sink);
    let mut seq_events = collector.take();
    normalize_usage(&mut par_events);
    normalize_usage(&mut seq_events);
    assert_eq!(par_events, seq_events, "{name}: event streams");
    let par_rebuilt = Reassembler::from_events(&par_events).expect(name);
    let seq_rebuilt = Reassembler::from_events(&seq_events).expect(name);
    assert_eq!(par_rebuilt, seq_rebuilt, "{name}: reassembled streams");
}

fn ngram_runtime() -> Runtime {
    let mut rt = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe());
    rt.options_mut().max_tokens_per_hole = 24;
    rt
}

fn scripted_runtime(episodes: Vec<Episode>) -> Runtime {
    let bpe = corpus::standard_bpe();
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    Runtime::new(lm, bpe)
}

fn char_runtime(episodes: Vec<Episode>) -> Runtime {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    Runtime::new(lm, bpe)
}

// ---------------------------------------------------------------------------
// Every example program in examples/
// ---------------------------------------------------------------------------

#[test]
fn example_quickstart() {
    let make = || {
        scripted_runtime(vec![Episode::plain(
            "Q: What is the capital of France?\nA:",
            " The capital of France is Paris. It sits on the Seine and is lovely in spring.",
        )])
    };
    assert_equivalent(
        "quickstart",
        &make,
        r#"
argmax
    "Q: What is the capital of France?\n"
    "A:[ANSWER]"
from "scripted-demo"
where stops_at(ANSWER, ".") and len(words(ANSWER)) < 20
"#,
    );
}

#[test]
fn example_jokes() {
    // Fig. 1a: two genuinely independent holes (both conjunct shapes are
    // completion-safe), so this is the flagship parallel query — assert
    // the plan actually groups them before checking equivalence.
    let source = r#"
beam(n=3)
    "A list of good dad jokes. A indicates the punchline\n"
    "Q: How does a penguin build its house?\n"
    "A: Igloos it together. END\n"
    "Q: [JOKE]\n"
    "A: [PUNCHLINE]\n"
from "builtin-ngram"
where
    stops_at(JOKE, "?") and stops_at(PUNCHLINE, "END")
    and len(words(JOKE)) < 20 and len(characters(PUNCHLINE)) > 10
"#;
    let program = compile_source(source).expect("jokes compiles");
    let plan = plan_holes(&program).expect("straight-line body plans");
    assert_eq!(
        plan.parallel_suffix("JOKE").map(<[String]>::len),
        Some(2),
        "JOKE and PUNCHLINE form one parallel group"
    );
    assert_equivalent("jokes", &ngram_runtime, source);

    // The same body under argmax exercises the group decode path itself
    // (beam search has its own scheduler).
    let argmax_source = source.replacen("beam(n=3)", "argmax", 1);
    assert_equivalent("jokes-argmax", &ngram_runtime, &argmax_source);
}

#[test]
fn example_packing_list() {
    // Loops take the analyzer out of the picture (control flow bails);
    // the query must still be byte-identical with the knob on.
    assert_equivalent(
        "packing_list",
        &ngram_runtime,
        r#"
argmax
    "A list of things not to forget when travelling:\n"
    things = []
    for i in range(2):
        "-[THING]"
        things.append(THING)
    "The most important of these is [ITEM]."
from "builtin-ngram"
where stops_at(THING, "\n") and len(words(THING)) <= 3 and stops_at(ITEM, ".")
distribute ITEM in things
"#,
    );
}

#[test]
fn example_meta_prompting() {
    // {EXPERT} recalled between the holes: a true dependency, so the
    // planner must serialise ANSWER after EXPERT.
    let source = r#"
argmax
    "Q: What is the circumference of the earth?\n"
    "The best person to answer this question would be[EXPERT]\n\n"
    "For instance,{EXPERT} would answer[ANSWER]"
from "scripted-demo"
where
    len(words(EXPERT)) <= 3 and stops_at(EXPERT, ".") and
    stops_at(ANSWER, ".") and not "\n" in EXPERT
"#;
    let program = compile_source(source).expect("meta_prompting compiles");
    let plan = plan_holes(&program).expect("straight-line body plans");
    assert_eq!(plan.max_group_len(), 1, "recall serialises the holes");

    let make = || {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(
            ScriptedLmBuilder::new(Arc::clone(&bpe))
                .episode(Episode {
                    trigger: "would be".to_owned(),
                    script: " a geophysicist.".to_owned(),
                    digressions: vec![Digression {
                        at: 16,
                        text: "\nwho has a PhD in Geodesy and is a professor at Colorado State \
                               University and will probably have to refer to the relevant books"
                            .to_owned(),
                        replace_remainder: None,
                    }],
                    branches: vec![],
                })
                .episode(Episode::plain(
                    "would answer",
                    " that the circumference of the earth is about 40,075 km.",
                ))
                .build(),
        );
        Runtime::new(lm, bpe)
    };
    assert_equivalent("meta_prompting", &make, source);
}

#[test]
fn example_chat() {
    let make = || {
        let mut rt = char_runtime(vec![Episode::plain(
            "User: hello\nAssistant:",
            " Hi! How can I help you today?\n",
        )]);
        rt.bind("TRANSCRIPT", Value::Str(String::new()));
        rt.bind("INPUT", Value::Str("hello".into()));
        rt
    };
    assert_equivalent(
        "chat",
        &make,
        r#"
argmax(max_length=200)
    "{TRANSCRIPT}"
    "User: {INPUT}\n"
    "Assistant:[REPLY]"
from "chat-model"
where stops_at(REPLY, "\n") and len(words(REPLY)) < 30 and not "User:" in REPLY
"#,
    );
}

#[test]
fn example_debugger() {
    let make = || {
        scripted_runtime(vec![Episode::plain(
            "Mode:",
            " Search then more text that never appears",
        )])
    };
    assert_equivalent(
        "debugger",
        &make,
        r#"
argmax
    "Mode:[MODE] selected."
from "scripted-demo"
where MODE in [" Search", " Finish"]
"#,
    );
}

/// The grammar example's custom constraint op: `arith(X)` holds while X
/// is (a prefix of) a well-formed arithmetic expression.
struct ArithGrammar;

fn classify(s: &str) -> i8 {
    let mut depth = 0i32;
    let mut expect_operand = true;
    for c in s.chars() {
        match c {
            '0'..='9' => expect_operand = false,
            '(' if expect_operand => depth += 1,
            ')' if !expect_operand && depth > 0 => depth -= 1,
            '+' | '-' | '*' | '/' if !expect_operand => expect_operand = true,
            _ => return -1, // invalid
        }
    }
    if depth == 0 && !expect_operand {
        1 // complete
    } else {
        0 // prefix
    }
}

impl CustomOp for ArithGrammar {
    fn forward(&self, args: &[Value], ctx: &OpCtx<'_>) -> Result<Value, String> {
        let s = args[0].as_str().ok_or("arith() expects a string")?;
        Ok(Value::Bool(match classify(s) {
            1 => true,
            0 => !ctx.var_final,
            _ => false,
        }))
    }

    fn final_hint(&self, args: &[FinalValue], result: &Value, _ctx: &OpCtx<'_>) -> Fin {
        match (args[0].fin, result) {
            (Fin::Inc, Value::Bool(false)) => Fin::Fin,
            (Fin::Fin, _) => Fin::Fin,
            _ => Fin::Var,
        }
    }
}

#[test]
fn example_grammar() {
    let make = || {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(ScriptedLm::new(
            Arc::clone(&bpe),
            [Episode::plain("Formula: ", "2+(3*4")],
        ));
        let mut rt = Runtime::new(lm, bpe);
        rt.register_constraint_op("arith", Arc::new(ArithGrammar));
        rt
    };
    assert_equivalent(
        "grammar",
        &make,
        r#"
argmax(max_length=24)
    "Formula: [EXPR]"
from "scripted-demo"
where arith(EXPR)
"#,
    );
}

#[test]
fn example_sentiment() {
    let make = || {
        char_runtime(vec![Episode {
            trigger: "Sentiment: ".to_owned(),
            script: "POSITIVE".to_owned(),
            digressions: vec![],
            branches: vec![Branch {
                at: 0,
                text: "NEGATIVE".to_owned(),
                weight: SCRIPT_LOGIT - 0.9,
            }],
        }])
    };
    assert_equivalent(
        "sentiment",
        &make,
        r#"
argmax
    "Review: The staff were friendly and the food arrived quickly.\n"
    "Sentiment: [LABEL]"
from "scripted-demo"
distribute LABEL in ["POSITIVE", "NEGATIVE"]
"#,
    );
}

#[test]
fn example_translation() {
    let make = || {
        char_runtime(vec![Episode {
            trigger: "cheese =>".to_owned(),
            script: " fromage".to_owned(),
            digressions: vec![],
            branches: vec![Branch {
                at: 0,
                text: " jambon".to_owned(),
                weight: SCRIPT_LOGIT - 2.5,
            }],
        }])
    };
    assert_equivalent(
        "translation",
        &make,
        r#"
argmax
    "Translate English to French:\n"
    "sea otter => loutre de mer\n"
    "peppermint => menthe poivree\n"
    "plush giraffe => girafe peluche\n"
    "cheese =>[TRANSLATION]"
from "scripted-demo"
distribute TRANSLATION in [" fromage", " jambon", " poisson"]
"#,
    );
}

#[test]
fn example_arithmetic() {
    // The bench ARITHMETIC query shape: an interactive loop splicing
    // calculator results back into the prompt. External calls are
    // scheduling barriers, so the planner stays out; equivalence must
    // hold regardless.
    let make = || {
        let mut rt = scripted_runtime(vec![Episode::plain(
            "A: Let's think step by step.\n",
            " << 2+3 = 5 >> So the answer is 5.",
        )]);
        rt.register_tool(Arc::new(FnTool::new("calculator", "run", |args| {
            let s = args[0].as_str().ok_or("run expects a string")?;
            let sum: i64 = s
                .trim()
                .trim_end_matches('=')
                .trim()
                .split('+')
                .map(|p| p.trim().parse::<i64>().unwrap_or(0))
                .sum();
            Ok(Value::Int(sum))
        })));
        rt.bind("FEWSHOT", Value::Str(String::new()));
        rt.bind("QUESTION", Value::Str("What is 2+3?".into()));
        rt
    };
    assert_equivalent(
        "arithmetic",
        &make,
        r#"import calculator
argmax
    "{FEWSHOT}"
    "Q: {QUESTION}\n"
    "A: Let's think step by step.\n"
    for i in range(16):
        "[STEP]"
        if STEP.endswith("<<"):
            "[EXPR]"
            result = calculator.run(EXPR)
            " {result} >>"
        elif STEP.endswith("So the answer"):
            " is [RESULT]"
            break
from "gpt-j-6b-sim"
where
    int(RESULT) and stops_at(STEP, "<<") and
    stops_at(EXPR, "=") and stops_at(STEP, "So the answer")
"#,
    );
}

#[test]
fn example_chain_of_thought() {
    // The bench ODD_ONE_OUT query shape against the built-in n-gram
    // model: reasoning hole plus a distribute clause over a computed
    // support.
    let make = || {
        let mut rt = ngram_runtime();
        rt.bind("FEWSHOT", Value::Str(String::new()));
        rt.bind("OPTIONS", Value::Str("cat, dog, car".into()));
        rt
    };
    assert_equivalent(
        "chain_of_thought",
        &make,
        r#"
argmax
    "{FEWSHOT}"
    "Pick the odd word out: {OPTIONS}\n"
    "[REASONING]"
    "\nSo the odd one is [RESULT]."
from "gpt-j-6b-sim"
where
    not "\n" in REASONING and not "Pick" in REASONING and
    stops_at(REASONING, ".") and len(words(REASONING)) < 60
distribute
    RESULT in OPTIONS.split(", ")
"#,
    );
}

#[test]
fn example_react() {
    // The bench REACT query shape: a Thought/Action loop with a
    // wikipedia search spliced back in (external call = barrier).
    let make = || {
        let mut rt = scripted_runtime(vec![Episode::plain(
            "Where is cheese made?\n",
            "Tho: I should search.\nAct: Search 'cheese'\nObs: result\nAct: Finish 'done'\n",
        )]);
        rt.register_tool(Arc::new(FnTool::new("wikipedia_utils", "search", |args| {
            let _ = args[0].as_str().ok_or("search expects a string")?;
            Ok(Value::Str("result".into()))
        })));
        rt.bind("FEWSHOT", Value::Str(String::new()));
        rt.bind("QUESTION", Value::Str("Where is cheese made?".into()));
        rt
    };
    assert_equivalent(
        "react",
        &make,
        r#"import wikipedia_utils
argmax
    "{FEWSHOT}"
    "{QUESTION}\n"
    for i in range(10):
        "[MODE]:"
        if MODE == "Tho":
            "[THOUGHT]"
        elif MODE == "Act":
            " [ACTION] '[SUBJECT]\n"
            if ACTION == "Search":
                result = wikipedia_utils.search(SUBJECT[:-1])
                "Obs: {result}\n"
            else:
                break
from "gpt-j-6b-sim"
where
    MODE in ["Tho", "Act"] and stops_at(THOUGHT, "\n") and
    ACTION in ["Search", "Finish"] and stops_at(SUBJECT, "'")
"#,
    );
}

#[test]
fn example_remote() {
    // The remote example's query (the wire stack itself is covered by
    // the server crate's tests; here the query shape rides the suite).
    let make = || {
        scripted_runtime(vec![Episode::plain(
            "Q: What makes Quantum Forge?\nA:",
            " Quantum Forge makes precision actuators. Also other products nobody asked about.",
        )])
    };
    assert_equivalent(
        "remote",
        &make,
        r#"
argmax
    "Q: What makes Quantum Forge?\n"
    "A:[ANSWER]"
from "remote-model"
where stops_at(ANSWER, ".")
"#,
    );
}

// ---------------------------------------------------------------------------
// Generated grid: multi-hole bodies × all four decoder clauses
// ---------------------------------------------------------------------------

/// Builds a straight-line body of `n` holes with per-hole prompts, a
/// where clause assembled from `conjuncts`, and an optional recall edge
/// making hole `i` depend on hole `i-1`.
fn grid_source(decoder: &str, n: usize, conjuncts: &[String], recall_chain: bool) -> String {
    let mut body = String::new();
    for i in 0..n {
        if recall_chain && i > 0 {
            body.push_str(&format!(
                "    \"prev={{H{prev}}} L{i}:[H{i}]\"\n",
                prev = i - 1
            ));
        } else {
            body.push_str(&format!("    \"L{i}:[H{i}]\"\n"));
        }
    }
    let mut src = format!("{decoder}\n{body}from \"m\"\n");
    if !conjuncts.is_empty() {
        src.push_str(&format!("where {}\n", conjuncts.join(" and ")));
    }
    src
}

#[test]
fn generated_grid_all_decoders() {
    // The paper's three decoder clauses plus `distribute` (covered as
    // an argmax run ending in a distribution, the fourth clause form).
    let decoders = ["argmax", "sample(n=2, temperature=1.2)", "beam(n=2)"];
    // Conjunct menus: all completion-safe (holes parallelise), one
    // unsafe shape on an early hole (serialises the suffix), and a
    // sibling-value reference (dependency through the where clause).
    type Menu = fn(usize) -> Vec<String>;
    let menus: [(&str, Menu); 4] = [
        ("safe", |n| {
            (0..n)
                .map(|i| format!("stops_at(H{i}, \"\\n\") and len(H{i}) < 40"))
                .collect()
        }),
        ("unsafe-first", |n| {
            let mut v: Vec<String> = (0..n).map(|i| format!("stops_at(H{i}, \"\\n\")")).collect();
            v.push("len(H0) > 1".to_owned());
            v
        }),
        ("not-in", |n| {
            (0..n)
                .map(|i| format!("stops_at(H{i}, \"\\n\") and not \"q\" in H{i}"))
                .collect()
        }),
        ("bare", |_| Vec::new()),
    ];
    for decoder in decoders {
        for n in [2usize, 3, 4] {
            for (menu_name, menu) in &menus {
                for recall_chain in [false, true] {
                    let source = grid_source(decoder, n, &menu(n), recall_chain);
                    let name = format!("grid {decoder} n={n} {menu_name} chain={recall_chain}");
                    assert_equivalent(&name, &ngram_runtime, &source);
                }
            }
        }
    }
}

#[test]
fn generated_grid_distribute() {
    // The fourth decoder clause: a trailing distribute hole after a
    // parallel group.
    for n in [2usize, 3] {
        let conjuncts: Vec<String> = (0..n).map(|i| format!("stops_at(H{i}, \"\\n\")")).collect();
        let mut source = grid_source("argmax", n, &conjuncts, false);
        source.push_str("distribute D in [\" yes\", \" no\"]\n");
        // The distribute hole needs to appear in the body.
        let source = source.replacen("from \"m\"", "    \"verdict:[D]\"\nfrom \"m\"", 1);
        assert_equivalent(&format!("grid distribute n={n}"), &ngram_runtime, &source);
    }
}

#[test]
fn grid_plans_match_expectations() {
    // Sanity on the grid itself: the safe menu genuinely parallelises
    // and the recall chain genuinely serialises — so the equivalence
    // runs above exercise both code paths.
    let safe = grid_source(
        "argmax",
        3,
        &(0..3)
            .map(|i| format!("stops_at(H{i}, \"\\n\")"))
            .collect::<Vec<_>>(),
        false,
    );
    let program = compile_source(&safe).expect("grid compiles");
    let plan = plan_holes(&program).expect("straight-line body");
    assert_eq!(plan.max_group_len(), 3);

    let chained = grid_source(
        "argmax",
        3,
        &(0..3)
            .map(|i| format!("stops_at(H{i}, \"\\n\")"))
            .collect::<Vec<_>>(),
        true,
    );
    let program = compile_source(&chained).expect("grid compiles");
    let plan = plan_holes(&program).expect("straight-line body");
    assert_eq!(plan.max_group_len(), 1, "recall chain serialises");
}

/// The step debugger is a fold over the event stream, and parallel group
/// members replay their events at their sequential positions — so the
/// folded trace is the same with parallel holes on and off. The on-run
/// must really decode a group in parallel, or this would pass vacuously.
#[test]
fn debug_trace_is_identical_with_parallel_holes_on_and_off() {
    let source = r#"
argmax
    "Q: [JOKE]\n"
    "A: [PUNCHLINE]\n"
from "builtin-ngram"
where
    stops_at(JOKE, "?") and stops_at(PUNCHLINE, "END")
    and len(words(JOKE)) < 20 and len(characters(PUNCHLINE)) > 10
"#;
    let traced = |parallel: bool| {
        let registry = lmql_obs::Registry::new();
        let mut rt = ngram_runtime();
        rt.options_mut().parallel_holes = parallel;
        rt.set_metrics_registry(registry.clone());
        let (sink, collector) = StreamSink::collector();
        rt.run_streamed(source, sink).expect("jokes runs");
        let vocab = corpus::standard_bpe().vocab().len();
        let trace = DebugTrace::from_events(&collector.events(), vocab);
        (trace, registry.counter("holes.parallel").get())
    };
    let (on, parallel_members) = traced(true);
    let (off, sequential_members) = traced(false);
    assert!(parallel_members > 0, "the group decoded in parallel");
    assert_eq!(sequential_members, 0);
    assert_eq!(on.holes.len(), 2);
    assert!(on.holes.iter().all(|h| !h.steps.is_empty()));
    assert_eq!(on, off);
    assert_eq!(on.render(), off.render());
}
