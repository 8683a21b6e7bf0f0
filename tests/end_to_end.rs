//! Cross-crate integration tests: full pipelines from dataset instances
//! through scripted models, the LMQL runtime and the baseline, checking
//! the paper's qualitative claims end to end.

use lmql::constraints::MaskEngine;
use lmql::{FnTool, Runtime, Value};
use lmql_bench::experiments::{lm_derail_branch, lm_digression};
use lmql_datasets::wiki::MiniWiki;
use lmql_datasets::{calculator, gsm8k, hotpot, odd_one_out, GPT_J_PROFILE};
use lmql_lm::{corpus, Episode, ScriptedLm};
use std::sync::Arc;

fn cot_runtime(inst: &odd_one_out::Instance) -> Runtime {
    let bpe = corpus::standard_bpe();
    let question_line = format!("Pick the odd word out: {}", inst.options_line);
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode {
            trigger: format!("{question_line}\n"),
            script: inst.script(),
            digressions: inst
                .digression
                .iter()
                .map(|d| lm_digression(d, "So the odd one is "))
                .collect(),
            branches: inst
                .digression
                .iter()
                .map(|d| lm_derail_branch(d, "So the odd one is "))
                .collect(),
        }],
    ));
    let mut rt = Runtime::new(lm, bpe);
    rt.bind("FEWSHOT", Value::Str(odd_one_out::FEW_SHOT.into()));
    rt.bind("OPTIONS", Value::Str(inst.options_line.clone()));
    rt
}

#[test]
fn lmql_suppresses_digressions_end_to_end() {
    let inst = odd_one_out::generate(40, 5, &GPT_J_PROFILE)
        .into_iter()
        .find(|i| i.digression.is_some())
        .expect("some instance digresses");
    let rt = cot_runtime(&inst);
    let result = rt.run(lmql_bench::queries::ODD_ONE_OUT).unwrap();
    // The where clause forbids newlines in REASONING, so the digression
    // (which starts with one) was masked and the reasoning is the clean
    // intended sentence.
    assert_eq!(
        result.best().var_str("REASONING"),
        Some(inst.reasoning.as_str())
    );
    assert!(!result.best().var_str("REASONING").unwrap().contains("Pick"));
    // The answer is the model's intended one.
    assert_eq!(
        result.top_distribution_value(),
        Some(inst.model_answer.as_str())
    );
}

#[test]
fn both_mask_engines_produce_identical_runs() {
    let inst = odd_one_out::generate(3, 8, &GPT_J_PROFILE).remove(1);
    let mut traces = Vec::new();
    for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
        let mut rt = cot_runtime(&inst);
        rt.options_mut().engine = engine;
        let result = rt.run(lmql_bench::queries::ODD_ONE_OUT).unwrap();
        traces.push(result.best().trace.clone());
    }
    assert_eq!(traces[0], traces[1]);
}

#[test]
fn react_full_pipeline_with_real_lookups() {
    let wiki = MiniWiki::standard();
    for inst in hotpot::generate(4, 11, &GPT_J_PROFILE) {
        let bpe = corpus::standard_bpe();
        let lm = Arc::new(ScriptedLm::new(
            Arc::clone(&bpe),
            [Episode::plain(
                format!("{}\n", inst.question),
                inst.script.clone(),
            )],
        ));
        let mut rt = Runtime::new(lm, bpe);
        let w = wiki.clone();
        rt.register_tool(Arc::new(FnTool::new(
            "wikipedia_utils",
            "search",
            move |args| Ok(Value::Str(w.search(args[0].as_str().ok_or("bad arg")?))),
        )));
        rt.bind("FEWSHOT", Value::Str(hotpot::FEW_SHOT.into()));
        rt.bind("QUESTION", Value::Str(inst.question.clone()));
        let result = rt.run(lmql_bench::queries::REACT).unwrap();

        // The answer comes back through the Finish action's SUBJECT.
        let answer = result
            .best()
            .var_str("SUBJECT")
            .map(|s| s.trim_end_matches('\''))
            .unwrap();
        assert!(inst.is_correct(answer), "wrong answer {answer:?}");
        // The observations in the trace are real wiki search results.
        for hop in &inst.hops {
            assert!(result
                .best()
                .trace
                .contains(&format!("Obs: {}", wiki.search(hop))));
        }
        // One decoder call for the whole interactive flow.
        assert_eq!(rt.meter().snapshot().decoder_calls, 1);
    }
}

#[test]
fn arithmetic_full_pipeline_with_calculator() {
    for inst in gsm8k::generate(4, 13, &GPT_J_PROFILE) {
        let bpe = corpus::standard_bpe();
        let run_on = format!("{}\n\n{}", inst.script, gsm8k::FEW_SHOT);
        let lm = Arc::new(ScriptedLm::new(
            Arc::clone(&bpe),
            [Episode::plain(
                format!("Q: {}\nA: Let's think step by step.\n", inst.question),
                run_on,
            )],
        ));
        let mut rt = Runtime::new(lm, bpe);
        rt.register_tool(Arc::new(FnTool::new("calculator", "run", |args| {
            calculator::run(args[0].as_str().ok_or("bad arg")?)
                .map(Value::Int)
                .map_err(|e| e.to_string())
        })));
        rt.bind("FEWSHOT", Value::Str(gsm8k::FEW_SHOT.into()));
        rt.bind("QUESTION", Value::Str(inst.question.clone()));
        let result = rt.run(lmql_bench::queries::ARITHMETIC).unwrap();

        assert!(inst.is_correct(result.best().var_str("RESULT").unwrap()));
        // Every calculator result was spliced into the trace.
        for (_, v) in &inst.expressions {
            assert!(result.best().trace.contains(&format!(" {v} >>")));
        }
    }
}

#[test]
fn constraints_can_force_unscripted_output() {
    // §2.3: "constraints can also force a model to generate text that
    // unconstrained it would have never explored". The script wants
    // " maybe"; the constraint only allows yes/no.
    let bpe = corpus::standard_bpe();
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode::plain("Verdict:", " maybe")],
    ));
    let rt = Runtime::new(lm, bpe);
    let result = rt
        .run("argmax\n    \"Verdict:[V]\"\nfrom \"m\"\nwhere V in [\" yes\", \" no\"]\n")
        .unwrap();
    let v = result.best().var_str("V").unwrap();
    assert!(v == " yes" || v == " no");
}

#[test]
fn sampling_is_deterministic_per_seed() {
    let bpe = corpus::standard_bpe();
    let lm = corpus::standard_ngram();
    let run = |seed: u64| {
        let mut rt = Runtime::new(lm.clone(), Arc::clone(&bpe));
        rt.options_mut().seed = seed;
        rt.run(
            "sample(n=2, temperature=1.2)\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n",
        )
        .unwrap()
        .runs
        .iter()
        .map(|r| r.trace.clone())
        .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(1));
    // Individual seed pairs may coincide on a peaked distribution; across
    // a handful of seeds the sampler must explore more than one outcome.
    let outcomes: std::collections::HashSet<Vec<String>> = (1..=6).map(run).collect();
    assert!(
        outcomes.len() > 1,
        "different seeds should explore differently"
    );
}
