//! Differential suite for the first-class tool API (DESIGN.md §16).
//!
//! The calculator and wiki tools must be *byte-identical* to the legacy
//! closures they replace (kept here as `FnTool`s) — same traces, same hole
//! values, same log-probs — across every decoder (argmax, sample, beam,
//! distribute). Also covers the request-level registry
//! ([`QueryRequest::tool`]) and the router's engine-config path.

use lmql::{FnTool, QueryRequest, QueryResult, Runtime, ToolRegistry, Value};
use lmql_datasets::tools::{CalculatorTool, WikiTool};
use lmql_datasets::wiki::MiniWiki;
use lmql_datasets::{calculator, hotpot, GPT_J_PROFILE};
use lmql_engine::{EngineConfig, QueryStream, Router, RouterConfig};
use lmql_lm::{corpus, Episode, LanguageModel, ScriptedLm};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

/// Everything observable about a result, for byte-identity assertions.
type RunFingerprint = (String, u64, Vec<(String, String)>);

fn fingerprint(result: &QueryResult) -> Vec<RunFingerprint> {
    result
        .runs
        .iter()
        .map(|run| {
            (
                run.trace.clone(),
                run.log_prob.to_bits(),
                run.hole_records
                    .iter()
                    .map(|r| (r.var.clone(), r.value.clone()))
                    .collect(),
            )
        })
        .collect()
}

fn calc_model(bpe: &Arc<Bpe>) -> Arc<dyn LanguageModel> {
    Arc::new(ScriptedLm::new(
        Arc::clone(bpe),
        [Episode::plain("Q: add <<", "3 + 4 =")],
    ))
}

/// Every branch the decoder can take feeds the calculator a parseable
/// expression, so sampled/beam paths that leave the model's intended
/// script still exercise the tool rather than erroring out.
fn calc_query(decoder: &str) -> String {
    format!(
        "import calculator\n{decoder}\n    \"Q: add <<[EXPR]\"\n    \
         result = calculator.run(EXPR)\n    \" {{result}} >>\"\nfrom \"m\"\n\
         where EXPR in [\"3 + 4 =\", \"3 * 4 =\"]\n"
    )
}

/// The legacy closure registration the tool replaces (verbatim from the
/// pre-tool examples).
fn register_legacy_calculator(rt: &mut Runtime) {
    #[allow(deprecated)]
    rt.register_tool(Arc::new(FnTool::new("calculator", "run", |args| {
        calculator::run(args[0].as_str().ok_or("bad arg")?)
            .map(Value::Int)
            .map_err(|e| e.to_string())
    })));
}

#[test]
fn calculator_tool_matches_legacy_closure_across_decoders() {
    let bpe = Arc::new(Bpe::char_level(""));
    let decoders = [
        "argmax",
        "sample(n=2, temperature=1.2)",
        "beam(n=2)",
        // distribute rides on an argmax body (the fourth decoder mode).
    ];
    for decoder in decoders {
        let source = calc_query(decoder);

        let mut legacy = Runtime::new(calc_model(&bpe), Arc::clone(&bpe));
        legacy.options_mut().seed = 7;
        register_legacy_calculator(&mut legacy);
        let legacy_result = legacy.run(&source).expect("legacy run");

        let mut tooled = Runtime::new(calc_model(&bpe), Arc::clone(&bpe));
        tooled.options_mut().seed = 7;
        tooled.register_tool(Arc::new(CalculatorTool));
        let tooled_result = tooled.run(&source).expect("tooled run");

        assert_eq!(
            fingerprint(&legacy_result),
            fingerprint(&tooled_result),
            "decoder {decoder}: tool output diverged from legacy closure"
        );
        // Same usage accounting, too.
        assert_eq!(
            legacy.meter().snapshot().billable_tokens,
            tooled.meter().snapshot().billable_tokens,
            "decoder {decoder}"
        );
    }
}

#[test]
fn calculator_tool_matches_legacy_closure_under_distribute() {
    let bpe = Arc::new(Bpe::char_level(""));
    let source = "import calculator\nargmax\n    \"Q: add <<[EXPR]\"\n    \
                  result = calculator.run(EXPR)\n    \" {result} >> so[ANS]\"\nfrom \"m\"\n\
                  where stops_at(EXPR, \"=\")\ndistribute ANS in [\" 7\", \" 8\"]\n";

    let mut legacy = Runtime::new(calc_model(&bpe), Arc::clone(&bpe));
    register_legacy_calculator(&mut legacy);
    let legacy_result = legacy.run(source).expect("legacy run");

    let mut tooled = Runtime::new(calc_model(&bpe), Arc::clone(&bpe));
    tooled.register_tool(Arc::new(CalculatorTool));
    let tooled_result = tooled.run(source).expect("tooled run");

    assert_eq!(fingerprint(&legacy_result), fingerprint(&tooled_result));
    let legacy_dist = legacy_result.distribution.expect("legacy distribution");
    let tooled_dist = tooled_result.distribution.expect("tooled distribution");
    assert_eq!(legacy_dist.len(), tooled_dist.len());
    for ((lv, lp), (tv, tp)) in legacy_dist.iter().zip(&tooled_dist) {
        assert_eq!(lv, tv);
        assert_eq!(lp.to_bits(), tp.to_bits());
    }
}

#[test]
fn wiki_tool_matches_legacy_closure_on_react() {
    let bpe = corpus::standard_bpe();
    let wiki = MiniWiki::standard();
    let inst = hotpot::generate(1, 5, &GPT_J_PROFILE).remove(0);
    let episode = Episode::plain(format!("{}\n", inst.question), inst.script.clone());

    for decoder in ["argmax", "beam(n=2)", "sample(n=2, temperature=1.1)"] {
        let source = lmql_bench::queries::REACT.replacen("argmax", decoder, 1);
        let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), [episode.clone()]));

        let mut legacy = Runtime::new(lm.clone(), Arc::clone(&bpe));
        legacy.options_mut().seed = 11;
        let w = wiki.clone();
        #[allow(deprecated)]
        legacy.register_tool(Arc::new(FnTool::new(
            "wikipedia_utils",
            "search",
            move |args| Ok(Value::Str(w.search(args[0].as_str().ok_or("bad arg")?))),
        )));
        legacy.bind("FEWSHOT", Value::Str(hotpot::FEW_SHOT.into()));
        legacy.bind("QUESTION", Value::Str(inst.question.clone()));
        let legacy_result = legacy.run(&source).expect("legacy run");

        let mut tooled = Runtime::new(lm, Arc::clone(&bpe));
        tooled.options_mut().seed = 11;
        tooled.register_tool(Arc::new(WikiTool::new(wiki.clone())));
        tooled.bind("FEWSHOT", Value::Str(hotpot::FEW_SHOT.into()));
        tooled.bind("QUESTION", Value::Str(inst.question.clone()));
        let tooled_result = tooled.run(&source).expect("tooled run");

        assert_eq!(
            fingerprint(&legacy_result),
            fingerprint(&tooled_result),
            "decoder {decoder}: wiki tool diverged from legacy closure"
        );
    }
}

#[test]
fn request_level_tools_apply_to_one_query_only() {
    let bpe = Arc::new(Bpe::char_level(""));
    let runtime = Runtime::new(calc_model(&bpe), Arc::clone(&bpe));
    assert!(runtime.tools().is_empty());

    let request = QueryRequest::new(calc_query("argmax")).tool(Arc::new(CalculatorTool));
    let result = runtime.execute(&request).expect("request with tools");
    assert!(
        result.best().trace.contains(" 7 >>"),
        "{}",
        result.best().trace
    );
    // The request's registry metered the call; the runtime stays bare.
    assert_eq!(
        request.tool_registry().usage(),
        vec![("calculator".to_owned(), 1)]
    );
    assert!(runtime.tools().is_empty());

    // Without the request-level tool the same query fails to resolve.
    let bare = QueryRequest::new(calc_query("argmax"));
    assert!(runtime.execute(&bare).is_err());
}

#[test]
fn engine_config_tools_reach_every_worker() {
    let bpe = Arc::new(Bpe::char_level(""));
    let tools = ToolRegistry::new().with(Arc::new(CalculatorTool));
    let router = Router::new(
        calc_model(&bpe),
        Arc::clone(&bpe),
        RouterConfig {
            engine: EngineConfig {
                tools: tools.clone(),
                ..EngineConfig::default()
            },
            ..RouterConfig::default()
        },
    );
    let source = calc_query("argmax");
    // Four queries in flight at once, one thread each.
    let streams: Vec<QueryStream> = (0..4)
        .map(|_| router.stream_query(source.as_str()))
        .collect();
    for stream in streams {
        let result = stream.wait().expect("routed query");
        assert!(result.best().trace.contains(" 7 >>"));
    }
    // Shared counters roll usage up across the pool.
    assert_eq!(tools.usage(), vec![("calculator".to_owned(), 4)]);
}
