//! One agreement table for every way in (the first rows of ROADMAP
//! item 4's matrix): a fixed corpus of programs × a non-default
//! [`QueryRequest`] × every entry point that takes one. The request
//! travels `Router::serve` → the replica's serve → `Runtime::execute`
//! unchanged, so each row must yield the same traces, hole values,
//! log-prob bits and `Usage` as `Runtime::execute` on the bare model —
//! and what a request carries (bindings, seed, tools) must be visible to
//! that request only, because every query runs on a clone of its
//! replica's one template runtime.

mod common;

use common::run_concurrently;
use lmql::{
    DecodeOptions, FnTool, QueryEvent, QueryRequest, QueryResult, Reassembler, Runtime, StreamSink,
    Tool, ToolRegistry, ToolSchema, Value,
};
use lmql_engine::{Router, RouterConfig, RouterObs};
use lmql_lm::{
    Branch, CancelToken, ChaosLm, Episode, FaultPlan, LanguageModel, ScriptedLm, SCRIPT_LOGIT,
};
use lmql_obs::Registry;
use lmql_tokenizer::Bpe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MULTI_HOLE: &str = r#"
argmax
    "Hi {WHO}. A:[X]B:[Y]"
from "m"
where stops_at(X, ".") and stops_at(Y, ".")
"#;

const SAMPLE: &str = r#"
sample(n=3)
    "{WHO} S:[X]"
from "m"
where stops_at(X, ".")
"#;

const BEAM: &str = r#"
beam(n=2)
    "M:[X]"
from "m"
where stops_at(X, ".")
"#;

const DISTRIBUTE: &str = r#"
argmax
    "{WHO} best:[CHOICE]"
from "m"
distribute CHOICE in [" alpha", " beta", " gamma"]
"#;

const TOOL_CALL: &str = r#"
import calc
argmax
    "calc:[EXPR]"
    r = calc.double(EXPR)
    " = {r}"
from "m"
where stops_at(EXPR, "3")
"#;

const SUBQUERY: &str = r#"
argmax
    "Q:[A]"
    sub = subquery("import calc\nargmax\n    \"T:[B]\"\n    d = calc.double(B)\n    \"={d}\"\nfrom \"m\"\nwhere stops_at(B, \"7\")\n")
    " sub={sub}"
from "m"
where stops_at(A, "\n")
"#;

const CORPUS: [(&str, &str); 6] = [
    ("multi-hole argmax", MULTI_HOLE),
    ("sample(n=3)", SAMPLE),
    ("beam(n=2)", BEAM),
    ("distribute", DISTRIBUTE),
    ("tool call", TOOL_CALL),
    ("subquery", SUBQUERY),
];

fn bpe() -> Arc<Bpe> {
    Arc::new(Bpe::char_level(""))
}

fn model(bpe: &Arc<Bpe>) -> Arc<dyn LanguageModel> {
    let branch = |text: &str, weight: f64| Branch {
        at: 0,
        text: text.to_owned(),
        weight,
    };
    let branching = |trigger: &str, script: &str, alt: Branch| Episode {
        trigger: trigger.to_owned(),
        script: script.to_owned(),
        digressions: vec![],
        branches: vec![alt],
    };
    Arc::new(ScriptedLm::new(
        Arc::clone(bpe),
        [
            Episode::plain("A:", " one. and more"),
            // Longer than the request's max_tokens: the budget cuts it.
            Episode::plain("B:", " a long answer nobody finishes."),
            branching("S:", " sampled.", branch(" other.", SCRIPT_LOGIT - 0.4)),
            branching("M:", " up.", branch(" down.", SCRIPT_LOGIT - 0.5)),
            branching("best:", " alpha", branch(" beta", 11.4)),
            Episode::plain("calc:", " 23 and"),
            Episode::plain("Q:", " hi\n"),
            Episode::plain("T:", " 17 x"),
        ],
    ))
}

fn calc() -> Arc<dyn Tool> {
    Arc::new(FnTool::new("calc", "double", |args| {
        let n: i64 = args[0]
            .as_str()
            .and_then(|s| s.trim().parse().ok())
            .ok_or("calc.double takes a numeric string")?;
        Ok(Value::Int(n * 2))
    }))
}

/// The non-default request every row runs: each setting changes what a
/// default run would do (or would fail without — the binding, the tool).
fn request(source: &str) -> QueryRequest {
    QueryRequest::new(source)
        .seed(7)
        .max_tokens(8)
        .bind("WHO", Value::Str("me".into()))
        .parallel_holes(false)
        .tool(calc())
}

type Usage = (u64, u64, u64);

/// One run: trace, `(var, value)` holes in decode order, log-prob bits.
type Run = (String, Vec<(String, String)>, u64);

/// What every entry point must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Best first.
    runs: Vec<Run>,
    distribution: Option<Vec<(String, u64)>>,
}

fn bits(dist: &Option<Vec<(String, f64)>>) -> Option<Vec<(String, u64)>> {
    dist.as_ref()
        .map(|d| d.iter().map(|(v, p)| (v.clone(), p.to_bits())).collect())
}

fn of_result(result: &lmql::Result<QueryResult>) -> Outcome {
    let result = result.as_ref().expect("query must succeed");
    Outcome {
        runs: result
            .runs
            .iter()
            .map(|run| {
                let holes = run
                    .hole_records
                    .iter()
                    .map(|r| (r.var.clone(), r.value.clone()))
                    .collect();
                (run.trace.clone(), holes, run.log_prob.to_bits())
            })
            .collect(),
        distribution: bits(&result.distribution),
    }
}

/// Reassembles a complete (never replayed) event stream.
fn of_events(events: &[QueryEvent]) -> (Outcome, Usage) {
    let rebuilt = Reassembler::from_events(events).expect("well-formed stream");
    assert!(rebuilt.error.is_none(), "{:?}", rebuilt.error);
    let outcome = Outcome {
        runs: rebuilt
            .runs
            .iter()
            .map(|run| (run.trace.clone(), run.holes.clone(), run.log_prob.to_bits()))
            .collect(),
        distribution: bits(&rebuilt.distribution),
    };
    (outcome, rebuilt.usage.expect("stream carries Usage"))
}

/// The `Usage` of the attempt that finished (after a fail-over the
/// stream also holds the failed attempt's partial events).
fn last_usage(events: &[QueryEvent]) -> Usage {
    events
        .iter()
        .rev()
        .find_map(|e| match e {
            QueryEvent::Usage {
                model_queries,
                decoder_calls,
                billable_tokens,
            } => Some((*model_queries, *decoder_calls, *billable_tokens)),
            _ => None,
        })
        .expect("stream carries Usage")
}

fn snapshot(rt: &Runtime) -> Usage {
    let u = rt.meter().snapshot();
    (u.model_queries, u.decoder_calls, u.billable_tokens)
}

fn pool(replicas: usize, registry: Option<Registry>) -> Router {
    let bpe = bpe();
    Router::new_with_obs(model(&bpe), bpe, pool_config(replicas), obs(registry))
}

fn pool_config(replicas: usize) -> RouterConfig {
    RouterConfig {
        replicas,
        ..RouterConfig::default()
    }
}

fn obs(registry: Option<Registry>) -> RouterObs {
    RouterObs {
        registry,
        ..RouterObs::default()
    }
}

#[test]
fn every_entry_point_agrees_with_execute() {
    for (name, source) in CORPUS {
        let bpe = bpe();
        let request = request(source);

        // The reference: `Runtime::execute` on the bare model.
        let rt = Runtime::new(model(&bpe), Arc::clone(&bpe));
        let want = of_result(&rt.execute(&request));
        let want_usage = snapshot(&rt);
        let check = |row: &str, got: Outcome, usage: Option<Usage>| {
            assert_eq!(got, want, "{name}: {row} differs from execute");
            if let Some(usage) = usage {
                assert_eq!(usage, want_usage, "{name}: {row} Usage differs");
            }
        };

        // Streamed `execute`, reassembled.
        let rt = Runtime::new(model(&bpe), Arc::clone(&bpe));
        let (sink, collector) = StreamSink::collector();
        let result = rt.execute(&request.clone().stream(sink));
        check("streamed execute (result)", of_result(&result), None);
        let (got, usage) = of_events(&collector.take());
        check("streamed execute (reassembled)", got, Some(usage));

        // `run_streamed` takes a bare source: the same settings as the
        // runtime's own defaults must mean the same run.
        let mut rt = Runtime::new(model(&bpe), Arc::clone(&bpe))
            .with_options(request.apply_to(&DecodeOptions::default()));
        rt.bind("WHO", Value::Str("me".into()));
        rt.register_tool(calc());
        let (sink, collector) = StreamSink::collector();
        let result = rt.run_streamed(source, sink);
        check("run_streamed (result)", of_result(&result), None);
        let (got, usage) = of_events(&collector.take());
        check("run_streamed (reassembled)", got, Some(usage));

        // `Router::serve` and `Router::stream_query` at replicas 1.
        let router = pool(1, None);
        let (sink, collector) = StreamSink::collector();
        let result = router.serve(&request, &sink, &CancelToken::new());
        check("Router::serve (result)", of_result(&result), None);
        let (got, usage) = of_events(&collector.take());
        check("Router::serve (reassembled)", got, Some(usage));
        let stream = router.stream_query(request.clone());
        let (got, usage) = of_events(&stream.events().collect::<Vec<_>>());
        check("Router::stream_query (reassembled)", got, Some(usage));
        check(
            "Router::stream_query (wait)",
            of_result(&stream.wait()),
            None,
        );

        // A request that carries its own sink: the serving layer's
        // handle still gets the whole stream (its sink wins).
        let (own, own_events) = StreamSink::collector();
        let sinked = request.clone().stream(own);
        let stream = router.stream_query(sinked.clone());
        let (got, usage) = of_events(&stream.events().collect::<Vec<_>>());
        check(
            "Router::stream_query at replicas 1 (own sink)",
            got,
            Some(usage),
        );
        let stream = pool(2, None).stream_query(sinked);
        let (got, usage) = of_events(&stream.events().collect::<Vec<_>>());
        check(
            "Router::stream_query at replicas 2 (own sink)",
            got,
            Some(usage),
        );
        assert!(own_events.take().is_empty(), "{name}: serve's sink wins");

        // The pool, whatever its size.
        for replicas in [1, 2] {
            let router = pool(replicas, None);
            let row = format!("Router::run_query at replicas {replicas}");
            check(&row, of_result(&router.run_query(request.clone())), None);
            let stream = router.stream_query(request.clone());
            let (got, usage) = of_events(&stream.events().collect::<Vec<_>>());
            let row = format!("Router::stream_query at replicas {replicas}");
            check(&row, got, Some(usage));
            check(&row, of_result(&stream.wait()), None);
        }

        // A seeded replica death mid-query: the retry on the healthy
        // replica executes the same request.
        let doomed = pool(2, None).route_for(source);
        let chaos: Arc<dyn LanguageModel> = Arc::new(ChaosLm::new(
            model(&bpe),
            FaultPlan {
                seed: 17,
                fatal_on_calls: vec![1],
                ..FaultPlan::default()
            },
        ));
        let clean = model(&bpe);
        let router = Router::with_backends(
            |i| Arc::clone(if i == doomed { &chaos } else { &clean }),
            Arc::clone(&bpe),
            pool_config(2),
            obs(None),
        );
        let stream = router.stream_query(request.clone());
        let events: Vec<QueryEvent> = stream.events().collect();
        check(
            "fail-over (wait)",
            of_result(&stream.wait()),
            Some(last_usage(&events)),
        );
        assert_eq!(router.stats().failovers, 1, "{name}: the replica must die");
    }
}

/// The per-request tool and `parallel_holes(false)` reach the runtime
/// through the pool — and stay with their request.
#[test]
fn request_settings_reach_the_pooled_runtime_and_stay_with_their_request() {
    for replicas in [1, 2] {
        let registry = Registry::new();
        let router = pool(replicas, Some(registry.clone()));
        let holes_parallel = || registry.snapshot().counter("holes.parallel").unwrap_or(0);

        router.run_query(request(MULTI_HOLE)).unwrap();
        assert_eq!(holes_parallel(), 0, "parallel_holes(false) was dropped");
        let relaxed = QueryRequest::new(MULTI_HOLE).bind("WHO", Value::Str("me".into()));
        router.run_query(relaxed).unwrap();
        assert_eq!(holes_parallel(), 2, "the next request decodes in parallel");

        router.run_query(request(TOOL_CALL)).unwrap();
        router.run_query(request(SUBQUERY)).unwrap();
        // The next requests on the same engines see neither the tool…
        for source in [TOOL_CALL, SUBQUERY] {
            let err = router.run_query(source).unwrap_err();
            assert!(err.to_string().contains("not registered"), "{err}");
        }
        // …nor the binding…
        let err = router.run_query(MULTI_HOLE).unwrap_err();
        assert!(err.to_string().contains("WHO"), "{err}");
        // …nor the seed: a bare sample equals one on an untouched pool.
        let unseeded = QueryRequest::new(SAMPLE).bind("WHO", Value::Str("me".into()));
        router.run_query(unseeded.clone().seed(7)).unwrap();
        assert_eq!(
            of_result(&router.run_query(unseeded.clone())),
            of_result(&pool(replicas, None).run_query(unseeded)),
        );
    }
}

/// Two different queries served back to back each stream their own
/// `Usage` (a fresh meter per query) while the replica's `lm.*` totals
/// are their sum.
#[test]
fn each_served_query_meters_alone_and_the_engine_sums() {
    let bpe = bpe();
    let registry = Registry::new();
    let router = pool(1, Some(registry.clone()));
    let mut total = 0;
    for source in [TOOL_CALL, SUBQUERY] {
        let request = QueryRequest::new(source).tool(calc());
        let alone = Runtime::new(model(&bpe), Arc::clone(&bpe));
        alone.execute(&request).unwrap();

        let (sink, collector) = StreamSink::collector();
        router.serve(&request, &sink, &CancelToken::new()).unwrap();
        let usage = last_usage(&collector.take());
        assert_eq!(usage, snapshot(&alone), "{source}");
        total += usage.0;
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("lm.model_queries"), Some(total));
}

/// A tool that counts how often it is asked for its schema.
struct CountingTool {
    schemas: Arc<AtomicU64>,
}

impl Tool for CountingTool {
    fn name(&self) -> &str {
        "calc"
    }

    fn schema(&self) -> ToolSchema {
        self.schemas.fetch_add(1, Ordering::SeqCst);
        ToolSchema::new("calc", "doubles").function("double", &["n"], "n * 2")
    }

    fn invoke(&self, func: &str, args: &[Value]) -> Result<Value, String> {
        calc().invoke(func, args)
    }
}

/// Tools are installed once, on each replica's template runtime: serving
/// more queries never asks a tool for its schema again, and call counts
/// still roll up on the registry the pool was seeded from.
#[test]
fn tools_are_installed_once_per_engine_not_per_query() {
    for replicas in [1, 2] {
        let schemas = Arc::new(AtomicU64::new(0));
        let tools = ToolRegistry::new().with(Arc::new(CountingTool {
            schemas: Arc::clone(&schemas),
        }));
        let bpe = bpe();
        let mut config = pool_config(replicas);
        config.engine.tools = tools.clone();
        let router = Router::new(model(&bpe), bpe, config);
        let built = schemas.load(Ordering::SeqCst);
        assert_eq!(built, replicas as u64, "one install per engine");

        for _ in 0..20 {
            router.run_query(TOOL_CALL).unwrap();
        }
        assert_eq!(schemas.load(Ordering::SeqCst), built, "grew with traffic");
        assert_eq!(tools.usage(), vec![("calc".to_owned(), 20)]);
    }

    // The same roll-up under concurrent callers, subquery children
    // included.
    let bpe = bpe();
    let tools = ToolRegistry::new().with(calc());
    let mut config = pool_config(1);
    config.engine.tools = tools.clone();
    let router = Router::new(model(&bpe), bpe, config);
    run_concurrently(&router, &[TOOL_CALL, TOOL_CALL, SUBQUERY]);
    assert_eq!(tools.usage(), vec![("calc.double".to_owned(), 3)]);
}
