//! The observability acceptance path end to end: a `sample(n)` query run
//! through the router with tracing on must emit a Chrome-trace
//! JSON (loadable in `chrome://tracing`) containing spans for hole
//! decoding, batch dispatch and cache hits — and metrics must agree with
//! the usage meter.

use lmql_engine::{Router, RouterConfig, RouterObs};
use lmql_lm::{Episode, ScriptedLm};
use lmql_obs::{chrome, Registry, Tracer};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

const SAMPLE_QUERY: &str =
    "sample(n=2, temperature=1.2)\n    \"Q:[A]\"\nfrom \"m\"\nwhere stops_at(A, \".\")\n";

fn traced_router(tracer: Tracer, registry: Option<Registry>) -> Router {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode::plain("Q:", " ok.")],
    ));
    Router::new_with_obs(
        lm,
        bpe,
        RouterConfig::default(),
        RouterObs { tracer, registry },
    )
}

#[test]
fn sample_run_emits_chrome_trace_with_required_spans() {
    let tracer = Tracer::manual();
    let eng = traced_router(tracer.clone(), None);
    // Two identical sample(n) queries, one after the other: the repeat's
    // contexts are all prefix-cache hits.
    for _ in 0..2 {
        let result = eng.run_query(SAMPLE_QUERY);
        assert!(result.is_ok(), "{result:?}");
    }

    let events = tracer.events();
    let json = chrome::to_chrome_json(&events);

    // Loadable in chrome://tracing: the canonical object form with a
    // traceEvents array of complete ("X") and instant ("i") events.
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"i\""));
    let parsed = chrome::parse_chrome_json(&json).expect("trace JSON round-trips");
    assert_eq!(parsed, events, "export is lossless");

    // The required spans, found in the JSON itself (not just the event
    // list): hole decoding, batch dispatch, cache hits.
    assert!(json.contains("\"name\":\"hole:A\""), "hole-decoding span");
    assert!(
        json.contains("\"name\":\"dispatch\""),
        "batch-dispatch span"
    );
    assert!(json.contains("\"name\":\"hit\""), "cache-hit instant");
    assert!(
        json.contains("\"name\":\"run:sample\""),
        "decoder-level span"
    );
    assert!(json.contains("\"name\":\"compute_mask\""), "mask span");
}

#[test]
fn engine_metrics_snapshot_is_consistent_with_usage() {
    let registry = Registry::new();
    let eng = traced_router(Tracer::disabled(), Some(registry.clone()));
    assert!(eng.run_query(SAMPLE_QUERY).is_ok());

    let usage = eng.stats().usage;
    assert!(usage.model_queries > 0);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("lm.model_queries"), Some(usage.model_queries));
    assert_eq!(
        snap.histogram("engine.batch.size").unwrap().sum,
        usage.model_queries,
        "every model query went through a dispatch"
    );
    // The text exposition carries all three metric kinds.
    let text = snap.render_text();
    assert!(text.contains("counter lm.model_queries"), "{text}");
    assert!(text.contains("gauge engine.cache.entries"), "{text}");
    assert!(text.contains("histogram engine.batch.wait_us"), "{text}");
}

#[test]
fn disabled_tracer_stays_silent_through_the_engine() {
    let tracer = Tracer::disabled();
    let eng = traced_router(tracer.clone(), None);
    assert!(eng.run_query(SAMPLE_QUERY).is_ok());
    assert!(tracer.events().is_empty());
    assert_eq!(chrome::to_chrome_json(&[]), "{\"traceEvents\":[\n\n]}\n");
}
