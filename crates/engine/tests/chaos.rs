//! Chaos integration: the engine under a seeded fault plan.
//!
//! A [`ChaosLm`] injects transient errors, truncated replies and latency
//! spikes into a fixed fraction of model calls. The scheduler's per-item
//! recovery (fallback direct scoring with retries) must absorb every
//! fault: concurrent queries return results *identical* to a fault-free run,
//! nothing hangs, and the dispatcher survives. Fatal injections, by
//! contrast, must fail exactly the affected query — and only it.

mod common;

use common::run_concurrently;
use lmql_engine::{EngineConfig, Router, RouterConfig};
use lmql_lm::LanguageModel;
use lmql_lm::{ChaosLm, Episode, FaultPlan, RetryPolicy, ScriptedLm};
use lmql_tokenizer::Bpe;
use std::sync::Arc;
use std::time::Duration;

const QUERIES: [&str; 3] = [
    "argmax\n    \"A:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n",
    "argmax\n    \"B:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n",
    "argmax\n    \"C:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n",
];

fn episodes() -> Vec<Episode> {
    vec![
        Episode::plain("A:", " first answer."),
        Episode::plain("B:", " second answer."),
        Episode::plain("C:", " third, longer answer."),
    ]
}

fn scripted() -> (Arc<ScriptedLm>, Arc<Bpe>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes()));
    (lm, bpe)
}

/// A one-replica router over `lm`.
fn router(lm: Arc<dyn LanguageModel>, bpe: Arc<Bpe>, engine: EngineConfig) -> Router {
    Router::new(
        lm,
        bpe,
        RouterConfig {
            engine,
            ..RouterConfig::default()
        },
    )
}

/// A retry budget generous enough to out-last any fault streak the plan
/// can produce, with sub-millisecond backoffs so the test stays fast.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 10,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
        jitter: 0.5,
        seed: 11,
        deadline: None,
    }
}

/// Runs the query set and flattens every run's trace and exact
/// log-probability bits into one comparable vector.
fn outcomes(router: &Router) -> Vec<(String, u64)> {
    run_concurrently(router, &QUERIES)
        .into_iter()
        .map(|r| r.expect("query must succeed"))
        .flat_map(|result| {
            result
                .runs
                .iter()
                .map(|run| (run.trace.clone(), run.log_prob.to_bits()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn chaos_run_is_identical_to_fault_free_run() {
    // Reference: no faults.
    let (lm, bpe) = scripted();
    let reference_engine = router(lm, bpe, EngineConfig::default());
    let reference = outcomes(&reference_engine);

    // Chaos: ~20% of score calls fault (errors, truncations, latency),
    // deterministically from the seed.
    let (lm, bpe) = scripted();
    let chaos = Arc::new(ChaosLm::new(lm, FaultPlan::transient(7, 0.2)));
    let stats = chaos.stats().clone();
    let chaos_engine = router(
        chaos,
        bpe,
        EngineConfig {
            retry: chaos_retry(),
            ..EngineConfig::default()
        },
    );
    let under_chaos = outcomes(&chaos_engine);

    assert!(
        stats.total_faults() > 0,
        "the fault plan must actually fire for this test to mean anything"
    );
    assert_eq!(
        under_chaos, reference,
        "recovered results must be identical — traces and log-prob bits"
    );
}

#[test]
fn repeated_chaos_runs_are_deterministic() {
    let run = || {
        let (lm, bpe) = scripted();
        let chaos = Arc::new(ChaosLm::new(lm, FaultPlan::transient(42, 0.2)));
        let engine = router(
            chaos,
            bpe,
            EngineConfig {
                retry: chaos_retry(),
                ..EngineConfig::default()
            },
        );
        outcomes(&engine)
    };
    assert_eq!(run(), run(), "same seed, same results, every time");
}

#[test]
fn fatal_injection_fails_only_the_affected_query() {
    // One query at a time, in order, so model-call ordinal 1 belongs to
    // the first query. Injecting a fatal fault there must
    // fail that query with `Error::Model` — and leave the others (and
    // the engine itself) intact.
    let (lm, bpe) = scripted();
    let chaos = Arc::new(ChaosLm::new(
        lm,
        FaultPlan {
            fatal_on_calls: vec![1],
            ..FaultPlan::default()
        },
    ));
    let engine = router(
        chaos,
        bpe,
        EngineConfig {
            retry: chaos_retry(),
            ..EngineConfig::default()
        },
    );
    let results: Vec<_> = QUERIES.iter().map(|&q| engine.run_query(q)).collect();
    match &results[0] {
        Err(lmql::Error::Model {
            message,
            class: lmql::ModelErrorClass::Fatal,
        }) => {
            assert!(message.contains("fatal"), "got: {message}")
        }
        other => panic!("expected Error::Model for the faulted query, got {other:?}"),
    }
    assert!(results[1].is_ok(), "partner query unaffected");
    assert!(results[2].is_ok(), "partner query unaffected");
    // The engine still serves new work after a fatal fault.
    assert!(engine.run_query(QUERIES[1]).is_ok());
}
