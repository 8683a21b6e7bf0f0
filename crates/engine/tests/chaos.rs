//! Chaos integration: the engine under a seeded fault plan.
//!
//! A [`ChaosLm`] injects transient errors, truncated replies and latency
//! spikes into a fixed fraction of model calls. The scheduler's per-item
//! recovery (fallback direct scoring with retries) must absorb every
//! fault: `run_queries` returns results *identical* to a fault-free run,
//! nothing hangs, and the dispatcher survives. Fatal injections, by
//! contrast, must fail exactly the affected query — and only it.

use lmql_engine::{Engine, EngineConfig};
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
fn outcomes(engine: &Engine) -> Vec<(String, u64)> {
    engine
        .run_queries(&QUERIES)
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
    let reference_engine = Engine::new(
        lm,
        bpe,
        EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        },
    );
    let reference = outcomes(&reference_engine);

    // Chaos: ~20% of score calls fault (errors, truncations, latency),
    // deterministically from the seed.
    let (lm, bpe) = scripted();
    let chaos = Arc::new(ChaosLm::new(lm, FaultPlan::transient(7, 0.2)));
    let stats = chaos.stats().clone();
    let chaos_engine = Engine::new(
        chaos,
        bpe,
        EngineConfig {
            threads: 4,
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
        let engine = Engine::new(
            chaos,
            bpe,
            EngineConfig {
                threads: 2,
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
    // One worker thread: queries run in order, so model-call ordinal 1
    // belongs to the first query. Injecting a fatal fault there must
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
    let engine = Engine::new(
        chaos,
        bpe,
        EngineConfig {
            threads: 1,
            retry: chaos_retry(),
            ..EngineConfig::default()
        },
    );
    let results = engine.run_queries(&QUERIES);
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
    let again = engine.run_queries(&QUERIES[1..2]);
    assert!(again[0].is_ok());
}
