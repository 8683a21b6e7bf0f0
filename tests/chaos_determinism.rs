//! The fault-tolerance acceptance bar: with [`ChaosLm`] injecting
//! transient faults into ~20% of score calls (fixed seed), example
//! queries under both `argmax` and `sample(n)` decoding, served through a
//! [`Router`], produce *byte-identical* output to the fault-free bare
//! [`Runtime`] once the scheduler's retry absorbs the faults.
//!
//! "Byte-identical" is checked on the full `Debug` rendering of every
//! run's trace and log-probability (f64 `Debug` is shortest-roundtrip,
//! so equal strings mean equal bits).

use lmql::{QueryRequest, QueryResult, Runtime};
use lmql_engine::{EngineConfig, Router, RouterConfig};
use lmql_lm::{corpus, ChaosLm, ChaosStats, FaultPlan, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

const ARGMAX_QUERY: &str = "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n";
const SAMPLE_QUERY: &str = "sample(n=2, temperature=1.2)\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n";

/// Retries with sub-millisecond backoff: enough budget to out-last any
/// fault streak the 20% plan produces, fast enough for CI.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 12,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
        jitter: 0.5,
        seed: 5,
        deadline: None,
    }
}

/// Renders every run byte-exactly.
fn render(result: QueryResult) -> String {
    result
        .runs
        .iter()
        .map(|r| format!("{:?} {:?}\n", r.trace, r.log_prob))
        .collect()
}

/// The reference: `query` at `seed` on the fault-free bare runtime.
fn reference(query: &str, seed: u64) -> String {
    let rt = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe());
    let request = QueryRequest::new(query).seed(seed);
    render(rt.execute(&request).expect("query must succeed"))
}

/// `query` at `seed` served by a one-replica [`Router`] over the n-gram
/// model under chaos seed `chaos_seed`, with the plan's fault counters.
fn under_chaos(query: &str, seed: u64, chaos_seed: u64) -> (String, ChaosStats) {
    let chaos = ChaosLm::new(
        corpus::standard_ngram(),
        FaultPlan::transient(chaos_seed, 0.2),
    );
    let stats = chaos.stats().clone();
    let router = Router::new(
        Arc::new(chaos),
        corpus::standard_bpe(),
        RouterConfig {
            engine: EngineConfig {
                retry: chaos_retry(),
                ..EngineConfig::default()
            },
            ..RouterConfig::default()
        },
    );
    let result = router
        .run_query(QueryRequest::new(query).seed(seed))
        .expect("query must succeed");
    (render(result), stats)
}

#[test]
fn argmax_is_byte_identical_under_chaos() {
    // Chaos seed chosen so the plan actually fires on this query's small
    // call count (seed 6 injects errors *and* a truncated reply here).
    let (rendered, stats) = under_chaos(ARGMAX_QUERY, 1, 6);
    assert!(stats.total_faults() > 0, "the fault plan must fire");
    assert_eq!(rendered, reference(ARGMAX_QUERY, 1));
}

#[test]
fn sample_n_is_byte_identical_under_chaos() {
    for seed in [1, 2, 3] {
        let (rendered, _) = under_chaos(SAMPLE_QUERY, seed, 13 + seed);
        assert_eq!(
            rendered,
            reference(SAMPLE_QUERY, seed),
            "decoder seed {seed}"
        );
    }
}

#[test]
fn chaos_runs_replay_identically() {
    let (once, _) = under_chaos(SAMPLE_QUERY, 4, 21);
    let (twice, _) = under_chaos(SAMPLE_QUERY, 4, 21);
    assert_eq!(once, twice, "same chaos seed, same output bytes");
}
