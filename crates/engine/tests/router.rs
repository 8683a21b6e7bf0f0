//! Router integration: replica fail-over and the multi-replica soak.
//!
//! The acceptance bar for the replica pool is *transparency*: whatever
//! the router does — prefix-affinity placement, load shedding, killing
//! a replica mid-stream and retrying elsewhere — query results must be
//! byte-identical to `Runtime::execute` on the bare model. Queries are
//! deterministic in (source, seed), never in placement, so any
//! divergence is a router bug by construction.

mod common;

use common::run_concurrently;
use lmql::Runtime;
use lmql_engine::{EngineConfig, QueryStream, Router, RouterConfig, RouterObs};
use lmql_lm::{
    ChaosLm, Episode, FaultKind, FaultPlan, LanguageModel, LmError, LmResult, Logits, RetryPolicy,
    ScriptedLm,
};
use lmql_obs::Registry;
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
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

fn bpe() -> Arc<Bpe> {
    Arc::new(Bpe::char_level(""))
}

fn clean_model(bpe: &Arc<Bpe>) -> Arc<dyn LanguageModel> {
    Arc::new(ScriptedLm::new(Arc::clone(bpe), episodes()))
}

fn config(replicas: usize) -> RouterConfig {
    RouterConfig {
        replicas,
        ..RouterConfig::default()
    }
}

/// The reference every routed result must equal: `Runtime::execute` on
/// the bare model.
fn bare_outcome(model: Arc<dyn LanguageModel>, bpe: &Arc<Bpe>, source: &str) -> Vec<(String, u64)> {
    outcome(&Runtime::new(model, Arc::clone(bpe)).execute(&source.into()))
}

/// The byte-exact outcome of one query: every run's trace plus the
/// exact bits of its log-probability.
fn outcome(result: &lmql::Result<lmql::QueryResult>) -> Vec<(String, u64)> {
    result
        .as_ref()
        .expect("query must succeed")
        .runs
        .iter()
        .map(|run| (run.trace.clone(), run.log_prob.to_bits()))
        .collect()
}

/// A replica dies mid-stream (seeded fatal injection a few decode steps
/// in); the router must retry the query on a healthy replica, return a
/// result byte-identical to the bare model's, and count the fail-over.
#[test]
fn replica_death_mid_stream_fails_over_byte_identically() {
    let bpe = bpe();
    let query = QUERIES[0];

    // Routing is pure in (prompt prefix, replica count), so a clean
    // probe router tells us which replica the query will land on —
    // that's the one that gets the doomed backend.
    let probe = Router::new(clean_model(&bpe), Arc::clone(&bpe), config(3));
    let doomed = probe.route_for(query);

    let chaos: Arc<dyn LanguageModel> = Arc::new(ChaosLm::new(
        ScriptedLm::new(Arc::clone(&bpe), episodes()),
        FaultPlan {
            seed: 17,
            // Let the first decode steps stream, then kill the replica:
            // a fatal injection is non-retryable, so the replica's
            // engine fails the query and the router must move it.
            fatal_on_calls: vec![2],
            ..FaultPlan::default()
        },
    ));
    let clean = clean_model(&bpe);
    let registry = Registry::new();
    let router = Router::with_backends(
        |i| {
            if i == doomed {
                Arc::clone(&chaos)
            } else {
                Arc::clone(&clean)
            }
        },
        Arc::clone(&bpe),
        config(3),
        RouterObs {
            registry: Some(registry.clone()),
            ..RouterObs::default()
        },
    );
    assert_eq!(router.route_for(query), doomed, "probe must agree");

    let stream = router.stream_query(query);
    // Drain events (the doomed attempt's partial events followed by the
    // healthy retry's full replay), then take the final result.
    let events = stream.events().count();
    assert!(events > 0, "the retried attempt must still stream events");
    let routed = stream.wait();

    assert_eq!(
        outcome(&routed),
        bare_outcome(clean_model(&bpe), &bpe, query),
        "fail-over result must be byte-identical to the bare model's"
    );

    let failovers = registry
        .snapshot()
        .counter("engine.replica.failover")
        .unwrap_or(0);
    assert!(failovers >= 1, "fail-over must be counted, got {failovers}");
    let stats = router.stats();
    assert!(
        stats.replicas.iter().filter(|r| r.queries > 0).count() >= 2,
        "both the doomed and a healthy replica must have seen the query"
    );
}

/// Hundreds of concurrently streamed queries across ≥ 4 replicas come
/// back byte-identical to the bare model's runs — the scale-out soak.
#[test]
fn multi_replica_soak_matches_single_node() {
    let bpe = bpe();
    let router = Router::new(clean_model(&bpe), Arc::clone(&bpe), config(4));

    // Reference outcomes, one per distinct source.
    let reference: Vec<Vec<(String, u64)>> = QUERIES
        .iter()
        .map(|q| bare_outcome(clean_model(&bpe), &bpe, q))
        .collect();

    // 240 concurrent streams, round-robin over the three sources.
    let streams: Vec<QueryStream> = (0..240)
        .map(|i| router.stream_query(QUERIES[i % QUERIES.len()]))
        .collect();
    for (i, stream) in streams.into_iter().enumerate() {
        let result = stream.wait();
        assert_eq!(
            outcome(&result),
            reference[i % QUERIES.len()],
            "soak query {i} diverged from the bare model"
        );
    }

    let stats = router.stats();
    assert_eq!(stats.routed, 240);
    assert_eq!(stats.failovers, 0, "healthy pool never fails over");
    let busy = stats.replicas.iter().filter(|r| r.queries > 0).count();
    assert!(busy >= 2, "three distinct prefixes should use >1 replica");
    assert_eq!(
        stats.replicas.iter().map(|r| r.queries).sum::<u64>(),
        240,
        "every query accounted to exactly one replica"
    );
}

/// Shared-prefix queries all land on one replica (that is what keeps
/// the radix caches hot under sharding), and the pool-wide hit rate on
/// a shared-prefix workload stays high.
#[test]
fn shared_prefix_queries_share_a_replica() {
    let bpe = bpe();
    let router = Router::new(clean_model(&bpe), Arc::clone(&bpe), config(4));
    let sources: Vec<String> = (0..24)
        .map(|i| {
            let hole = ["X", "Y", "Z"][i % 3];
            format!("argmax\n    \"A:[{hole}]\"\nfrom \"m\"\nwhere stops_at({hole}, \".\")\n")
        })
        .collect();
    // One after the other: a repeat finds its contexts cached instead of
    // joining a still-running twin's in-flight slot.
    for source in &sources {
        router
            .run_query(source.as_str())
            .expect("query must succeed");
    }
    let stats = router.stats();
    assert_eq!(
        stats.replicas.iter().filter(|r| r.queries > 0).count(),
        1,
        "one shared prompt prefix must map to exactly one replica"
    );
    assert!(
        stats.cache_hit_rate() > 0.5,
        "shared-prefix workload on one replica must hit its radix cache, got {}",
        stats.cache_hit_rate()
    );
}

/// Why affinity exists, as counts: G prefix groups queried group-major
/// over R private radix caches. Affinity sends a group's repeats to one
/// replica, so each group pays one cold decode; round-robin deals them
/// to consecutive replicas, so they mostly miss. Affinity's pool-wide
/// hit rate must be at least twice round-robin's (denominator floored at
/// 1e-3), and both must match the bare model byte for byte.
#[test]
fn affinity_at_least_doubles_round_robin_hit_rate() {
    const REPLICAS: usize = 8;
    const GROUPS: usize = 8;
    const REPEATS: usize = 8;
    let bpe = bpe();
    let model: Arc<dyn LanguageModel> = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        (0..GROUPS).map(|g| {
            Episode::plain(
                format!("P{g}: tell me"),
                format!(" about topic number {g} at length."),
            )
        }),
    ));
    let sources: Vec<String> = (0..GROUPS)
        .flat_map(|g| {
            let src =
                format!("argmax\n    \"P{g}: tell me[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n");
            std::iter::repeat_n(src, REPEATS)
        })
        .collect();

    let reference: Vec<_> = sources
        .iter()
        .map(|src| bare_outcome(Arc::clone(&model), &bpe, src))
        .collect();
    let hit_rate = |affinity: bool| {
        let router = Router::new(
            Arc::clone(&model),
            Arc::clone(&bpe),
            RouterConfig {
                affinity,
                ..config(REPLICAS)
            },
        );
        for (src, expected) in sources.iter().zip(&reference) {
            assert_eq!(
                &outcome(&router.run_query(src.as_str())),
                expected,
                "routing (affinity {affinity}) changed a result"
            );
        }
        router.stats().cache_hit_rate()
    };
    let (affinity, round_robin) = (hit_rate(true), hit_rate(false));
    assert!(
        affinity >= 2.0 * round_robin.max(1e-3),
        "affinity hit rate {affinity:.3} vs round-robin {round_robin:.3}"
    );
}

/// Replicas share the router's registry and one pool-wide usage meter,
/// so `engine.*` / `lm.*` read as pool totals: each equals the sum over
/// [`Router::stats`], whatever the replica count.
#[test]
fn registry_carries_pool_totals_matching_router_stats() {
    for replicas in [1, 2] {
        let bpe = bpe();
        let registry = Registry::new();
        let router = Router::new_with_obs(
            clean_model(&bpe),
            Arc::clone(&bpe),
            // Round-robin, so every replica serves (and caches) traffic.
            RouterConfig {
                affinity: false,
                ..config(replicas)
            },
            RouterObs {
                registry: Some(registry.clone()),
                ..RouterObs::default()
            },
        );
        let sources: Vec<&str> = (0..12).map(|i| QUERIES[i % QUERIES.len()]).collect();
        for result in run_concurrently(&router, &sources) {
            result.expect("query must succeed");
        }
        let stats = router.stats();
        assert_eq!(
            stats.replicas.iter().filter(|r| r.queries > 0).count(),
            replicas,
            "round-robin must exercise every replica"
        );
        let cache = stats.cache_totals();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.cache.hits"), Some(cache.hits));
        assert_eq!(
            snap.gauge("engine.cache.entries"),
            Some(cache.entries as u64)
        );
        assert_eq!(snap.gauge("engine.cache.bytes"), Some(cache.bytes as u64));
        // No faults here, so every model round trip is one scheduler
        // dispatch (a one-context dispatch is a single query on the
        // meter, not a batch).
        assert_eq!(
            snap.counter("engine.batch.dispatches"),
            Some(stats.usage.dispatches())
        );
        assert_eq!(
            snap.counter("lm.model_queries"),
            Some(stats.usage.model_queries)
        );
        assert!(stats.usage.model_queries > 0);
    }
}

/// A backend whose every call fails transiently, counting the contexts
/// it was asked to score.
struct AlwaysDown {
    bpe: Arc<Bpe>,
    calls: AtomicU64,
}

impl LanguageModel for AlwaysDown {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.calls
            .fetch_add(contexts.len() as u64, Ordering::SeqCst);
        let down = Err(LmError::transient(FaultKind::Other, "down"));
        vec![down; contexts.len()]
    }
}

/// One retry loop per fault class: a persistent transient fault costs
/// exactly `1 + r` backend calls on each replica the query is tried on —
/// the scheduler item's budget, with no second loop nested around it.
/// Trying the next replica is the router's fail-over, not a retry.
#[test]
fn persistent_transient_fault_costs_one_plus_r_calls_per_replica() {
    let r = 3;
    for replicas in [1, 2] {
        let bpe = bpe();
        let model = Arc::new(AlwaysDown {
            bpe: Arc::clone(&bpe),
            calls: AtomicU64::new(0),
        });
        let router = Router::new(
            Arc::clone(&model) as Arc<dyn LanguageModel>,
            bpe,
            RouterConfig {
                replicas,
                engine: EngineConfig {
                    retry: RetryPolicy {
                        max_retries: r,
                        base_backoff: Duration::ZERO,
                        max_backoff: Duration::ZERO,
                        jitter: 0.0,
                        ..RetryPolicy::default()
                    },
                    ..EngineConfig::default()
                },
                ..RouterConfig::default()
            },
        );
        assert!(router.run_query(QUERIES[0]).is_err());
        assert_eq!(
            model.calls.load(Ordering::SeqCst),
            u64::from(1 + r) * replicas as u64,
            "replicas {replicas}"
        );
        assert_eq!(router.stats().failovers, replicas as u64 - 1);
    }
}
