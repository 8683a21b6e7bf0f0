//! Engine-level observability integration: registry metrics and traces
//! recorded across the scheduler and concurrent callers, plus regression
//! pins for the shared `RadixCache` counters on scripted workloads.

mod common;

use common::run_concurrently;
use lmql_engine::{
    BatchPolicy, RadixCache, RadixCacheConfig, Router, RouterConfig, RouterObs, Scheduler,
};
use lmql_lm::{Episode, LanguageModel, LmResult, Logits, ScriptedLm};
use lmql_obs::{chrome, Registry, Tracer};
use lmql_tokenizer::{Bpe, TokenId};
use std::sync::Arc;
use std::time::Duration;

/// A one-replica router over a scripted model.
fn scripted_router(episodes: Vec<Episode>, obs: RouterObs) -> Router {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    Router::new_with_obs(lm, bpe, RouterConfig::default(), obs)
}

const QUERY: &str = "argmax\n    \"Q:[A]\"\nfrom \"m\"\nwhere stops_at(A, \".\")\n";

#[test]
fn radix_cache_counts_are_pinned_on_scripted_workload() {
    // Tiny budget: 4 entries. Workload touches 6 distinct contexts with
    // re-use, forcing LRU evictions at known points.
    let mut cache = RadixCache::new(RadixCacheConfig {
        max_entries: 4,
        max_bytes: usize::MAX,
    });
    let logits = |tag: f64| Logits::from_vec(vec![tag, 0.0]);
    let ctx = |toks: &[u32]| toks.iter().map(|&t| TokenId(t)).collect::<Vec<_>>();

    // Fill: 4 misses, no evictions.
    for i in 0..4u32 {
        assert!(cache.get(&ctx(&[i])).is_none());
        cache.insert(&ctx(&[i]), logits(f64::from(i)));
    }
    // Re-touch [0]: hit, makes [1] the LRU entry.
    assert!(cache.get(&ctx(&[0])).is_some());
    // Two new contexts evict [1] then [2].
    cache.insert(&ctx(&[4]), logits(4.0));
    cache.insert(&ctx(&[5]), logits(5.0));
    assert!(cache.get(&ctx(&[1])).is_none(), "[1] was evicted");
    assert!(cache.get(&ctx(&[2])).is_none(), "[2] was evicted");
    assert!(cache.get(&ctx(&[0])).is_some(), "[0] survived (re-touched)");
    assert!(cache.get(&ctx(&[3])).is_some());

    let stats = cache.stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 6);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 4);
}

#[test]
fn repeat_query_hits_are_pinned_single_threaded() {
    // One query at a time makes the schedule sequential and the counters
    // exact: the second identical query finds every context in the
    // shared cache.
    let registry = Registry::new();
    let eng = scripted_router(
        vec![Episode::plain("Q:", " ok.")],
        RouterObs {
            tracer: Tracer::disabled(),
            registry: Some(registry.clone()),
        },
    );
    assert!(eng.run_query(QUERY).is_ok());
    let first = eng.stats().replicas[0];
    assert!(first.cache.misses > 0);
    assert_eq!(first.cache.hits, 0, "cold cache: no hits on first run");

    assert!(eng.run_query(QUERY).is_ok());
    let second = eng.stats().replicas[0];
    assert_eq!(
        second.cache.misses, first.cache.misses,
        "second identical query adds no misses"
    );
    // One lookup per requested context, however often the scheduler
    // probes the radix cache for it: the repeat run hits exactly where
    // the first run missed.
    assert_eq!(
        second.cache.hits, second.cache.misses,
        "every context of the repeat run is a hit"
    );
    assert_eq!(second.cache.evictions, 0);

    // The radix counters and the registry's engine.* counters count the
    // same lookups: first run all misses, repeat run all hits.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("engine.cache.hits").unwrap(),
        second.cache.hits
    );
    assert_eq!(
        snap.counter("engine.cache.misses").unwrap(),
        second.cache.misses
    );
    assert_eq!(snap.counter("engine.cache.evictions").unwrap(), 0);
    let text = snap.render_text();
    assert!(text.contains("counter engine.cache.hits"));
    assert!(text.contains("histogram engine.batch.size"));
}

#[test]
fn thread_pool_counters_stay_consistent_under_concurrency() {
    // 8 concurrent queries hammer the same counters from multiple
    // threads; the meter (lm.*) and scheduler metrics (engine.*) record
    // at the same sites, so their totals must agree whatever the
    // interleaving.
    let registry = Registry::new();
    let eng = scripted_router(
        vec![Episode::plain("Q:", " ok.")],
        RouterObs {
            tracer: Tracer::disabled(),
            registry: Some(registry.clone()),
        },
    );
    let queries = vec![QUERY; 8];
    let results = run_concurrently(&eng, &queries);
    assert!(results.iter().all(|r| r.is_ok()));

    let usage = eng.stats().usage;
    let snap = registry.snapshot();
    assert_eq!(snap.counter("lm.cache_hits").unwrap(), usage.cache_hits);
    assert_eq!(snap.counter("lm.cache_misses").unwrap(), usage.cache_misses);
    assert_eq!(
        snap.counter("lm.model_queries").unwrap(),
        usage.model_queries
    );
    assert_eq!(snap.counter("engine.cache.hits").unwrap(), usage.cache_hits);
    assert_eq!(
        snap.counter("engine.cache.misses").unwrap(),
        usage.cache_misses
    );
    // The radix cache's own counters count the same lookups, whatever
    // the interleaving: single-flight merges and second-chance hits
    // included.
    let radix = eng.stats().cache_totals();
    assert_eq!(
        (radix.hits, radix.misses),
        (usage.cache_hits, usage.cache_misses)
    );
    // Every model query went through a microbatch dispatch.
    let batched = snap.histogram("engine.batch.size").unwrap().sum;
    assert_eq!(batched, usage.model_queries);
    assert_eq!(
        snap.counter("engine.batch.dispatches").unwrap(),
        snap.histogram("engine.batch.size").unwrap().count
    );
}

#[test]
fn engine_trace_covers_decode_dispatch_and_cache() {
    let tracer = Tracer::manual();
    let eng = scripted_router(
        vec![Episode::plain("Q:", " ok.")],
        RouterObs {
            tracer: tracer.clone(),
            registry: None,
        },
    );
    // Two identical queries, one after the other: the repeat produces
    // cache-hit events.
    assert!(eng.run_query(QUERY).is_ok());
    assert!(eng.run_query(QUERY).is_ok());

    let events = tracer.events();
    let has = |name: &str| events.iter().any(|e| e.name == name);
    assert!(has("hole:A"), "hole-decoding span");
    assert!(has("compute_mask"), "mask-computation span");
    assert!(has("dispatch"), "batch-dispatch span (dispatcher thread)");
    assert!(has("hit"), "cache-hit instant (repeat query)");
    assert!(has("miss"), "cache-miss instant (first query)");
    assert!(has("run:argmax"), "query-level span");

    // The Chrome export round-trips and keeps every event.
    let json = chrome::to_chrome_json(&events);
    let parsed = chrome::parse_chrome_json(&json).expect("valid trace JSON");
    assert_eq!(parsed, events);
}

#[test]
fn scheduler_metrics_record_waits_and_merges() {
    // Direct scheduler exercise: a slow model plus identical concurrent
    // requests forces single-flight merges.
    #[derive(Debug)]
    struct SlowLm {
        bpe: Arc<Bpe>,
    }
    impl LanguageModel for SlowLm {
        fn vocab(&self) -> &lmql_tokenizer::Vocabulary {
            self.bpe.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            std::thread::sleep(Duration::from_millis(30));
            vec![Ok(Logits::constant(self.bpe.vocab().len(), 1.0)); contexts.len()]
        }
    }
    let bpe = Arc::new(Bpe::char_level(""));
    let sched = Arc::new(Scheduler::new(
        Box::new(SlowLm { bpe }),
        BatchPolicy {
            max_batch: 1,
            ..BatchPolicy::default()
        },
        RadixCacheConfig::default(),
    ));
    let ctx = vec![TokenId(3)];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sched = Arc::clone(&sched);
                let ctx = ctx.clone();
                s.spawn(move || sched.try_score(&ctx).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let m = sched.metrics();
    assert_eq!(m.dispatches.get(), 1, "one model call for four requesters");
    assert_eq!(
        m.singleflight_merges.get(),
        3,
        "three requests joined the in-flight slot"
    );
    assert_eq!(m.batch_size.snapshot().sum, 1);
    assert!(m.batch_wait_us.snapshot().count >= 1);
}
