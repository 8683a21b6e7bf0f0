//! One replica of a [`Router`](crate::Router)'s pool, and the query
//! path it runs.
//!
//! [`Replica::serve`] is the one blocking primitive: it executes a
//! [`QueryRequest`] on the calling thread, on a clone of the replica's
//! template [`Runtime`] (own per-run cache, own meter) that scores
//! through the replica's shared [`Scheduler`] — so shared prompt prefixes
//! are paid for once, identical in-flight contexts single-flight, and
//! concurrent steps coalesce into microbatches. The router's serve loop
//! calls it, once per attempt.
//!
//! Results are deterministic and bit-identical to running each query
//! alone on the bare model: the scheduler only ever returns what a
//! direct `score` call would have, and each query's decoding consumes
//! its own RNG stream. Thread scheduling can change *when* work runs,
//! never what it computes.

use crate::router::{RouterConfig, RouterObs};
use crate::sched::{BatchPolicy, BatchedLm, Scheduler, SchedulerObs};
use lmql::constraints::{AutomataCache, MaskMemo};
use lmql::{
    EventSink, ModelErrorClass, QueryEvent, QueryRequest, QueryResult, Runtime, StreamSink,
    SubqueryLimits, ToolRegistry,
};
use lmql_lm::{
    CancelToken, CircuitBreaker, LanguageModel, MeteredLm, RadixCacheConfig, RetryPolicy,
    UsageMeter,
};
use lmql_obs::{Counter, StreamMetrics};
use lmql_tokenizer::Bpe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Tunables applied to every replica of a [`Router`](crate::Router).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Microbatch dispatch policy.
    pub policy: BatchPolicy,
    /// Prefix-cache budgets.
    pub cache: RadixCacheConfig,
    /// Retry/deadline policy for dispatch-time fault recovery when the
    /// model is fallible (a remote backend, a chaos wrapper): the one
    /// place a transient model fault is retried, `1 + max_retries`
    /// attempts per scheduler item. Free for infallible models — retries
    /// only ever run after a fault.
    pub retry: RetryPolicy,
    /// Depth/budget limits on the `subquery(...)` trees queries may
    /// spawn (applied to every query's runtime).
    pub subquery: SubqueryLimits,
    /// First-class tools installed on every replica's template runtime,
    /// so every query can call them (DESIGN.md §16). Replicas seeded from
    /// one config share the registry's call counters, so tool usage
    /// rolls up across the pool.
    pub tools: ToolRegistry,
}

/// One worker group of the pool: one model behind a [`Scheduler`], the
/// template runtime every query it serves runs on, and the replica's
/// health and load as the router sees them.
pub(crate) struct Replica {
    pub(crate) sched: Arc<Scheduler>,
    /// The environment every query runs in, built once: a [`Runtime`]
    /// over a plain scheduler handle carrying the tracer, the cross-query
    /// mask memo and automata cache (masks and compiled automata transfer
    /// between queries with identical constraints — the analogue of the
    /// radix prefix cache, for masks instead of scores), the subquery
    /// limits, the tools (installed here, not per query) and the metrics
    /// registry. [`Replica::serve`] clones it per query.
    runtime: Runtime,
    /// `stream.*` delivery counters (registered when a registry is set).
    stream_metrics: StreamMetrics,
    pub(crate) breaker: CircuitBreaker,
    /// `router.replica.<i>.queries`: attempts handed to this replica.
    pub(crate) queries: Counter,
}

impl Replica {
    /// Replica `index` of a pool over `model`. `meter` is the router's
    /// pool-wide usage meter, already registered under `lm.*`: replicas
    /// record on it instead of each registering (and colliding on) their
    /// own.
    ///
    /// # Panics
    ///
    /// Panics if the model's vocabulary size does not match the
    /// tokenizer's.
    pub(crate) fn new(
        index: usize,
        model: Arc<dyn LanguageModel>,
        bpe: Arc<Bpe>,
        config: &RouterConfig,
        obs: &RouterObs,
        meter: &UsageMeter,
    ) -> Self {
        assert_eq!(
            model.vocab().len(),
            bpe.vocab().len(),
            "model and tokenizer vocabulary mismatch"
        );
        let stream_metrics = match &obs.registry {
            Some(registry) => StreamMetrics::registered(registry),
            None => StreamMetrics::default(),
        };
        // The meter wraps the model *inside* the scheduler: it counts
        // real dispatches after caching/single-flighting, which is what
        // the Tables 3–5 binaries compare against.
        let metered = MeteredLm::new(model, meter.clone());
        let engine = &config.engine;
        let sched = Arc::new(Scheduler::with_retry(
            Box::new(metered),
            engine.policy,
            engine.cache,
            engine.retry,
            SchedulerObs {
                meter: Some(meter.clone()),
                tracer: obs.tracer.clone(),
                registry: obs.registry.clone(),
            },
        ));
        let mut runtime = Runtime::new(Arc::new(BatchedLm::new(Arc::clone(&sched))), bpe);
        runtime.set_tracer(obs.tracer.clone());
        runtime.set_mask_memo(MaskMemo::new(1024));
        runtime.set_automata_cache(AutomataCache::new());
        runtime.set_subquery_limits(engine.subquery);
        // Each replica gets a clone of the tool registry; its call
        // counters are shared by cloning, so pool-wide tool usage stays
        // one rollup.
        runtime.set_tools(engine.tools.clone());
        let breaker = CircuitBreaker::new(config.health);
        let queries = match &obs.registry {
            Some(registry) => {
                runtime.set_metrics_registry(registry.clone());
                registry.register_gauge(
                    &format!("router.replica.{index}.breaker"),
                    breaker.gauge().clone(),
                );
                registry.counter(&format!("router.replica.{index}.queries"))
            }
            None => Counter::default(),
        };
        Replica {
            sched,
            runtime,
            stream_metrics,
            breaker,
            queries,
        }
    }

    /// Executes one request to completion **on the calling thread** — the
    /// one place a per-query [`Runtime`] is made and fenced: the replica's
    /// template runtime with a [`BatchedLm::with_cancel`] handle on
    /// `cancel` and a fresh usage meter swapped in. The request's settings
    /// (seed, bindings, decode options, tools) apply to this call only.
    /// An active `sink` receives the query's events, metered under
    /// `stream.*`, and wins over a sink set on the request itself: the
    /// serving layer's handle is where a served query streams.
    ///
    /// A panic anywhere in the run is contained here and returned as
    /// [`lmql::Error::Model`] of class `Panic`, so neither the caller's
    /// thread nor any other query is disturbed.
    pub(crate) fn serve(
        &self,
        request: &QueryRequest,
        sink: StreamSink,
        cancel: &CancelToken,
    ) -> lmql::Result<QueryResult> {
        let lm = BatchedLm::with_cancel(Arc::clone(&self.sched), cancel.clone());
        let rt = self.runtime.with_model(Arc::new(lm));
        let streamed;
        let request = if sink.is_active() {
            streamed = request
                .clone()
                .stream(StreamSink::new(Arc::new(MeteredSink {
                    inner: sink,
                    metrics: self.stream_metrics.clone(),
                    started: Instant::now(),
                    saw_token: AtomicBool::new(false),
                })));
            &streamed
        } else {
            request
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.execute(request)))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("query worker panicked");
                Err(lmql::Error::model(ModelErrorClass::Panic, message))
            });
        if matches!(result, Err(lmql::Error::Cancelled)) {
            self.stream_metrics.cancelled.inc();
        }
        result
    }
}

/// A live streamed query (see
/// [`Router::stream_query`](crate::Router::stream_query)): an event
/// receiver, a cancellation handle, and the final result.
///
/// Dropping the handle cancels the query cooperatively: the runtime
/// stops at its next decode step, queued scheduler work is released
/// without reaching the model, and pending single-flight waits resolve —
/// the query's resources are freed rather than decoding for nobody.
#[derive(Debug)]
pub struct QueryStream {
    events: mpsc::Receiver<QueryEvent>,
    cancel: CancelToken,
    result: mpsc::Receiver<lmql::Result<QueryResult>>,
}

impl QueryStream {
    /// Spawns the one thread a streamed query runs on: `run` gets the
    /// channel sink feeding this handle and the token the handle fires.
    pub(crate) fn spawn(
        run: impl FnOnce(StreamSink, &CancelToken) -> lmql::Result<QueryResult> + Send + 'static,
    ) -> QueryStream {
        let (sink, events, cancel) = StreamSink::channel();
        let (result_tx, result) = mpsc::channel();
        let token = cancel.clone();
        std::thread::Builder::new()
            .name("lmql-router-stream".to_owned())
            .spawn(move || {
                // The consumer may already be gone (dropped handle) —
                // then the result is simply discarded.
                let _ = result_tx.send(run(sink, &token));
            })
            .expect("failed to spawn stream worker thread");
        QueryStream {
            events,
            cancel,
            result,
        }
    }

    /// Blocks for the next event; `None` once the stream is over (the
    /// terminal `Done`/`Error` event was already delivered, or the
    /// producer is gone).
    pub fn next_event(&self) -> Option<QueryEvent> {
        self.events.recv().ok()
    }

    /// A blocking iterator over the remaining events.
    pub fn events(&self) -> impl Iterator<Item = QueryEvent> + '_ {
        std::iter::from_fn(move || self.next_event())
    }

    /// Requests cooperative cancellation. Idempotent; the final result
    /// (usually [`lmql::Error::Cancelled`]) still arrives via
    /// [`wait`](Self::wait) if the query was already past its last
    /// decode step.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether cancellation was requested (by [`cancel`](Self::cancel)
    /// or a dropped receiver).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Discards any unconsumed events and blocks for the query's final
    /// result — byte-identical to what the non-streaming
    /// [`Router::run_query`](crate::Router::run_query) would have
    /// returned.
    pub fn wait(self) -> lmql::Result<QueryResult> {
        self.result.recv().unwrap_or_else(|_| {
            Err(lmql::Error::model(
                ModelErrorClass::Panic,
                "stream worker vanished without a result",
            ))
        })
    }
}

impl Drop for QueryStream {
    fn drop(&mut self) {
        // Dropping an unfinished stream abandons the query; make that
        // explicit so the scheduler releases its work promptly instead
        // of waiting for the next emit to notice the closed channel.
        self.cancel.cancel();
    }
}

/// Wraps the channel sink with delivery metrics: every event counts,
/// and the first `TokenDelta` records time-to-first-token.
struct MeteredSink {
    inner: StreamSink,
    metrics: StreamMetrics,
    started: Instant,
    saw_token: AtomicBool,
}

impl EventSink for MeteredSink {
    fn emit(&self, event: QueryEvent) {
        self.metrics.events.inc();
        if matches!(event, QueryEvent::TokenDelta { .. })
            && !self.saw_token.swap(true, Ordering::Relaxed)
        {
            self.metrics
                .first_token_us
                .record(self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        self.inner.emit(event);
    }

    fn cancelled(&self) -> bool {
        self.inner.cancelled()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Router, RouterConfig};
    use lmql::{QueryRequest, QueryResult};
    use lmql_lm::{Episode, ScriptedLm};
    use lmql_tokenizer::Bpe;
    use std::sync::Arc;

    fn router(episodes: Vec<Episode>) -> Router {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
        Router::new(lm, bpe, RouterConfig::default())
    }

    /// Runs every source on its own thread at once; results in input
    /// order.
    fn run_concurrently(router: &Router, sources: &[&str]) -> Vec<lmql::Result<QueryResult>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = sources
                .iter()
                .map(|&src| s.spawn(move || router.run_query(src)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn runs_queries_in_input_order() {
        let eng = router(vec![
            Episode::plain("A:", " one."),
            Episode::plain("B:", " two."),
        ]);
        let qa = "argmax\n    \"A:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let qb = "argmax\n    \"B:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let results = run_concurrently(&eng, &[qa, qb, qa]);
        assert_eq!(results.len(), 3);
        assert_eq!(
            results[0].as_ref().unwrap().best().var_str("X"),
            Some(" one.")
        );
        assert_eq!(
            results[1].as_ref().unwrap().best().var_str("X"),
            Some(" two.")
        );
        assert_eq!(
            results[2].as_ref().unwrap().best().var_str("X"),
            Some(" one.")
        );
    }

    #[test]
    fn errors_stay_per_query() {
        let eng = router(vec![Episode::plain("A:", " ok.")]);
        let good = "argmax\n    \"A:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let bad = "magic\n    \"A:[X]\"\nfrom \"m\"\n";
        let results = run_concurrently(&eng, &[good, bad]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let eng = router(vec![]);
        assert!(run_concurrently(&eng, &[]).is_empty());
        assert_eq!(eng.stats().routed, 0);
    }

    #[test]
    fn shared_prompts_pay_the_model_once() {
        let q = "argmax\n    \"Q:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let solo = router(vec![Episode::plain("Q:", " yes.")]);
        solo.run_query(q).unwrap();
        let solo_queries = solo.stats().usage.model_queries;

        let shared = router(vec![Episode::plain("Q:", " yes.")]);
        let results = run_concurrently(&shared, &[q, q, q, q]);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = shared.stats();
        // Whether repeats land as cache hits or join in-flight slots
        // depends on timing, but either way each distinct context is
        // scored exactly once — the same work as a single query.
        assert_eq!(stats.usage.model_queries, solo_queries);
        assert!(stats.usage.cache_misses >= solo_queries);
    }

    #[test]
    fn request_binds_per_query() {
        let eng = router(vec![Episode::plain("v: a\npick:", " a")]);
        let q = "argmax\n    \"v: {V}\\npick:[X]\"\nfrom \"m\"\n";
        let request = QueryRequest::new(q).bind("V", lmql::Value::Str("a".into()));
        let result = eng.run_query(request).unwrap();
        assert!(result.best().trace.starts_with("v: a"));
        // The binding was the request's, not the replica's: the next
        // query on the same replica does not see it.
        let unbound = eng.run_query(q);
        assert!(unbound.is_err(), "{unbound:?}");
    }
}
