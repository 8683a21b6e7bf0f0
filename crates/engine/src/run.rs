//! The thread-pool query runner: many LMQL queries, one shared model.
//!
//! [`Engine::serve`] is the one blocking primitive: it executes a
//! [`QueryRequest`] on the calling thread, on a clone of the engine's
//! template [`Runtime`] (own per-run cache, own meter) that scores
//! through the shared [`Scheduler`] — so shared prompt prefixes are paid
//! for once, identical in-flight contexts single-flight, and concurrent
//! steps coalesce into microbatches. [`Engine::run_queries`] calls it
//! from a pool of worker threads, [`Engine::stream_query`] from one
//! spawned thread with a channel sink.
//!
//! Results are deterministic and bit-identical to running each query
//! alone on the bare model: the scheduler only ever returns what a
//! direct `score` call would have, and each query's decoding consumes
//! its own RNG stream. Thread scheduling can change *when* work runs,
//! never what it computes.

use crate::radix::{RadixCacheConfig, RadixStats};
use crate::sched::{BatchPolicy, BatchedLm, Scheduler, SchedulerObs};
use lmql::constraints::{AutomataCache, MaskMemo};
use lmql::{
    EventSink, ModelErrorClass, QueryEvent, QueryRequest, QueryResult, Runtime, StreamSink,
    SubqueryLimits, ToolRegistry,
};
use lmql_lm::{CancelToken, LanguageModel, MeteredLm, RetryPolicy, Usage, UsageMeter};
use lmql_obs::{Registry, StreamMetrics, Tracer};
use lmql_tokenizer::Bpe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Tunables for an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads for [`Engine::run_queries`]. `0` (the default)
    /// uses the machine's available parallelism.
    pub threads: usize,
    /// Microbatch dispatch policy.
    pub policy: BatchPolicy,
    /// Prefix-cache budgets.
    pub cache: RadixCacheConfig,
    /// Retry/deadline policy for dispatch-time fault recovery when the
    /// model is fallible (a remote backend, a chaos wrapper). Free for
    /// infallible models — retries only ever run after a fault.
    pub retry: RetryPolicy,
    /// Depth/budget limits on the `subquery(...)` trees queries may
    /// spawn (applied to every query's runtime).
    pub subquery: SubqueryLimits,
    /// First-class tools installed on the engine's template runtime, so
    /// every query can call them (DESIGN.md §16). Replicas seeded from
    /// one config share the registry's call counters, so tool usage
    /// rolls up across the pool.
    pub tools: ToolRegistry,
}

/// Observability hooks for an [`Engine`]: a trace recorder shared by the
/// scheduler and every query's [`Runtime`], and an optional metrics
/// registry collecting `engine.*` and `lm.*` metrics. Both default to
/// off/absent and are free in that state (configuration stays plain
/// data; these hooks ride separately through [`Engine::new_with_obs`]).
#[derive(Debug, Clone, Default)]
pub struct EngineObs {
    /// Trace recorder: per-hole decode, mask, cache and batch-dispatch
    /// spans from every query run through the engine.
    pub tracer: Tracer,
    /// Metrics registry: scheduler metrics under `engine.*`, the usage
    /// meter under `lm.*`.
    pub registry: Option<Registry>,
}

/// A point-in-time view of the engine's §6 usage counters plus the
/// prefix-cache counters.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Model queries / dispatches / batch sizes, as recorded by the
    /// engine's meter on the shared model.
    pub usage: Usage,
    /// Prefix-cache hits, misses, evictions and occupancy.
    pub cache: RadixStats,
}

/// A concurrent inference engine: one shared model behind a
/// [`Scheduler`], a thread pool for query execution. Every field is a
/// shared handle, so a clone is the same engine (same scheduler, caches
/// and counters) — that is how a streamed query's thread owns one.
///
/// # Example
///
/// ```
/// use lmql_engine::{Engine, EngineConfig};
/// use lmql_lm::{Episode, ScriptedLm};
/// use lmql_tokenizer::Bpe;
/// use std::sync::Arc;
///
/// let bpe = Arc::new(Bpe::char_level(""));
/// let lm = Arc::new(ScriptedLm::new(
///     Arc::clone(&bpe),
///     [Episode::plain("Q:", " fine.")],
/// ));
/// let engine = Engine::new(lm, bpe, EngineConfig::default());
/// let query = "argmax\n    \"Q:[A]\"\nfrom \"m\"\nwhere stops_at(A, \".\")\n";
/// let results = engine.run_queries(&[query, query]);
/// for r in results {
///     assert_eq!(r.unwrap().best().var_str("A"), Some(" fine."));
/// }
/// ```
#[derive(Clone)]
pub struct Engine {
    sched: Arc<Scheduler>,
    /// The environment every query runs in, built once: a [`Runtime`]
    /// over a plain scheduler handle carrying the tracer, the cross-query
    /// mask memo and automata cache (masks and compiled automata transfer
    /// between queries with identical constraints — the analogue of the
    /// radix prefix cache, for masks instead of scores), the subquery
    /// limits, the tools (installed here, not per query) and the metrics
    /// registry. [`Engine::serve`] clones it per query.
    runtime: Runtime,
    meter: UsageMeter,
    threads: usize,
    /// `stream.*` delivery counters (registered when a registry is set).
    stream_metrics: StreamMetrics,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// An engine over `model` and its tokenizer.
    ///
    /// # Panics
    ///
    /// Panics if the model's vocabulary size does not match the
    /// tokenizer's.
    pub fn new(model: Arc<dyn LanguageModel>, bpe: Arc<Bpe>, config: EngineConfig) -> Self {
        Self::new_with_obs(model, bpe, config, EngineObs::default())
    }

    /// Like [`new`](Self::new), with observability hooks: the tracer is
    /// shared by the scheduler and every worker runtime, and the registry
    /// (when given) collects `engine.*` scheduler metrics and the `lm.*`
    /// usage counters.
    ///
    /// # Panics
    ///
    /// Panics if the model's vocabulary size does not match the
    /// tokenizer's.
    pub fn new_with_obs(
        model: Arc<dyn LanguageModel>,
        bpe: Arc<Bpe>,
        config: EngineConfig,
        obs: EngineObs,
    ) -> Self {
        Self::build(model, bpe, config, obs, None)
    }

    /// The constructor behind [`new_with_obs`](Self::new_with_obs).
    /// `pool_meter` is the [`Router`](crate::Router)'s pool-wide usage
    /// meter, already registered under `lm.*`: replicas record on it
    /// instead of each registering (and colliding on) their own.
    pub(crate) fn build(
        model: Arc<dyn LanguageModel>,
        bpe: Arc<Bpe>,
        config: EngineConfig,
        obs: EngineObs,
        pool_meter: Option<UsageMeter>,
    ) -> Self {
        assert_eq!(
            model.vocab().len(),
            bpe.vocab().len(),
            "model and tokenizer vocabulary mismatch"
        );
        let meter = pool_meter.unwrap_or_else(|| {
            let meter = UsageMeter::new();
            if let Some(registry) = &obs.registry {
                meter.register_into(registry, "lm");
            }
            meter
        });
        let stream_metrics = match &obs.registry {
            Some(registry) => StreamMetrics::registered(registry),
            None => StreamMetrics::default(),
        };
        // The meter wraps the model *inside* the scheduler: it counts
        // real dispatches after caching/single-flighting, which is what
        // the Tables 3–5 binaries and benches compare against.
        let metered = MeteredLm::new(model, meter.clone());
        let sched = Arc::new(Scheduler::with_retry(
            Box::new(metered),
            config.policy,
            config.cache,
            config.retry,
            SchedulerObs {
                meter: Some(meter.clone()),
                tracer: obs.tracer.clone(),
                registry: obs.registry.clone(),
            },
        ));
        let mut runtime = Runtime::new(Arc::new(BatchedLm::new(Arc::clone(&sched))), bpe);
        runtime.set_tracer(obs.tracer);
        runtime.set_mask_memo(MaskMemo::new(1024));
        runtime.set_automata_cache(AutomataCache::new());
        runtime.set_subquery_limits(config.subquery);
        runtime.set_tools(config.tools);
        if let Some(registry) = obs.registry {
            runtime.set_metrics_registry(registry);
        }
        Engine {
            sched,
            runtime,
            meter,
            threads: config.threads,
            stream_metrics,
        }
    }

    /// The engine's tool registry (installed on the template runtime
    /// every query runs on; [`ToolRegistry::usage`] here is the
    /// pool-wide rollup).
    pub fn tools(&self) -> &ToolRegistry {
        self.runtime.tools()
    }

    /// A [`LanguageModel`] handle routing through this engine's
    /// scheduler — plug it into a [`Runtime`] (or anything else) to join
    /// the shared cache and microbatches.
    pub fn handle(&self) -> BatchedLm {
        BatchedLm::new(Arc::clone(&self.sched))
    }

    /// The shared scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// The engine-level meter: model queries and batch statistics for
    /// everything scored through this engine.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// Usage and prefix-cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            usage: self.meter.snapshot(),
            cache: self.sched.cache_stats(),
        }
    }

    /// The engine's trace recorder (disabled unless one was installed via
    /// [`new_with_obs`](Self::new_with_obs)).
    pub fn tracer(&self) -> &Tracer {
        self.runtime.tracer()
    }

    /// Executes one request to completion **on the calling thread** — the
    /// one place a per-query [`Runtime`] is made and fenced: the engine's
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
    pub fn serve(
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

    /// Runs each query source concurrently over the shared model,
    /// returning results in input order. Each runs as a request with
    /// nothing set; to configure one (seed, bindings, tools), build a
    /// [`QueryRequest`] and [`serve`](Self::serve) or
    /// [`stream_query`](Self::stream_query) it.
    pub fn run_queries(&self, sources: &[&str]) -> Vec<lmql::Result<QueryResult>> {
        let cancel = CancelToken::new();
        run_pool(sources.len(), worker_threads(self.threads), |i| {
            self.serve(&sources[i].into(), StreamSink::none(), &cancel)
        })
    }

    /// Streaming variant of [`run_queries`](Self::run_queries): each
    /// query starts immediately on its own thread and returns a
    /// [`QueryStream`] handle delivering [`QueryEvent`]s as decoding
    /// progresses. Handles are independent: consume them in any order,
    /// [`wait`](QueryStream::wait) for final results, or drop one to
    /// cancel its query — cancellation releases the query's scheduler
    /// slots (counted by the `engine.cancelled` metric) without
    /// disturbing other queries.
    pub fn stream_queries(&self, sources: &[&str]) -> Vec<QueryStream> {
        sources.iter().map(|src| self.stream_query(*src)).collect()
    }

    /// Streams one request (or bare source); see
    /// [`stream_queries`](Self::stream_queries).
    pub fn stream_query(&self, request: impl Into<QueryRequest>) -> QueryStream {
        let engine = self.clone();
        let request = request.into();
        QueryStream::spawn("lmql-engine-stream", move |sink, cancel| {
            engine.serve(&request, sink, cancel)
        })
    }
}

/// The worker count for a configured `threads` value: `0` means the
/// machine's available parallelism.
pub(crate) fn worker_threads(configured: usize) -> usize {
    match configured {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    }
}

/// Runs `job(0..n)` on up to `threads` scoped worker threads pulling
/// indices off a shared cursor; results come back in index order.
pub(crate) fn run_pool<R: Send>(
    n: usize,
    threads: usize,
    job: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("result slot poisoned") = Some(job(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled by a worker")
        })
        .collect()
}

/// A live streamed query (see [`Engine::stream_queries`] and
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
        thread_name: &str,
        run: impl FnOnce(StreamSink, &CancelToken) -> lmql::Result<QueryResult> + Send + 'static,
    ) -> QueryStream {
        let (sink, events, cancel) = StreamSink::channel();
        let (result_tx, result) = mpsc::channel();
        let token = cancel.clone();
        std::thread::Builder::new()
            .name(thread_name.to_owned())
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
    /// [`Engine::run_queries`] would have returned.
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
    use super::*;
    use lmql_lm::{Episode, ScriptedLm};

    fn engine(episodes: Vec<Episode>, threads: usize) -> Engine {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
        Engine::new(
            lm,
            bpe,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn runs_queries_in_input_order() {
        let eng = engine(
            vec![Episode::plain("A:", " one."), Episode::plain("B:", " two.")],
            4,
        );
        let qa = "argmax\n    \"A:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let qb = "argmax\n    \"B:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let results = eng.run_queries(&[qa, qb, qa]);
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
        let eng = engine(vec![Episode::plain("A:", " ok.")], 2);
        let good = "argmax\n    \"A:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let bad = "magic\n    \"A:[X]\"\nfrom \"m\"\n";
        let results = eng.run_queries(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let eng = engine(vec![], 2);
        assert!(eng.run_queries(&[]).is_empty());
    }

    #[test]
    fn shared_prompts_pay_the_model_once() {
        let q = "argmax\n    \"Q:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let solo = engine(vec![Episode::plain("Q:", " yes.")], 4);
        solo.run_queries(&[q]).remove(0).unwrap();
        let solo_queries = solo.stats().usage.model_queries;

        let shared = engine(vec![Episode::plain("Q:", " yes.")], 4);
        let results = shared.run_queries(&[q, q, q, q]);
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
        let eng = engine(vec![Episode::plain("v: a\npick:", " a")], 2);
        let q = "argmax\n    \"v: {V}\\npick:[X]\"\nfrom \"m\"\n";
        let request = QueryRequest::new(q).bind("V", lmql::Value::Str("a".into()));
        let result = eng
            .serve(&request, StreamSink::none(), &CancelToken::new())
            .unwrap();
        assert!(result.best().trace.starts_with("v: a"));
        // The binding was the request's, not the engine's: the next
        // query on the same engine does not see it.
        let unbound = eng.run_queries(&[q]).remove(0);
        assert!(unbound.is_err(), "{unbound:?}");
    }
}
