//! The thread-pool query runner: many LMQL queries, one shared model.
//!
//! [`Engine::serve`] is the one blocking primitive: it runs a query on
//! the calling thread, on a fresh [`Runtime`] (own seed, own per-run
//! cache, own meter) that scores through the shared [`Scheduler`] — so
//! shared prompt prefixes are paid for once, identical in-flight
//! contexts single-flight, and concurrent steps coalesce into
//! microbatches. [`Engine::run_queries`] calls it from a pool of worker
//! threads, [`Engine::stream_query`] from one spawned thread with a
//! channel sink.
//!
//! Results are deterministic and bit-identical to running each query
//! alone on the bare model: the scheduler only ever returns what a
//! direct `score` call would have, and each query's decoding consumes
//! its own RNG stream. Thread scheduling can change *when* work runs,
//! never what it computes.

use crate::radix::{RadixCacheConfig, RadixStats};
use crate::sched::{BatchPolicy, BatchedLm, Scheduler, SchedulerObs};
use lmql::constraints::{AutomataCache, MaskMemo};
use lmql::{EventSink, QueryEvent, QueryResult, Runtime, StreamSink, SubqueryLimits, ToolRegistry};
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
    /// spawn (applied to every worker runtime).
    pub subquery: SubqueryLimits,
    /// First-class tools installed on every worker runtime (DESIGN.md
    /// §16). Replicas seeded from one config share the registry's call
    /// counters, so tool usage rolls up across the pool.
    pub tools: ToolRegistry,
}

/// Observability hooks for an [`Engine`]: a trace recorder shared by the
/// scheduler and every worker [`Runtime`], and an optional metrics
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
    bpe: Arc<Bpe>,
    meter: UsageMeter,
    threads: usize,
    tracer: Tracer,
    registry: Option<Registry>,
    /// `stream.*` delivery counters (registered when a registry is set).
    stream_metrics: StreamMetrics,
    /// Cross-query mask memo: every worker runtime masks over the same
    /// `bpe`, so memoized masks transfer between concurrent queries with
    /// identical constraints (the engine's analogue of the radix prefix
    /// cache, for masks instead of scores).
    mask_memo: Arc<MaskMemo>,
    /// Cross-query constraint-automata cache: compiled automata and their
    /// per-state interned masks transfer between concurrent queries with
    /// identical constraints, so only the first run of a query shape pays
    /// compilation and per-state mask discovery.
    automata: Arc<AutomataCache>,
    /// Subquery tree limits applied to every worker runtime.
    subquery: SubqueryLimits,
    /// Tools installed on every worker runtime.
    tools: ToolRegistry,
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
        Engine {
            sched,
            bpe,
            meter,
            threads: config.threads,
            tracer: obs.tracer,
            registry: obs.registry,
            stream_metrics,
            mask_memo: MaskMemo::new(1024),
            automata: AutomataCache::new(),
            subquery: config.subquery,
            tools: config.tools,
        }
    }

    /// The engine's tool registry (installed on every worker runtime;
    /// [`ToolRegistry::usage`] here is the pool-wide rollup).
    pub fn tools(&self) -> &ToolRegistry {
        &self.tools
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
        &self.tracer
    }

    /// The metrics registry, if one was installed via
    /// [`new_with_obs`](Self::new_with_obs).
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// The engine's shared cross-query mask memo.
    pub fn mask_memo(&self) -> &Arc<MaskMemo> {
        &self.mask_memo
    }

    /// The engine's shared cross-query constraint-automata cache.
    pub fn automata_cache(&self) -> &Arc<AutomataCache> {
        &self.automata
    }

    /// Runs one query to completion **on the calling thread** — the one
    /// place a per-query [`Runtime`] is built and fenced. The runtime
    /// scores through a [`BatchedLm::with_cancel`] handle on `cancel`
    /// and carries the engine's tracer, shared mask memo and automata
    /// cache, subquery limits, tools and registry; `configure` then
    /// adjusts it (seed, bindings, decode options). An active `sink`
    /// receives the query's events, metered under `stream.*`.
    ///
    /// A model failure past the scheduler's retry budget surfaces as a
    /// panic inside the runtime's `score` calls; it is contained here
    /// and returned as [`lmql::Error::Model`], so neither the caller's
    /// thread nor any other query is disturbed.
    pub fn serve<F>(
        &self,
        source: &str,
        sink: StreamSink,
        cancel: &CancelToken,
        configure: F,
    ) -> lmql::Result<QueryResult>
    where
        F: FnOnce(&mut Runtime),
    {
        let lm = BatchedLm::with_cancel(Arc::clone(&self.sched), cancel.clone());
        let mut rt = Runtime::new(Arc::new(lm), Arc::clone(&self.bpe));
        rt.set_tracer(self.tracer.clone());
        rt.set_mask_memo(Arc::clone(&self.mask_memo));
        rt.set_automata_cache(Arc::clone(&self.automata));
        rt.set_subquery_limits(self.subquery);
        if !self.tools.is_empty() {
            rt.set_tools(self.tools.clone());
        }
        if let Some(registry) = &self.registry {
            rt.set_metrics_registry(registry.clone());
        }
        configure(&mut rt);
        let sink = if sink.is_active() {
            StreamSink::new(Arc::new(MeteredSink {
                inner: sink,
                metrics: self.stream_metrics.clone(),
                started: Instant::now(),
                saw_token: AtomicBool::new(false),
            }))
        } else {
            sink
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run_streamed(source, sink)
        }))
        .unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("query worker panicked")
                .to_owned();
            Err(lmql::Error::Model { message })
        });
        if matches!(result, Err(lmql::Error::Cancelled)) {
            self.stream_metrics.cancelled.inc();
        }
        result
    }

    /// Runs each query source concurrently over the shared model,
    /// returning results in input order.
    ///
    /// Each query runs on a fresh default [`Runtime`]; use
    /// [`run_queries_with`](Self::run_queries_with) to configure
    /// runtimes (seeds, bindings, externals) per query.
    pub fn run_queries(&self, sources: &[&str]) -> Vec<lmql::Result<QueryResult>> {
        self.run_queries_with(sources, |_, _| {})
    }

    /// Like [`run_queries`](Self::run_queries), calling `configure`
    /// with each query's index and runtime before it runs.
    pub fn run_queries_with<F>(
        &self,
        sources: &[&str],
        configure: F,
    ) -> Vec<lmql::Result<QueryResult>>
    where
        F: Fn(usize, &mut Runtime) + Sync,
    {
        let cancel = CancelToken::new();
        run_pool(sources.len(), worker_threads(self.threads), |i| {
            self.serve(sources[i], StreamSink::none(), &cancel, |rt| {
                configure(i, rt)
            })
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
        sources.iter().map(|src| self.stream_query(src)).collect()
    }

    /// Streams one query; see [`stream_queries`](Self::stream_queries).
    pub fn stream_query(&self, source: &str) -> QueryStream {
        self.stream_query_with(source, |_| {})
    }

    /// Like [`stream_query`](Self::stream_query), calling `configure` on
    /// the query's runtime (seed, bindings, externals) before it runs.
    pub fn stream_query_with<F>(&self, source: &str, configure: F) -> QueryStream
    where
        F: FnOnce(&mut Runtime) + Send + 'static,
    {
        let engine = self.clone();
        let source = source.to_owned();
        QueryStream::spawn("lmql-engine-stream", move |sink, cancel| {
            engine.serve(&source, sink, cancel, configure)
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
            Err(lmql::Error::Model {
                message: "stream worker vanished without a result".to_owned(),
            })
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
    fn configure_binds_per_query() {
        let eng = engine(vec![Episode::plain("v: a\npick:", " a")], 2);
        let q = "argmax\n    \"v: {V}\\npick:[X]\"\nfrom \"m\"\n";
        let results = eng.run_queries_with(&[q], |_, rt| {
            rt.bind("V", lmql::Value::Str("a".into()));
        });
        assert!(results[0]
            .as_ref()
            .unwrap()
            .best()
            .trace
            .starts_with("v: a"));
    }
}
