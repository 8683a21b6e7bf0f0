//! The front-end router — the one public way to serve a query: a
//! sharded pool of N ≥ 1 replicas with prefix-affinity routing,
//! continuous admission control, and per-replica health tracking
//! (DESIGN.md §15).
//!
//! One replica is one worker group: a scheduler, a radix prefix cache, a
//! mask memo, and the template runtime its queries run on. The
//! [`Router`] fans queries out over N ≥ 1 of them; a one-replica router
//! is the same code. Every query entry point is a thin caller of
//! [`Router::serve`] (admit → route → fail-over loop, on the calling
//! thread); raw scoring has its own single loop in
//! [`Router::try_score_many`]. Three mechanisms make the pool behave like
//! one big fast engine instead of N cold small ones:
//!
//! 1. **Prefix affinity** — the routing key is a fingerprint of the
//!    query's *tokenized prompt prefix* ([`Bpe::prefix_fingerprint`]),
//!    placed by rendezvous (highest-random-weight) hashing over the
//!    replica set. Queries sharing a prompt prefix land on the same
//!    replica, so RadixCache hit rates survive sharding (SGLang's
//!    cache-aware routing is the model). Raw token contexts route
//!    through [`fingerprint_tokens`] — the same key — so server `SCORE`/
//!    `BATCH` frames shard with the queries that produced them.
//! 2. **Admission control** — an optional in-flight cap; at capacity
//!    the router sheds instead of queueing (the server maps this to its
//!    `BUSY` frame). RAII [`Permit`]s make the accounting exception-safe.
//! 3. **Health + fail-over** — every replica carries a
//!    [`CircuitBreaker`](lmql_lm::CircuitBreaker). Routing prefers
//!    healthy replicas (affinity order is preserved among them); a query
//!    whose replica fails mid-run is retried on the next healthy replica,
//!    counted by `engine.replica.failover`. Results stay byte-identical:
//!    queries are deterministic in their request, never in placement.
//!
//! Because every replica computes exactly what `Runtime::execute` on the
//! bare model would, the router changes *where* and *when* work runs,
//! never what it computes — the multi-replica soak test pins
//! byte-identity against that reference.

use crate::run::{EngineConfig, QueryStream, Replica};
use lmql::{ModelErrorClass, QueryRequest, QueryResult, StreamSink};
use lmql_lm::{
    BreakerConfig, BreakerState, CancelToken, LanguageModel, LmError, LmResult, Logits, RadixStats,
    Usage, UsageMeter,
};
use lmql_obs::{Registry, RouterMetrics, Tracer};
use lmql_tokenizer::{fingerprint_tokens, Bpe, TokenId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tunables for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica engines in the pool (each its own scheduler + caches).
    pub replicas: usize,
    /// Prefix-affinity routing. When `false`, queries are dealt
    /// round-robin — the cache-oblivious baseline the bench compares
    /// against (`--no-affinity` bisects).
    pub affinity: bool,
    /// Token budget of the routing key: how much of the tokenized
    /// prompt prefix the fingerprint covers.
    pub prefix_tokens: usize,
    /// Router-level admission cap on concurrently running queries;
    /// `0` means unbounded. At capacity new work is shed, not queued.
    pub max_inflight: usize,
    /// Configuration applied to every replica engine.
    pub engine: EngineConfig,
    /// Per-replica circuit-breaker tuning.
    pub health: BreakerConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 1,
            affinity: true,
            prefix_tokens: 32,
            max_inflight: 0,
            engine: EngineConfig::default(),
            health: BreakerConfig::default(),
        }
    }
}

/// Observability hooks for a [`Router`]: a tracer shared by every
/// replica, and an optional registry collecting `router.*` metrics,
/// per-replica counters (`router.replica.<i>.queries`, breaker gauges),
/// the `engine.replica.failover` counter, and — handed on to every
/// replica — the pool totals of `engine.*`, `lm.*`, `mask.*` and
/// `stream.*`. Each router needs its own registry (per-replica names and
/// the pool's usage meter are registered once).
#[derive(Debug, Clone, Default)]
pub struct RouterObs {
    /// Trace recorder shared by every replica engine.
    pub tracer: Tracer,
    /// Metrics registry for router + per-replica metrics.
    pub registry: Option<Registry>,
}

struct Shared {
    replicas: Vec<Replica>,
    bpe: Arc<Bpe>,
    affinity: bool,
    prefix_tokens: usize,
    max_inflight: usize,
    inflight: AtomicUsize,
    /// Round-robin cursor for `affinity: false` routing.
    rr: AtomicU64,
    /// The pool-wide usage meter every replica records on (`lm.*`).
    meter: UsageMeter,
    metrics: RouterMetrics,
}

/// The replica-pool router; see the module docs.
///
/// # Example
///
/// ```
/// use lmql_engine::{Router, RouterConfig};
/// use lmql_lm::{Episode, ScriptedLm};
/// use lmql_tokenizer::Bpe;
/// use std::sync::Arc;
///
/// let bpe = Arc::new(Bpe::char_level(""));
/// let lm = Arc::new(ScriptedLm::new(
///     Arc::clone(&bpe),
///     [Episode::plain("Q:", " fine.")],
/// ));
/// let router = Router::new(lm, bpe, RouterConfig::default());
/// let query = "argmax\n    \"Q:[A]\"\nfrom \"m\"\nwhere stops_at(A, \".\")\n";
/// let result = router.run_query(query).unwrap();
/// assert_eq!(result.best().var_str("A"), Some(" fine."));
/// ```
pub struct Router {
    shared: Arc<Shared>,
    registry: Option<Registry>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("replicas", &self.shared.replicas.len())
            .field("affinity", &self.shared.affinity)
            .finish_non_exhaustive()
    }
}

/// An RAII admission slot: holding one keeps a unit of router capacity
/// reserved; dropping it releases the slot. See [`Router::admit`].
pub struct Permit {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").finish_non_exhaustive()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Per-replica usage snapshot inside [`RouterStats`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicaStats {
    /// Queries this replica was handed (including fail-over retries).
    pub queries: u64,
    /// The replica's prefix-cache counters.
    pub cache: RadixStats,
    /// Current breaker state.
    pub breaker: BreakerState,
}

/// A point-in-time view of the router and each replica.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Queries admitted and routed.
    pub routed: u64,
    /// Queries rejected at admission.
    pub shed: u64,
    /// Queries retried on another replica after a replica failure.
    pub failovers: u64,
    /// Routing decisions diverted from their affinity choice because
    /// that replica was unhealthy.
    pub rerouted: u64,
    /// The pool's §6 usage counters: every replica records on one meter
    /// (the same cells `lm.*` exposes in the registry).
    pub usage: Usage,
    /// Per-replica load, cache and health, in replica order.
    pub replicas: Vec<ReplicaStats>,
}

impl RouterStats {
    /// Pool-wide prefix-cache counters: every field summed across
    /// replicas.
    pub fn cache_totals(&self) -> RadixStats {
        self.replicas
            .iter()
            .fold(RadixStats::default(), |acc, r| RadixStats {
                hits: acc.hits + r.cache.hits,
                misses: acc.misses + r.cache.misses,
                evictions: acc.evictions + r.cache.evictions,
                entries: acc.entries + r.cache.entries,
                bytes: acc.bytes + r.cache.bytes,
            })
    }

    /// Pool-wide radix hit rate: hits over lookups, summed across
    /// replicas — the number affinity routing exists to protect.
    pub fn cache_hit_rate(&self) -> f64 {
        let totals = self.cache_totals();
        if totals.hits + totals.misses == 0 {
            0.0
        } else {
            totals.hits as f64 / (totals.hits + totals.misses) as f64
        }
    }
}

/// The routable prompt prefix of a query source: the first prompt
/// string literal, up to its first hole `[` or recall `{`. Borrowed
/// straight out of `source` — deriving a routing key allocates nothing.
pub fn prompt_prefix(source: &str) -> &str {
    let Some(start) = source.find('"') else {
        return source;
    };
    let body = &source[start + 1..];
    let end = body.find(['"', '[', '{']).unwrap_or(body.len());
    &body[..end]
}

/// The message of the [`Error::Model`](lmql::Error::Model) (class
/// `Shed`) a router returns when it sheds a query at admission. Front
/// ends map the class to their own back-pressure signal (the server's
/// `BUSY` frame).
pub const BUSY_MESSAGE: &str = "router at capacity: query shed at admission";

/// Whether `err` is an admission-shed error — back-pressure to surface
/// to the caller, not a replica failure.
pub fn is_busy(err: &lmql::Error) -> bool {
    matches!(
        err,
        lmql::Error::Model {
            class: ModelErrorClass::Shed,
            ..
        }
    )
}

/// SplitMix64 finaliser: the per-replica weight mixer for rendezvous
/// hashing.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Shared {
    /// Replica preference order for `key` under rendezvous hashing:
    /// every replica gets a pseudo-random weight from (key, replica) and
    /// the order is by descending weight. Stable in `key`, and removing
    /// one replica only moves the keys that pointed at it — the
    /// consistent-hashing property that keeps the other replicas' radix
    /// caches warm through membership changes.
    fn rendezvous_order(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.replicas.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(mix(key ^ (i as u64 + 1))));
        order
    }

    /// Full preference order for a routing key: affinity (or
    /// round-robin) order, stably partitioned so healthy replicas come
    /// first. Unhealthy replicas stay as last-resort fallbacks — an
    /// all-open pool still serves (each attempt doubles as a breaker
    /// probe) rather than failing outright.
    fn route_order(&self, key: u64) -> Vec<usize> {
        let base = if self.affinity {
            self.rendezvous_order(key)
        } else {
            let n = self.replicas.len() as u64;
            let start = (self.rr.fetch_add(1, Ordering::Relaxed) % n) as usize;
            (0..self.replicas.len())
                .map(|k| (start + k) % self.replicas.len())
                .collect()
        };
        let preferred = base[0];
        let (healthy, unhealthy): (Vec<usize>, Vec<usize>) = base
            .into_iter()
            .partition(|&i| self.replicas[i].breaker.allow());
        let order: Vec<usize> = healthy.into_iter().chain(unhealthy).collect();
        if order[0] != preferred {
            self.metrics.rerouted.inc();
        }
        order
    }

    fn query_key(&self, source: &str) -> u64 {
        self.bpe
            .prefix_fingerprint(prompt_prefix(source), self.prefix_tokens)
    }

    fn admit(self: &Arc<Self>) -> Option<Permit> {
        loop {
            let cur = self.inflight.load(Ordering::Acquire);
            if self.max_inflight != 0 && cur >= self.max_inflight {
                self.metrics.shed.inc();
                return None;
            }
            if self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(Permit {
                    shared: Arc::clone(self),
                });
            }
        }
    }

    /// The loop behind [`Router::serve`] (which documents the contract):
    /// admit, compute the route order, then run `request` down it via
    /// [`Replica::serve`]. A replica failure — a model fault past its
    /// retry budget (transient or fatal: the replica's backend is gone)
    /// or a fenced panic — counts against the replica's breaker and moves
    /// on (`engine.replica.failover`). Any other outcome ends the loop:
    /// success, a deterministic query error or cancellation (the replica
    /// did its job: breaker success), and an expired deadline, which is
    /// the caller's verdict, not the replica's — it would expire the same
    /// way everywhere (breaker untouched, as in
    /// [`Router::try_score_many`]).
    fn serve(
        self: &Arc<Self>,
        request: &QueryRequest,
        sink: &StreamSink,
        cancel: &CancelToken,
    ) -> lmql::Result<QueryResult> {
        let Some(_permit) = self.admit() else {
            return Err(lmql::Error::model(ModelErrorClass::Shed, BUSY_MESSAGE));
        };
        let started = Instant::now();
        self.metrics.queries.inc();
        let order = self.route_order(self.query_key(request.source()));
        let mut result = Err(lmql::Error::Cancelled);
        for (attempt, &i) in order.iter().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            if attempt > 0 {
                self.metrics.failovers.inc();
            }
            let replica = &self.replicas[i];
            replica.queries.inc();
            result = replica.serve(request, sink.clone(), cancel);
            match &result {
                Err(lmql::Error::Model { class, .. }) => match class {
                    ModelErrorClass::Deadline | ModelErrorClass::Shed => break,
                    _ => replica.breaker.record_failure(),
                },
                _ => {
                    replica.breaker.record_success();
                    break;
                }
            }
        }
        self.metrics
            .latency_us
            .record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        result
    }
}

impl Router {
    /// A router whose replicas all score through one shared `model`.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero or the model's vocabulary
    /// size does not match the tokenizer's.
    pub fn new(model: Arc<dyn LanguageModel>, bpe: Arc<Bpe>, config: RouterConfig) -> Self {
        Self::new_with_obs(model, bpe, config, RouterObs::default())
    }

    /// Like [`new`](Self::new) with observability hooks.
    pub fn new_with_obs(
        model: Arc<dyn LanguageModel>,
        bpe: Arc<Bpe>,
        config: RouterConfig,
        obs: RouterObs,
    ) -> Self {
        Self::with_backends(|_| Arc::clone(&model), bpe, config, obs)
    }

    /// The full constructor: `backend(i)` supplies replica `i`'s model —
    /// in production a per-replica connection, in the chaos tests a
    /// per-replica fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero or any backend's vocabulary
    /// size does not match the tokenizer's.
    pub fn with_backends(
        mut backend: impl FnMut(usize) -> Arc<dyn LanguageModel>,
        bpe: Arc<Bpe>,
        config: RouterConfig,
        obs: RouterObs,
    ) -> Self {
        assert!(config.replicas >= 1, "router needs at least one replica");
        let metrics = match &obs.registry {
            Some(registry) => RouterMetrics::registered(registry),
            None => RouterMetrics::default(),
        };
        // One meter for the pool, registered once: the replicas' model
        // wrappers and schedulers all record on it, and their scheduler
        // metrics are get-or-create names in the shared registry, so
        // `engine.*` / `lm.*` / `mask.*` read as pool totals whatever N is.
        let meter = UsageMeter::new();
        if let Some(registry) = &obs.registry {
            meter.register_into(registry, "lm");
        }
        let replicas: Vec<Replica> = (0..config.replicas)
            .map(|i| Replica::new(i, backend(i), Arc::clone(&bpe), &config, &obs, &meter))
            .collect();
        Router {
            shared: Arc::new(Shared {
                replicas,
                bpe,
                affinity: config.affinity,
                prefix_tokens: config.prefix_tokens,
                max_inflight: config.max_inflight,
                inflight: AtomicUsize::new(0),
                rr: AtomicU64::new(0),
                meter,
                metrics,
            }),
            registry: obs.registry,
        }
    }

    /// Number of replicas in the pool.
    pub fn replicas(&self) -> usize {
        self.shared.replicas.len()
    }

    /// The metrics registry, if one was installed.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// The router's metric handles.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// The affinity choice for `source` (health ignored) — which replica
    /// its prompt prefix maps to. Exposed for tests and benches; with
    /// `affinity: false` this is still the would-be affinity target.
    pub fn route_for(&self, source: &str) -> usize {
        self.shared.rendezvous_order(self.shared.query_key(source))[0]
    }

    /// Reserves one unit of router capacity, or `None` (counted as
    /// `router.shed`) at the admission cap. [`run_query`](Self::run_query)
    /// and friends admit internally; raw scoring does not, so the server
    /// holds a permit around each `SCORE`/`BATCH` frame (and answers
    /// `BUSY` without one).
    pub fn admit(&self) -> Option<Permit> {
        self.shared.admit()
    }

    /// Routes and runs one request **on the calling thread**: admission,
    /// prefix-affinity placement (keyed on the request's source), and
    /// fail-over to the next healthy replica when a replica fails (a
    /// model fault past its retry budget, or a panic; deadline expiry
    /// does not fail over). An active `sink` receives the query's events —
    /// after a fail-over the retried attempt's events follow the failed
    /// attempt's partial ones, from the start — and firing `cancel` stops
    /// the query (it is never retried). Every attempt executes the same
    /// request, so results depend only on it, never on placement. Returns
    /// the `BUSY` shed error at the admission cap.
    ///
    /// [`run_query`](Self::run_query) and
    /// [`stream_query`](Self::stream_query) are thin callers of this.
    pub fn serve(
        &self,
        request: &QueryRequest,
        sink: &StreamSink,
        cancel: &CancelToken,
    ) -> lmql::Result<QueryResult> {
        self.shared.serve(request, sink, cancel)
    }

    /// Routes and runs one request (or bare source); see
    /// [`serve`](Self::serve).
    pub fn run_query(&self, request: impl Into<QueryRequest>) -> lmql::Result<QueryResult> {
        self.serve(&request.into(), &StreamSink::none(), &CancelToken::new())
    }

    /// Scores a raw token context through the pool, routed by the same
    /// token-prefix fingerprint as queries — a scoring request shards
    /// with the query traffic whose prompt it extends. Fails over on
    /// model errors (except cancellation/deadline, which are the
    /// caller's verdicts, not the replica's).
    pub fn try_score(&self, context: &[TokenId]) -> LmResult<Logits> {
        self.try_score_many(&[context])
            .pop()
            .expect("one result per context")
    }

    /// Batched [`try_score`](Self::try_score) with per-item results —
    /// the one routed-scoring loop. Each round groups the unanswered
    /// contexts by their next-choice replica and hands every group to
    /// that replica's [`Scheduler::try_score_many`](crate::Scheduler::try_score_many)
    /// in one submission (one microbatch per replica when it fits);
    /// items that failed at the model layer move on to the next round.
    pub fn try_score_many(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let shared = &self.shared;
        let orders: Vec<Vec<usize>> = contexts
            .iter()
            .map(|ctx| shared.route_order(fingerprint_tokens(ctx, shared.prefix_tokens)))
            .collect();
        let mut results: Vec<Option<LmResult<Logits>>> = vec![None; contexts.len()];
        let mut pending: Vec<usize> = (0..contexts.len()).collect();
        for attempt in 0..shared.replicas.len() {
            if pending.is_empty() {
                break;
            }
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shared.replicas.len()];
            for qi in pending.drain(..) {
                groups[orders[qi][attempt]].push(qi);
            }
            for (replica, group) in shared.replicas.iter().zip(&groups) {
                if group.is_empty() {
                    continue;
                }
                if attempt > 0 {
                    shared.metrics.failovers.add(group.len() as u64);
                }
                let batch: Vec<&[TokenId]> = group.iter().map(|&qi| contexts[qi]).collect();
                let scored = replica.sched.try_score_many(&batch, None);
                for (&qi, result) in group.iter().zip(scored) {
                    match &result {
                        Ok(_) => replica.breaker.record_success(),
                        Err(LmError::Cancelled | LmError::DeadlineExceeded { .. }) => {}
                        Err(_) => {
                            replica.breaker.record_failure();
                            pending.push(qi);
                        }
                    }
                    results[qi] = Some(result);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every context is attempted at least once"))
            .collect()
    }

    /// Routes and streams one request (or bare source) on its own thread;
    /// events arrive as decoding progresses. On a replica failure
    /// mid-stream the query fails over: the event stream *restarts from
    /// the beginning* on the next healthy replica (consumers see the new
    /// attempt's events after the old attempt's partial ones), and
    /// [`QueryStream::wait`] returns the retried run's result —
    /// byte-identical to an unrouted run, because results depend only on
    /// the request. Dropping the handle cancels the query.
    pub fn stream_query(&self, request: impl Into<QueryRequest>) -> QueryStream {
        let shared = Arc::clone(&self.shared);
        let request = request.into();
        QueryStream::spawn(move |sink, cancel| shared.serve(&request, &sink, cancel))
    }

    /// Shuts every replica's scheduler down, draining queued and
    /// in-flight batches. Idempotent; also happens implicitly on drop.
    pub fn shutdown(&self) {
        for replica in &self.shared.replicas {
            replica.sched.shutdown();
        }
    }

    /// A point-in-time snapshot of router counters, pool usage, and
    /// every replica's load, cache, and breaker state.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.shared.metrics.queries.get(),
            shed: self.shared.metrics.shed.get(),
            failovers: self.shared.metrics.failovers.get(),
            rerouted: self.shared.metrics.rerouted.get(),
            usage: self.shared.meter.snapshot(),
            replicas: self
                .shared
                .replicas
                .iter()
                .map(|r| ReplicaStats {
                    queries: r.queries.get(),
                    cache: r.sched.cache_stats(),
                    breaker: r.breaker.state(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_lm::{Episode, ScriptedLm};
    use std::time::Duration;

    fn pool(replicas: usize, affinity: bool, episodes: Vec<Episode>) -> Router {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
        Router::new(
            lm,
            bpe,
            RouterConfig {
                replicas,
                affinity,
                ..RouterConfig::default()
            },
        )
    }

    #[test]
    fn prompt_prefix_stops_at_holes_and_recalls() {
        let src = "argmax\n    \"Q: what[A]\"\nfrom \"m\"\n";
        assert_eq!(prompt_prefix(src), "Q: what");
        let recall = "argmax\n    \"ctx {V} then[A]\"\nfrom \"m\"\n";
        assert_eq!(prompt_prefix(recall), "ctx ");
        assert_eq!(prompt_prefix("no quotes at all"), "no quotes at all");
    }

    #[test]
    fn affinity_routing_is_deterministic_and_prefix_keyed() {
        let router = pool(4, true, vec![Episode::plain("Q:", " a.")]);
        let q1 = "argmax\n    \"shared prefix one[A]\"\nfrom \"m\"\n";
        let q2 = "argmax\n    \"shared prefix one[B]\"\nfrom \"m\"\n";
        assert_eq!(router.route_for(q1), router.route_for(q1));
        assert_eq!(
            router.route_for(q1),
            router.route_for(q2),
            "same prompt prefix, same replica (hole name is irrelevant)"
        );
        // Any one pair of prompts may collide on a replica; the key only
        // ignores the text if *every* distinct prompt collides.
        let elsewhere = (0..16).any(|i| {
            let q = format!("argmax\n    \"other prompt {i} goes[A]\"\nfrom \"m\"\n");
            router.route_for(&q) != router.route_for(q1)
        });
        assert!(elsewhere, "distinct prefixes never left q1's replica");
    }

    #[test]
    fn rendezvous_spreads_keys_over_replicas() {
        let router = pool(4, true, vec![]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            let src = format!("argmax\n    \"prompt number {i} says[A]\"\nfrom \"m\"\n");
            seen.insert(router.route_for(&src));
        }
        assert!(
            seen.len() >= 3,
            "32 distinct prompts should reach most of 4 replicas, got {seen:?}"
        );
    }

    #[test]
    fn round_robin_mode_rotates() {
        let router = pool(3, false, vec![Episode::plain("Q:", " a.")]);
        let q = "argmax\n    \"Q:[A]\"\nfrom \"m\"\nwhere stops_at(A, \".\")\n";
        for _ in 0..6 {
            router.run_query(q).unwrap();
        }
        let stats = router.stats();
        let loads: Vec<u64> = stats.replicas.iter().map(|r| r.queries).collect();
        assert_eq!(loads, vec![2, 2, 2], "round-robin deals evenly");
    }

    #[test]
    fn admission_cap_sheds_and_releases() {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(ScriptedLm::new(
            Arc::clone(&bpe),
            vec![Episode::plain("Q:", " a.")],
        ));
        let router = Router::new(
            lm,
            bpe,
            RouterConfig {
                replicas: 2,
                max_inflight: 2,
                ..RouterConfig::default()
            },
        );
        let p1 = router.admit().expect("slot 1");
        let _p2 = router.admit().expect("slot 2");
        assert!(router.admit().is_none(), "cap reached");
        let q = "argmax\n    \"Q:[A]\"\nfrom \"m\"\nwhere stops_at(A, \".\")\n";
        let shed = router.run_query(q);
        assert!(
            matches!(shed, Err(lmql::Error::Model { ref message, .. }) if message.contains("capacity")),
            "{shed:?}"
        );
        drop(p1);
        assert!(router.admit().is_some(), "released slot is reusable");
        assert_eq!(router.stats().shed, 2);
        drop(router);
    }

    /// A model whose every call fails transiently.
    struct Down(Arc<Bpe>);

    impl LanguageModel for Down {
        fn vocab(&self) -> &lmql_tokenizer::Vocabulary {
            self.0.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            let down = Err(LmError::transient(lmql_lm::FaultKind::Other, "down"));
            vec![down; contexts.len()]
        }
    }

    /// A query past its deadline is the caller's verdict, not the
    /// replica's: it is not replayed on the next replica and counts
    /// against no breaker — while the same backend without a deadline is
    /// a replica failure and fails over.
    #[test]
    fn expired_deadline_does_not_fail_over() {
        use lmql_lm::RetryPolicy;
        let bpe = Arc::new(Bpe::char_level(""));
        let down_pool = |retry: RetryPolicy| {
            Router::new(
                Arc::new(Down(Arc::clone(&bpe))),
                Arc::clone(&bpe),
                RouterConfig {
                    replicas: 2,
                    engine: EngineConfig {
                        retry,
                        ..EngineConfig::default()
                    },
                    ..RouterConfig::default()
                },
            )
        };
        let q = "argmax\n    \"Q:[A]\"\nfrom \"m\"\n";
        let patient = down_pool(RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(20)),
            ..RetryPolicy::default()
        });
        let err = patient.run_query(q).unwrap_err();
        assert!(
            matches!(
                err,
                lmql::Error::Model {
                    class: ModelErrorClass::Deadline,
                    ..
                }
            ),
            "{err:?}"
        );
        let stats = patient.stats();
        assert_eq!(stats.failovers, 0);
        let loads: Vec<u64> = stats.replicas.iter().map(|r| r.queries).collect();
        assert_eq!(
            loads.iter().sum::<u64>(),
            1,
            "ran on one replica: {loads:?}"
        );
        assert!(stats
            .replicas
            .iter()
            .all(|r| r.breaker == BreakerState::Closed));

        let impatient = down_pool(RetryPolicy::none());
        let err = impatient.run_query(q).unwrap_err();
        assert!(
            matches!(
                err,
                lmql::Error::Model {
                    class: ModelErrorClass::Transient,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            impatient.stats().failovers,
            1,
            "a dead backend does fail over"
        );
    }

    #[test]
    fn routed_queries_match_single_node() {
        let episodes = vec![Episode::plain("A:", " one."), Episode::plain("B:", " two.")];
        let router = pool(3, true, episodes.clone());
        let bpe = Arc::new(Bpe::char_level(""));
        let bare = lmql::Runtime::new(Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes)), bpe);
        let qa = "argmax\n    \"A:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let qb = "argmax\n    \"B:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
        let sources = vec![qa, qb, qa, qb, qa];
        // All five in flight at once, one thread each.
        let streams: Vec<QueryStream> = sources.iter().map(|&s| router.stream_query(s)).collect();
        for (stream, source) in streams.into_iter().zip(&sources) {
            let p = stream.wait().unwrap();
            let r = bare.execute(&(*source).into()).unwrap();
            assert_eq!(p.best().trace, r.best().trace);
            assert_eq!(
                p.best().log_prob.to_bits(),
                r.best().log_prob.to_bits(),
                "bit-identical scores"
            );
        }
    }
}
