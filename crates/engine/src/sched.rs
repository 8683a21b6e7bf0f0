//! The microbatching score scheduler.
//!
//! Many concurrent query executions push score requests at a model that
//! answers one context at a time. The scheduler sits between them
//! (Appendix A.2's server side of the client–server split) and applies
//! three classic inference-serving moves:
//!
//! 1. **Prefix cache** — a shared [`RadixCache`] answers contexts any
//!    execution has scored before, across query boundaries.
//! 2. **Single-flight** — identical contexts requested while a compute is
//!    queued or in flight join that compute instead of re-issuing it.
//! 3. **Microbatching** — pending distinct contexts are coalesced into one
//!    [`try_score_batch`](LanguageModel::try_score_batch) call of at most
//!    [`BatchPolicy::max_batch`]. One `try_score_many` call is one
//!    submission (its cold contexts are enqueued together and leave
//!    together), and the dispatcher fires as soon as anything is queued —
//!    nobody waits for a hypothetical partner. The one exception: while a
//!    caller answered by the previous dispatch is still on its way back
//!    with its next step, the batch is held open for it, for at most
//!    `HOLD` (200 µs) measured from that answer — which is what
//!    lets lock-step clients keep sharing dispatches.
//!
//! Because scoring is pure and deterministic per context, none of this
//! changes any result: every consumer receives exactly the logits a
//! direct model call would have produced, bit for bit.
//!
//! **Fault tolerance.** The model behind the scheduler may be fallible (a
//! remote backend, a chaos wrapper). Results are per item: one context's
//! fault never fails its batch partners or the single-flight waiters
//! merged onto them. A faulted item is retried on its own with backoff
//! under the scheduler's [`RetryPolicy`] — `1 + max_retries` attempts,
//! the batched one included — the only loop on the in-process serving
//! path that retries a transient model fault; items
//! whose per-request deadline expires are answered with
//! [`LmError::DeadlineExceeded`]. Every slot is always filled — with
//! logits or with an error — so no waiter is ever left hanging, and the
//! dispatcher thread itself never dies to a model fault.

use lmql_lm::{
    call_with_retry, context_token, validated, CancelToken, LanguageModel, LmError, LmResult,
    Logits, RadixCache, RadixCacheConfig, RadixStats, RetryMetrics, RetryPolicy, UsageMeter,
};
use lmql_obs::{Counter, Gauge, Histogram, Registry, Tracer};
use lmql_tokenizer::{TokenId, Vocabulary};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// How long after answering a dispatch the dispatcher keeps the next
/// batch open for the callers it just answered. A constant, not a knob:
/// it only bounds the wait for a caller that never returns (its query
/// ended), a returning one closes the hold itself. Measured from the
/// answer rather than from the enqueue, because the answer is when the
/// returning caller's clock starts — a partner that queued while the
/// model was busy has already waited and must not wait a full window
/// more.
const HOLD: Duration = Duration::from_micros(200);

/// How large a microbatch may be, and how the dispatcher picks the batch
/// when more work is queued than fits (continuous batching).
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// The most distinct contexts one dispatch carries.
    pub max_batch: usize,
    /// Starvation deadline: a queued item that has waited this long is
    /// admitted into the next dispatch ahead of everything else, so a
    /// continuously refilled queue can never delay an old item
    /// indefinitely. Under this deadline, an oversubscribed batch is
    /// filled stream-fairly (round-robin across submit calls) instead of
    /// FIFO — one wide beam step takes its fair share of the batch, not
    /// all of it.
    pub max_queue_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_queue_wait: Duration::from_millis(20),
        }
    }
}

/// Rendezvous for one in-flight context: requesters block on `ready`
/// until the dispatcher fills `result` — with logits, or with the error
/// that ended the request (so waiters never hang on a faulted batch).
#[derive(Debug, Default)]
struct Slot {
    result: Mutex<Option<LmResult<Logits>>>,
    ready: Condvar,
    /// Set when a second requester single-flights onto this slot. A
    /// shared slot is dispatched even if its original requester
    /// cancelled — some other waiter still wants the logits.
    shared: std::sync::atomic::AtomicBool,
}

impl Slot {
    /// Blocks until the dispatcher fills the slot — or, with a token,
    /// gives up with [`LmError::Cancelled`] once it fires. The slot
    /// itself stays live for any single-flight partners and is retired
    /// by the dispatcher either way.
    fn wait(&self, cancel: Option<&CancelToken>) -> LmResult<Logits> {
        let mut r = self.result.lock().expect("slot poisoned");
        loop {
            if let Some(result) = r.as_ref() {
                return result.clone();
            }
            r = match cancel {
                None => self.ready.wait(r).expect("slot poisoned"),
                Some(c) if c.is_cancelled() => return Err(LmError::Cancelled),
                Some(_) => {
                    self.ready
                        .wait_timeout(r, Duration::from_millis(5))
                        .expect("slot poisoned")
                        .0
                }
            };
        }
    }

    fn fill(&self, result: LmResult<Logits>) {
        *self.result.lock().expect("slot poisoned") = Some(result);
        self.ready.notify_all();
    }

    fn mark_shared(&self) {
        self.shared
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn is_shared(&self) -> bool {
        self.shared.load(std::sync::atomic::Ordering::Acquire)
    }
}

#[derive(Debug)]
struct Pending {
    /// Shared with the inflight map's key: one allocation per submitted
    /// context instead of two, and removal at settle time borrows it
    /// back as a slice.
    context: Arc<[TokenId]>,
    slot: Arc<Slot>,
    enqueued: Instant,
    /// When the request's retry budget expires (from the policy's
    /// deadline); `None` means unbounded.
    deadline: Option<Instant>,
    /// The requester's cancellation token; a cancelled item is skipped
    /// at dispatch (answered with [`LmError::Cancelled`]) unless its
    /// slot picked up single-flight partners.
    cancel: Option<CancelToken>,
    /// Fairness unit for continuous batching: every scoring call (one
    /// `try_score_many`) gets its own stream id, so
    /// an oversubscribed batch is dealt round-robin across concurrent
    /// calls rather than FIFO across contexts.
    stream: u64,
    /// The submitting thread — a query's steps all come from one thread,
    /// so this is who the dispatcher expects back after answering.
    caller: ThreadId,
}

#[derive(Debug)]
struct State {
    queue: Vec<Pending>,
    /// Contexts queued or dispatched but not yet answered; late
    /// requesters for the same context join the existing slot. Keys are
    /// shared with the queued [`Pending::context`] (and looked up by
    /// `&[TokenId]` via the std `Borrow<[T]>` impl for `Arc<[T]>`).
    inflight: HashMap<Arc<[TokenId]>, Arc<Slot>>,
    shutdown: bool,
    /// Callers answered by the previous dispatch that have neither come
    /// back nor still have work queued. While non-empty (and younger
    /// than [`HOLD`]) the next batch is held open for them; each strikes
    /// itself off on its next `try_score_many`.
    awaited: Vec<ThreadId>,
    /// When the previous dispatch was answered: the start of the hold.
    answered_at: Instant,
}

/// Observability hooks for a [`Scheduler`]: an optional usage meter, a
/// trace recorder (disabled by default, free when disabled) and an
/// optional metrics [`Registry`] to expose scheduler metrics under
/// `engine.*` names.
#[derive(Debug, Clone, Default)]
pub struct SchedulerObs {
    /// §6 usage counters (cache hits/misses, batch statistics).
    pub meter: Option<UsageMeter>,
    /// Structured trace recorder: cache hit/miss/single-flight-merge
    /// instants and batch-dispatch spans.
    pub tracer: Tracer,
    /// Metrics registry; when set, scheduler metrics are registered into
    /// it (see [`SchedMetrics::registered`] names). When unset the
    /// handles still exist but are reachable only via this scheduler.
    pub registry: Option<Registry>,
}

/// The scheduler's metric handles. Always allocated (they are a handful
/// of atomics); registered into a [`Registry`] only when one is given.
#[derive(Debug, Clone)]
pub struct SchedMetrics {
    /// Distribution of microbatch sizes (contexts per dispatch).
    pub batch_size: Histogram,
    /// Distribution of queue wait per request, in microseconds.
    pub batch_wait_us: Histogram,
    /// Microbatches dispatched to the model.
    pub dispatches: Counter,
    /// Dispatches that were held open for a caller the previous dispatch
    /// had just answered (see the module docs) before they fired.
    pub holds: Counter,
    /// Requests that joined an already queued/in-flight identical
    /// context instead of enqueueing their own (single-flight merges).
    pub singleflight_merges: Counter,
    /// Prefix-cache hits.
    pub cache_hits: Counter,
    /// Prefix-cache misses.
    pub cache_misses: Counter,
    /// Prefix-cache evictions.
    pub cache_evictions: Counter,
    /// Current prefix-cache entries.
    pub cache_entries: Gauge,
    /// Current approximate prefix-cache bytes.
    pub cache_bytes: Gauge,
    /// Requests abandoned by their consumer (a dropped stream handle, a
    /// disconnected client) and released at dispatch without reaching
    /// the model.
    pub cancelled: Counter,
    /// Queued items admitted by the starvation deadline
    /// ([`BatchPolicy::max_queue_wait`]) while the queue was
    /// oversubscribed — each one is a request that plain FIFO/fair fill
    /// might have delayed past its deadline.
    pub starvation_rescues: Counter,
    /// Retry/fault/deadline counters for dispatch-time recovery,
    /// registered under `lm.*` names (`lm.retries`,
    /// `lm.deadline_exceeded`, `lm.faults`, `lm.breaker_rejections`).
    pub retry: RetryMetrics,
}

impl SchedMetrics {
    fn standalone() -> Self {
        SchedMetrics {
            batch_size: Histogram::default(),
            batch_wait_us: Histogram::default(),
            dispatches: Counter::default(),
            holds: Counter::default(),
            singleflight_merges: Counter::default(),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            cache_evictions: Counter::default(),
            cache_entries: Gauge::default(),
            cache_bytes: Gauge::default(),
            cancelled: Counter::default(),
            starvation_rescues: Counter::default(),
            retry: RetryMetrics::default(),
        }
    }

    /// Handles registered into `registry` under `engine.*` names (retry
    /// counters under `lm.*`, next to the usage meter's model counters).
    pub fn registered(registry: &Registry) -> Self {
        SchedMetrics {
            batch_size: registry.histogram("engine.batch.size"),
            batch_wait_us: registry.histogram("engine.batch.wait_us"),
            dispatches: registry.counter("engine.batch.dispatches"),
            holds: registry.counter("engine.batch.holds"),
            singleflight_merges: registry.counter("engine.singleflight.merges"),
            cache_hits: registry.counter("engine.cache.hits"),
            cache_misses: registry.counter("engine.cache.misses"),
            cache_evictions: registry.counter("engine.cache.evictions"),
            cache_entries: registry.gauge("engine.cache.entries"),
            cache_bytes: registry.gauge("engine.cache.bytes"),
            cancelled: registry.counter("engine.cancelled"),
            starvation_rescues: registry.counter("engine.starvation.rescues"),
            retry: RetryMetrics {
                retries: registry.counter("lm.retries"),
                deadline_exceeded: registry.counter("lm.deadline_exceeded"),
                faults: registry.counter("lm.faults"),
                breaker_rejections: registry.counter("lm.breaker_rejections"),
            },
        }
    }
}

struct Shared {
    model: Box<dyn LanguageModel>,
    policy: BatchPolicy,
    retry: RetryPolicy,
    meter: Option<UsageMeter>,
    tracer: Tracer,
    metrics: SchedMetrics,
    cache: Mutex<RadixCache>,
    state: Mutex<State>,
    work: Condvar,
    /// Stream-id allocator for continuous-batching fairness; every
    /// scoring call draws one id for all the contexts it submits.
    next_stream: std::sync::atomic::AtomicU64,
}

impl Shared {
    fn stream_id(&self) -> u64 {
        self.next_stream
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Per-item scoring with retry/backoff under the scheduler's policy:
    /// `1 + max_retries` attempts in all. A faulted batch item passes its
    /// batched attempt's error as `first` (that attempt is attempt 0, so
    /// the loop only makes the retries); the shutdown-drain path passes
    /// `None` and makes every attempt here. Honours the item's absolute
    /// deadline on top of the policy's per-request budget.
    fn score_direct(
        &self,
        context: &[TokenId],
        deadline: Option<Instant>,
        mut first: Option<LmError>,
    ) -> LmResult<Logits> {
        let mut policy = self.retry;
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            policy.deadline = Some(policy.deadline.map_or(remaining, |b| b.min(remaining)));
        }
        call_with_retry(
            &policy,
            &self.metrics.retry,
            None,
            context_token(context),
            || match first.take() {
                Some(e) => Err(e),
                None => self
                    .model
                    .try_score(context)
                    .and_then(|l| validated(l, self.model.vocab().len())),
            },
        )
    }
}

/// The scheduler: owns the model, a dispatcher thread, and the shared
/// prefix cache. Shut down (draining all queued work) on drop or via
/// [`shutdown`](Scheduler::shutdown).
pub struct Scheduler {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.shared.policy)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// A scheduler over `model` with the given batching policy and cache
    /// budgets, [`RetryPolicy::default`] (free for infallible models —
    /// retries only ever run after a fault) and no observability hooks.
    pub fn new(
        model: Box<dyn LanguageModel>,
        policy: BatchPolicy,
        cache: RadixCacheConfig,
    ) -> Self {
        let retry = RetryPolicy::default();
        Self::with_retry(model, policy, cache, retry, SchedulerObs::default())
    }

    /// The full constructor: an explicit [`RetryPolicy`] governing
    /// dispatch-time fault recovery (per-item retries with backoff,
    /// per-request deadlines) and observability hooks — an optional usage
    /// meter, a trace recorder, and an optional metrics registry
    /// (scheduler metrics registered under `engine.*`).
    pub fn with_retry(
        model: Box<dyn LanguageModel>,
        policy: BatchPolicy,
        cache: RadixCacheConfig,
        retry: RetryPolicy,
        obs: SchedulerObs,
    ) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        let metrics = match &obs.registry {
            Some(registry) => SchedMetrics::registered(registry),
            None => SchedMetrics::standalone(),
        };
        let shared = Arc::new(Shared {
            model,
            policy,
            retry,
            meter: obs.meter,
            tracer: obs.tracer,
            metrics,
            cache: Mutex::new(RadixCache::new(cache)),
            state: Mutex::new(State {
                queue: Vec::new(),
                inflight: HashMap::new(),
                shutdown: false,
                awaited: Vec::new(),
                answered_at: Instant::now(),
            }),
            work: Condvar::new(),
            next_stream: std::sync::atomic::AtomicU64::new(1),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lmql-engine-dispatch".to_owned())
                .spawn(move || dispatch_loop(&shared))
                .expect("failed to spawn dispatcher thread")
        };
        Scheduler {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// The model's vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        self.shared.model.vocab()
    }

    /// Prefix-cache counters and occupancy.
    pub fn cache_stats(&self) -> RadixStats {
        self.shared.cache.lock().expect("cache poisoned").stats()
    }

    /// The scheduler's metric handles (batch sizes, queue waits,
    /// single-flight merges, cache counters).
    pub fn metrics(&self) -> &SchedMetrics {
        &self.shared.metrics
    }

    /// The scheduler's trace recorder (disabled unless one was installed
    /// via [`with_retry`](Self::with_retry)).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Scores one context through the cache/single-flight/batch pipeline,
    /// blocking until the result is available: the one-context case of
    /// [`try_score_many`](Self::try_score_many).
    pub fn try_score(&self, context: &[TokenId]) -> LmResult<Logits> {
        self.try_score_many(&[context], None)
            .pop()
            .expect("one result per context")
    }

    /// Scores many contexts with per-item results. The call is one
    /// submission: every context is looked up, joined onto an in-flight
    /// compute or enqueued under a single hold of the scheduler lock,
    /// *before* waiting on any — so one decoder step's candidate
    /// extensions always leave in one model dispatch (split only by
    /// `max_batch`, and interleaved with other executions' requests).
    /// Transient model faults are retried per the scheduler's
    /// [`RetryPolicy`]; what remains (exhausted budgets, fatal errors,
    /// expired deadlines) surfaces as that item's [`LmError`], never its
    /// partners'.
    ///
    /// With a `cancel` token, every wait resolves to
    /// [`LmError::Cancelled`] as soon as it fires, without waiting for the
    /// dispatcher; the queued work is released at dispatch time (never
    /// reaching the model) unless a single-flight partner still wants it.
    pub fn try_score_many(
        &self,
        contexts: &[&[TokenId]],
        cancel: Option<&CancelToken>,
    ) -> Vec<LmResult<Logits>> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return contexts.iter().map(|_| Err(LmError::Cancelled)).collect();
        }
        let shared = &*self.shared;
        // First lookup off the scheduler lock: warm contexts never
        // contend with the dispatcher.
        let hits: Vec<Option<Logits>> = {
            let mut cache = shared.cache.lock().expect("cache poisoned");
            contexts
                .iter()
                .map(|ctx| cache.get(ctx).inspect(|_| self.note_cache_hit(ctx)))
                .collect()
        };
        // One stream id for the whole call: under contention this call's
        // contexts collectively take one fair share of each batch.
        let stream = shared.stream_id();
        let caller = std::thread::current().id();
        let mut st = shared.state.lock().expect("scheduler poisoned");
        // This caller is back: the dispatcher no longer holds for it.
        let awaited = st.awaited.len();
        st.awaited.retain(|t| *t != caller);
        let returned = st.awaited.len() < awaited;
        if st.shutdown {
            // The dispatcher is draining or gone: score inline (off the
            // lock) rather than queueing work nobody will pick up.
            drop(st);
            return contexts
                .iter()
                .zip(hits)
                .map(|(ctx, hit)| hit.map_or_else(|| self.score_inline(ctx), Ok))
                .collect();
        }
        let queued = st.queue.len();
        let submitted: Vec<Result<LmResult<Logits>, Arc<Slot>>> = contexts
            .iter()
            .zip(hits)
            .map(|(ctx, hit)| match hit {
                Some(logits) => Ok(Ok(logits)),
                None => self.join_or_enqueue(&mut st, ctx, cancel, stream, caller),
            })
            .collect();
        // One wake-up per call, and only when the dispatcher has
        // something new to decide on: more work, or a hold that may now
        // be over.
        if st.queue.len() > queued || (returned && !st.queue.is_empty()) {
            shared.work.notify_one();
        }
        drop(st);
        submitted
            .into_iter()
            .map(|s| s.unwrap_or_else(|slot| slot.wait(cancel)))
            .collect()
    }

    /// Scores a cache miss on the calling thread — the path for calls
    /// that arrive during or after shutdown drain.
    fn score_inline(&self, context: &[TokenId]) -> LmResult<Logits> {
        self.note_cache_miss();
        let result = self.shared.score_direct(context, None, None);
        if let Ok(logits) = &result {
            self.shared
                .cache
                .lock()
                .expect("cache poisoned")
                .insert(context, logits.clone());
        }
        result
    }

    /// A cache miss, under the scheduler lock: join the context's
    /// in-flight compute if there is one, else enqueue it. `Ok` is an
    /// immediate result (a second-chance cache hit); `Err` is the slot to
    /// wait on.
    fn join_or_enqueue(
        &self,
        st: &mut State,
        context: &[TokenId],
        cancel: Option<&CancelToken>,
        stream: u64,
        caller: ThreadId,
    ) -> Result<LmResult<Logits>, Arc<Slot>> {
        if let Some(slot) = st.inflight.get(context) {
            self.note_cache_miss();
            self.shared.metrics.singleflight_merges.inc();
            self.shared.tracer.instant_with("cache", "merge", || {
                vec![("context_tokens".to_owned(), (context.len() as u64).into())]
            });
            // A merged slot must be dispatched even if its original
            // requester cancels — this waiter still wants the logits.
            slot.mark_shared();
            return Err(Arc::clone(slot));
        }
        // Second-chance lookup under the state lock: the dispatcher
        // inserts results into the cache *before* clearing the inflight
        // entry, so a context absent from both maps here is either cached
        // by now or genuinely never requested. Without this re-check, a
        // requester racing the dispatcher (stale cache miss above, then an
        // inflight miss after cleanup) would re-score a finished context.
        // The re-check is the first probe's lookup again, so it counts
        // only if it hits, turning that miss into a hit.
        if let Some(hit) = self
            .shared
            .cache
            .lock()
            .expect("cache poisoned")
            .recheck(context)
        {
            self.note_cache_hit(context);
            return Ok(Ok(hit));
        }
        self.note_cache_miss();
        let slot = Arc::new(Slot::default());
        let now = Instant::now();
        // One shared allocation backs both the inflight key and the
        // queued payload.
        let context: Arc<[TokenId]> = Arc::from(context);
        st.inflight.insert(Arc::clone(&context), Arc::clone(&slot));
        st.queue.push(Pending {
            context,
            slot: Arc::clone(&slot),
            enqueued: now,
            deadline: self.shared.retry.deadline.map(|d| now + d),
            cancel: cancel.cloned(),
            stream,
            caller,
        });
        Err(slot)
    }

    fn note_cache_hit(&self, context: &[TokenId]) {
        if let Some(m) = &self.shared.meter {
            m.record_cache_hit();
        }
        self.shared.metrics.cache_hits.inc();
        self.shared.tracer.instant_with("cache", "hit", || {
            vec![("context_tokens".to_owned(), (context.len() as u64).into())]
        });
    }

    fn note_cache_miss(&self) {
        if let Some(m) = &self.shared.meter {
            m.record_cache_miss();
        }
        self.shared.metrics.cache_misses.inc();
        self.shared.tracer.instant("cache", "miss");
    }

    /// Stops the dispatcher after draining all queued work. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("scheduler poisoned");
            st.shutdown = true;
            self.shared.work.notify_one();
        }
        if let Some(handle) = self.worker.lock().expect("scheduler poisoned").take() {
            handle.join().expect("dispatcher thread panicked");
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Continuous-batching admission: removes up to `max_batch` items from
/// `queue` (preserving the order of what remains) and returns them plus
/// the number admitted by the starvation deadline.
///
/// When everything fits, the whole queue is taken — identical to the old
/// microbatch drain. When the queue is oversubscribed, items are split
/// into two priority classes and each class is dealt **stream-fairly**:
///
/// 1. **Overdue first** — items that have already waited
///    `max_queue_wait` outrank everything fresh. This is the per-item
///    starvation deadline: a queue continuously refilled by wide
///    requests can no longer delay an old item indefinitely, because
///    fresh arrivals can never displace an overdue one.
/// 2. **Stream-fair within a class** — capacity is dealt round-robin
///    across distinct streams (one scoring call = one stream), FIFO
///    within each stream, streams visited in order of their oldest
///    pending item. A width-N beam step takes at most its fair share of
///    a contended batch — even when the whole queue is overdue — and a
///    one-context argmax request rides in the same dispatch instead of
///    queueing behind the whole beam.
///
/// Selection never changes any result — `score` is pure per context —
/// only who waits. The admitted batch keeps original queue order, so the
/// wait histogram and dispatch spans read the same way as before.
fn admit_batch(
    queue: &mut Vec<Pending>,
    max_batch: usize,
    max_queue_wait: Duration,
    now: Instant,
) -> (Vec<Pending>, u64) {
    if queue.len() <= max_batch {
        return (std::mem::take(queue), 0);
    }
    let mut picked = vec![false; queue.len()];
    let mut left = max_batch;
    let mut rescued = 0u64;
    for overdue_class in [true, false] {
        if left == 0 {
            break;
        }
        // Per-stream FIFO lists of this class's indices, in order of
        // each stream's first (oldest) pending item — push order is age
        // order, so first-seen is oldest.
        let mut streams: Vec<(u64, std::collections::VecDeque<usize>)> = Vec::new();
        for (i, p) in queue.iter().enumerate() {
            if picked[i] {
                continue;
            }
            let overdue = now.duration_since(p.enqueued) >= max_queue_wait;
            if overdue != overdue_class {
                continue;
            }
            match streams.iter_mut().find(|(s, _)| *s == p.stream) {
                Some((_, idxs)) => idxs.push_back(i),
                None => streams.push((p.stream, std::collections::VecDeque::from([i]))),
            }
        }
        'fill: loop {
            let mut progressed = false;
            for (_, idxs) in &mut streams {
                if let Some(i) = idxs.pop_front() {
                    picked[i] = true;
                    progressed = true;
                    left -= 1;
                    if overdue_class {
                        rescued += 1;
                    }
                    if left == 0 {
                        break 'fill;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }
    let taken = max_batch - left;
    let mut batch = Vec::with_capacity(taken);
    let mut keep = Vec::with_capacity(queue.len() - taken);
    for (i, p) in std::mem::take(queue).into_iter().enumerate() {
        if picked[i] {
            batch.push(p);
        } else {
            keep.push(p);
        }
    }
    *queue = keep;
    (batch, rescued)
}

/// What the dispatcher does with a non-empty queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Firing {
    /// Take a batch now.
    Fire,
    /// Keep the batch open until this instant (or the next submission).
    HoldUntil(Instant),
}

/// The firing rule, for `queued > 0` pending contexts: fire at once —
/// unless callers answered by the previous dispatch (at `awaiting_since`)
/// are still on their way back, in which case the batch stays open for
/// them until [`HOLD`] after that answer. A full batch and shutdown drain
/// never wait.
fn firing(
    queued: usize,
    max_batch: usize,
    shutdown: bool,
    awaiting_since: Option<Instant>,
    now: Instant,
) -> Firing {
    match awaiting_since {
        Some(answered_at) if !shutdown && queued < max_batch && now < answered_at + HOLD => {
            Firing::HoldUntil(answered_at + HOLD)
        }
        _ => Firing::Fire,
    }
}

fn dispatch_loop(shared: &Shared) {
    // Cache totals live in the cache; the dispatcher (its only writer
    // besides the rare shutdown-drain path) mirrors them into the
    // metrics by delta — so several schedulers registered under the same
    // names (a replica pool) sum to pool totals instead of clobbering
    // each other.
    let mut seen = RadixStats::default();
    loop {
        let (batch, held) = {
            let mut st = shared.state.lock().expect("scheduler poisoned");
            let mut held = false;
            loop {
                if st.queue.is_empty() {
                    if st.shutdown {
                        return;
                    }
                    st = shared.work.wait(st).expect("scheduler poisoned");
                    continue;
                }
                let now = Instant::now();
                match firing(
                    st.queue.len(),
                    shared.policy.max_batch,
                    st.shutdown,
                    (!st.awaited.is_empty()).then_some(st.answered_at),
                    now,
                ) {
                    Firing::Fire => break,
                    Firing::HoldUntil(until) => {
                        held = true;
                        st = shared
                            .work
                            .wait_timeout(st, until - now)
                            .expect("scheduler poisoned")
                            .0;
                    }
                }
            }
            st.awaited.clear();
            let (batch, rescued) = admit_batch(
                &mut st.queue,
                shared.policy.max_batch,
                shared.policy.max_queue_wait,
                Instant::now(),
            );
            if rescued > 0 {
                shared.metrics.starvation_rescues.add(rescued);
            }
            // Requests abandoned by their consumer are released here —
            // their slot leaves the inflight map without ever reaching the
            // model — unless a single-flight partner joined the slot, in
            // which case the context is dispatched for the partner's sake.
            // Decided under the same lock hold as the dequeue: a partner
            // joins under this lock, so it either shared the slot before
            // the decision or no longer finds it.
            let (batch, abandoned): (Vec<Pending>, Vec<Pending>) =
                batch.into_iter().partition(|p| {
                    p.slot.is_shared() || p.cancel.as_ref().is_none_or(|c| !c.is_cancelled())
                });
            for p in abandoned {
                shared.metrics.cancelled.inc();
                shared.tracer.instant_with("sched", "cancelled", || {
                    vec![("context_tokens".to_owned(), (p.context.len() as u64).into())]
                });
                st.inflight.remove(&p.context);
                p.slot.fill(Err(LmError::Cancelled));
            }
            (batch, held)
        };

        // Requests whose deadline already passed are answered (with the
        // deadline error) instead of dispatched: late logits nobody can
        // use would only delay the healthy remainder of the batch.
        let now = Instant::now();
        let (batch, expired): (Vec<Pending>, Vec<Pending>) = batch
            .into_iter()
            .partition(|p| p.deadline.is_none_or(|d| d > now));
        if !expired.is_empty() {
            let mut st = shared.state.lock().expect("scheduler poisoned");
            for p in expired {
                shared.metrics.retry.deadline_exceeded.inc();
                st.inflight.remove(&p.context);
                p.slot.fill(Err(LmError::DeadlineExceeded {
                    deadline: shared.retry.deadline.unwrap_or_default(),
                }));
            }
        }
        if batch.is_empty() {
            continue;
        }

        shared.metrics.batch_size.record(batch.len() as u64);
        shared.metrics.dispatches.inc();
        if held {
            shared.metrics.holds.inc();
        }
        for p in &batch {
            let waited = p.enqueued.elapsed();
            shared
                .metrics
                .batch_wait_us
                .record(waited.as_micros().min(u128::from(u64::MAX)) as u64);
        }
        let mut dispatch_span = shared.tracer.span("batch", "dispatch");
        dispatch_span.arg("contexts", batch.len() as u64);
        let contexts: Vec<&[TokenId]> = batch.iter().map(|p| &*p.context).collect();
        let results = shared.model.try_score_batch(&contexts);
        drop(dispatch_span);
        let vocab_len = shared.model.vocab().len();
        debug_assert_eq!(results.len(), batch.len());

        // Per-item recovery: a faulted item is retried on its own, its
        // batched attempt counting as the first of its `1 + r`, *without*
        // failing its batch partners — the healthy items' logits (and
        // their merged single-flight waiters) are already settled.
        // Whatever still fails becomes that item's error; every slot is
        // filled either way.
        let results: Vec<LmResult<Logits>> = results
            .into_iter()
            .zip(&batch)
            .map(|(r, p)| match r.and_then(|l| validated(l, vocab_len)) {
                Ok(logits) => Ok(logits),
                Err(e) if e.is_transient() => {
                    shared
                        .tracer
                        .instant_with("fault", "batch_item_fallback", || {
                            vec![("context_tokens".to_owned(), (p.context.len() as u64).into())]
                        });
                    shared.score_direct(&p.context, p.deadline, Some(e))
                }
                Err(e) => Err(e),
            })
            .collect();

        {
            let mut cache = shared.cache.lock().expect("cache poisoned");
            for (p, result) in batch.iter().zip(&results) {
                if let Ok(logits) = result {
                    cache.insert(&p.context, logits.clone());
                }
            }
            let stats = cache.stats();
            shared
                .metrics
                .cache_evictions
                .add(stats.evictions.saturating_sub(seen.evictions));
            move_gauge(&shared.metrics.cache_entries, seen.entries, stats.entries);
            move_gauge(&shared.metrics.cache_bytes, seen.bytes, stats.bytes);
            seen = stats;
        }
        let mut st = shared.state.lock().expect("scheduler poisoned");
        let mut answered: Vec<ThreadId> = Vec::new();
        for (p, result) in batch.into_iter().zip(results) {
            st.inflight.remove(&p.context);
            p.slot.fill(result);
            if !answered.contains(&p.caller) {
                answered.push(p.caller);
            }
        }
        // Expect the answered callers back with their next step — except
        // those with more still queued (a call split by `max_batch`):
        // they are blocked on that, not on their way back.
        answered.retain(|c| st.queue.iter().all(|q| q.caller != *c));
        st.awaited = answered;
        st.answered_at = Instant::now();
    }
}

/// Moves a shared gauge by this scheduler's own change `from` → `to`.
fn move_gauge(gauge: &Gauge, from: usize, to: usize) {
    if to >= from {
        gauge.add((to - from) as u64);
    } else {
        gauge.sub((from - to) as u64);
    }
}

/// A [`LanguageModel`] handle that routes every score through a shared
/// [`Scheduler`]. Hand clones of this to any number of concurrent query
/// runtimes: they transparently share the prefix cache and coalesce into
/// microbatches, with results bit-identical to calling the underlying
/// model directly.
#[derive(Debug, Clone)]
pub struct BatchedLm {
    sched: Arc<Scheduler>,
    cancel: Option<CancelToken>,
}

impl BatchedLm {
    /// A handle to `sched`.
    pub fn new(sched: Arc<Scheduler>) -> Self {
        BatchedLm {
            sched,
            cancel: None,
        }
    }

    /// A cancellable handle: once `cancel` fires, every fallible score
    /// through this handle resolves promptly to [`LmError::Cancelled`]
    /// and its queued work is released at dispatch — the scheduler slot
    /// is freed for other queries instead of burning a model call.
    pub fn with_cancel(sched: Arc<Scheduler>, cancel: CancelToken) -> Self {
        BatchedLm {
            sched,
            cancel: Some(cancel),
        }
    }

    /// The scheduler behind this handle.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }
}

impl LanguageModel for BatchedLm {
    fn vocab(&self) -> &Vocabulary {
        self.sched.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.sched.try_score_many(contexts, self.cancel.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_lm::{corpus, FaultKind, MeteredLm};
    use lmql_tokenizer::Bpe;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic model that counts score calls and can stall to
    /// force request overlap.
    #[derive(Debug)]
    struct CountingLm {
        bpe: Arc<Bpe>,
        calls: Arc<AtomicU64>,
        delay: Duration,
    }

    impl LanguageModel for CountingLm {
        fn vocab(&self) -> &Vocabulary {
            self.bpe.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            let one = |context: &&[TokenId]| {
                self.calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(self.delay);
                // Context-dependent but deterministic.
                let tag = context.len() as f64 + context.first().map_or(0.0, |t| t.0 as f64 / 7.0);
                Ok(Logits::constant(self.bpe.vocab().len(), tag))
            };
            contexts.iter().map(one).collect()
        }
    }

    fn counting(delay: Duration) -> (CountingLm, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        let lm = CountingLm {
            bpe: Arc::new(Bpe::char_level("")),
            calls: Arc::clone(&calls),
            delay,
        };
        (lm, calls)
    }

    fn unwrap_all(results: Vec<LmResult<Logits>>) -> Vec<Logits> {
        results.into_iter().map(Result::unwrap).collect()
    }

    fn policy(max_batch: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            ..BatchPolicy::default()
        }
    }

    #[test]
    fn scheduler_matches_direct_scoring() {
        let (lm, _) = counting(Duration::ZERO);
        let (reference, _) = counting(Duration::ZERO);
        let sched = Scheduler::new(Box::new(lm), BatchPolicy::default(), Default::default());
        for ctx in [&[][..], &[TokenId(1)][..], &[TokenId(2), TokenId(3)][..]] {
            assert_eq!(sched.try_score(ctx).unwrap(), reference.score(ctx));
        }
    }

    #[test]
    fn repeat_contexts_hit_the_cache() {
        let (lm, calls) = counting(Duration::ZERO);
        let meter = UsageMeter::new();
        let sched = Scheduler::with_retry(
            Box::new(lm),
            BatchPolicy::default(),
            Default::default(),
            RetryPolicy::default(),
            SchedulerObs {
                meter: Some(meter.clone()),
                ..SchedulerObs::default()
            },
        );
        let ctx = [TokenId(5), TokenId(6)];
        let a = sched.try_score(&ctx).unwrap();
        let b = sched.try_score(&ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let u = meter.snapshot();
        assert_eq!(u.cache_hits, 1);
        assert_eq!(u.cache_misses, 1);
        assert_eq!(sched.cache_stats().hits, 1);
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        // A slow model guarantees the second request arrives while the
        // first is queued or in flight.
        let (lm, calls) = counting(Duration::from_millis(40));
        let sched = Arc::new(Scheduler::new(Box::new(lm), policy(1), Default::default()));
        let ctx = vec![TokenId(9)];
        let results: Vec<Logits> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let sched = Arc::clone(&sched);
                    let ctx = ctx.clone();
                    s.spawn(move || sched.try_score(&ctx).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "identical concurrent contexts share one model call"
        );
    }

    #[test]
    fn score_many_coalesces_into_one_dispatch() {
        let (lm, _) = counting(Duration::ZERO);
        let meter = UsageMeter::new();
        let inner = MeteredLm::new(lm, meter.clone());
        // One call is one submission: its contexts leave together, well
        // short of a full batch.
        let sched = Scheduler::new(Box::new(inner), policy(8), Default::default());
        let c1 = [TokenId(1)];
        let c2 = [TokenId(2)];
        let c3 = [TokenId(3)];
        let out = unwrap_all(sched.try_score_many(&[&c1, &c2, &c3], None));
        assert_eq!(out.len(), 3);
        let u = meter.snapshot();
        assert_eq!(u.batch_dispatches, 1, "one microbatch for all three");
        assert_eq!(u.batched_queries, 3);
        assert_eq!(u.dispatches(), 1);
    }

    #[test]
    fn score_many_with_duplicates_and_hits() {
        let (lm, calls) = counting(Duration::ZERO);
        let sched = Scheduler::new(Box::new(lm), policy(2), Default::default());
        let c1 = [TokenId(1)];
        let c2 = [TokenId(2)];
        let warm = sched.try_score(&c1).unwrap(); // now cached
        let out = unwrap_all(sched.try_score_many(&[&c1, &c2, &c2], None));
        assert_eq!(out[0], warm);
        assert_eq!(out[1], out[2]);
        // c1 once (warm-up) + c2 once (duplicate single-flighted).
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    /// A model that holds every call at a gate: it reports the call on
    /// `entered`, then blocks until the test sends a release (or drops the
    /// sender, which opens the gate for good).
    struct GatedLm {
        inner: CountingLm,
        entered: std::sync::mpsc::Sender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl LanguageModel for GatedLm {
        fn vocab(&self) -> &Vocabulary {
            self.inner.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            let _ = self.entered.send(());
            let _ = self.release.lock().unwrap().recv();
            self.inner.try_score_batch(contexts)
        }
    }

    /// A scheduler over a gated model with `blocker` already dispatched
    /// and held at the gate and `queued` sitting in the queue behind it —
    /// by construction, no timing. Runs `then` in that state with the
    /// gate's release handle, and returns the two calls' results.
    fn with_one_held_and_one_queued(
        retry: RetryPolicy,
        then: impl FnOnce(&Arc<Scheduler>, std::sync::mpsc::Sender<()>),
    ) -> (Arc<Scheduler>, Arc<AtomicU64>, [LmResult<Logits>; 2]) {
        let (inner, calls) = counting(Duration::ZERO);
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let lm = GatedLm {
            inner,
            entered: entered_tx,
            release: Mutex::new(release_rx),
        };
        let sched = Arc::new(Scheduler::with_retry(
            Box::new(lm),
            policy(8),
            Default::default(),
            retry,
            SchedulerObs::default(),
        ));
        let results = std::thread::scope(|s| {
            let blocker = s.spawn(|| sched.try_score(&[TokenId(3)]));
            entered
                .recv_timeout(Duration::from_secs(10))
                .expect("the blocker reaches the model");
            let queued = s.spawn(|| sched.try_score(&[TokenId(4)]));
            while sched.shared.state.lock().unwrap().queue.is_empty() {
                std::thread::yield_now();
            }
            then(&sched, release);
            [blocker.join().unwrap(), queued.join().unwrap()]
        });
        (sched, calls, results)
    }

    #[test]
    fn shutdown_drains_queued_work() {
        // Shut down while one request holds the model and another is
        // still queued: both results must still arrive.
        let (sched, calls, results) =
            with_one_held_and_one_queued(RetryPolicy::default(), |sched, release| {
                let stopper = std::thread::spawn({
                    let sched = Arc::clone(sched);
                    move || sched.shutdown()
                });
                while !sched.shared.state.lock().unwrap().shutdown {
                    std::thread::yield_now();
                }
                drop(release);
                stopper.join().unwrap();
            });
        for r in &results {
            assert_eq!(r.as_ref().unwrap().len(), sched.vocab().len());
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2, "the drain dispatched it");
    }

    /// First token of a context selects its fault behaviour. `FLAKY`
    /// contexts fault as an item of a batch but succeed when scored alone
    /// (the per-item fallback); `DOOMED` contexts fault transiently on
    /// every path; `FATAL` contexts fail fatally everywhere.
    const FLAKY: TokenId = TokenId(100);
    const DOOMED: TokenId = TokenId(101);
    const FATAL: TokenId = TokenId(102);

    #[derive(Debug)]
    struct FaultyLm {
        bpe: Arc<Bpe>,
        /// Calls carrying more than one context / exactly one context.
        batch_calls: Arc<AtomicU64>,
        direct_calls: Arc<AtomicU64>,
    }

    impl FaultyLm {
        fn new() -> Self {
            FaultyLm {
                bpe: Arc::new(Bpe::char_level("")),
                batch_calls: Arc::new(AtomicU64::new(0)),
                direct_calls: Arc::new(AtomicU64::new(0)),
            }
        }

        fn logits_for(&self, context: &[TokenId]) -> Logits {
            let tag = context.len() as f64 + context.first().map_or(0.0, |t| t.0 as f64 / 7.0);
            Logits::constant(self.bpe.vocab().len(), tag)
        }
    }

    impl LanguageModel for FaultyLm {
        fn vocab(&self) -> &Vocabulary {
            self.bpe.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            let batched = contexts.len() > 1;
            let calls = if batched {
                &self.batch_calls
            } else {
                &self.direct_calls
            };
            calls.fetch_add(1, Ordering::SeqCst);
            contexts
                .iter()
                .map(|c| match c.first() {
                    Some(&FLAKY) if batched => {
                        Err(LmError::transient(FaultKind::Injected, "batch fault"))
                    }
                    Some(&DOOMED) => Err(LmError::transient(FaultKind::Injected, "doomed")),
                    Some(&FATAL) => Err(LmError::fatal("unservable context")),
                    _ => Ok(self.logits_for(c)),
                })
                .collect()
        }
    }

    /// A retry policy that retries fast and never sleeps long.
    fn fast_retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
            jitter: 0.0,
            seed: 0,
            deadline: None,
        }
    }

    /// `max_batch` sized to the test's request count, so each call is one
    /// dispatch.
    fn faulty_sched(
        max_retries: u32,
        max_batch: usize,
    ) -> (Scheduler, Arc<AtomicU64>, Arc<AtomicU64>) {
        let lm = FaultyLm::new();
        let batch_calls = Arc::clone(&lm.batch_calls);
        let direct_calls = Arc::clone(&lm.direct_calls);
        let sched = Scheduler::with_retry(
            Box::new(lm),
            policy(max_batch),
            Default::default(),
            fast_retry(max_retries),
            SchedulerObs::default(),
        );
        (sched, batch_calls, direct_calls)
    }

    /// Regression: a faulted batch item used to fail (or hang) every
    /// single-flight waiter merged into the same dispatch. With per-item
    /// results, healthy partners complete with exactly the logits a
    /// direct call would have produced, and the faulted item recovers
    /// through the direct-scoring fallback.
    #[test]
    fn faulted_batch_item_does_not_poison_partners() {
        let (sched, batch_calls, _) = faulty_sched(2, 3);
        let reference = FaultyLm::new();
        let healthy = [TokenId(1), TokenId(2)];
        let flaky = [FLAKY, TokenId(3)];
        let contexts: Vec<&[TokenId]> = vec![&healthy, &flaky, &[TokenId(7)]];
        let out = sched.try_score_many(&contexts, None);
        assert_eq!(batch_calls.load(Ordering::SeqCst), 1, "one dispatch");
        for (r, ctx) in out.iter().zip(&contexts) {
            let logits = r.as_ref().expect("every item must recover");
            assert_eq!(*logits, reference.logits_for(ctx));
        }
        assert!(
            sched.metrics().retry.faults.get() >= 1,
            "the flaky item's batch fault is counted"
        );
    }

    /// An item that exhausts its retry budget fails alone: its partners
    /// still succeed, and its waiter receives the error rather than
    /// hanging. The budget is `1 + r` attempts with the batched one
    /// counted as the first, each faulted attempt counted once.
    #[test]
    fn exhausted_item_fails_alone_with_per_item_errors() {
        let (sched, batch_calls, direct_calls) = faulty_sched(1, 2);
        let healthy = [TokenId(4)];
        let doomed = [DOOMED, TokenId(5)];
        let out = sched.try_score_many(&[&healthy, &doomed], None);
        assert!(out[0].is_ok(), "healthy partner unaffected: {:?}", out[0]);
        let err = out[1].as_ref().unwrap_err();
        assert!(err.is_transient(), "budget-exhausted transient surfaces");
        let calls = (
            batch_calls.load(Ordering::SeqCst),
            direct_calls.load(Ordering::SeqCst),
        );
        assert_eq!(calls, (1, 1), "1 + r = 2 attempts: batched, then one retry");
        let m = &sched.metrics().retry;
        assert_eq!((m.faults.get(), m.retries.get()), (2, 1));
    }

    /// Fatal faults are not retried; every single-flight waiter merged
    /// onto the context receives the error promptly (no hang, no
    /// dispatcher death).
    #[test]
    fn fatal_fault_fills_all_merged_waiters() {
        let (sched, _, _) = faulty_sched(5, 1);
        let sched = Arc::new(sched);
        let ctx = vec![FATAL, TokenId(1)];
        let errors: Vec<LmResult<Logits>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let sched = Arc::clone(&sched);
                    let ctx = ctx.clone();
                    s.spawn(move || sched.try_score(&ctx))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &errors {
            assert!(
                matches!(r, Err(LmError::Fatal { .. })),
                "fatal surfaces to every waiter: {r:?}"
            );
        }
        // The scheduler stays healthy after the fault.
        assert!(sched.try_score(&[TokenId(8)]).is_ok());
        assert_eq!(
            sched.metrics().retry.retries.get(),
            0,
            "fatal errors are never retried"
        );
    }

    /// A request that out-waits its deadline in the queue is answered
    /// with `DeadlineExceeded` without ever reaching the model.
    #[test]
    fn queued_request_past_deadline_is_not_dispatched() {
        let retry = RetryPolicy {
            deadline: Some(Duration::from_millis(20)),
            ..fast_retry(0)
        };
        // The queued request sits behind a held model call until its
        // deadline has passed; only then is the model released.
        let (sched, calls, [held, queued]) =
            with_one_held_and_one_queued(retry, |sched, release| {
                let deadline = sched.shared.state.lock().unwrap().queue[0].deadline;
                std::thread::sleep(deadline.unwrap().saturating_duration_since(Instant::now()));
                drop(release);
            });
        assert!(held.is_ok(), "dispatched before its deadline: {held:?}");
        let err = queued.unwrap_err();
        assert!(matches!(err, LmError::DeadlineExceeded { .. }), "{err}");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "only the held call ran");
        assert_eq!(sched.metrics().retry.deadline_exceeded.get(), 1);
    }

    fn pending(stream: u64, tag: u32, enqueued: Instant) -> Pending {
        Pending {
            context: vec![TokenId(tag)].into(),
            slot: Arc::new(Slot::default()),
            enqueued,
            deadline: None,
            cancel: None,
            stream,
            caller: std::thread::current().id(),
        }
    }

    fn tags(batch: &[Pending]) -> Vec<u32> {
        batch.iter().map(|p| p.context[0].0).collect()
    }

    #[test]
    fn admission_takes_everything_that_fits() {
        let now = Instant::now();
        let mut queue = vec![pending(1, 1, now), pending(1, 2, now), pending(2, 3, now)];
        let (batch, rescued) = admit_batch(&mut queue, 4, Duration::from_millis(20), now);
        assert_eq!(tags(&batch), [1, 2, 3]);
        assert_eq!(rescued, 0);
        assert!(queue.is_empty());
    }

    /// The firing rule as a table: (queued, max_batch, shutdown, answered
    /// caller outstanding since, now) → decision.
    #[test]
    fn firing_holds_only_for_a_returning_caller_and_only_for_hold() {
        let t0 = Instant::now();
        let us = Duration::from_micros;
        let hold = Firing::HoldUntil(t0 + HOLD);
        let table = [
            // Nobody on the way back: whatever is queued goes out.
            (1, 16, false, None, t0, Firing::Fire),
            (5, 16, false, None, t0 + us(1_000), Firing::Fire),
            // A caller answered at t0 has not come back: held open, to
            // the same instant however late in the window we look.
            (1, 16, false, Some(t0), t0, hold),
            (15, 16, false, Some(t0), t0 + us(199), hold),
            // ... and no longer than HOLD after the answer.
            (1, 16, false, Some(t0), t0 + HOLD, Firing::Fire),
            (1, 16, false, Some(t0), t0 + us(5_000), Firing::Fire),
            // A full batch has nothing to gain from waiting.
            (16, 16, false, Some(t0), t0, Firing::Fire),
            (40, 16, false, Some(t0), t0, Firing::Fire),
            (1, 1, false, Some(t0), t0, Firing::Fire),
            // Shutdown drains without waiting.
            (1, 16, true, Some(t0), t0, Firing::Fire),
        ];
        for (queued, max_batch, shutdown, since, now, expected) in table {
            assert_eq!(
                firing(queued, max_batch, shutdown, since, now),
                expected,
                "queued {queued}, max_batch {max_batch}, shutdown {shutdown}, \
                 awaiting {}, {:?} after the answer",
                since.is_some(),
                now - t0,
            );
        }
    }

    /// A lone caller never waits for a partner: each step is dispatched
    /// the moment it is queued, because the only caller the dispatcher
    /// could hold for is the one submitting.
    #[test]
    fn lone_caller_is_never_held() {
        let (lm, calls) = counting(Duration::ZERO);
        let sched = Scheduler::new(Box::new(lm), BatchPolicy::default(), Default::default());
        for i in 0..200 {
            sched.try_score(&[TokenId(i), TokenId(1)]).unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 200);
        assert_eq!(sched.metrics().dispatches.get(), 200);
        assert_eq!(sched.metrics().holds.get(), 0);
    }

    /// A call split by `max_batch` is still blocked on its queued half
    /// after the first dispatch answers: it is not "on its way back", and
    /// the second dispatch must not hold for it.
    #[test]
    fn split_call_is_not_waited_for() {
        let (lm, _) = counting(Duration::ZERO);
        let sched = Scheduler::new(Box::new(lm), policy(3), Default::default());
        let ctxs: Vec<Vec<TokenId>> = (0..5).map(|i| vec![TokenId(i)]).collect();
        let refs: Vec<&[TokenId]> = ctxs.iter().map(Vec::as_slice).collect();
        unwrap_all(sched.try_score_many(&refs, None));
        assert_eq!(sched.metrics().dispatches.get(), 2);
        assert_eq!(sched.metrics().holds.get(), 0);
    }

    /// Seeded stress over everything the dispatcher interleaves — cold
    /// and warm contexts, duplicates within and across calls, a tiny
    /// batch, evictions, and a third of the calls cancelled from another
    /// thread while they wait. Asserts invariants only, never a schedule.
    #[test]
    fn concurrent_calls_keep_every_invariant() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const THREADS: u64 = 8;
        const CALLS: usize = 200;
        let contexts: Vec<Vec<TokenId>> = (0..40)
            .map(|i| vec![TokenId(i % 7), TokenId(i), TokenId(i / 3)])
            .collect();
        let (reference, _) = counting(Duration::ZERO);
        let (lm, _) = counting(Duration::from_micros(50));
        // A cache far smaller than the working set keeps misses coming.
        let cache = RadixCacheConfig {
            max_entries: 8,
            ..RadixCacheConfig::default()
        };
        let sched = Scheduler::new(Box::new(lm), policy(3), cache);
        let (to_cancel, cancels) = std::sync::mpsc::channel::<CancelToken>();
        std::thread::scope(|s| {
            s.spawn(move || cancels.iter().for_each(|token| token.cancel()));
            for t in 0..THREADS {
                let (sched, contexts, reference) = (&sched, &contexts, &reference);
                let to_cancel = to_cancel.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5eed + t);
                    for _ in 0..CALLS {
                        let picked: Vec<&[TokenId]> = (0..rng.gen_range(1..=4))
                            .map(|_| contexts[rng.gen_range(0..contexts.len())].as_slice())
                            .collect();
                        let cancel = (rng.gen_range(0..3) == 0).then(CancelToken::new);
                        if let Some(token) = &cancel {
                            to_cancel.send(token.clone()).unwrap();
                        }
                        let out = sched.try_score_many(&picked, cancel.as_ref());
                        assert_eq!(out.len(), picked.len());
                        for (result, ctx) in out.iter().zip(&picked) {
                            match result {
                                Ok(logits) => assert_eq!(*logits, reference.score(ctx)),
                                // Only the caller's own token may fail a
                                // call: an uncancelled caller gets logits
                                // even when it shared a flight with a
                                // cancelled one.
                                Err(e) => assert!(
                                    cancel.is_some() && matches!(e, LmError::Cancelled),
                                    "uncancelled call failed: {e}"
                                ),
                            }
                        }
                    }
                });
            }
            drop(to_cancel);
        });
        // A cancelled caller returns before the dispatcher retires its
        // item, so leftovers are allowed — but only cancelled, unanswered
        // ones: a slot leaves the map under the lock hold that fills it,
        // so a filled slot still there is a late release. Counted under
        // the lock, asserted off it, so a failure cannot poison it.
        let (uncancelled, answered, dispatched) = {
            let st = sched.shared.state.lock().unwrap();
            let uncancelled = st
                .queue
                .iter()
                .filter(|p| !p.cancel.as_ref().is_some_and(CancelToken::is_cancelled))
                .count();
            let answered = st
                .inflight
                .values()
                .filter(|slot| slot.result.lock().unwrap().is_some())
                .count();
            // In flight but not queued: the one batch on the model.
            let dispatched = st.inflight.len().saturating_sub(st.queue.len());
            (uncancelled, answered, dispatched)
        };
        assert_eq!(uncancelled, 0, "uncancelled items queued after return");
        assert_eq!(answered, 0, "answered slots still in flight");
        assert!(dispatched <= sched.shared.policy.max_batch, "{dispatched}");
        // Only the dispatcher's retirement of those leftovers is awaited.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let st = sched.shared.state.lock().unwrap();
                if st.queue.is_empty() && st.inflight.is_empty() {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "cancelled leftovers were never retired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The continuous-batching pin: a wide call (stream 1, four
    /// contexts) contending with a short call (stream 2, one context)
    /// for a two-slot batch. FIFO would fill both slots from the wide
    /// call; stream-fair admission deals one slot to each.
    #[test]
    fn oversubscribed_batch_is_stream_fair() {
        let now = Instant::now();
        let mut queue = vec![
            pending(1, 1, now),
            pending(1, 2, now),
            pending(1, 3, now),
            pending(1, 4, now),
            pending(2, 10, now),
        ];
        let (batch, rescued) = admit_batch(&mut queue, 2, Duration::from_millis(20), now);
        assert_eq!(tags(&batch), [1, 10], "one slot per stream, FIFO within");
        assert_eq!(rescued, 0);
        assert_eq!(tags(&queue), [2, 3, 4], "remainder keeps its order");
    }

    /// The starvation-deadline pin: items past `max_queue_wait` are
    /// admitted ahead of stream fairness. Eight fresh single-item
    /// streams would win every round-robin slot forever; the two old
    /// items from the ninth stream jump the line instead.
    #[test]
    fn overdue_items_jump_stream_fairness() {
        let base = Instant::now();
        let now = base + Duration::from_millis(50);
        let mut queue: Vec<Pending> = (1..=8)
            .map(|s| pending(s, s as u32, base + Duration::from_millis(40)))
            .collect();
        queue.push(pending(9, 20, base));
        queue.push(pending(9, 21, base));
        let (batch, rescued) = admit_batch(&mut queue, 2, Duration::from_millis(45), now);
        assert_eq!(tags(&batch), [20, 21], "overdue items admitted first");
        assert_eq!(rescued, 2);
        assert_eq!(queue.len(), 8);
    }

    /// Records the composition of every call that reaches `inner`.
    struct RecordingLm {
        inner: Arc<dyn LanguageModel>,
        batches: Arc<Mutex<Vec<Vec<Vec<TokenId>>>>>,
        delay: Duration,
    }

    impl LanguageModel for RecordingLm {
        fn vocab(&self) -> &Vocabulary {
            self.inner.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            self.batches
                .lock()
                .unwrap()
                .push(contexts.iter().map(|c| c.to_vec()).collect());
            std::thread::sleep(self.delay);
            self.inner.try_score_batch(contexts)
        }
    }

    /// The batch path reaches the model: k cold contexts submitted through
    /// `try_score_many` arrive at the real n-gram model as one
    /// `try_score_batch` call of k, and come back bit-identical to scoring
    /// each context directly. An empty submission dispatches nothing.
    #[test]
    fn cold_contexts_reach_the_model_as_one_batch() {
        let (bpe, ngram) = (corpus::standard_bpe(), corpus::standard_ngram());
        let batches = Arc::new(Mutex::new(Vec::new()));
        let lm = RecordingLm {
            inner: ngram.clone(),
            batches: Arc::clone(&batches),
            delay: Duration::ZERO,
        };
        let text = bpe.encode("The little prince said");
        let contexts: Vec<&[TokenId]> = (1..=4).map(|n| &text[..n]).collect();
        // k < max_batch: the call leaves whole because it was submitted
        // whole, not because it filled a batch or a window closed.
        let sched = Scheduler::new(Box::new(lm), policy(16), Default::default());
        assert!(sched.try_score_many(&[], None).is_empty());
        assert_eq!(sched.metrics().dispatches.get(), 0);
        let out = unwrap_all(sched.try_score_many(&contexts, None));
        let expected: Vec<Vec<TokenId>> = contexts.iter().map(|c| c.to_vec()).collect();
        assert_eq!(*batches.lock().unwrap(), [expected]);
        assert_eq!(sched.metrics().dispatches.get(), 1);
        assert_eq!(sched.metrics().holds.get(), 0);
        for (got, ctx) in out.iter().zip(&contexts) {
            let bits = |l: &Logits| l.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&ngram.score(ctx)));
        }
    }

    /// End-to-end starvation regression: a wide `score_many` (eight
    /// contexts, one stream) contends with a late one-context request
    /// for a four-slot batch. Under the old FIFO drain the short request
    /// dispatched only after *all* wide contexts (third batch); under
    /// continuous batching it rides in one of the first two dispatches.
    #[test]
    fn wide_call_does_not_starve_short_call() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let lm = RecordingLm {
            inner: Arc::new(counting(Duration::ZERO).0),
            batches: Arc::clone(&batches),
            delay: Duration::from_millis(80),
        };
        let sched = Arc::new(Scheduler::new(Box::new(lm), policy(4), Default::default()));
        let victim_ctx = vec![TokenId(99)];
        std::thread::scope(|s| {
            let hog = {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let ctxs: Vec<Vec<TokenId>> =
                        (0..8).map(|i| vec![TokenId(i), TokenId(1)]).collect();
                    let refs: Vec<&[TokenId]> = ctxs.iter().map(|c| c.as_slice()).collect();
                    unwrap_all(sched.try_score_many(&refs, None))
                })
            };
            // Enqueue the victim while the wide call's first batch is
            // still holding the model (80ms per dispatch).
            std::thread::sleep(Duration::from_millis(15));
            let victim = {
                let sched = Arc::clone(&sched);
                let ctx = victim_ctx.clone();
                s.spawn(move || sched.try_score(&ctx).unwrap())
            };
            hog.join().unwrap();
            victim.join().unwrap();
        });
        let recorded = batches.lock().unwrap();
        let victim_batch = recorded
            .iter()
            .position(|b| b.iter().any(|c| c == &victim_ctx))
            .expect("victim context was dispatched");
        assert!(
            victim_batch <= 1,
            "short request must not queue behind the whole wide call \
             (dispatched in batch #{victim_batch} of {})",
            recorded.len()
        );
    }

    #[test]
    fn batched_lm_scores_consistently() {
        let sched = Arc::new(Scheduler::with_retry(
            Box::new(FaultyLm::new()),
            BatchPolicy::default(),
            Default::default(),
            fast_retry(1),
            SchedulerObs::default(),
        ));
        let contexts: [&[TokenId]; 4] = [&[], &[TokenId(2)], &[FATAL], &[TokenId(2), TokenId(5)]];
        lmql_lm::testing::assert_scoring_consistent(&BatchedLm::new(sched), &contexts);
    }
}
