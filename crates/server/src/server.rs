//! The inference server: hosts a model behind the shared batching engine,
//! answers `SCORE`, `BATCH` and `STREAM` requests.
//!
//! Every connection is served by one [`Router`] over
//! [`ServerConfig::replicas`] ≥ 1 engines, so concurrent clients coalesce
//! into microbatches and share prefix caches — the server side of the
//! paper's Appendix A.2 split, where "the server is responsible for
//! inference, loading and managing the model". One replica is a
//! one-replica pool: the same code, not a second path.

use crate::faults::{FaultAction, FaultHook};
use crate::protocol::{
    parse_batch_request, parse_score_request, write_batch_logits, write_busy, write_logits,
    write_stats, write_tokenizer,
};
use lmql::{EventSink, ModelErrorClass, QueryEvent, QueryRequest, StreamSink, ToolRegistry};
use lmql_engine::{
    router, BatchPolicy, EngineConfig, RadixCacheConfig, RadixStats, Router, RouterConfig,
    RouterObs,
};
use lmql_lm::{CancelToken, LanguageModel, LmError, RetryPolicy};
use lmql_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use lmql_tokenizer::{Bpe, TokenId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the stop flag and the idle
/// clock.
const READ_POLL: Duration = Duration::from_millis(50);

/// `accept` errno values for "too many open files" (per process, system
/// wide) on Linux and the BSDs.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// Server tuning: connection robustness plus the engine's batching and
/// caching knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections idle (no complete request) this long are dropped.
    pub read_timeout: Duration,
    /// Microbatch formation policy for each replica's scheduler.
    pub policy: BatchPolicy,
    /// Budgets for each replica's prefix cache.
    pub cache: RadixCacheConfig,
    /// Retry/deadline policy for the schedulers' dispatch-time fault
    /// recovery (matters when the hosted model is itself fallible, e.g.
    /// a chaos wrapper).
    pub retry: RetryPolicy,
    /// Load shedding: connections over this budget receive a typed
    /// `BUSY` frame and are closed immediately (counted in
    /// `server.shed`). `usize::MAX` (the default) disables shedding.
    pub max_connections: usize,
    /// Deterministic fault injection for chaos tests (inert by default).
    pub faults: FaultHook,
    /// Replica engines behind this server's [`Router`], each with its
    /// own scheduler and radix cache (DESIGN.md §15). `1` (the default)
    /// is a one-replica pool — the same serving path as any other count.
    pub replicas: usize,
    /// Prefix-affinity routing across replicas; `false` deals queries
    /// round-robin — the cache-oblivious baseline.
    pub affinity: bool,
    /// Router-level admission cap on concurrently served frames; over
    /// budget, frames get a `BUSY` reply. `0` (the default) disables
    /// query-level shedding.
    pub max_inflight: usize,
    /// First-class tools every server-side query runtime carries
    /// (DESIGN.md §16): `STREAM` queries can `import` and call these.
    /// Clones share call counters, so usage rolls up server-wide.
    pub tools: ToolRegistry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            policy: BatchPolicy::default(),
            cache: RadixCacheConfig::default(),
            retry: RetryPolicy::default(),
            max_connections: usize::MAX,
            faults: FaultHook::default(),
            replicas: 1,
            affinity: true,
            max_inflight: 0,
            tools: ToolRegistry::new(),
        }
    }
}

/// The server's metric handles, registered under `server.*` in the
/// shared registry (which also carries the pool's `router.*`,
/// `engine.*`, `lm.*` and `stream.*` metrics). Incremented from every
/// connection-handler thread.
#[derive(Debug, Clone)]
struct ServerMetrics {
    /// Connections accepted over the server's lifetime.
    connections: Counter,
    /// Connections currently being served.
    connections_active: Gauge,
    /// Request lines answered (across all connections and commands).
    requests: Counter,
    /// Per-request handling latency, in microseconds (read to reply).
    request_latency_us: Histogram,
    /// Connections turned away with a `BUSY` frame (load shedding).
    shed: Counter,
    /// `accept` calls that failed; the acceptor carries on after each.
    accept_errors: Counter,
    /// Faults injected by the configured [`FaultHook`].
    faults_injected: Counter,
}

impl ServerMetrics {
    fn registered(registry: &Registry) -> Self {
        ServerMetrics {
            connections: registry.counter("server.connections"),
            connections_active: registry.gauge("server.connections_active"),
            requests: registry.counter("server.requests"),
            request_latency_us: registry.histogram("server.request_latency_us"),
            shed: registry.counter("server.shed"),
            accept_errors: registry.counter("server.accept_errors"),
            faults_injected: registry.counter("server.faults_injected"),
        }
    }
}

/// Everything a connection handler needs, shared across all handlers.
struct ConnShared {
    /// The one backend: routes `SCORE`/`BATCH`/`STREAM` over the pool.
    router: Router,
    serialized_tokenizer: Arc<String>,
    /// Vocabulary size of the hosted tokenizer — the bound network
    /// token ids are checked against.
    vocab_len: usize,
    stop: Arc<AtomicBool>,
    registry: Registry,
    metrics: ServerMetrics,
    /// Global request ordinal (1-based, arrival order) — the fault
    /// hook's deterministic trigger.
    next_request: AtomicU64,
    faults: FaultHook,
    read_timeout: Duration,
}

/// Constructor namespace for spawning inference servers.
#[derive(Debug)]
pub struct InferenceServer;

impl InferenceServer {
    /// Binds `127.0.0.1:0` and serves `lm` (with `bpe`'s tokenizer) on a
    /// background thread, one handler thread per connection, all served
    /// by one [`Router`] with default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn spawn(lm: Arc<dyn LanguageModel>, bpe: Arc<Bpe>) -> std::io::Result<ServerHandle> {
        Self::spawn_with(lm, bpe, ServerConfig::default())
    }

    /// Like [`spawn`](Self::spawn) with explicit batching, caching and
    /// timeout configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn spawn_with(
        lm: Arc<dyn LanguageModel>,
        bpe: Arc<Bpe>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let serialized = Arc::new(bpe.to_text());
        let registry = Registry::new();
        let metrics = ServerMetrics::registered(&registry);
        let router = Router::new_with_obs(
            lm,
            Arc::clone(&bpe),
            RouterConfig {
                replicas: config.replicas,
                affinity: config.affinity,
                max_inflight: config.max_inflight,
                engine: EngineConfig {
                    policy: config.policy,
                    cache: config.cache,
                    retry: config.retry,
                    tools: config.tools,
                    ..EngineConfig::default()
                },
                ..RouterConfig::default()
            },
            RouterObs {
                registry: Some(registry.clone()),
                ..RouterObs::default()
            },
        );
        let shared = Arc::new(ConnShared {
            router,
            serialized_tokenizer: serialized,
            vocab_len: bpe.vocab().len(),
            stop: Arc::clone(&stop),
            registry: registry.clone(),
            metrics,
            next_request: AtomicU64::new(0),
            faults: config.faults,
            read_timeout: config.read_timeout.max(Duration::from_millis(1)),
        });
        let max_connections = config.max_connections;

        let accept_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            // `accept` blocks, so the stop flag is checked when it returns:
            // shutdown's wake-up dial lands here and is never counted,
            // shed or handed a thread.
            if accept_shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let m = &accept_shared.metrics;
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(e) => {
                    // A failed accept (peer reset in the backlog, a signal,
                    // descriptor exhaustion) says nothing about the next
                    // one: keep accepting. Only when out of descriptors,
                    // pause so handlers can release some instead of
                    // spinning on the same error.
                    m.accept_errors.inc();
                    if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
            };
            // Shed before spawning a handler: over-budget connections get
            // the typed BUSY frame and are closed, protecting the
            // connections already being served.
            if m.connections_active.get() as usize >= max_connections {
                m.shed.inc();
                let mut w = BufWriter::new(stream);
                let _ = write_busy(&mut w);
                continue; // dropping `w` closes the socket
            }
            m.connections.inc();
            // The gauge moves in the accept loop (not the handler) so the
            // shed check above never races a handler that has not started
            // yet.
            m.connections_active.add(1);
            let shared = Arc::clone(&accept_shared);
            // Handlers are detached: a worker blocked reading from a
            // still-connected client must not hold up shutdown; it polls
            // the stop flag and exits.
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &shared);
                shared.metrics.connections_active.sub(1);
            });
        });

        Ok(ServerHandle {
            addr,
            stop,
            shared,
            registry,
            handle: Some(handle),
        })
    }
}

fn handle_connection(stream: TcpStream, shared: &ConnShared) -> std::io::Result<()> {
    // Short socket timeout so reads poll the stop flag; `read_timeout` is
    // enforced on top as an idle budget between complete requests.
    stream.set_read_timeout(Some(READ_POLL.min(shared.read_timeout)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    let mut idle = Duration::ZERO;
    loop {
        let before = Instant::now();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // peer closed
            Ok(_) => {
                idle = Duration::ZERO;
                let start = Instant::now();
                let ordinal = shared.next_request.fetch_add(1, Ordering::SeqCst) + 1;
                match shared.faults.action(ordinal) {
                    Some(FaultAction::Drop) => {
                        shared.metrics.faults_injected.inc();
                        return Ok(()); // close without replying
                    }
                    Some(FaultAction::Stall(d)) => {
                        shared.metrics.faults_injected.inc();
                        std::thread::sleep(d);
                    }
                    Some(FaultAction::Garble) => {
                        shared.metrics.faults_injected.inc();
                        // A frame that parses as no known reply: the
                        // client must treat the stream as unusable.
                        writeln!(writer, "LOGITS 1 not-hex")?;
                        writer.flush()?;
                        line.clear();
                        continue;
                    }
                    None => {}
                }
                // STREAM is the one request that needs the reader (its
                // source payload follows the header line), so it is
                // handled here rather than in `respond`.
                if let Some(rest) = line.trim_end().strip_prefix("STREAM ") {
                    match rest.parse::<usize>() {
                        Ok(n) => {
                            let mut buf = vec![0u8; n];
                            read_exact_polling(&mut reader, &mut buf, shared)?;
                            match String::from_utf8(buf) {
                                Ok(source) => serve_stream(source, &mut writer, shared)?,
                                Err(_) => {
                                    writeln!(writer, "ERR STREAM payload not UTF-8")?;
                                    writer.flush()?;
                                }
                            }
                        }
                        Err(_) => {
                            writeln!(writer, "ERR STREAM length not a number")?;
                            writer.flush()?;
                        }
                    }
                    shared.metrics.requests.inc();
                    shared
                        .metrics
                        .request_latency_us
                        .record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                    line.clear();
                    continue;
                }
                let done = respond(line.trim_end(), &mut writer, shared)?;
                shared.metrics.requests.inc();
                shared
                    .metrics
                    .request_latency_us
                    .record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                line.clear();
                if done {
                    return Ok(());
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Timed-out reads keep any partial line buffered in
                // `line`; the next pass appends the rest.
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(()); // server shutting down
                }
                idle += before.elapsed();
                if idle >= shared.read_timeout {
                    return Ok(()); // idle connection dropped
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads exactly `buf.len()` bytes, tolerating the short socket-timeout
/// polls `handle_connection` configures (a `STREAM` payload may arrive
/// split across reads) while honouring the stop flag and idle budget.
fn read_exact_polling(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    shared: &ConnShared,
) -> std::io::Result<()> {
    let mut filled = 0;
    let mut idle = Duration::ZERO;
    while filled < buf.len() {
        let before = Instant::now();
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-payload",
                ))
            }
            Ok(n) => {
                filled += n;
                idle = Duration::ZERO;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Err(std::io::Error::other("server shutting down"));
                }
                idle += before.elapsed();
                if idle >= shared.read_timeout {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "payload stalled past the read timeout",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The wire end of a streamed query: every event is written and flushed
/// as an `EVENT <wire>` line from inside the decode loop, on the
/// connection-handler thread. The first failed write means the client is
/// gone: it fires the query's [`CancelToken`] — wired into both the
/// runtime's sink and its scheduler handle — so the decode loop stops at
/// its next step and queued scheduler work is released instead of
/// decoding for nobody.
struct WireSink {
    out: Mutex<BufWriter<TcpStream>>,
    cancel: CancelToken,
}

impl EventSink for WireSink {
    fn emit(&self, event: QueryEvent) {
        if self.cancel.is_cancelled() {
            return;
        }
        let mut out = self.out.lock().expect("wire sink poisoned");
        let ok = writeln!(out, "EVENT {}", event.to_wire())
            .and_then(|()| out.flush())
            .is_ok();
        if !ok {
            self.cancel.cancel();
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// Executes one streamed query through the router, on this handler
/// thread: events ship as `EVENT <wire>` lines (flushed per event, so
/// the client sees tokens as they decode), then a terminal frame —
/// `DONE` on success, then by the error's carried class (never its
/// text): `BUSY` when the router shed the query at its admission cap,
/// `RETRY <msg>` for transient serving faults and expired deadlines (same
/// client semantics as a scoring `RETRY`), `ERR <msg>` otherwise —
/// including cancellation and every error of the query itself.
///
/// On a replica failure mid-stream the router retries on a healthy
/// replica and replays the stream from the start, so the client may see
/// the leading events twice — the terminal result is byte-identical
/// either way.
fn serve_stream(
    source: String,
    writer: &mut BufWriter<TcpStream>,
    shared: &ConnShared,
) -> std::io::Result<()> {
    // Every earlier reply was flushed, so a second handle onto the
    // socket cannot reorder bytes; it lets the sink own its writer.
    let cancel = CancelToken::new();
    let sink = StreamSink::new(Arc::new(WireSink {
        out: Mutex::new(BufWriter::new(writer.get_ref().try_clone()?)),
        cancel: cancel.clone(),
    }));
    match shared
        .router
        .serve(&QueryRequest::new(source), &sink, &cancel)
    {
        Ok(_) => writeln!(writer, "DONE")?,
        Err(e) if router::is_busy(&e) => return write_busy(writer),
        Err(e) => {
            // The taxonomy crosses the hop by the error's class: transient
            // model faults (including expired deadlines) are retryable,
            // the rest — including cancellation — are terminal.
            let tag = match &e {
                lmql::Error::Model {
                    class: ModelErrorClass::Transient | ModelErrorClass::Deadline,
                    ..
                } => "RETRY",
                _ => "ERR",
            };
            writeln!(writer, "{tag} {}", e.to_string().replace('\n', " "))?;
        }
    }
    writer.flush()
}

/// Rejects token ids outside the model's vocabulary. Network input must
/// never reach the model with ids `score` is not defined on — a panic in
/// the shared dispatcher would take the whole server down.
fn check_ids(ids: &[TokenId], vocab_len: usize) -> Result<(), String> {
    match ids.iter().find(|t| t.0 as usize >= vocab_len) {
        Some(t) => Err(format!(
            "token id {} out of range (vocab size {vocab_len})",
            t.0
        )),
        None => Ok(()),
    }
}

/// Answers one request line. Returns `true` when the client said `QUIT`.
fn respond<W: Write>(line: &str, writer: &mut W, shared: &ConnShared) -> std::io::Result<bool> {
    let vocab_len = shared.vocab_len;
    if line == "QUIT" {
        return Ok(true);
    }
    if line == "TOKENIZER" {
        write_tokenizer(writer, &shared.serialized_tokenizer)?;
        return Ok(false);
    }
    if line == "STATS" {
        write_stats(writer, &shared.registry.snapshot().render_text())?;
        return Ok(false);
    }
    if let Some(rest) = line.strip_prefix("SCORE ") {
        match parse_score_request(rest).and_then(|ids| {
            check_ids(&ids, vocab_len)?;
            Ok(ids)
        }) {
            // `None`: the router shed the frame at its admission cap.
            Ok(ids) => match shared
                .router
                .admit()
                .map(|_permit| shared.router.try_score(&ids))
            {
                None => write_busy(writer)?,
                Some(Ok(logits)) => write_logits(writer, &logits)?,
                Some(Err(e)) => write_model_error(writer, &e)?,
            },
            Err(msg) => {
                writeln!(writer, "ERR {msg}")?;
                writer.flush()?;
            }
        }
        return Ok(false);
    }
    if let Some(rest) = line.strip_prefix("BATCH ") {
        match parse_batch_request(rest).and_then(|contexts| {
            for ctx in &contexts {
                check_ids(ctx, vocab_len)?;
            }
            Ok(contexts)
        }) {
            Ok(contexts) => {
                let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
                let scored = shared
                    .router
                    .admit()
                    .map(|_permit| shared.router.try_score_many(&refs));
                match scored {
                    None => write_busy(writer)?,
                    // The wire batch reply is all-or-nothing; if any item
                    // failed (after the scheduler's own per-item recovery),
                    // fail the frame and let the client retry it whole.
                    Some(results) => match results.into_iter().collect::<Result<Vec<_>, _>>() {
                        Ok(all) => write_batch_logits(writer, &all)?,
                        Err(e) => write_model_error(writer, &e)?,
                    },
                }
            }
            Err(msg) => {
                writeln!(writer, "ERR {msg}")?;
                writer.flush()?;
            }
        }
        return Ok(false);
    }
    writeln!(writer, "ERR unknown command {line:?}")?;
    writer.flush()?;
    Ok(false)
}

/// Maps a model-side failure onto the wire: transient failures (and
/// expired deadlines — the backend may merely be slow) become a `RETRY`
/// frame the client treats as retryable; fatal and cancelled ones (a
/// retry cannot resurrect an abandoned request) become `ERR`.
fn write_model_error<W: Write>(writer: &mut W, e: &LmError) -> std::io::Result<()> {
    match e {
        LmError::Fatal { .. } | LmError::Cancelled => writeln!(writer, "ERR {e}")?,
        _ => writeln!(writer, "RETRY {e}")?,
    }
    writer.flush()
}

/// A running server: its address and a way to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<ConnShared>,
    registry: Registry,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the prefix caches connections score through: every
    /// replica's cache summed.
    pub fn cache_stats(&self) -> RadixStats {
        self.shared.router.stats().cache_totals()
    }

    /// The server's metrics registry: `server.*` connection/request
    /// counters plus the pool's `router.*`, `engine.*`, `lm.*` and
    /// `stream.*` metrics. The same data clients fetch with a `STATS`
    /// frame.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A frozen snapshot of every server and engine metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Stops accepting connections, joins the accept thread, and shuts the
    /// schedulers down — draining every in-flight batch, so requests being
    /// processed still get their replies. Handler threads notice the stop
    /// flag on their next read poll and close their connections.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // The acceptor is blocked in `accept`: one dial to ourselves
            // brings it back to the stop check.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = h.join();
        }
        // Drain queued and in-flight work; late scores from still-running
        // handlers fall back to inline scoring inside the schedulers.
        self.shared.router.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}
