//! The client side: a [`LanguageModel`] whose forward pass runs remotely.
//!
//! [`RemoteLm`] is fault-tolerant: every wire failure is classified into
//! the [`LmError`] taxonomy (timeouts, dropped connections, `BUSY` load
//! shedding, garbled frames), transient failures are retried with backoff
//! under a [`RetryPolicy`], and a dead connection is re-dialled
//! transparently before the next attempt. An optional circuit breaker
//! fails fast while the server stays down.

use crate::error::ServerError;
use crate::protocol::{
    read_batch_logits, read_logits, read_stats, read_tokenizer, write_batch_request,
    write_score_request,
};
use lmql::{QueryEvent, ReassembledQuery, Reassembler};
use lmql_lm::{
    call_with_retry, context_token, validated, BreakerConfig, CircuitBreaker, FaultKind,
    LanguageModel, LmError, LmResult, Logits, RetryMetrics, RetryPolicy,
};
use lmql_obs::{Counter, Registry};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Client-side robustness tuning.
#[derive(Debug, Clone)]
pub struct RemoteClientConfig {
    /// Retry policy for transient wire failures (each attempt re-dials
    /// if the previous one lost the connection).
    pub retry: RetryPolicy,
    /// Socket read timeout per reply; a server stalled past this is a
    /// transient [`FaultKind::Timeout`].
    pub read_timeout: Duration,
    /// When set, a circuit breaker fails calls fast after this many
    /// consecutive failures instead of hammering a down server.
    pub breaker: Option<BreakerConfig>,
}

impl Default for RemoteClientConfig {
    fn default() -> Self {
        RemoteClientConfig {
            retry: RetryPolicy::default(),
            read_timeout: Duration::from_secs(5),
            breaker: None,
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A remote model: `score()` round-trips to an [`InferenceServer`]
/// (the Appendix A.2 split — the decoding loop stays local).
///
/// [`InferenceServer`]: crate::InferenceServer
pub struct RemoteLm {
    addr: SocketAddr,
    config: RemoteClientConfig,
    /// `None` between a wire failure and the next (re-)dial.
    conn: Mutex<Option<Conn>>,
    bpe: Arc<Bpe>,
    metrics: RetryMetrics,
    reconnects: Counter,
    breaker: Option<CircuitBreaker>,
}

impl std::fmt::Debug for RemoteLm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteLm")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl RemoteLm {
    /// Connects with the default [`RemoteClientConfig`] and fetches the
    /// server's tokenizer, so client and server agree on the vocabulary
    /// by construction.
    ///
    /// # Errors
    ///
    /// Socket and protocol errors.
    pub fn connect(addr: SocketAddr) -> io::Result<(Self, Arc<Bpe>)> {
        Self::connect_with(addr, RemoteClientConfig::default())
    }

    /// Like [`connect`](Self::connect) with explicit retry, timeout and
    /// breaker configuration.
    ///
    /// # Errors
    ///
    /// Socket and protocol errors (the initial dial and tokenizer
    /// handshake are not retried — callers decide whether a server that
    /// is down at startup is fatal).
    pub fn connect_with(
        addr: SocketAddr,
        config: RemoteClientConfig,
    ) -> io::Result<(Self, Arc<Bpe>)> {
        let mut conn = Self::dial(addr, config.read_timeout)?;
        writeln!(conn.writer, "TOKENIZER")?;
        conn.writer.flush()?;
        let serialized = read_tokenizer(&mut conn.reader)?;
        let bpe = Arc::new(
            Bpe::from_text(&serialized)
                .map_err(|e| io::Error::other(format!("bad tokenizer payload: {e}")))?,
        );
        let breaker = config.breaker.map(CircuitBreaker::new);
        Ok((
            RemoteLm {
                addr,
                config,
                conn: Mutex::new(Some(conn)),
                bpe: Arc::clone(&bpe),
                metrics: RetryMetrics::default(),
                reconnects: Counter::new(),
                breaker,
            },
            bpe,
        ))
    }

    fn dial(addr: SocketAddr, read_timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Retry/fault counters for this client's wire calls.
    pub fn metrics(&self) -> &RetryMetrics {
        &self.metrics
    }

    /// How many times the client re-dialled after losing its connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// The circuit breaker, when one was configured.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Registers the client's retry counters, reconnect counter (as
    /// `<prefix>.reconnects`) and breaker-state gauge (when a breaker is
    /// configured) into `registry` under `<prefix>.*` names.
    ///
    /// # Panics
    ///
    /// Panics if any of the names is already registered.
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        self.metrics.register_into(registry, prefix);
        registry.register_counter(&format!("{prefix}.reconnects"), self.reconnects.clone());
        if let Some(b) = &self.breaker {
            registry.register_gauge(&format!("{prefix}.breaker_state"), b.gauge().clone());
        }
    }

    /// Classifies a wire error and decides whether the connection is
    /// still usable. In-band replies (`ERR …`, `RETRY …`) leave the
    /// stream synced on a frame boundary; everything else — timeouts,
    /// resets, unparseable frames — leaves it in an unknown state, so
    /// the connection must be dropped and re-dialled.
    fn classify(e: &io::Error) -> (LmError, bool) {
        let msg = e.to_string();
        if let Some(detail) = msg.strip_prefix("server error: ") {
            return (LmError::fatal(format!("server error: {detail}")), true);
        }
        if msg.starts_with("server retry: ") {
            return (LmError::transient(FaultKind::Other, msg), true);
        }
        if e.kind() == io::ErrorKind::ConnectionRefused {
            // The typed BUSY shed frame (or a refused dial): the server
            // exists but is over budget right now.
            return (LmError::transient(FaultKind::Busy, msg), false);
        }
        let err = match LmError::from_io(e) {
            // Parse failures on a live stream (garbled frames) are
            // classified fatal by `from_io`; on the wire they are a
            // transient truncation — re-dialling gets a clean stream.
            LmError::Fatal { message } => LmError::transient(FaultKind::Truncated, message),
            other => other,
        };
        (err, false)
    }

    /// One attempt: ensure a live connection, run `f` on it, classify
    /// any failure (dropping the connection when it is no longer safe to
    /// reuse).
    fn call_once<T>(&self, f: impl FnOnce(&mut Conn) -> io::Result<T>) -> LmResult<T> {
        let mut guard = self.conn.lock().expect("remote connection poisoned");
        if guard.is_none() {
            match Self::dial(self.addr, self.config.read_timeout) {
                Ok(c) => {
                    self.reconnects.inc();
                    *guard = Some(c);
                }
                Err(e) => return Err(Self::classify(&e).0),
            }
        }
        let conn = guard.as_mut().expect("connection just ensured");
        match f(conn) {
            Ok(v) => Ok(v),
            Err(e) => {
                let (err, keep_conn) = Self::classify(&e);
                if !keep_conn {
                    *guard = None;
                }
                Err(err)
            }
        }
    }

    /// Fetches the server's metrics snapshot as rendered text: one
    /// `counter`/`gauge`/`histogram` line per metric, covering the
    /// shared engine (`engine.*`), the model meter (`lm.*` when
    /// registered) and the server itself (`server.*`).
    ///
    /// # Errors
    ///
    /// Socket and protocol errors.
    pub fn stats(&self) -> io::Result<String> {
        self.call_once(|conn| {
            writeln!(conn.writer, "STATS")?;
            conn.writer.flush()?;
            read_stats(&mut conn.reader)
        })
        .map_err(io::Error::other)
    }

    /// Tells the server this client is done (also happens implicitly on
    /// drop via connection close).
    pub fn quit(&self) {
        if let Ok(mut guard) = self.conn.lock() {
            if let Some(conn) = guard.as_mut() {
                let _ = writeln!(conn.writer, "QUIT");
                let _ = conn.writer.flush();
            }
            *guard = None;
        }
    }

    /// Submits `source` for **server-side** execution, streaming its
    /// [`QueryEvent`]s back as they happen. The opposite split from
    /// scoring: here the whole decoding loop runs on the server and
    /// only events cross the wire.
    ///
    /// Runs on a fresh dedicated connection, so in-flight `SCORE`/`BATCH`
    /// traffic on this client is undisturbed. Dropping the returned
    /// stream mid-query disconnects, which cancels the remote query
    /// cooperatively (its scheduler slots are released server-side).
    ///
    /// Streaming uses `timeout` as the per-read budget — pass something
    /// comfortably larger than one decode step, not larger than the
    /// whole query.
    ///
    /// # Errors
    ///
    /// Dial and write failures.
    pub fn stream_query(
        &self,
        source: &str,
        timeout: Duration,
    ) -> Result<RemoteQueryStream, ServerError> {
        let mut conn = Self::dial(self.addr, timeout)?;
        write!(conn.writer, "STREAM {}\n{source}", source.len())?;
        conn.writer.flush()?;
        Ok(RemoteQueryStream {
            conn,
            finished: false,
        })
    }
}

/// A streamed remote query (see [`RemoteLm::stream_query`]): iterate for
/// live [`QueryEvent`]s, or [`into_result`](Self::into_result) to block
/// until completion and reassemble the final result.
pub struct RemoteQueryStream {
    conn: Conn,
    finished: bool,
}

impl std::fmt::Debug for RemoteQueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteQueryStream")
            .field("finished", &self.finished)
            .finish()
    }
}

impl RemoteQueryStream {
    /// Reads the next event; `None` after the terminal `DONE` frame. A
    /// `RETRY`/`ERR`/`BUSY` frame (or a wire failure) ends the stream
    /// with one final error item.
    fn read_event(&mut self) -> Option<Result<QueryEvent, ServerError>> {
        if self.finished {
            return None;
        }
        let mut line = String::new();
        match self.conn.reader.read_line(&mut line) {
            Ok(0) => {
                self.finished = true;
                return Some(Err(ServerError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-stream",
                ))));
            }
            Ok(_) => {}
            Err(e) => {
                self.finished = true;
                return Some(Err(ServerError::Io(e)));
            }
        }
        let line = line.trim_end();
        if let Some(wire) = line.strip_prefix("EVENT ") {
            return Some(QueryEvent::from_wire(wire).map_err(ServerError::from));
        }
        self.finished = true;
        if line == "DONE" {
            return None;
        }
        if line == "BUSY" {
            return Some(Err(ServerError::Model(LmError::transient(
                FaultKind::Busy,
                "server busy (load shed)",
            ))));
        }
        if let Some(msg) = line.strip_prefix("RETRY ") {
            return Some(Err(ServerError::Model(LmError::transient(
                FaultKind::Other,
                msg.to_owned(),
            ))));
        }
        if let Some(msg) = line.strip_prefix("ERR ") {
            return Some(Err(ServerError::Query(msg.to_owned())));
        }
        Some(Err(ServerError::Protocol(format!(
            "unexpected stream frame {line:?}"
        ))))
    }

    /// Drains the stream and reassembles the query's final result from
    /// its events — byte-identical to running the same query locally
    /// (`tests/streaming.rs` holds the proof).
    ///
    /// # Errors
    ///
    /// Wire failures, protocol violations, and remote query errors.
    pub fn into_result(mut self) -> Result<ReassembledQuery, ServerError> {
        let mut r = Reassembler::new();
        while let Some(event) = self.read_event() {
            r.apply(&event?)?;
        }
        Ok(r.finish())
    }
}

impl Iterator for RemoteQueryStream {
    type Item = Result<QueryEvent, ServerError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_event()
    }
}

impl LanguageModel for RemoteLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }

    /// One context is a `SCORE` frame; more ship as one `BATCH` frame — a
    /// single round trip instead of one per context, which the server can
    /// answer with a single microbatched forward pass. A frame is
    /// all-or-nothing, so attempts retry it whole; on final failure every
    /// item reports the same error.
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        if contexts.is_empty() {
            return Vec::new();
        }
        let token = contexts
            .iter()
            .fold(0u64, |h, c| h.rotate_left(7) ^ context_token(c));
        let result: LmResult<Vec<Logits>> = call_with_retry(
            &self.config.retry,
            &self.metrics,
            self.breaker.as_ref(),
            token,
            || {
                self.call_once(|conn| match contexts {
                    [context] => {
                        write_score_request(&mut conn.writer, context)?;
                        Ok(vec![read_logits(&mut conn.reader)?])
                    }
                    _ => {
                        write_batch_request(&mut conn.writer, contexts)?;
                        read_batch_logits(&mut conn.reader)
                    }
                })
                .and_then(|out| {
                    if out.len() != contexts.len() {
                        return Err(LmError::transient(
                            FaultKind::Truncated,
                            format!(
                                "server answered {} contexts, asked for {}",
                                out.len(),
                                contexts.len()
                            ),
                        ));
                    }
                    let vocab_len = self.bpe.vocab().len();
                    out.into_iter().map(|l| validated(l, vocab_len)).collect()
                })
            },
        );
        match result {
            Ok(all) => all.into_iter().map(Ok).collect(),
            Err(e) => contexts.iter().map(|_| Err(e.clone())).collect(),
        }
    }
}
