//! Streaming query execution: the event model, observer sinks, the wire
//! codec and client-side reassembly (DESIGN.md §11).
//!
//! The paper's runtime (Alg. 1/2) is inherently incremental — it suspends
//! at every hole and decodes token by token — so instead of waiting for a
//! fully-materialised [`QueryResult`](crate::QueryResult), a consumer can
//! observe the run as a stream of [`QueryEvent`]s: template text as the
//! interpreter reaches it ([`QueryEvent::PromptChunk`]), per-token deltas
//! while a hole decodes ([`QueryEvent::TokenDelta`]), the authoritative
//! hole value when constraints close it ([`QueryEvent::VariableDone`]),
//! and — for `beam(n)`/`sample(n)` — the branching structure itself
//! ([`QueryEvent::BeamFork`]/[`QueryEvent::BeamPrune`]).
//!
//! **Reassembly invariant:** for every decoder, replaying a query's event
//! stream through [`Reassembler`] rebuilds the non-streaming result
//! *byte-identically* — same traces, same hole values, same bit-exact
//! log-probabilities, same run order. The acceptance suite
//! (`tests/streaming.rs`) holds this for `argmax`, `sample(n)` and
//! `beam(n)`.
//!
//! Every event is tagged with a `path`: a stable identity for one
//! hypothesis (a sample run, a beam). Path `0` is the root; beam search
//! mints fresh ids on fork. Forks are emitted *before* the parent's next
//! token delta, so a child always inherits the parent's pre-delta state.

use crate::debug::StopReason;
use lmql_lm::CancelToken;
use lmql_tokenizer::TokenSet;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{mpsc, Arc, Mutex};

/// The first path id available to nested subquery streams. A single
/// run's own hypothesis ids (sample indices, beam forks) stay far below
/// this, so every id at or above it unambiguously belongs to a subquery.
pub(crate) const SUBQUERY_PATH_BASE: u32 = 1 << 16;

/// One observable step of a streaming query run.
///
/// `path` identifies the hypothesis the event belongs to (run index for
/// `sample(n)`, beam identity for `beam(n)`, always `0` for `argmax`).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryEvent {
    /// Literal template text the interpreter appended to the trace
    /// (everything between holes, including `{recall}` substitutions).
    PromptChunk {
        /// Hypothesis the text belongs to.
        path: u32,
        /// The appended text (never empty).
        text: String,
    },
    /// Decoding of hole `var` started on `path`.
    VariableStart {
        /// Hypothesis the hole belongs to.
        path: u32,
        /// The hole variable name.
        var: String,
    },
    /// One decoded token of an in-progress hole.
    TokenDelta {
        /// Hypothesis the token belongs to.
        path: u32,
        /// The hole being decoded.
        var: String,
        /// The token's exact text.
        text: String,
        /// The token's log-probability under the masked distribution
        /// (0.0 for a fast-forwarded token).
        log_prob: f64,
        /// Admissible regular tokens at this step, before n-gram blocking.
        allowed: usize,
        /// Whether EOS was admissible at this step.
        eos_allowed: bool,
    },
    /// Hole `var` finished; `value` is the authoritative final text (for
    /// a `distribute` hole there are no deltas, only this event).
    VariableDone {
        /// Hypothesis the hole belongs to.
        path: u32,
        /// The hole variable name.
        var: String,
        /// The complete hole value. When token deltas were emitted their
        /// concatenation equals this string.
        value: String,
        /// The hypothesis' cumulative log-probability after this hole
        /// (bit-exact: reassembly uses it as the run's `log_prob`).
        score: f64,
        /// Why decoding ended.
        stopped_by: StopReason,
        /// For a picked EOS (a step with no delta): that step's
        /// admissible-token count and the EOS log-probability.
        eos_step: Option<(usize, f64)>,
    },
    /// Beam search cloned `parent` into a new hypothesis `child`.
    /// Emitted *before* the parent's token delta for the same step, so
    /// the child inherits exactly the parent's pre-delta state.
    BeamFork {
        /// The surviving original hypothesis.
        parent: u32,
        /// The freshly minted hypothesis id.
        child: u32,
    },
    /// Hypothesis `path` was discarded (constraint dead end, numerically
    /// impossible, or truncated by beam width).
    BeamPrune {
        /// The discarded hypothesis.
        path: u32,
    },
    /// A `subquery(...)` call on `parent` launched a child query whose
    /// events stream under the fresh hypothesis id `child` (always
    /// `>= SUBQUERY_PATH_BASE`, so nested ids never collide with the
    /// parent's own sample/beam paths).
    SubqueryStart {
        /// The hypothesis that called `subquery(...)`.
        parent: u32,
        /// The child query's root path id.
        child: u32,
        /// Nesting depth of the child (the root query is depth 0).
        depth: u32,
    },
    /// The child query streamed under `path` finished; `ok` tells
    /// whether it completed or failed. The child's terminal
    /// `Done`/`Error`/`Usage` events stay internal — this event is the
    /// child's terminal marker in the parent stream.
    SubqueryDone {
        /// The child query's root path id.
        path: u32,
        /// Whether the child completed successfully.
        ok: bool,
    },
    /// The `distribute` clause's normalised distribution over its
    /// support values.
    Distribution {
        /// `(value, probability)` pairs in support order.
        support: Vec<(String, f64)>,
    },
    /// Cost counters at the end of the run (the paper's §6 metrics, from
    /// the runtime's meter).
    Usage {
        /// Forward passes issued.
        model_queries: u64,
        /// Decoder iterations.
        decoder_calls: u64,
        /// Billable prompt+completion tokens.
        billable_tokens: u64,
    },
    /// Terminal: the query completed. `ranking` lists surviving paths
    /// best-first — the order of `QueryResult::runs`.
    Done {
        /// Surviving hypothesis ids, best first.
        ranking: Vec<u32>,
    },
    /// Terminal: the query failed after the events streamed so far.
    Error {
        /// Rendered error message.
        message: String,
    },
}

impl QueryEvent {
    /// The hypothesis this event belongs to, when it has one.
    pub fn path(&self) -> Option<u32> {
        match self {
            QueryEvent::PromptChunk { path, .. }
            | QueryEvent::VariableStart { path, .. }
            | QueryEvent::TokenDelta { path, .. }
            | QueryEvent::VariableDone { path, .. }
            | QueryEvent::BeamPrune { path }
            | QueryEvent::SubqueryDone { path, .. } => Some(*path),
            QueryEvent::BeamFork { child, .. } | QueryEvent::SubqueryStart { child, .. } => {
                Some(*child)
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// A malformed line in the streaming wire protocol, or a stream that
/// violates the event grammar during reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream protocol error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for crate::Error {
    fn from(e: WireError) -> Self {
        crate::Error::model(crate::ModelErrorClass::Fatal, e.to_string())
    }
}

/// Escapes arbitrary text into a single whitespace-free token so event
/// lines can be split on spaces: `\\`, `\n`, `\r`, `\t` and space get
/// backslash escapes (space as `\s`), and the empty string encodes as
/// `\e`.
fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\e".to_owned();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' ' => out.push_str("\\s"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, WireError> {
    if s == "\\e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('s') => out.push(' '),
            other => {
                return Err(WireError::new(format!(
                    "bad escape `\\{}`",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

/// Exact-bits hex encoding for `f64` (same convention as the SCORE
/// frame's logits): round-trips every value including ±0, subnormals
/// and infinities.
fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn f64_from_hex(s: &str) -> Result<f64, WireError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| WireError::new(format!("bad f64 bits `{s}`")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, WireError> {
    s.parse()
        .map_err(|_| WireError::new(format!("bad {what} `{s}`")))
}

fn parse_flag(s: &str) -> Result<bool, WireError> {
    match s {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(WireError::new(format!("bad flag `{other}`"))),
    }
}

/// The wire tag of each [`StopReason`].
const STOP_TAGS: [(StopReason, &str); 5] = [
    (StopReason::Eos, "eos"),
    (StopReason::StopPhrase, "stop"),
    (StopReason::MaskExhausted, "mask"),
    (StopReason::Budget, "budget"),
    (StopReason::Distribution, "dist"),
];

impl QueryEvent {
    /// Serialises the event as a single line (no trailing newline) of
    /// space-separated tokens; text fields are escaped, floats are
    /// exact-bits hex. [`from_wire`](Self::from_wire) inverts it.
    pub fn to_wire(&self) -> String {
        match self {
            QueryEvent::PromptChunk { path, text } => {
                format!("prompt {path} {}", escape(text))
            }
            QueryEvent::VariableStart { path, var } => {
                format!("varstart {path} {}", escape(var))
            }
            QueryEvent::TokenDelta {
                path,
                var,
                text,
                log_prob,
                allowed,
                eos_allowed,
            } => format!(
                "delta {path} {} {} {allowed} {} {}",
                escape(var),
                f64_to_hex(*log_prob),
                u8::from(*eos_allowed),
                escape(text)
            ),
            QueryEvent::VariableDone {
                path,
                var,
                value,
                score,
                stopped_by,
                eos_step,
            } => format!(
                "vardone {path} {} {} {} {} {}",
                escape(var),
                f64_to_hex(*score),
                STOP_TAGS
                    .iter()
                    .find(|(r, _)| r == stopped_by)
                    .map_or("", |(_, t)| t),
                match eos_step {
                    Some((allowed, lp)) => format!("{allowed}:{}", f64_to_hex(*lp)),
                    None => "-".to_owned(),
                },
                escape(value)
            ),
            QueryEvent::BeamFork { parent, child } => format!("fork {parent} {child}"),
            QueryEvent::BeamPrune { path } => format!("prune {path}"),
            QueryEvent::SubqueryStart {
                parent,
                child,
                depth,
            } => format!("subq {parent} {child} {depth}"),
            QueryEvent::SubqueryDone { path, ok } => {
                format!("subqdone {path} {}", u8::from(*ok))
            }
            QueryEvent::Distribution { support } => {
                let mut line = format!("dist {}", support.len());
                for (value, p) in support {
                    line.push(' ');
                    line.push_str(&f64_to_hex(*p));
                    line.push(' ');
                    line.push_str(&escape(value));
                }
                line
            }
            QueryEvent::Usage {
                model_queries,
                decoder_calls,
                billable_tokens,
            } => format!("usage {model_queries} {decoder_calls} {billable_tokens}"),
            QueryEvent::Done { ranking } => {
                let mut line = format!("done {}", ranking.len());
                for p in ranking {
                    line.push(' ');
                    line.push_str(&p.to_string());
                }
                line
            }
            QueryEvent::Error { message } => format!("error {}", escape(message)),
        }
    }

    /// Parses a line produced by [`to_wire`](Self::to_wire).
    pub fn from_wire(line: &str) -> Result<QueryEvent, WireError> {
        let mut parts = line.split_whitespace();
        let tag = parts
            .next()
            .ok_or_else(|| WireError::new("empty event line"))?;
        let mut field = |what: &str| {
            parts
                .next()
                .ok_or_else(|| WireError::new(format!("missing {what} in `{tag}` event")))
        };
        let ev = match tag {
            "prompt" => QueryEvent::PromptChunk {
                path: parse_num(field("path")?, "path")?,
                text: unescape(field("text")?)?,
            },
            "varstart" => QueryEvent::VariableStart {
                path: parse_num(field("path")?, "path")?,
                var: unescape(field("var")?)?,
            },
            "delta" => QueryEvent::TokenDelta {
                path: parse_num(field("path")?, "path")?,
                var: unescape(field("var")?)?,
                log_prob: f64_from_hex(field("log_prob")?)?,
                allowed: parse_num(field("allowed")?, "count")?,
                eos_allowed: parse_flag(field("eos_allowed")?)?,
                text: unescape(field("text")?)?,
            },
            "vardone" => QueryEvent::VariableDone {
                path: parse_num(field("path")?, "path")?,
                var: unescape(field("var")?)?,
                score: f64_from_hex(field("score")?)?,
                stopped_by: {
                    let tag = field("stopped_by")?;
                    STOP_TAGS
                        .iter()
                        .find(|(_, t)| *t == tag)
                        .ok_or_else(|| WireError::new(format!("bad stop reason `{tag}`")))?
                        .0
                },
                eos_step: match field("eos_step")? {
                    "-" => None,
                    step => {
                        let (allowed, lp) = step
                            .split_once(':')
                            .ok_or_else(|| WireError::new(format!("bad eos step `{step}`")))?;
                        Some((parse_num(allowed, "count")?, f64_from_hex(lp)?))
                    }
                },
                value: unescape(field("value")?)?,
            },
            "fork" => QueryEvent::BeamFork {
                parent: parse_num(field("parent")?, "path")?,
                child: parse_num(field("child")?, "path")?,
            },
            "prune" => QueryEvent::BeamPrune {
                path: parse_num(field("path")?, "path")?,
            },
            "subq" => QueryEvent::SubqueryStart {
                parent: parse_num(field("parent")?, "path")?,
                child: parse_num(field("child")?, "path")?,
                depth: parse_num(field("depth")?, "depth")?,
            },
            "subqdone" => QueryEvent::SubqueryDone {
                path: parse_num(field("path")?, "path")?,
                ok: parse_flag(field("ok")?)?,
            },
            "dist" => {
                let n: usize = parse_num(field("count")?, "count")?;
                let mut support = Vec::new();
                for _ in 0..n {
                    let p = f64_from_hex(field("probability")?)?;
                    let value = unescape(field("value")?)?;
                    support.push((value, p));
                }
                QueryEvent::Distribution { support }
            }
            "usage" => QueryEvent::Usage {
                model_queries: parse_num(field("model_queries")?, "count")?,
                decoder_calls: parse_num(field("decoder_calls")?, "count")?,
                billable_tokens: parse_num(field("billable_tokens")?, "count")?,
            },
            "done" => {
                let n: usize = parse_num(field("count")?, "count")?;
                let mut ranking = Vec::new();
                for _ in 0..n {
                    ranking.push(parse_num(field("path")?, "path")?);
                }
                QueryEvent::Done { ranking }
            }
            "error" => QueryEvent::Error {
                message: unescape(field("message")?)?,
            },
            other => return Err(WireError::new(format!("unknown event tag `{other}`"))),
        };
        if parts.next().is_some() {
            return Err(WireError::new(format!("trailing fields in `{tag}` event")));
        }
        Ok(ev)
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives query events as they happen. Implementations must be cheap
/// and non-blocking — they run inside the decode loop.
pub trait EventSink: Send + Sync {
    /// Observe one event.
    fn emit(&self, event: QueryEvent);

    /// Whether the consumer has abandoned the stream. Checked by the
    /// decode loop between tokens; returning `true` makes the run stop
    /// with [`Error::Cancelled`](crate::Error::Cancelled).
    fn cancelled(&self) -> bool {
        false
    }
}

/// The handle threaded through [`DecodeOptions`](crate::DecodeOptions):
/// either inactive (the default — every emit is a no-op costing one
/// branch) or a shared [`EventSink`] plus the current `path` tag.
///
/// Cloning shares the sink; [`with_path`](StreamSink::with_path) retags
/// a clone for another hypothesis.
#[derive(Clone, Default)]
pub struct StreamSink {
    inner: Option<Arc<dyn EventSink>>,
    path: u32,
}

impl fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamSink")
            .field("active", &self.inner.is_some())
            .field("path", &self.path)
            .finish()
    }
}

impl StreamSink {
    /// The inactive sink: all emits are no-ops, `cancelled()` is always
    /// `false`. This is `Default`, so non-streaming callers pay nothing.
    pub fn none() -> Self {
        StreamSink::default()
    }

    /// Wraps a custom sink, starting at path `0`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        StreamSink {
            inner: Some(sink),
            path: 0,
        }
    }

    /// A sink delivering events over an unbounded channel, plus the
    /// receiving end and the cancellation token. Dropping the receiver
    /// cancels the stream (the next emit notices the closed channel).
    pub fn channel() -> (Self, mpsc::Receiver<QueryEvent>, CancelToken) {
        let (tx, rx) = mpsc::channel();
        let token = CancelToken::new();
        let sink = StreamSink::new(Arc::new(ChannelSink {
            tx,
            token: token.clone(),
        }));
        (sink, rx, token)
    }

    /// A sink buffering every event in memory (for tests and offline
    /// reassembly), plus the shared buffer.
    pub fn collector() -> (Self, Arc<CollectorSink>) {
        let collector = Arc::new(CollectorSink::default());
        (StreamSink::new(Arc::clone(&collector) as _), collector)
    }

    /// A sink invoking `f` on every event (e.g. printing tokens live).
    pub fn callback(f: impl Fn(&QueryEvent) + Send + Sync + 'static) -> Self {
        StreamSink::new(Arc::new(CallbackSink { f: Box::new(f) }))
    }

    /// Whether events go anywhere. Callers may skip building expensive
    /// event payloads when inactive.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The hypothesis id this handle tags its events with.
    pub fn path(&self) -> u32 {
        self.path
    }

    /// A clone of this handle tagged for hypothesis `path`.
    pub fn with_path(&self, path: u32) -> Self {
        StreamSink {
            inner: self.inner.clone(),
            path,
        }
    }

    /// Whether the consumer has abandoned the stream.
    pub fn cancelled(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.cancelled())
    }

    /// Emits a fully-built event (used for path-explicit events like
    /// forks; the helpers below tag with this handle's own path).
    pub fn emit(&self, event: QueryEvent) {
        if let Some(sink) = &self.inner {
            sink.emit(event);
        }
    }

    /// Emits a [`QueryEvent::PromptChunk`] unless `text` is empty.
    pub fn prompt_chunk(&self, text: &str) {
        if self.inner.is_some() && !text.is_empty() {
            self.emit(QueryEvent::PromptChunk {
                path: self.path,
                text: text.to_owned(),
            });
        }
    }

    /// Emits a [`QueryEvent::VariableStart`].
    pub fn variable_start(&self, var: &str) {
        if self.inner.is_some() {
            self.emit(QueryEvent::VariableStart {
                path: self.path,
                var: var.to_owned(),
            });
        }
    }

    /// The debugger's mask size: `allowed`'s count under an active sink,
    /// else 0, so an unobserved decode loop never counts.
    pub(crate) fn mask_size(&self, allowed: &TokenSet) -> usize {
        self.inner.as_ref().map_or(0, |_| allowed.count())
    }

    /// Emits a [`QueryEvent::TokenDelta`].
    pub fn token_delta(
        &self,
        var: &str,
        text: &str,
        log_prob: f64,
        allowed: usize,
        eos_allowed: bool,
    ) {
        if self.inner.is_some() {
            self.emit(QueryEvent::TokenDelta {
                path: self.path,
                var: var.to_owned(),
                text: text.to_owned(),
                log_prob,
                allowed,
                eos_allowed,
            });
        }
    }

    /// Emits a [`QueryEvent::VariableDone`].
    pub fn variable_done(
        &self,
        var: &str,
        value: &str,
        score: f64,
        stopped_by: StopReason,
        eos_step: Option<(usize, f64)>,
    ) {
        if self.inner.is_some() {
            self.emit(QueryEvent::VariableDone {
                path: self.path,
                var: var.to_owned(),
                value: value.to_owned(),
                score,
                stopped_by,
                eos_step,
            });
        }
    }
}

struct ChannelSink {
    tx: mpsc::Sender<QueryEvent>,
    token: CancelToken,
}

impl EventSink for ChannelSink {
    fn emit(&self, event: QueryEvent) {
        // A closed channel means the consumer dropped its receiver:
        // treat it as cancellation so the producer stops decoding.
        if self.tx.send(event).is_err() {
            self.token.cancel();
        }
    }

    fn cancelled(&self) -> bool {
        self.token.is_cancelled()
    }
}

/// An in-memory event buffer (see [`StreamSink::collector`]).
#[derive(Default)]
pub struct CollectorSink {
    events: Mutex<Vec<QueryEvent>>,
}

impl CollectorSink {
    /// A copy of every event observed so far.
    pub fn events(&self) -> Vec<QueryEvent> {
        self.events.lock().expect("collector poisoned").clone()
    }

    /// Drains and returns the buffered events.
    pub fn take(&self) -> Vec<QueryEvent> {
        std::mem::take(&mut *self.events.lock().expect("collector poisoned"))
    }
}

impl EventSink for CollectorSink {
    fn emit(&self, event: QueryEvent) {
        self.events.lock().expect("collector poisoned").push(event);
    }
}

struct CallbackSink {
    #[allow(clippy::type_complexity)]
    f: Box<dyn Fn(&QueryEvent) + Send + Sync>,
}

impl EventSink for CallbackSink {
    fn emit(&self, event: QueryEvent) {
        (self.f)(&event);
    }
}

// ---------------------------------------------------------------------------
// Reassembly
// ---------------------------------------------------------------------------

/// One rebuilt hypothesis: the mirror of [`QueryRun`](crate::QueryRun).
#[derive(Debug, Clone, PartialEq)]
pub struct ReassembledRun {
    /// The hypothesis id the run was streamed under.
    pub path: u32,
    /// The full interaction trace (template text + hole values).
    pub trace: String,
    /// `(var, value)` pairs in decode order.
    pub holes: Vec<(String, String)>,
    /// Cumulative log-probability (bit-exact vs the non-streamed run).
    pub log_prob: f64,
}

/// One rebuilt nested `subquery(...)` run from the parent's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReassembledSubquery {
    /// The hypothesis that launched the subquery.
    pub parent: u32,
    /// Nesting depth (the root query is depth 0).
    pub depth: u32,
    /// Whether the child completed successfully.
    pub ok: bool,
    /// The child's root run, rebuilt from its nested events.
    pub run: ReassembledRun,
}

/// The rebuilt result of a streamed query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReassembledQuery {
    /// Surviving runs, best-first (the [`QueryEvent::Done`] ranking).
    pub runs: Vec<ReassembledRun>,
    /// Nested subquery runs in completion order (a parent's
    /// [`QueryEvent::SubqueryDone`] moves the child here, keeping
    /// `runs` and the `Done` ranking purely about the parent).
    pub subqueries: Vec<ReassembledSubquery>,
    /// The `distribute` clause's distribution, when the query had one.
    pub distribution: Option<Vec<(String, f64)>>,
    /// `(model_queries, decoder_calls, billable_tokens)` from the
    /// [`QueryEvent::Usage`] event.
    pub usage: Option<(u64, u64, u64)>,
    /// The terminal error message, if the stream ended in
    /// [`QueryEvent::Error`].
    pub error: Option<String>,
}

#[derive(Debug, Clone, Default)]
struct PartialVar {
    var: String,
    text: String,
    deltas: usize,
}

#[derive(Debug, Clone, Default)]
struct PathState {
    trace: String,
    holes: Vec<(String, String)>,
    score: f64,
    cur: Option<PartialVar>,
    born: u64,
}

/// Rebuilds query results from an event stream, enforcing the event
/// grammar (deltas only inside an open variable, forks from live paths,
/// delta concatenation matching the final value).
///
/// # Example
///
/// ```
/// use lmql::stream::{QueryEvent, Reassembler};
///
/// let mut r = Reassembler::new();
/// for ev in [
///     QueryEvent::PromptChunk { path: 0, text: "Q:".into() },
///     QueryEvent::VariableStart { path: 0, var: "A".into() },
///     QueryEvent::TokenDelta {
///         path: 0, var: "A".into(), text: " hi".into(), log_prob: -0.5,
///         allowed: 7, eos_allowed: false,
///     },
///     QueryEvent::VariableDone {
///         path: 0, var: "A".into(), value: " hi".into(), score: -0.5,
///         stopped_by: lmql::StopReason::MaskExhausted, eos_step: None,
///     },
///     QueryEvent::Done { ranking: vec![0] },
/// ] {
///     r.apply(&ev).unwrap();
/// }
/// let out = r.finish();
/// assert_eq!(out.runs[0].trace, "Q: hi");
/// ```
#[derive(Debug, Default)]
pub struct Reassembler {
    paths: BTreeMap<u32, PathState>,
    /// Open subqueries: child root path -> (parent path, depth).
    subquery_meta: BTreeMap<u32, (u32, u32)>,
    subqueries: Vec<ReassembledSubquery>,
    ranking: Option<Vec<u32>>,
    distribution: Option<Vec<(String, f64)>>,
    usage: Option<(u64, u64, u64)>,
    error: Option<String>,
    seq: u64,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Rebuilds a full result from a complete event sequence.
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = &'a QueryEvent>,
    ) -> Result<ReassembledQuery, WireError> {
        let mut r = Reassembler::new();
        for ev in events {
            r.apply(ev)?;
        }
        Ok(r.finish())
    }

    fn path_mut(&mut self, path: u32) -> &mut PathState {
        let seq = &mut self.seq;
        self.paths.entry(path).or_insert_with(|| {
            let born = *seq;
            *seq += 1;
            PathState {
                born,
                ..PathState::default()
            }
        })
    }

    /// Applies one event, failing on grammar violations.
    pub fn apply(&mut self, event: &QueryEvent) -> Result<(), WireError> {
        match event {
            QueryEvent::PromptChunk { path, text } => {
                self.path_mut(*path).trace.push_str(text);
            }
            QueryEvent::VariableStart { path, var } => {
                let st = self.path_mut(*path);
                if let Some(open) = &st.cur {
                    return Err(WireError::new(format!(
                        "variable `{var}` started while `{}` is open on path {path}",
                        open.var
                    )));
                }
                st.cur = Some(PartialVar {
                    var: var.clone(),
                    ..PartialVar::default()
                });
            }
            QueryEvent::TokenDelta {
                path, var, text, ..
            } => {
                let st = self.path_mut(*path);
                match &mut st.cur {
                    Some(open) if open.var == *var => {
                        open.text.push_str(text);
                        open.deltas += 1;
                    }
                    Some(open) => {
                        return Err(WireError::new(format!(
                            "delta for `{var}` inside open variable `{}` on path {path}",
                            open.var
                        )))
                    }
                    None => {
                        return Err(WireError::new(format!(
                            "delta for `{var}` with no open variable on path {path}"
                        )))
                    }
                }
            }
            QueryEvent::VariableDone {
                path,
                var,
                value,
                score,
                ..
            } => {
                let st = self.path_mut(*path);
                let open = st.cur.take().ok_or_else(|| {
                    WireError::new(format!(
                        "`{var}` finished with no open variable on path {path}"
                    ))
                })?;
                if open.var != *var {
                    return Err(WireError::new(format!(
                        "`{var}` finished while `{}` is open on path {path}",
                        open.var
                    )));
                }
                if open.deltas > 0 && open.text != *value {
                    return Err(WireError::new(format!(
                        "deltas for `{var}` reassemble to {:?} but final value is {value:?}",
                        open.text
                    )));
                }
                st.trace.push_str(value);
                st.holes.push((var.clone(), value.clone()));
                st.score = *score;
            }
            QueryEvent::BeamFork { parent, child } => {
                let mut cloned = self
                    .paths
                    .get(parent)
                    .ok_or_else(|| WireError::new(format!("fork from unknown path {parent}")))?
                    .clone();
                cloned.born = self.seq;
                self.seq += 1;
                if self.paths.insert(*child, cloned).is_some() {
                    return Err(WireError::new(format!("fork into live path {child}")));
                }
            }
            QueryEvent::BeamPrune { path } => {
                self.paths
                    .remove(path)
                    .ok_or_else(|| WireError::new(format!("prune of unknown path {path}")))?;
            }
            QueryEvent::SubqueryStart {
                parent,
                child,
                depth,
            } => {
                if *child < SUBQUERY_PATH_BASE {
                    return Err(WireError::new(format!(
                        "subquery child path {child} below the nested-path base"
                    )));
                }
                if self
                    .subquery_meta
                    .insert(*child, (*parent, *depth))
                    .is_some()
                {
                    return Err(WireError::new(format!(
                        "subquery started twice under path {child}"
                    )));
                }
                self.path_mut(*child);
            }
            QueryEvent::SubqueryDone { path, ok } => {
                let (parent, depth) = self.subquery_meta.remove(path).ok_or_else(|| {
                    WireError::new(format!("subquery done for unknown child {path}"))
                })?;
                let st = self.paths.remove(path).unwrap_or_default();
                self.subqueries.push(ReassembledSubquery {
                    parent,
                    depth,
                    ok: *ok,
                    run: ReassembledRun {
                        path: *path,
                        trace: st.trace,
                        holes: st.holes,
                        log_prob: st.score,
                    },
                });
            }
            QueryEvent::Distribution { support } => {
                self.distribution = Some(support.clone());
            }
            QueryEvent::Usage {
                model_queries,
                decoder_calls,
                billable_tokens,
            } => {
                self.usage = Some((*model_queries, *decoder_calls, *billable_tokens));
            }
            QueryEvent::Done { ranking } => {
                self.ranking = Some(ranking.clone());
            }
            QueryEvent::Error { message } => {
                self.error = Some(message.clone());
            }
        }
        Ok(())
    }

    /// Finalises reassembly. Runs come out in [`QueryEvent::Done`]
    /// ranking order when the stream completed, otherwise in creation
    /// order (a cancelled or failed stream still yields its partial
    /// state).
    pub fn finish(mut self) -> ReassembledQuery {
        let order: Vec<u32> = match &self.ranking {
            Some(ranking) => ranking.clone(),
            None => {
                // Subquery-internal paths (>= the nested base) never
                // belong in the parent's run list, even on a stream cut
                // short before their SubqueryDone.
                let mut alive: Vec<(u64, u32)> = self
                    .paths
                    .iter()
                    .filter(|(p, _)| **p < SUBQUERY_PATH_BASE)
                    .map(|(p, st)| (st.born, *p))
                    .collect();
                alive.sort_unstable();
                alive.into_iter().map(|(_, p)| p).collect()
            }
        };
        let runs = order
            .into_iter()
            .filter_map(|path| {
                self.paths.remove(&path).map(|st| ReassembledRun {
                    path,
                    trace: st.trace,
                    holes: st.holes,
                    log_prob: st.score,
                })
            })
            .collect();
        ReassembledQuery {
            runs,
            subqueries: self.subqueries,
            distribution: self.distribution,
            usage: self.usage,
            error: self.error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: QueryEvent) {
        let line = ev.to_wire();
        assert!(!line.contains('\n'), "wire lines are single lines: {line}");
        let back = QueryEvent::from_wire(&line).expect(&line);
        assert_eq!(back, ev, "roundtrip of {line}");
    }

    /// One event of every variant, with every stop reason, an EOS step
    /// and a zero mask count among them.
    fn every_variant() -> Vec<QueryEvent> {
        let mut events = vec![
            QueryEvent::PromptChunk {
                path: 3,
                text: "a b\nc\\d\te — ü".into(),
            },
            QueryEvent::VariableStart {
                path: 0,
                var: "ANSWER".into(),
            },
            QueryEvent::TokenDelta {
                path: 1,
                var: "X".into(),
                text: " ".into(),
                log_prob: -1.25e-3,
                allowed: 3,
                eos_allowed: true,
            },
            QueryEvent::TokenDelta {
                path: 0,
                var: "X".into(),
                text: "}".into(),
                log_prob: 0.0,
                allowed: 0,
                eos_allowed: false,
            },
            QueryEvent::BeamFork {
                parent: 0,
                child: 7,
            },
            QueryEvent::BeamPrune { path: 7 },
            QueryEvent::SubqueryStart {
                parent: 0,
                child: 65536,
                depth: 1,
            },
            QueryEvent::SubqueryDone {
                path: 65536,
                ok: true,
            },
            QueryEvent::SubqueryDone {
                path: 65537,
                ok: false,
            },
            QueryEvent::Distribution {
                support: vec![("pos itive".into(), 0.75), ("neg\native".into(), 0.25)],
            },
            QueryEvent::Usage {
                model_queries: 10,
                decoder_calls: 20,
                billable_tokens: 30,
            },
            QueryEvent::Done {
                ranking: vec![2, 0, 1],
            },
            QueryEvent::Error {
                message: "model failure: boom".into(),
            },
        ];
        for stopped_by in [
            StopReason::Eos,
            StopReason::StopPhrase,
            StopReason::MaskExhausted,
            StopReason::Budget,
            StopReason::Distribution,
        ] {
            events.push(QueryEvent::VariableDone {
                path: 1,
                var: "X".into(),
                value: String::new(),
                score: f64::NEG_INFINITY,
                stopped_by,
                eos_step: (stopped_by == StopReason::Eos).then_some((0, -2.5)),
            });
        }
        events
    }

    #[test]
    fn wire_roundtrips_every_variant() {
        for ev in every_variant() {
            roundtrip(ev);
        }
        roundtrip(QueryEvent::VariableDone {
            path: 2,
            var: "Y".into(),
            value: "z".into(),
            score: 0.0,
            stopped_by: StopReason::Eos,
            eos_step: Some((807, f64::NEG_INFINITY)),
        });
    }

    /// Every byte-prefix and every one-field-dropped variant of each valid
    /// line parses to `Ok` or `Err` — never a panic, and an absurd count
    /// allocates nothing up front.
    #[test]
    fn wire_parses_truncated_and_thinned_lines_without_panicking() {
        for ev in every_variant() {
            let line = ev.to_wire();
            for end in 0..=line.len() {
                let _ = QueryEvent::from_wire(&String::from_utf8_lossy(&line.as_bytes()[..end]));
            }
            let fields: Vec<&str> = line.split(' ').collect();
            for drop in 0..fields.len() {
                let mut thinned = fields.clone();
                thinned.remove(drop);
                let _ = QueryEvent::from_wire(&thinned.join(" "));
            }
        }
        for huge in ["done 18446744073709551615", "dist 18446744073709551615 00"] {
            assert!(QueryEvent::from_wire(huge).is_err(), "{huge}");
        }
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(QueryEvent::from_wire("").is_err());
        assert!(QueryEvent::from_wire("nonsense 1 2").is_err());
        assert!(QueryEvent::from_wire("prompt x text").is_err());
        assert!(QueryEvent::from_wire("delta 0 X zz text").is_err());
        assert!(QueryEvent::from_wire("prompt 0 a b").is_err(), "trailing");
        assert!(QueryEvent::from_wire("prompt 0 bad\\q").is_err());
    }

    #[test]
    fn reassembles_fork_and_prune() {
        let mut r = Reassembler::new();
        let events = [
            QueryEvent::PromptChunk {
                path: 0,
                text: "Say:".into(),
            },
            QueryEvent::VariableStart {
                path: 0,
                var: "A".into(),
            },
            // Fork happens before the parent's delta: child 1 inherits
            // the pre-delta state.
            QueryEvent::BeamFork {
                parent: 0,
                child: 1,
            },
            QueryEvent::TokenDelta {
                path: 0,
                var: "A".into(),
                text: " yes".into(),
                log_prob: -0.1,
                allowed: 3,
                eos_allowed: true,
            },
            QueryEvent::TokenDelta {
                path: 1,
                var: "A".into(),
                text: " no".into(),
                log_prob: -0.9,
                allowed: 3,
                eos_allowed: true,
            },
            QueryEvent::VariableDone {
                path: 0,
                var: "A".into(),
                value: " yes".into(),
                score: -0.1,
                stopped_by: StopReason::StopPhrase,
                eos_step: None,
            },
            QueryEvent::VariableDone {
                path: 1,
                var: "A".into(),
                value: " no".into(),
                score: -0.9,
                stopped_by: StopReason::StopPhrase,
                eos_step: None,
            },
            QueryEvent::BeamPrune { path: 1 },
            QueryEvent::Done { ranking: vec![0] },
        ];
        for ev in &events {
            r.apply(ev).unwrap();
        }
        let out = r.finish();
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.runs[0].trace, "Say: yes");
        assert_eq!(out.runs[0].holes, vec![("A".into(), " yes".into())]);
        assert_eq!(out.runs[0].log_prob, -0.1);
    }

    #[test]
    fn reassembly_rejects_grammar_violations() {
        let mut r = Reassembler::new();
        assert!(r
            .apply(&QueryEvent::TokenDelta {
                path: 0,
                var: "A".into(),
                text: "x".into(),
                log_prob: 0.0,
                allowed: 3,
                eos_allowed: true,
            })
            .is_err());
        let mut r = Reassembler::new();
        r.apply(&QueryEvent::VariableStart {
            path: 0,
            var: "A".into(),
        })
        .unwrap();
        r.apply(&QueryEvent::TokenDelta {
            path: 0,
            var: "A".into(),
            text: "x".into(),
            log_prob: 0.0,
            allowed: 3,
            eos_allowed: true,
        })
        .unwrap();
        let err = r
            .apply(&QueryEvent::VariableDone {
                path: 0,
                var: "A".into(),
                value: "different".into(),
                score: 0.0,
                stopped_by: StopReason::StopPhrase,
                eos_step: None,
            })
            .unwrap_err();
        assert!(err.message.contains("reassemble"), "{err}");
        assert!(Reassembler::new()
            .apply(&QueryEvent::BeamFork {
                parent: 9,
                child: 10
            })
            .is_err());
    }

    #[test]
    fn distribute_hole_needs_no_deltas() {
        let mut r = Reassembler::new();
        r.apply(&QueryEvent::VariableStart {
            path: 0,
            var: "CLS".into(),
        })
        .unwrap();
        r.apply(&QueryEvent::VariableDone {
            path: 0,
            var: "CLS".into(),
            value: "positive".into(),
            score: 0.0,
            stopped_by: StopReason::StopPhrase,
            eos_step: None,
        })
        .unwrap();
        let out = r.finish();
        assert_eq!(out.runs[0].trace, "positive");
    }

    #[test]
    fn reassembles_nested_subquery_into_its_own_list() {
        let child = SUBQUERY_PATH_BASE;
        let mut r = Reassembler::new();
        for ev in [
            QueryEvent::PromptChunk {
                path: 0,
                text: "Plan: ".into(),
            },
            QueryEvent::SubqueryStart {
                parent: 0,
                child,
                depth: 1,
            },
            QueryEvent::PromptChunk {
                path: child,
                text: "Step:".into(),
            },
            QueryEvent::VariableStart {
                path: child,
                var: "S".into(),
            },
            QueryEvent::VariableDone {
                path: child,
                var: "S".into(),
                value: " pack".into(),
                score: -0.25,
                stopped_by: StopReason::StopPhrase,
                eos_step: None,
            },
            QueryEvent::SubqueryDone {
                path: child,
                ok: true,
            },
            QueryEvent::VariableStart {
                path: 0,
                var: "OUT".into(),
            },
            QueryEvent::VariableDone {
                path: 0,
                var: "OUT".into(),
                value: "done".into(),
                score: -1.0,
                stopped_by: StopReason::StopPhrase,
                eos_step: None,
            },
            QueryEvent::Done { ranking: vec![0] },
        ] {
            r.apply(&ev).unwrap();
        }
        let out = r.finish();
        assert_eq!(out.runs.len(), 1, "subquery paths stay out of runs");
        assert_eq!(out.runs[0].trace, "Plan: done");
        assert_eq!(out.subqueries.len(), 1);
        let sub = &out.subqueries[0];
        assert_eq!((sub.parent, sub.depth, sub.ok), (0, 1, true));
        assert_eq!(sub.run.path, child);
        assert_eq!(sub.run.trace, "Step: pack");
        assert_eq!(sub.run.holes, vec![("S".into(), " pack".into())]);
        assert_eq!(sub.run.log_prob, -0.25);
    }

    #[test]
    fn unfinished_subquery_paths_stay_out_of_runs() {
        let child = SUBQUERY_PATH_BASE + 3;
        let mut r = Reassembler::new();
        r.apply(&QueryEvent::PromptChunk {
            path: 0,
            text: "Q".into(),
        })
        .unwrap();
        r.apply(&QueryEvent::SubqueryStart {
            parent: 0,
            child,
            depth: 1,
        })
        .unwrap();
        r.apply(&QueryEvent::PromptChunk {
            path: child,
            text: "partial".into(),
        })
        .unwrap();
        // Stream cut short (cancelled): no SubqueryDone, no Done.
        let out = r.finish();
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.runs[0].path, 0);
        assert!(out.subqueries.is_empty());
    }

    #[test]
    fn reassembly_rejects_subquery_grammar_violations() {
        let mut r = Reassembler::new();
        assert!(
            r.apply(&QueryEvent::SubqueryStart {
                parent: 0,
                child: 4,
                depth: 1
            })
            .is_err(),
            "child id below the nested-path base"
        );
        assert!(
            Reassembler::new()
                .apply(&QueryEvent::SubqueryDone {
                    path: SUBQUERY_PATH_BASE,
                    ok: true
                })
                .is_err(),
            "done without start"
        );
    }

    #[test]
    fn channel_sink_cancels_when_receiver_drops() {
        let (sink, rx, token) = StreamSink::channel();
        sink.prompt_chunk("hi");
        assert!(matches!(rx.recv(), Ok(QueryEvent::PromptChunk { .. })));
        drop(rx);
        assert!(!token.is_cancelled(), "not before the next emit");
        sink.prompt_chunk("more");
        assert!(sink.cancelled());
        assert!(token.is_cancelled());
    }

    #[test]
    fn inactive_sink_is_free_and_never_cancelled() {
        let sink = StreamSink::none();
        assert!(!sink.is_active());
        assert!(!sink.cancelled());
        sink.prompt_chunk("ignored");
        sink.variable_done("X", "v", 0.0, StopReason::Budget, None);
    }

    #[test]
    fn with_path_retags() {
        let (sink, collector) = StreamSink::collector();
        sink.with_path(4).variable_start("V");
        assert_eq!(
            collector.events(),
            vec![QueryEvent::VariableStart {
                path: 4,
                var: "V".into()
            }]
        );
    }
}
