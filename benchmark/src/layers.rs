//! The traced run's extra passes: where a query's time goes, layer by
//! layer, measured only from the benchmark's own files.
//!
//! The count pass's queries are run again at three levels, with the span
//! recorder on:
//!
//! - **L0** — `Runtime::execute` on the bare model (what the oracle runs,
//!   see `verify.rs`);
//! - **L1** — the server's in-process half: a `Router` for the pooled
//!   workload, and for the single-scheduler workloads what
//!   `serve_stream` builds per query (`Scheduler` + `BatchedLm` +
//!   `Runtime::run_streamed` on its own thread, events over a channel);
//! - **L2** — `RemoteLm::stream_query` over TCP against a fresh server,
//!   once with the recorder off and once with it on (the difference is
//!   the tracing overhead).
//!
//! The levels are *interleaved*: query `i` runs at every level before
//! query `i + 1` runs at any, each level on its own cold stack. A
//! neighbour that slows the machine for a moment then slows all levels of
//! a few queries instead of one level's whole pass, and the levels are
//! compared query by query (medians of paired differences).
//!
//! The wrappers the benchmark injects (`TimedLm`, `TimedTool`) record the
//! children of every level. Because the radix cache decides how often the
//! model runs, levels are compared on their time *outside* the model and
//! the tools: `engine.self` is that time at L1 minus at L0, `server.self`
//! at L2 minus at L1, `runtime.self` at L0 minus what the directly timed
//! functions account for.
//!
//! Those direct timings call the program's public functions on the same
//! inputs the queries produced — the events of the count pass are replayed
//! to rebuild every hole's prompt, every mask state and every frame.

use crate::fixed_cost::CallProbe;
use crate::load::{one_query, Completed, Sample};
use crate::spec;
use crate::stats::{mean, median};
use crate::trace::{Span, Spans};
use crate::verify::OracleRunner;
use crate::workloads::{server_config, Stack, Substrate, Workload};
use lmql::constraints::{AutomataCache, MaskConfig, MaskEngine, MaskMemo, Masker};
use lmql::{QueryEvent, Reassembler, Runtime, StreamSink, ToolRegistry, Value};
use lmql_engine::{
    prompt_prefix, BatchedLm, EngineConfig, RadixCache, RadixCacheConfig, Router, RouterConfig,
    RouterObs, Scheduler, SchedulerObs,
};
use lmql_lm::{Distribution, Logits};
use lmql_obs::Registry;
use lmql_tokenizer::{Bpe, TokenId};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One level's queries: wall time and what its children took, per query.
#[derive(Debug, Clone, Default)]
pub struct LevelPass {
    /// Seconds per query, in pass order.
    pub query_secs: Vec<f64>,
    /// Seconds inside the model, per query.
    pub lm_secs: Vec<f64>,
    /// Seconds inside tools, per query.
    pub tool_secs: Vec<f64>,
    /// Per-call model durations, seconds.
    pub lm_calls: Vec<f64>,
    /// Contexts that reached the model.
    pub lm_items: u64,
}

impl LevelPass {
    /// Builds the summary of the level whose root spans are named `root`
    /// from per-query times and everything the recorder kept.
    fn new(root: &str, query_secs: Vec<f64>, spans: &[Span], lm_items: u64) -> LevelPass {
        let n = query_secs.len();
        let roots: HashMap<u32, u32> = spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| (s.id, s.query))
            .collect();
        let mut pass = LevelPass {
            query_secs,
            lm_secs: vec![0.0; n],
            tool_secs: vec![0.0; n],
            lm_calls: Vec::new(),
            lm_items,
        };
        for s in spans {
            let Some(&q) = roots.get(&s.parent) else {
                continue;
            };
            match s.name {
                "lm.score" => {
                    pass.lm_secs[q as usize] += s.secs();
                    pass.lm_calls.push(s.secs());
                }
                "tool.invoke" => pass.tool_secs[q as usize] += s.secs(),
                _ => {}
            }
        }
        pass
    }

    /// Seconds outside the model and the tools, per query.
    pub fn outside(&self) -> Vec<f64> {
        self.query_secs
            .iter()
            .zip(&self.lm_secs)
            .zip(&self.tool_secs)
            .map(|((q, lm), tool)| q - lm - tool)
            .collect()
    }
}

/// The median over queries of `a[i] - b[i]`.
pub fn paired_median(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<_>>())
}

/// The server's in-process half, built from the program's public API.
enum Level1 {
    Pool(Router),
    Single {
        sched: Arc<Scheduler>,
        registry: Registry,
        tools: ToolRegistry,
        bpe: Arc<Bpe>,
    },
}

impl Level1 {
    fn start(
        workload: Workload,
        substrate: &Substrate,
        lm_probe: &Arc<CallProbe>,
        spans: &Spans,
    ) -> Level1 {
        let model = substrate.timed_model(lm_probe, spans);
        let tools = substrate.timed_tools(&Arc::new(CallProbe::default()), spans);
        let config = server_config(workload, tools.clone());
        let registry = Registry::new();
        if workload.pooled() {
            Level1::Pool(Router::new_with_obs(
                model,
                Arc::clone(&substrate.bpe),
                RouterConfig {
                    replicas: config.replicas,
                    affinity: config.affinity,
                    max_inflight: config.max_inflight,
                    engine: EngineConfig {
                        policy: config.policy,
                        cache: config.cache,
                        retry: config.retry,
                        tools,
                        ..EngineConfig::default()
                    },
                    ..RouterConfig::default()
                },
                RouterObs {
                    registry: Some(registry),
                    ..RouterObs::default()
                },
            ))
        } else {
            Level1::Single {
                sched: Arc::new(Scheduler::with_retry(
                    Box::new(model),
                    config.policy,
                    config.cache,
                    config.retry,
                    SchedulerObs {
                        registry: Some(registry.clone()),
                        ..SchedulerObs::default()
                    },
                )),
                registry,
                tools,
                bpe: Arc::clone(&substrate.bpe),
            }
        }
    }

    /// Runs one query and drains its events, as a connection handler does
    /// before writing them out.
    fn run(&self, source: &str) {
        match self {
            Level1::Pool(router) => {
                let stream = router.stream_query(source);
                for event in stream.events() {
                    std::hint::black_box(&event);
                }
                let _ = stream.wait();
            }
            Level1::Single {
                sched,
                registry,
                tools,
                bpe,
            } => {
                let (sink, events, cancel) = StreamSink::channel();
                let lm = BatchedLm::with_cancel(Arc::clone(sched), cancel);
                std::thread::scope(|scope| {
                    let producer = scope.spawn(|| {
                        let mut rt = Runtime::new(Arc::new(lm), Arc::clone(bpe));
                        rt.set_metrics_registry(registry.clone());
                        if !tools.is_empty() {
                            rt.set_tools(tools.clone());
                        }
                        rt.run_streamed(source, sink)
                    });
                    for event in events {
                        std::hint::black_box(&event);
                    }
                    let _ = producer.join();
                });
            }
        }
    }
}

/// Everything the interleaved levels measured.
#[derive(Debug, Clone, Default)]
pub struct Levels {
    /// `Runtime::execute` on the bare model.
    pub l0: LevelPass,
    /// The server's in-process half.
    pub l1: LevelPass,
    /// Over TCP, recorder on.
    pub l2: LevelPass,
    /// Over TCP, recorder off: seconds per query.
    pub l2_untraced: Vec<f64>,
    /// Client-side samples of the traced L2 queries.
    pub l2_samples: Vec<Sample>,
    /// Mean queue wait per scheduled request at L1, µs (single scheduler
    /// only; the pool's replicas keep theirs private).
    pub wait_us_mean: Option<f64>,
    /// `Router::route_for` per query, seconds (pooled only).
    pub route_secs: Vec<f64>,
    /// Share of queries whose affinity replica had already served their
    /// prompt prefix (pooled only).
    pub affinity_hit_rate: f64,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// Runs the count pass's queries at every level, interleaved, each
/// level on its own cold stack.
pub fn interleaved_levels(
    workload: Workload,
    sources: &[String],
    substrate: &Substrate,
    spans: &Spans,
) -> std::io::Result<Levels> {
    let n = sources.len();
    spans.set_recording(false);
    let (probe0, probe1) = (
        Arc::new(CallProbe::default()),
        Arc::new(CallProbe::default()),
    );
    let l0 = OracleRunner::new(workload, substrate, &probe0, spans);
    let l1 = Level1::start(workload, substrate, &probe1, spans);
    let untraced = Stack::start(workload, spans)?;
    let traced = Stack::start(workload, spans)?;

    let mut out = Levels::default();
    let (mut secs0, mut secs1, mut secs2) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen: Vec<(usize, u64)> = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        let q = i as u32;

        spans.set_recording(true);
        let guard = spans.begin_query("L0.query", q);
        let _ = l0.run(source);
        secs0.push(guard.finish());

        let guard = spans.begin_query("L1.query", q);
        l1.run(source);
        secs1.push(guard.finish());
        if let Level1::Pool(router) = &l1 {
            // Routing, timed directly on the same source.
            let start = Instant::now();
            let replica = router.route_for(source);
            out.route_secs.push(start.elapsed().as_secs_f64());
            spans.record("direct.router.route_for", start, 1);
            let key = (
                replica,
                substrate.bpe.prefix_fingerprint(
                    prompt_prefix(source),
                    RouterConfig::default().prefix_tokens,
                ),
            );
            if !seen.contains(&key) {
                seen.push(key);
            }
        }

        spans.set_recording(false);
        out.l2_untraced
            .push(one_query(&untraced.client, source).latency_s);

        spans.set_recording(true);
        let guard = spans.begin_query("L2.query", q);
        let zero = guard.start();
        let sample = one_query(&traced.client, source);
        for (name, secs) in [
            ("client.dial_write", sample.dial_write_s),
            ("client.first_event", sample.first_event_s),
        ] {
            spans.record_until(name, zero, zero + Duration::from_secs_f64(secs), 1);
        }
        guard.finish();
        secs2.push(sample.latency_s);
        out.l2_samples.push(sample);
    }
    spans.set_recording(false);

    if workload.pooled() {
        out.affinity_hit_rate = 1.0 - seen.len() as f64 / n.max(1) as f64;
    }
    match l1 {
        Level1::Pool(router) => router.shutdown(),
        Level1::Single { sched, .. } => {
            out.wait_us_mean = Some(sched.metrics().batch_wait_us.snapshot().mean());
            sched.shutdown();
        }
    }
    let lm_items2 = traced.lm_probe.read().1;
    for stack in [untraced, traced] {
        stack.client.quit();
        stack.server.shutdown();
    }
    out.spans = spans.take();
    out.l0 = LevelPass::new("L0.query", secs0, &out.spans, probe0.read().1);
    out.l1 = LevelPass::new("L1.query", secs1, &out.spans, probe1.read().1);
    out.l2 = LevelPass::new("L2.query", secs2, &out.spans, lm_items2);
    Ok(out)
}

/// Per-function timings on replayed inputs, all in seconds.
#[derive(Debug, Clone, Default)]
pub struct Direct {
    /// `lmql_syntax::parse_query`, per query.
    pub parse: Vec<f64>,
    /// `lmql::compile_query`, per query.
    pub compile: Vec<f64>,
    /// Parallel hole groups (two or more members) per query.
    pub parallel_groups: Vec<f64>,
    /// `Bpe::prefix_fingerprint` of the routing prefix, per query.
    pub fingerprint: Vec<f64>,
    /// `Bpe::encode` of every hole's prompt, summed per query.
    pub encode: Vec<f64>,
    /// Tokens those encodes produced, per query.
    pub encode_tokens: Vec<f64>,
    /// `Masker::compute` with the default configuration, per step.
    pub mask_default: Vec<f64>,
    /// `Masker::compute` with `MaskConfig::reference()`, per step.
    pub mask_reference: Vec<f64>,
    /// `Logits::softmax_into` + mask + `argmax`, per step.
    pub softmax_pick: Vec<f64>,
    /// `QueryEvent::to_wire`, per event.
    pub to_wire: Vec<f64>,
    /// `QueryEvent::from_wire`, per event.
    pub from_wire: Vec<f64>,
    /// One `EVENT` line written and flushed to a loopback socket, as the
    /// connection handler does per event, per event.
    pub write_flush: Vec<f64>,
    /// `Reassembler::apply` over a whole stream, per query.
    pub reassemble: Vec<f64>,
    /// `RadixCache::get` (hit), per call.
    pub radix_get: Vec<f64>,
    /// `RadixCache::insert`, per call.
    pub radix_insert: Vec<f64>,
    /// `Scheduler::try_score` on a context it has not seen, per call.
    pub sched_roundtrip: Vec<f64>,
    /// Mean queue wait the direct scheduler reported, µs.
    pub sched_wait_us_mean: f64,
}

fn timed<T>(spans: &Spans, name: &'static str, into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    into.push(end.duration_since(start).as_secs_f64());
    spans.record_until(name, start, end, 1);
    out
}

/// Replays one query's events through a masker, timing every
/// `Masker::compute` the decode loop would have made.
fn replay_masks(
    masker: &mut Masker,
    where_expr: Option<&lmql_syntax::ast::Expr>,
    events: &[QueryEvent],
    spans: &Spans,
    name: &'static str,
    into: &mut Vec<f64>,
) {
    let mut scope: HashMap<String, Value> = HashMap::new();
    let mut value = String::new();
    for event in events {
        match event {
            QueryEvent::VariableStart { .. } => value.clear(),
            QueryEvent::TokenDelta { var, text, .. } => {
                let outcome = timed(spans, name, into, || {
                    masker.compute(where_expr, &scope, var, &value)
                });
                masker.recycle(outcome);
                value.push_str(text);
            }
            QueryEvent::VariableDone {
                var, value: done, ..
            } => {
                // The step that ended the hole (stop phrase, exhausted
                // mask or budget) computed one more mask.
                let outcome = timed(spans, name, into, || {
                    masker.compute(where_expr, &scope, var, done)
                });
                masker.recycle(outcome);
                scope.insert(var.clone(), Value::Str(done.clone()));
            }
            _ => {}
        }
    }
}

/// A connected loopback socket pair: a buffered writer like the connection
/// handler's, and a thread that reads and discards like a client. `None`
/// when the sockets cannot be set up (the flush timing is then skipped).
fn loopback_pair() -> Option<(BufWriter<TcpStream>, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let client = TcpStream::connect(listener.local_addr().ok()?).ok()?;
    let (server_side, _) = listener.accept().ok()?;
    let drain = std::thread::spawn(move || {
        let _ = std::io::copy(&mut &client, &mut std::io::sink());
    });
    Some((BufWriter::new(server_side), drain))
}

/// Times the program's public functions on the inputs of the first
/// [`spec::DIRECT_SAMPLE_QUERIES`] completed queries of the count pass.
pub fn direct_timings(
    workload: Workload,
    sources: &[String],
    substrate: &Substrate,
    wire: &[Option<Completed>],
    spans: &Spans,
) -> Direct {
    let mut d = Direct::default();
    let bpe = &substrate.bpe;
    let shared = workload
        .pooled()
        .then(|| (MaskMemo::new(1024), AutomataCache::new()));
    let mut contexts: Vec<Vec<TokenId>> = Vec::new();
    let mut loopback = loopback_pair();
    let sample = sources
        .iter()
        .zip(wire)
        .filter_map(|(source, c)| c.as_ref().map(|c| (source, c)))
        .take(spec::DIRECT_SAMPLE_QUERIES);
    for (source, completed) in sample {
        let Ok(parsed) = timed(spans, "direct.syntax.parse", &mut d.parse, || {
            lmql_syntax::parse_query(source)
        }) else {
            continue;
        };
        let Ok(program) = timed(spans, "direct.compile", &mut d.compile, || {
            lmql::compile_query(&parsed)
        }) else {
            continue;
        };
        d.parallel_groups
            .push(lmql::plan_holes(&program).map_or(0.0, |plan| {
                plan.groups().iter().filter(|(s, e)| e - s >= 2).count() as f64
            }));
        timed(
            spans,
            "direct.tokenizer.fingerprint",
            &mut d.fingerprint,
            || bpe.prefix_fingerprint(prompt_prefix(source), RouterConfig::default().prefix_tokens),
        );

        // Every hole encodes the trace so far as its prompt.
        let mut trace = String::new();
        let (mut encode_secs, mut encode_tokens) = (0.0, 0usize);
        for event in &completed.events {
            match event {
                QueryEvent::PromptChunk { text, .. } | QueryEvent::TokenDelta { text, .. } => {
                    trace.push_str(text);
                }
                QueryEvent::VariableStart { .. } => {
                    let mut one = Vec::new();
                    let ids = timed(spans, "direct.tokenizer.encode", &mut one, || {
                        bpe.encode(&trace)
                    });
                    encode_secs += one[0];
                    encode_tokens += ids.len();
                    contexts.push(ids);
                }
                _ => {}
            }
        }
        d.encode.push(encode_secs);
        d.encode_tokens.push(encode_tokens as f64);

        // Masks: one masker per query, as the runtime builds one per run.
        let where_expr = program.where_clause.as_ref();
        let mut default = Masker::new(MaskEngine::default(), Arc::clone(bpe) as _)
            .with_config(MaskConfig::default());
        if let Some((memo, automata)) = &shared {
            default = default
                .with_memo(Arc::clone(memo))
                .with_automata_cache(Arc::clone(automata));
        }
        replay_masks(
            &mut default,
            where_expr,
            &completed.events,
            spans,
            "direct.mask.compute_default",
            &mut d.mask_default,
        );
        let mut reference = Masker::new(MaskEngine::default(), Arc::clone(bpe) as _)
            .with_config(MaskConfig::reference());
        replay_masks(
            &mut reference,
            where_expr,
            &completed.events,
            spans,
            "direct.mask.compute_reference",
            &mut d.mask_reference,
        );

        // Wire codec and reassembly over the query's own frames.
        let mut lines = Vec::with_capacity(completed.events.len());
        for event in &completed.events {
            lines.push(timed(
                spans,
                "direct.stream.to_wire",
                &mut d.to_wire,
                || event.to_wire(),
            ));
        }
        let mut decoded = Vec::with_capacity(lines.len());
        for line in &lines {
            if let Ok(event) = timed(spans, "direct.stream.from_wire", &mut d.from_wire, || {
                QueryEvent::from_wire(line)
            }) {
                decoded.push(event);
            }
        }
        if let Some((writer, _)) = &mut loopback {
            for line in &lines {
                let _ = timed(
                    spans,
                    "direct.stream.write_flush",
                    &mut d.write_flush,
                    || writeln!(writer, "EVENT {line}").and_then(|()| writer.flush()),
                );
            }
        }
        timed(spans, "direct.stream.reassemble", &mut d.reassemble, || {
            let mut r = Reassembler::new();
            for event in &decoded {
                let _ = r.apply(event);
            }
            r.finish()
        });
    }

    // softmax + mask + pick on the model's own logits for a real prompt.
    if let Some(ctx) = contexts.first() {
        let logits = substrate.model.score(ctx);
        let mut mask = lmql_tokenizer::TokenSet::empty(logits.len());
        for t in bpe.vocab().ids() {
            mask.insert(t);
        }
        let mut dist = Distribution::empty();
        for _ in 0..256 {
            timed(spans, "direct.lm.softmax_pick", &mut d.softmax_pick, || {
                logits.softmax_into(1.0, &mut dist);
                dist.mask_in_place(&mask);
                dist.argmax()
            });
        }

        // Radix cache and scheduler on the replayed prompts.
        let mut radix = RadixCache::new(RadixCacheConfig::default());
        for key in &contexts {
            let value: Logits = logits.clone();
            timed(spans, "direct.radix.insert", &mut d.radix_insert, || {
                radix.insert(key, value)
            });
        }
        for key in &contexts {
            timed(spans, "direct.radix.get", &mut d.radix_get, || {
                radix.get(key)
            });
        }
        let sched = Scheduler::with_retry(
            Box::new(Arc::clone(&substrate.model)),
            Default::default(),
            RadixCacheConfig::default(),
            Default::default(),
            SchedulerObs::default(),
        );
        let mut unique = contexts.clone();
        unique.sort();
        unique.dedup();
        for key in &unique {
            let _ = timed(
                spans,
                "direct.sched.try_score",
                &mut d.sched_roundtrip,
                || sched.try_score(key),
            );
        }
        d.sched_wait_us_mean = sched.metrics().batch_wait_us.snapshot().mean();
        sched.shutdown();
    }
    if let Some((writer, drain)) = loopback {
        // Closing the writer ends the drain thread's read loop.
        drop(writer);
        let _ = drain.join();
    }
    d
}

/// Seconds per query each attributed part takes, and the parts' shares of
/// the traced L2 time.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Mean traced L2 seconds per query: the whole being attributed.
    pub whole: f64,
    /// Inside the model.
    pub lm: f64,
    /// Inside tools.
    pub tool: f64,
    /// `Masker::compute`.
    pub mask: f64,
    /// Waiting in the scheduler's queue.
    pub sched_wait: f64,
    /// Wire codec, a write + flush per event, and reassembly.
    pub stream: f64,
    /// `Bpe::encode` and the routing fingerprint.
    pub tokenizer: f64,
    /// Parse and compile.
    pub frontend: f64,
    /// softmax + mask + pick.
    pub pick: f64,
    /// Radix lookups and inserts.
    pub radix: f64,
    /// Dial, accept poll and handler spawn: send → first event, less the
    /// front-end work done before that event.
    pub connect: f64,
}

impl Attribution {
    /// The share of the whole no part covers (never below 0).
    pub fn unattributed_share(&self) -> f64 {
        if self.whole <= 0.0 {
            return 0.0;
        }
        let covered = self.lm
            + self.tool
            + self.mask
            + self.sched_wait
            + self.stream
            + self.tokenizer
            + self.frontend
            + self.pick
            + self.radix
            + self.connect;
        (1.0 - covered / self.whole).max(0.0)
    }

    /// `part` as a share of the whole.
    pub fn share(&self, part: f64) -> f64 {
        if self.whole <= 0.0 {
            0.0
        } else {
            part / self.whole
        }
    }
}

/// Per-query shape of the count pass that the attribution scales the
/// per-call timings by.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// Events per query.
    pub events: f64,
    /// `Masker::compute` calls per query.
    pub mask_steps: f64,
    /// Scheduler requests per query that missed the radix cache.
    pub misses: f64,
    /// Scheduler requests per query (hits + misses).
    pub requests: f64,
}

/// Puts the traced L2 queries, the direct timings and the count pass's
/// shape together.
pub fn attribute(levels: &Levels, direct: &Direct, wait_us_mean: f64, shape: Shape) -> Attribution {
    let frontend = mean(&direct.parse) + mean(&direct.compile);
    let first_event = mean(
        &levels
            .l2_samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.first_event_s)
            .collect::<Vec<_>>(),
    );
    Attribution {
        whole: mean(&levels.l2.query_secs),
        lm: mean(&levels.l2.lm_secs),
        tool: mean(&levels.l2.tool_secs),
        mask: mean(&direct.mask_default) * shape.mask_steps,
        sched_wait: wait_us_mean / 1e6 * shape.misses,
        stream: (mean(&direct.to_wire) + mean(&direct.from_wire) + mean(&direct.write_flush))
            * shape.events
            + mean(&direct.reassemble),
        tokenizer: mean(&direct.encode) + mean(&direct.fingerprint),
        frontend,
        pick: mean(&direct.softmax_pick) * shape.requests,
        radix: median(&direct.radix_get) * shape.requests
            + median(&direct.radix_insert) * shape.misses,
        connect: (first_event - frontend).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_median_ignores_a_disturbed_pair() {
        let a = [5.0, 5.1, 9.0, 5.2, 5.0];
        let b = [3.0, 3.0, 3.1, 3.1, 3.0];
        assert!((paired_median(&a, &b) - 2.1).abs() < 1e-9);
        assert_eq!(paired_median(&[], &[]), 0.0);
    }

    #[test]
    fn children_are_summed_under_their_own_level_and_query() {
        let span = |id, parent, query, name, start_ns, end_ns| Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
            items: 1,
        };
        let spans = [
            span(1, 0, 0, "L0.query", 0, 10_000),
            span(2, 1, 0, "lm.score", 1_000, 3_000),
            span(3, 0, 0, "L1.query", 10_000, 30_000),
            span(4, 3, 0, "lm.score", 11_000, 12_000),
            span(5, 3, 0, "tool.invoke", 13_000, 13_500),
            span(6, 0, 1, "L0.query", 30_000, 40_000),
        ];
        let l0 = LevelPass::new("L0.query", vec![10e-6, 10e-6], &spans, 1);
        assert_eq!(l0.lm_secs, vec![2e-6, 0.0]);
        assert_eq!(l0.lm_calls.len(), 1);
        let l1 = LevelPass::new("L1.query", vec![20e-6], &spans, 1);
        assert!((l1.outside()[0] - 18.5e-6).abs() < 1e-12);
    }
}
