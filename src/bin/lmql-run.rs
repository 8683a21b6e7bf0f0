//! Command-line LMQL runner (the "command-line tooling" of Appendix A.3):
//! execute a `.lmql` file against one of the built-in models and print the
//! interaction trace, hole variables, distribution and usage metrics.
//!
//! ```sh
//! cargo run --bin lmql-run -- query.lmql \
//!     [--model ngram|script:<trigger>=<completion>] \
//!     [--bind NAME=VALUE]… [--engine exact|symbolic] \
//!     [--seed N] [--max-tokens N] [--stream] [--trace] \
//!     [--trace-json <path>] [--metrics] \
//!     [--retries N] [--timeout-ms N] [--chaos <seed>] [--no-automata]
//!     [--no-parallel-holes] [--replicas N] [--no-affinity]
//!     [--corpus <path>] [--corpus-k N]
//! ```
//!
//! Every run serves the query through a [`Router`] of `--replicas N`
//! (default 1) in-process replicas (DESIGN.md §15), on the main thread.
//! The request carries one [`StreamSink`] that prints the output live
//! under `--stream` and records the run's events; the closing
//! `--- usage: … ---` footer is its last `Usage` event, the request's own
//! cost, the same on every path and at every replica count.
//!
//! `--stream` prints the model output live, token by token, as the
//! decoder produces it (DESIGN.md §11), then the normal result summary.
//! The decoding loop is the same with or without the sink, so the final
//! output is byte-identical to a non-streamed run.
//!
//! `--trace` prints the decoder graph (Appendix A.3) — folded by
//! [`DebugTrace::from_events`] from the events the request's sink
//! receives, so it is served like every other run, at any `--replicas`
//! and under the fault flags — plus the span trace (parse/compile,
//! per-hole decoding, mask computation, scheduling).
//! `--trace-json` writes the spans as Chrome-trace JSON — load it in
//! `chrome://tracing` or Perfetto. `--metrics` prints the full metrics
//! registry (counter/gauge/histogram lines) after the run, the pool's
//! `router.*`, `engine.*` and `lm.*` totals included.
//!
//! `--chaos <seed>` wraps the model in a seeded [`ChaosLm`] injecting
//! transient faults into ~20% of score calls; the replicas' schedulers
//! retry them, so the output is byte-identical to the fault-free run and
//! every injected fault shows in `lm.faults` under `--metrics`.
//! `--retries` and `--timeout-ms` tune that retry: the engine policy's
//! budget and per-call deadline (`RouterConfig.engine.retry`; without
//! either flag it is [`RetryPolicy::default`]).
//!
//! `--no-automata` disables compiled constraint automata and
//! fast-forward decoding (DESIGN.md §12), forcing every mask through the
//! uncompiled FollowMap/Exact path — a bisection switch for checking a
//! surprising result against the reference mask implementation.
//!
//! `--no-parallel-holes` disables program-level hole parallelism
//! (DESIGN.md §14), forcing strictly sequential hole decoding — the
//! analogous bisection switch for the dependency-scheduled decode path
//! (results are byte-identical either way by construction).
//!
//! `--corpus <path>` loads a plain-text corpus (blank-line-separated
//! paragraphs; the first sentence of each is its title), builds a BM25
//! index over it and registers the [`RetrievalTool`] so the query can
//! `import retrieval` and call `retrieval.search(q)` /
//! `retrieval.spans(q)` (DESIGN.md §16). `--corpus-k` sets how many top
//! hits those calls consult (default 3).
//!
//! [`RetrievalTool`]: lmql_retrieval::RetrievalTool
//!
//! `--replicas N` sizes the pool — results and the usage footer are
//! byte-identical at every N by construction. `--no-affinity` swaps
//! prefix-affinity routing for round-robin, isolating routing-policy
//! effects from the pool itself.
//!
//! Example:
//!
//! ```sh
//! echo 'argmax
//!     "A list of things not to forget when travelling:\n-[THING]"
//! from "ngram"
//! where stops_at(THING, "\n")' > /tmp/q.lmql
//! cargo run --bin lmql-run -- /tmp/q.lmql --model ngram
//! ```

use lmql::constraints::{MaskConfig, MaskEngine};
use lmql::{DebugTrace, QueryEvent, QueryRequest, StreamSink, Value};
use lmql_engine::{EngineConfig, Router, RouterConfig, RouterObs};
use lmql_lm::{corpus, ChaosLm, ChaosStats, Episode, FaultPlan, RetryPolicy, ScriptedLm};
use std::io::Write;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Args {
    query_path: String,
    model: String,
    binds: Vec<(String, String)>,
    engine: MaskEngine,
    seed: u64,
    max_tokens: usize,
    stream: bool,
    trace: bool,
    trace_json: Option<String>,
    metrics: bool,
    format: bool,
    retries: Option<u32>,
    timeout_ms: Option<u64>,
    chaos: Option<u64>,
    no_automata: bool,
    no_parallel_holes: bool,
    replicas: usize,
    no_affinity: bool,
    corpus: Option<String>,
    corpus_k: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        query_path: String::new(),
        model: "ngram".to_owned(),
        binds: Vec::new(),
        engine: MaskEngine::Symbolic,
        seed: 0,
        max_tokens: 64,
        stream: false,
        trace: false,
        trace_json: None,
        metrics: false,
        format: false,
        retries: None,
        timeout_ms: None,
        chaos: None,
        no_automata: false,
        no_parallel_holes: false,
        replicas: 1,
        no_affinity: false,
        corpus: None,
        corpus_k: 3,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--model" => out.model = args.next().ok_or("--model takes a value")?,
            "--bind" => {
                let kv = args.next().ok_or("--bind takes NAME=VALUE")?;
                let (k, v) = kv.split_once('=').ok_or("--bind takes NAME=VALUE")?;
                out.binds.push((k.to_owned(), v.to_owned()));
            }
            "--engine" => {
                out.engine = match args.next().as_deref() {
                    Some("exact") => MaskEngine::Exact,
                    Some("symbolic") => MaskEngine::Symbolic,
                    other => return Err(format!("unknown engine {other:?}")),
                }
            }
            "--seed" => out.seed = number(args.next(), 0, "--seed takes a number")?,
            "--max-tokens" => {
                out.max_tokens = number(args.next(), 0, "--max-tokens takes a number")?;
            }
            "--stream" => out.stream = true,
            "--trace" => out.trace = true,
            "--trace-json" => {
                out.trace_json = Some(args.next().ok_or("--trace-json takes a path")?);
            }
            "--metrics" => out.metrics = true,
            "--format" => out.format = true,
            "--retries" => out.retries = Some(number(args.next(), 0, "--retries takes a number")?),
            "--timeout-ms" => {
                out.timeout_ms = Some(number(args.next(), 0, "--timeout-ms takes a number")?);
            }
            "--chaos" => out.chaos = Some(number(args.next(), 0, "--chaos takes a seed")?),
            "--no-automata" => out.no_automata = true,
            "--no-parallel-holes" => out.no_parallel_holes = true,
            "--replicas" => {
                out.replicas = number(args.next(), 1, "--replicas takes a count >= 1")?;
            }
            "--no-affinity" => out.no_affinity = true,
            "--corpus" => {
                out.corpus = Some(args.next().ok_or("--corpus takes a path")?);
            }
            "--corpus-k" => {
                out.corpus_k = number(args.next(), 1, "--corpus-k takes a count >= 1")?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: lmql-run <query.lmql> [--model ngram|script:<trigger>=<completion>] \
                            [--bind NAME=VALUE]… [--engine exact|symbolic] [--seed N] \
                            [--max-tokens N] [--stream] [--trace] [--trace-json <path>] \
                            [--metrics] [--format] [--retries N] [--timeout-ms N] \
                            [--chaos <seed>] [--no-automata] [--no-parallel-holes] \
                            [--replicas N] [--no-affinity] [--corpus <path>] [--corpus-k N]"
                        .to_owned(),
                )
            }
            other if out.query_path.is_empty() && !other.starts_with('-') => {
                out.query_path = other.to_owned();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.query_path.is_empty() {
        return Err("missing query file (try --help)".to_owned());
    }
    Ok(out)
}

/// A flag's value as a number `>= min`, or the flag's `usage` error when
/// it is missing, malformed or too small.
fn number<T: std::str::FromStr + PartialOrd>(
    value: Option<String>,
    min: T,
    usage: &str,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= min)
        .ok_or_else(|| usage.to_owned())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lmql-run: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let source = std::fs::read_to_string(&args.query_path)
        .map_err(|e| format!("{}: {e}", args.query_path))?;

    if args.format {
        let query = lmql_syntax::parse_query(&source).map_err(|e| e.to_string())?;
        print!("{}", lmql_syntax::format_query(&query));
        return Ok(());
    }

    let bpe = corpus::standard_bpe();
    let lm: Arc<dyn lmql_lm::LanguageModel> = if args.model == "ngram" {
        corpus::standard_ngram()
    } else if let Some(spec) = args.model.strip_prefix("script:") {
        let (trigger, completion) = spec
            .split_once('=')
            .ok_or("--model script:<trigger>=<completion>")?;
        Arc::new(ScriptedLm::new(
            Arc::clone(&bpe),
            [Episode::plain(trigger, completion)],
        ))
    } else {
        return Err(format!(
            "unknown model {:?} (expected `ngram` or `script:<trigger>=<completion>`)",
            args.model
        ));
    };

    // `--chaos` injects seeded faults under the replicas' schedulers,
    // whose items retry them under `retry`.
    let mut retry = RetryPolicy::default();
    if let Some(n) = args.retries {
        retry.max_retries = n;
    }
    if let Some(ms) = args.timeout_ms {
        retry.deadline = Some(Duration::from_millis(ms));
    }
    let mut chaos_stats: Option<ChaosStats> = None;
    let lm: Arc<dyn lmql_lm::LanguageModel> = match args.chaos {
        Some(seed) => {
            let chaos = ChaosLm::new(lm, FaultPlan::transient(seed, 0.2));
            chaos_stats = Some(chaos.stats().clone());
            Arc::new(chaos)
        }
        None => lm,
    };

    // `--corpus`: index the file once, expose it as the `retrieval`
    // tool on the request.
    let retrieval = match &args.corpus {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let docs = lmql_retrieval::load_plain_text(&text);
            let index =
                lmql_retrieval::Bm25Index::build(&docs, lmql_retrieval::ChunkConfig::default());
            eprintln!(
                "corpus: {} documents, {} chunks indexed from {path}",
                docs.len(),
                index.len()
            );
            Some(Arc::new(lmql_retrieval::RetrievalTool::new(
                Arc::new(index),
                args.corpus_k,
            )))
        }
        None => None,
    };

    let tracer = if args.trace || args.trace_json.is_some() {
        lmql_obs::Tracer::recording()
    } else {
        lmql_obs::Tracer::disabled()
    };
    let registry = lmql_obs::Registry::new();

    // `--stream` prints path 0 (argmax / first beam / first sample) live
    // as the decoder emits it; other paths would interleave incoherently
    // on a terminal, so they stay silent here. Every event is kept: the
    // last `Usage` is the footer (after a fail-over, the attempt that
    // finished), and `--trace` folds them into the decoder graph.
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let (events, stream) = (Arc::clone(&events), args.stream);
        StreamSink::callback(move |event| {
            if let QueryEvent::PromptChunk { path: 0, text }
            | QueryEvent::TokenDelta { path: 0, text, .. } = event
            {
                if stream {
                    print!("{text}");
                    let _ = std::io::stdout().flush();
                }
            }
            events
                .lock()
                .expect("event record poisoned")
                .push(event.clone());
        })
    };

    // Every per-query flag lands on the one request, so each fail-over
    // attempt decodes under exactly the same settings.
    let mut request = QueryRequest::new(source)
        .stream(sink)
        .engine(args.engine)
        .seed(args.seed)
        .max_tokens(args.max_tokens)
        .tracer(tracer.clone());
    if args.no_automata {
        // Bisection switch: rerun with constraint automata disabled to
        // check a surprising result against the uncompiled mask path.
        request = request.mask(MaskConfig {
            automata: false,
            ..MaskConfig::default()
        });
    }
    if args.no_parallel_holes {
        // Bisection switch: rerun with program-level hole parallelism
        // off (DESIGN.md §14) — output must be byte-identical, so any
        // difference localises a parallel-decode bug.
        request = request.parallel_holes(false);
    }
    for (k, v) in &args.binds {
        request = request.bind(k, Value::Str(v.clone()));
    }
    if let Some(tool) = retrieval {
        request = request.tool(tool);
    }

    let router = Router::new_with_obs(
        lm,
        Arc::clone(&bpe),
        RouterConfig {
            replicas: args.replicas,
            affinity: !args.no_affinity,
            engine: EngineConfig {
                retry,
                ..EngineConfig::default()
            },
            ..RouterConfig::default()
        },
        RouterObs {
            tracer: tracer.clone(),
            registry: args.metrics.then(|| registry.clone()),
        },
    );
    let result = router.run_query(request).map_err(|e| e.to_string())?;

    if args.stream {
        println!();
        println!("--- result ---");
    }
    print_result(&result);
    let events = events.lock().expect("event record poisoned");
    if args.trace {
        let graph = DebugTrace::from_events(events.iter(), bpe.vocab().len());
        println!("--- decoder trace ---");
        print!("{}", graph.render());
        println!("--- spans ---");
        print!("{}", tracer.render_text());
    }

    if let Some(path) = &args.trace_json {
        let json = lmql_obs::chrome::to_chrome_json(&tracer.events());
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path} (load in chrome://tracing)");
    }

    if args.metrics {
        println!("--- metrics ---");
        print!("{}", registry.snapshot().render_text());
    }

    if let Some(stats) = &chaos_stats {
        println!(
            "--- chaos: {} faults injected ({} errors, {} truncations, {} latency spikes) — all absorbed ---",
            stats.total_faults(),
            stats.errors.get(),
            stats.truncations.get(),
            stats.latency_spikes.get()
        );
    }

    if let Some(QueryEvent::Usage {
        model_queries,
        decoder_calls,
        billable_tokens,
    }) = events
        .iter()
        .rev()
        .find(|e| matches!(e, QueryEvent::Usage { .. }))
    {
        println!(
            "--- usage: {model_queries} model queries, {decoder_calls} decoder calls, \
             {billable_tokens} billable tokens ---"
        );
    }
    Ok(())
}

fn print_result(result: &lmql::QueryResult) {
    for (i, run) in result.runs.iter().enumerate() {
        if result.runs.len() > 1 {
            println!("--- run {} (log-prob {:.3}) ---", i + 1, run.log_prob);
        }
        println!("{}", run.trace);
        let mut vars: Vec<_> = run
            .hole_records
            .iter()
            .map(|r| (r.var.as_str(), r.value.as_str()))
            .collect();
        vars.dedup();
        for (name, value) in vars {
            println!("  {name} = {value:?}");
        }
    }
    if let Some(dist) = &result.distribution {
        println!("--- distribution ---");
        for (v, p) in dist {
            println!("  {:>6.2}%  {v}", p * 100.0);
        }
    }
}
