//! Server-side streaming acceptance: a `STREAM` frame runs the whole
//! query on the server, `EVENT` lines reassemble client-side
//! byte-identically to a local run, and the terminal
//! `DONE`/`BUSY`/`RETRY`/`ERR` frames carry the error taxonomy across the
//! hop. Every test runs over both deployment shapes (`replicas` 1 and 2):
//! they are the same serving path and must behave the same.

use lmql::{DebugTrace, QueryEvent, Runtime, StreamSink};
use lmql_lm::{Episode, FaultKind, LanguageModel, LmError, LmResult, Logits, ScriptedLm};
use lmql_server::{InferenceServer, RemoteLm, ServerConfig, ServerError};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The deployment shapes every test covers.
const SHAPES: [usize; 2] = [1, 2];

fn spawn(
    lm: Arc<dyn LanguageModel>,
    bpe: &Arc<Bpe>,
    config: ServerConfig,
) -> lmql_server::ServerHandle {
    InferenceServer::spawn_with(lm, Arc::clone(bpe), config).unwrap()
}

fn shape(replicas: usize) -> ServerConfig {
    ServerConfig {
        replicas,
        ..ServerConfig::default()
    }
}

const QUERY: &str = r#"
argmax
    "Q: Where is Apple Computers headquartered?\n"
    "A:[ANSWER]"
from "remote-model"
where stops_at(ANSWER, ".") and len(words(ANSWER)) < 20
"#;

const BEAM_QUERY: &str = r#"
beam(n=2)
    "Q: Where is Apple Computers headquartered?\n"
    "A:[ANSWER]"
from "remote-model"
where stops_at(ANSWER, ".") and len(words(ANSWER)) < 20
"#;

fn scripted(bpe: &Arc<Bpe>) -> Arc<ScriptedLm> {
    Arc::new(ScriptedLm::new(
        Arc::clone(bpe),
        [Episode::plain(
            "Q: Where is Apple Computers headquartered?\nA:",
            " Apple Computers is headquartered in Cupertino, California. And more trivia.",
        )],
    ))
}

#[test]
fn streamed_remote_query_matches_local_bit_for_bit() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let server = spawn(scripted(&bpe), &bpe, shape(replicas));
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();
        for query in [QUERY, BEAM_QUERY] {
            let local_rt = Runtime::new(scripted(&bpe) as Arc<dyn LanguageModel>, Arc::clone(&bpe));
            let local = local_rt.run(query).unwrap();
            let stream = remote.stream_query(query, TIMEOUT).unwrap();
            let rebuilt = stream.into_result().unwrap();

            assert!(rebuilt.error.is_none());
            assert_eq!(rebuilt.runs.len(), local.runs.len());
            for (got, want) in rebuilt.runs.iter().zip(&local.runs) {
                assert_eq!(got.trace, want.trace, "{query:?}: trace differs");
                let want_holes: Vec<(String, String)> = want
                    .hole_records
                    .iter()
                    .map(|r| (r.var.clone(), r.value.clone()))
                    .collect();
                assert_eq!(got.holes, want_holes);
                assert_eq!(
                    got.log_prob.to_bits(),
                    want.log_prob.to_bits(),
                    "{query:?}: log-prob not bit-exact"
                );
            }
            let usage = local_rt.meter().snapshot();
            assert_eq!(
                rebuilt.usage,
                Some((
                    usage.model_queries,
                    usage.decoder_calls,
                    usage.billable_tokens
                )),
                "replicas={replicas} {query:?}: Usage event differs"
            );
        }
        server.shutdown();
    }
}

/// The step debugger is a fold over events, so a remote stream folds —
/// with the client's fetched tokenizer for the vocabulary size — into
/// the same decoder graph as the same request run in-process.
#[test]
fn remote_events_fold_into_the_local_debug_trace() {
    let sample = QUERY.replacen("argmax", "sample(n=2)", 1);
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let server = spawn(scripted(&bpe), &bpe, shape(replicas));
        let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();
        for query in [QUERY, sample.as_str()] {
            let (sink, collector) = StreamSink::collector();
            Runtime::new(scripted(&bpe) as Arc<dyn LanguageModel>, Arc::clone(&bpe))
                .run_streamed(query, sink)
                .unwrap();
            let local = DebugTrace::from_events(&collector.events(), bpe.vocab().len());
            let events: Vec<QueryEvent> = remote
                .stream_query(query, TIMEOUT)
                .unwrap()
                .map(|e| e.expect("clean stream"))
                .collect();
            let folded = DebugTrace::from_events(&events, remote_bpe.vocab().len());
            assert!(local.holes.iter().any(|h| !h.steps.is_empty()));
            assert_eq!(
                folded.render(),
                local.render(),
                "replicas={replicas} {query:?}"
            );
        }
        server.shutdown();
    }
}

#[test]
fn streamed_events_arrive_incrementally() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let server = spawn(scripted(&bpe), &bpe, shape(replicas));
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();

        let stream = remote.stream_query(QUERY, TIMEOUT).unwrap();
        let events: Vec<QueryEvent> = stream.map(|e| e.expect("clean stream")).collect();

        assert!(
            events
                .iter()
                .any(|e| matches!(e, QueryEvent::TokenDelta { .. })),
            "no token deltas crossed the wire"
        );
        assert!(matches!(
            events.first(),
            Some(QueryEvent::PromptChunk { .. })
        ));
        assert!(matches!(events.last(), Some(QueryEvent::Done { .. })));
        server.shutdown();
    }
}

#[test]
fn malformed_query_gets_err_frame() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let server = spawn(scripted(&bpe), &bpe, shape(replicas));
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();

        let stream = remote
            .stream_query("argmax this is not lmql", TIMEOUT)
            .unwrap();
        let err = stream.into_result().unwrap_err();
        assert!(
            matches!(&err, ServerError::Query(_)),
            "parse failure should be a non-retryable query error, got {err:?}"
        );
        assert!(!err.is_transient());

        // The connection-level protocol survives: the same server still
        // answers a well-formed streamed query afterwards.
        let ok = remote
            .stream_query(QUERY, TIMEOUT)
            .unwrap()
            .into_result()
            .unwrap();
        assert!(ok.error.is_none());
        assert!(!ok.runs.is_empty());
        server.shutdown();
    }
}

/// A model that fails every call with a transient fault — what a flaky
/// remote backend looks like to the server's scheduler.
struct FlakyLm {
    inner: Arc<dyn LanguageModel>,
}

impl LanguageModel for FlakyLm {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let flaked = Err(LmError::transient(FaultKind::Other, "backend flaked"));
        vec![flaked; contexts.len()]
    }
}

#[test]
fn exhausted_transient_fault_gets_retry_frame() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(FlakyLm {
            inner: scripted(&bpe),
        });
        let config = ServerConfig {
            retry: lmql_lm::RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::from_millis(1),
                ..lmql_lm::RetryPolicy::default()
            },
            ..shape(replicas)
        };
        let server = spawn(lm, &bpe, config);
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();

        // Read to the terminal frame without reassembling: with more
        // than one replica the router fails over before giving up, and
        // each attempt replays the stream's leading events.
        let stream = remote.stream_query(QUERY, TIMEOUT).unwrap();
        let err = stream
            .filter_map(Result::err)
            .next()
            .expect("the stream must end in an error frame");
        assert!(
            matches!(&err, ServerError::Model(e) if e.is_transient()),
            "exhausted transient fault should arrive as a RETRY frame, got {err:?}"
        );
        assert!(err.is_transient());
        server.shutdown();
    }
}

/// The terminal frame follows the error's class, never its text: a
/// tool failure whose message happens to quote the model-fault wording is
/// still the query's own error — `ERR`, not a retryable `RETRY`.
#[test]
fn tool_error_quoting_a_transient_fault_gets_err_frame() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let flaky = lmql::FnTool::new("upstream", "fetch", |_| {
            Err("transient model error (timeout): model call deadline exceeded".into())
        });
        let config = ServerConfig {
            tools: lmql::ToolRegistry::new().with(Arc::new(flaky)),
            ..shape(replicas)
        };
        let server = spawn(scripted(&bpe), &bpe, config);
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();
        let query =
            "import upstream\nargmax\n    r = upstream.fetch(1)\n    \"Q:[A]\"\nfrom \"m\"\n";
        let err = remote
            .stream_query(query, TIMEOUT)
            .unwrap()
            .into_result()
            .unwrap_err();
        assert!(
            matches!(&err, ServerError::Query(msg) if msg.contains("transient model error")),
            "replicas={replicas}: a tool's error must arrive as ERR, got {err:?}"
        );
        assert!(!err.is_transient());
        server.shutdown();
    }
}

/// A model that takes `delay` per call, so a streamed query stays in
/// flight long enough for a test to act on it.
struct SlowLm {
    inner: Arc<dyn LanguageModel>,
    delay: Duration,
}

impl LanguageModel for SlowLm {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        std::thread::sleep(self.delay * contexts.len() as u32);
        self.inner.try_score_batch(contexts)
    }
}

fn slow(bpe: &Arc<Bpe>) -> Arc<SlowLm> {
    Arc::new(SlowLm {
        inner: scripted(bpe),
        delay: Duration::from_millis(20),
    })
}

/// Polls the server's registry until `name` reaches `at_least`.
fn poll_counter(server: &lmql_server::ServerHandle, name: &str, at_least: u64) -> u64 {
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        let v = server.metrics_snapshot().counter(name).unwrap_or(0);
        if v >= at_least || std::time::Instant::now() >= deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn admission_cap_answers_busy_frame() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let config = ServerConfig {
            max_inflight: 1,
            ..shape(replicas)
        };
        let server = spawn(slow(&bpe), &bpe, config);
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();

        // The first stream is admitted (its first event proves it) and
        // holds the only slot for the ~second its slow decode takes.
        let mut first = remote.stream_query(QUERY, TIMEOUT).unwrap();
        first.next().expect("at least one event").unwrap();
        let err = remote
            .stream_query(QUERY, TIMEOUT)
            .unwrap()
            .into_result()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServerError::Model(LmError::Transient {
                    kind: FaultKind::Busy,
                    ..
                })
            ),
            "replicas={replicas}: over-cap STREAM should get BUSY, got {err:?}"
        );
        assert!(first.into_result().unwrap().error.is_none());
        assert_eq!(server.metrics_snapshot().counter("router.shed"), Some(1));
        server.shutdown();
    }
}

#[test]
fn dropped_remote_stream_cancels_and_leaves_server_healthy() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let server = spawn(slow(&bpe), &bpe, shape(replicas));
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();

        // Read one event, then hang up mid-query. Server-side this turns
        // into a write failure, which cancels the query cooperatively
        // long before its slow decode would have finished.
        let mut stream = remote.stream_query(QUERY, TIMEOUT).unwrap();
        let first = stream.next().expect("at least one event").unwrap();
        assert!(matches!(first, QueryEvent::PromptChunk { .. }));
        drop(stream);
        assert_eq!(
            poll_counter(&server, "stream.cancelled", 1),
            1,
            "replicas={replicas}: the abandoned query was not cancelled"
        );

        // The server keeps serving both protocols after the abandonment.
        let rebuilt = remote
            .stream_query(QUERY, TIMEOUT)
            .unwrap()
            .into_result()
            .unwrap();
        let local = Runtime::new(scripted(&bpe) as Arc<dyn LanguageModel>, Arc::clone(&bpe))
            .run(QUERY)
            .unwrap();
        assert_eq!(rebuilt.runs[0].trace, local.best().trace);
        server.shutdown();
    }
}
