//! Concurrent clients against one server: results stay bit-identical to
//! local execution, each distinct context reaches the model exactly once
//! (shared cache + single-flight), idle connections time out, and
//! shutdown drains in-flight work.

use lmql::Runtime;
use lmql_lm::{Episode, LanguageModel, LmResult, Logits, ScriptedLm};
use lmql_server::{InferenceServer, RemoteLm, ServerConfig};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts every context that actually reaches the model (per-context
/// forward passes, however they were batched).
#[derive(Debug)]
struct CountingLm<L> {
    inner: L,
    calls: Arc<AtomicU64>,
}

impl<L: LanguageModel> LanguageModel for CountingLm<L> {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.calls
            .fetch_add(contexts.len() as u64, Ordering::SeqCst);
        self.inner.try_score_batch(contexts)
    }
}

fn counting_scripted(bpe: &Arc<Bpe>) -> (Arc<dyn LanguageModel>, Arc<AtomicU64>) {
    let calls = Arc::new(AtomicU64::new(0));
    let lm = CountingLm {
        inner: ScriptedLm::new(
            Arc::clone(bpe),
            [Episode::plain(
                "Q: Where is Apple Computers headquartered?\nA:",
                " Apple Computers is headquartered in Cupertino, California. And more trivia.",
            )],
        ),
        calls: Arc::clone(&calls),
    };
    (Arc::new(lm), calls)
}

// beam(n=2) exercises the BATCH frame: every search step ships its
// extending beams' contexts as one request.
const QUERY: &str = r#"
beam(n=2)
    "Q: Where is Apple Computers headquartered?\n"
    "A:[ANSWER]"
from "remote-model"
where stops_at(ANSWER, ".")
"#;

#[test]
fn concurrent_clients_match_local_and_share_the_model() {
    let bpe = Arc::new(Bpe::char_level(""));

    // Local reference run; its call counter tells us how many distinct
    // contexts the query needs (the runtime's own cache dedups repeats).
    let (local_lm, local_calls) = counting_scripted(&bpe);
    let local = Runtime::new(local_lm, Arc::clone(&bpe)).run(QUERY).unwrap();
    let distinct_contexts = local_calls.load(Ordering::SeqCst);

    let (server_lm, server_calls) = counting_scripted(&bpe);
    let server = InferenceServer::spawn(server_lm, Arc::clone(&bpe)).unwrap();
    let addr = server.addr();

    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let (remote, remote_bpe) = RemoteLm::connect(addr).unwrap();
                    Runtime::new(Arc::new(remote), remote_bpe)
                        .run(QUERY)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.best().trace, local.best().trace, "client {i} trace");
        assert_eq!(
            r.best().log_prob.to_bits(),
            local.best().log_prob.to_bits(),
            "client {i} log-prob bits"
        );
    }
    // Shared cache + single-flight: four clients asking the same question
    // cost exactly one forward pass per distinct context, same as one
    // local run — regardless of thread timing.
    assert_eq!(
        server_calls.load(Ordering::SeqCst),
        distinct_contexts,
        "each distinct context must reach the model exactly once"
    );
    assert!(server.cache_stats().entries > 0, "cache retains the work");
    server.shutdown();
}

#[test]
fn remote_batch_is_bit_identical_to_local_scores() {
    let bpe = Arc::new(Bpe::char_level(""));
    let (lm, _) = counting_scripted(&bpe);
    let reference = Arc::clone(&lm);
    let server = InferenceServer::spawn(lm, Arc::clone(&bpe)).unwrap();
    let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();

    let c1 = remote_bpe.encode("Q: Where is");
    let c2 = remote_bpe.encode("");
    let c3 = remote_bpe.encode("Q: Where is Apple");
    let batch: Vec<&[TokenId]> = vec![&c1, &c2, &c3, &c1];
    let got = remote.score_batch(&batch);
    assert_eq!(got.len(), batch.len());
    for (ctx, logits) in batch.iter().zip(&got) {
        let want = reference.score(ctx);
        for (a, b) in logits.scores().iter().zip(want.scores()) {
            assert_eq!(a.to_bits(), b.to_bits(), "batched logits must be bit-exact");
        }
    }
    remote.quit();
    server.shutdown();
}

#[test]
fn second_client_hits_the_shared_prefix_cache() {
    let bpe = Arc::new(Bpe::char_level(""));
    let (lm, calls) = counting_scripted(&bpe);
    let server = InferenceServer::spawn(lm, Arc::clone(&bpe)).unwrap();

    let ctx = bpe.encode("Q: Where is Apple Computers headquartered?\nA:");
    let (a, bpe_a) = RemoteLm::connect(server.addr()).unwrap();
    let first = a.score(&ctx);
    a.quit();
    let (b, _) = RemoteLm::connect(server.addr()).unwrap();
    let second = b.score(&ctx);
    b.quit();
    drop(bpe_a);

    assert_eq!(first, second);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "one forward pass for both");
    assert!(server.cache_stats().hits >= 1);
    server.shutdown();
}

#[test]
fn out_of_range_token_ids_get_err_not_a_dead_server() {
    use std::io::{BufRead, BufReader, Write};
    let bpe = Arc::new(Bpe::char_level(""));
    let (lm, _) = counting_scripted(&bpe);
    let server = InferenceServer::spawn(lm, Arc::clone(&bpe)).unwrap();

    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();

    // An id far past the vocabulary must bounce at the protocol boundary:
    // if it reached the model it would panic the shared dispatcher and
    // hang every client from then on.
    writeln!(stream, "SCORE 1 999999").unwrap();
    stream.flush().unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR "), "got {reply:?}");
    assert!(reply.contains("out of range"), "got {reply:?}");

    reply.clear();
    writeln!(stream, "BATCH 2 1 0 1 999999").unwrap();
    stream.flush().unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR "), "got {reply:?}");

    // The scheduler is still alive: valid requests keep working.
    reply.clear();
    writeln!(stream, "SCORE 1 0").unwrap();
    stream.flush().unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("LOGITS "), "got {reply:?}");
    server.shutdown();
}

#[test]
fn idle_connections_are_dropped_after_read_timeout() {
    use std::io::Read;
    let bpe = Arc::new(Bpe::char_level(""));
    let (lm, _) = counting_scripted(&bpe);
    let server = InferenceServer::spawn_with(
        lm,
        Arc::clone(&bpe),
        ServerConfig {
            read_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Send nothing: the server must hang up on us.
    let mut buf = [0u8; 1];
    let n = stream
        .read(&mut buf)
        .expect("server should close, not stall");
    assert_eq!(n, 0, "idle connection gets EOF");
    server.shutdown();
}

#[test]
fn shutdown_drains_with_connections_still_open() {
    use std::io::{BufRead, BufReader, Read, Write};
    let bpe = Arc::new(Bpe::char_level(""));
    let (lm, _) = counting_scripted(&bpe);
    let server = InferenceServer::spawn(lm, Arc::clone(&bpe)).unwrap();

    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let ctx = bpe.encode("Q:");
    write!(stream, "SCORE {}", ctx.len()).unwrap();
    for t in &ctx {
        write!(stream, " {}", t.0).unwrap();
    }
    writeln!(stream).unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("LOGITS "), "got {reply:?}");

    // Shut down while the connection is still open: must return promptly
    // (in-flight work is drained), and the handler closes the socket on
    // its next stop-flag poll — observed here as EOF.
    server.shutdown();
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("handler closes the socket instead of stalling");
    assert!(rest.is_empty(), "no stray bytes after shutdown");
}
