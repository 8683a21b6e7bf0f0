//! The served path without its two fixed waits: the acceptor blocks in
//! `accept` and is woken for shutdown by a self-connect (never a hang,
//! never a phantom connection), and the scheduler fires at once for a lone
//! client while concurrent clients still share dispatches. Counts only —
//! no assertion here reads a clock, and the 5 s bounds guard against a
//! hang, not a speed. The stream tests run over both deployment shapes.

use lmql::Runtime;
use lmql_lm::{Episode, LanguageModel, LmResult, Logits, ScriptedLm};
use lmql_obs::Registry;
use lmql_server::{InferenceServer, RemoteLm, ServerConfig, ServerHandle};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The deployment shapes the stream tests cover.
const SHAPES: [usize; 2] = [1, 2];

/// A model with a fixed forward pass per call, however many contexts
/// the call carries, counting the contexts that reach it.
struct SteadyLm {
    inner: ScriptedLm,
    forward: Duration,
    contexts: Arc<AtomicU64>,
}

impl LanguageModel for SteadyLm {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.contexts
            .fetch_add(contexts.len() as u64, Ordering::SeqCst);
        std::thread::sleep(self.forward);
        self.inner.try_score_batch(contexts)
    }
}

/// Answers every question the same way; the questions differ, so every
/// query scores its own contexts.
fn scripted(bpe: &Arc<Bpe>) -> ScriptedLm {
    ScriptedLm::new(
        Arc::clone(bpe),
        [Episode::plain("\nA:", " It is in Cupertino. And more.")],
    )
}

/// Distinct questions that share their first 32 tokens, so prefix
/// affinity sends all of them to one replica whatever the pool size.
fn query(i: usize) -> String {
    format!(
        "argmax\n    \"Q: Where is Apple Computers headquartered, asks visitor {i}?\\nA:[ANSWER]\"\n\
         from \"remote-model\"\nwhere stops_at(ANSWER, \".\")\n"
    )
}

fn serve(forward: Duration, replicas: usize) -> (ServerHandle, Arc<Bpe>, Arc<AtomicU64>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let contexts = Arc::new(AtomicU64::new(0));
    let lm = SteadyLm {
        inner: scripted(&bpe),
        forward,
        contexts: Arc::clone(&contexts),
    };
    let config = ServerConfig {
        replicas,
        ..ServerConfig::default()
    };
    let server = InferenceServer::spawn_with(Arc::new(lm), Arc::clone(&bpe), config).unwrap();
    (server, bpe, contexts)
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.snapshot().counter(name).unwrap_or(0)
}

/// Runs `f` on its own thread and fails if it has not returned in 5 s.
fn returns(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    wait.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what} did not return"));
}

#[test]
fn idle_server_stops_on_shutdown_and_on_drop() {
    // `shutdown` consumes the handle, so its `Drop` stops the server a
    // second time: every `shutdown()` is also the idempotence check.
    let (server, ..) = serve(Duration::ZERO, 1);
    let registry = server.registry().clone();
    returns("shutdown of an idle server", move || server.shutdown());
    assert_eq!(counter(&registry, "server.connections"), 0);

    let (server, ..) = serve(Duration::ZERO, 2);
    let registry = server.registry().clone();
    returns("drop of an idle server", move || drop(server));
    assert_eq!(counter(&registry, "server.connections"), 0);
}

#[test]
fn shutdown_wake_is_not_a_client() {
    let (server, ..) = serve(Duration::ZERO, 1);
    let registry = server.registry().clone();
    // One real client: connected, served once, then left idle.
    let (remote, bpe) = RemoteLm::connect(server.addr()).unwrap();
    remote.score(&bpe.encode("Q:"));
    returns("shutdown with an idle client connected", move || {
        server.shutdown()
    });
    assert_eq!(counter(&registry, "server.connections"), 1);
    assert_eq!(counter(&registry, "server.shed"), 0);
    assert_eq!(counter(&registry, "server.accept_errors"), 0);
}

#[test]
fn concurrent_streams_share_dispatches_and_decode_the_same_bytes() {
    for replicas in SHAPES {
        let (server, bpe, contexts) = serve(Duration::from_millis(2), replicas);
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();
        let start = Barrier::new(2);
        let results: Vec<_> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..2)
                .map(|i| {
                    let (remote, start) = (&remote, &start);
                    s.spawn(move || {
                        start.wait();
                        let stream = remote.stream_query(&query(i), TIMEOUT).unwrap();
                        stream.into_result().unwrap()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (i, rebuilt) in results.iter().enumerate() {
            let lm: Arc<dyn LanguageModel> = Arc::new(scripted(&bpe));
            let local = Runtime::new(lm, Arc::clone(&bpe)).run(&query(i)).unwrap();
            assert!(rebuilt.error.is_none());
            assert_eq!(rebuilt.runs.len(), local.runs.len());
            for (got, want) in rebuilt.runs.iter().zip(&local.runs) {
                assert_eq!(got.trace, want.trace, "replicas={replicas} client {i}");
                assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());
            }
        }
        let dispatches = counter(server.registry(), "engine.batch.dispatches");
        let reached = contexts.load(Ordering::SeqCst);
        assert!(
            dispatches < reached,
            "replicas={replicas}: no batch formed — {dispatches} dispatches for {reached} contexts"
        );
        server.shutdown();
    }
}

#[test]
fn lone_client_is_held_at_most_once_per_query() {
    const QUERIES: usize = 20;
    for replicas in SHAPES {
        let (server, ..) = serve(Duration::ZERO, replicas);
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();
        for i in 0..QUERIES {
            let rebuilt = remote.stream_query(&query(i), TIMEOUT).unwrap();
            assert!(rebuilt.into_result().unwrap().error.is_none());
        }
        // Within a query the only caller the dispatcher could wait for is
        // the one submitting. Across queries each `STREAM` arrives on a
        // new connection thread, so the first step of a query may be held
        // for the previous query's thread — once, and never after that.
        let holds = counter(server.registry(), "engine.batch.holds");
        let dispatches = counter(server.registry(), "engine.batch.dispatches");
        assert!(dispatches > QUERIES as u64, "every query decodes");
        assert!(
            holds <= QUERIES as u64,
            "replicas={replicas}: {holds} holds over {QUERIES} queries ({dispatches} dispatches)"
        );
        server.shutdown();
    }
}
