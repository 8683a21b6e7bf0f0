//! Fault-tolerance integration tests: the server misbehaves on purpose
//! (deterministically, by request ordinal) and the client must recover —
//! reconnecting, retrying, and ending up with bit-identical logits.
//!
//! Request ordinals are global and 1-based; the `TOKENIZER` handshake of
//! the first client is always ordinal 1, so the first `SCORE` is 2.

use lmql_lm::{FaultKind, LanguageModel, LmError, LmResult, Logits, RetryPolicy, UniformLm};
use lmql_server::{
    FaultHook, InferenceServer, RemoteClientConfig, RemoteLm, ServerConfig, ServerHandle,
};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_client() -> RemoteClientConfig {
    RemoteClientConfig {
        retry: RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter: 0.0,
            seed: 0,
            deadline: None,
        },
        read_timeout: Duration::from_millis(80),
        breaker: None,
    }
}

fn spawn_uniform(config: ServerConfig) -> (ServerHandle, Arc<UniformLm>, Arc<Bpe>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(UniformLm::new(Arc::clone(&bpe)));
    let server = InferenceServer::spawn_with(lm.clone(), Arc::clone(&bpe), config).unwrap();
    (server, lm, bpe)
}

/// Polls until the server's active-connection gauge drains to `want`
/// (handler threads exit asynchronously after a connection closes).
fn wait_for_active(server: &ServerHandle, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let active = server
            .metrics_snapshot()
            .gauge("server.connections_active")
            .unwrap();
        if active == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connections_active stuck at {active}, want {want} — leaked connection counter"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn kill_mid_request_reconnects_and_succeeds() {
    let (server, lm, _bpe) = spawn_uniform(ServerConfig {
        faults: FaultHook {
            drop_on_requests: vec![2], // first SCORE after the handshake
            ..FaultHook::default()
        },
        ..ServerConfig::default()
    });
    let (remote, _) = RemoteLm::connect_with(server.addr(), fast_client()).unwrap();
    let ctx = [TokenId(1), TokenId(2)];
    let logits = remote.try_score(&ctx).expect("retry must recover");
    assert_eq!(logits, lm.score(&ctx), "recovered reply is bit-identical");
    assert_eq!(remote.reconnects(), 1, "exactly one re-dial");
    assert!(remote.metrics().retries.get() >= 1);

    // No leaked connection accounting: once the client quits, the gauge
    // must drain to zero.
    remote.quit();
    wait_for_active(&server, 0);
    assert_eq!(
        server.metrics_snapshot().counter("server.faults_injected"),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn stalled_reply_times_out_and_retry_succeeds() {
    let (server, lm, _bpe) = spawn_uniform(ServerConfig {
        faults: FaultHook {
            stall: Duration::from_millis(400),
            stall_on_requests: vec![2],
            ..FaultHook::default()
        },
        ..ServerConfig::default()
    });
    let (remote, _) = RemoteLm::connect_with(server.addr(), fast_client()).unwrap();
    let ctx = [TokenId(3)];
    let start = Instant::now();
    let logits = remote.try_score(&ctx).expect("timeout then retry");
    assert_eq!(logits, lm.score(&ctx));
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "client timed out at its own read_timeout, not the stall length"
    );
    assert!(remote.metrics().retries.get() >= 1);
    assert_eq!(remote.reconnects(), 1, "timed-out stream is not reusable");
    server.shutdown();
}

#[test]
fn garbled_reply_is_retried_on_a_fresh_connection() {
    let (server, lm, _bpe) = spawn_uniform(ServerConfig {
        faults: FaultHook {
            garble_on_requests: vec![2],
            ..FaultHook::default()
        },
        ..ServerConfig::default()
    });
    let (remote, _) = RemoteLm::connect_with(server.addr(), fast_client()).unwrap();
    let ctx = [TokenId(4), TokenId(5)];
    let logits = remote.try_score(&ctx).expect("garble then retry");
    assert_eq!(logits, lm.score(&ctx));
    assert!(remote.metrics().faults.get() >= 1);
    assert_eq!(
        remote.reconnects(),
        1,
        "a garbled stream is desynced and must be re-dialled"
    );
    server.shutdown();
}

#[test]
fn busy_shed_turns_extra_clients_away() {
    let (server, _lm, _bpe) = spawn_uniform(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    // First client occupies the only slot (its handshake proves the
    // server registered the connection).
    let (first, _) = RemoteLm::connect_with(server.addr(), fast_client()).unwrap();
    // Second client is shed with the typed BUSY frame at the handshake.
    let err = RemoteLm::connect_with(server.addr(), fast_client()).unwrap_err();
    assert!(err.to_string().contains("busy"), "got: {err}");
    assert_eq!(server.metrics_snapshot().counter("server.shed"), Some(1));

    // Once the first client leaves, the slot frees up and a new client
    // is served again.
    first.quit();
    wait_for_active(&server, 0);
    let (third, _) = RemoteLm::connect_with(server.addr(), fast_client()).unwrap();
    assert!(third.try_score(&[TokenId(1)]).is_ok());
    server.shutdown();
}

/// A model that fails the first `n` contexts it is asked to score with a
/// transient error, then behaves like [`UniformLm`].
#[derive(Debug)]
struct FlakyUniform {
    inner: UniformLm,
    calls: AtomicU64,
    fail_first: u64,
}

impl LanguageModel for FlakyUniform {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let one = |context: &&[TokenId]| {
            if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
                return Err(LmError::transient(FaultKind::Injected, "flaky backend"));
            }
            self.inner.try_score(context)
        };
        contexts.iter().map(one).collect()
    }
}

#[test]
fn server_side_model_fault_becomes_retry_frame() {
    let bpe = Arc::new(Bpe::char_level(""));
    // Two consecutive faults. With RetryPolicy::none() the scheduler
    // makes one attempt per request, so each fault reaches the wire as a
    // RETRY frame; the client's retries re-send the request until the
    // third send succeeds.
    let lm = Arc::new(FlakyUniform {
        inner: UniformLm::new(Arc::clone(&bpe)),
        calls: AtomicU64::new(0),
        fail_first: 2,
    });
    let server = InferenceServer::spawn_with(
        lm.clone(),
        Arc::clone(&bpe),
        ServerConfig {
            retry: RetryPolicy::none(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (remote, _) = RemoteLm::connect_with(server.addr(), fast_client()).unwrap();
    let ctx = [TokenId(2)];
    let logits = remote.try_score(&ctx).expect("client retry absorbs it");
    assert_eq!(logits, lm.inner.score(&ctx));
    assert!(remote.metrics().retries.get() >= 1);
    assert_eq!(
        remote.reconnects(),
        0,
        "a RETRY frame leaves the connection synced — no re-dial"
    );
    server.shutdown();
}
