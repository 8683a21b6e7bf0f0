//! The `STATS` wire frame end to end: a client fetches the server's
//! metrics snapshot and sees its own requests counted — under the same
//! metric names whatever the deployment shape (`replicas` 1 and 2).

use lmql_lm::{Episode, LanguageModel, ScriptedLm};
use lmql_server::{InferenceServer, RemoteLm, ServerConfig};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

/// The deployment shapes every test covers.
const SHAPES: [usize; 2] = [1, 2];

fn spawn_scripted(replicas: usize) -> (lmql_server::ServerHandle, Arc<Bpe>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode::plain("Q:", " ok.")],
    ));
    let config = ServerConfig {
        replicas,
        ..ServerConfig::default()
    };
    let server = InferenceServer::spawn_with(lm, Arc::clone(&bpe), config).unwrap();
    (server, bpe)
}

/// Parses `counter NAME VALUE` / `gauge NAME VALUE` lines out of the
/// rendered snapshot the `STATS` frame carries.
fn metric_value(text: &str, kind: &str, name: &str) -> Option<u64> {
    let prefix = format!("{kind} {name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
}

#[test]
fn stats_frame_reports_server_and_engine_metrics() {
    for replicas in SHAPES {
        let (server, _bpe) = spawn_scripted(replicas);
        let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();

        // Generate traffic: TOKENIZER (at connect) + two SCOREs.
        let ctx = remote_bpe.encode("Q:");
        let _ = remote.score(&ctx);
        let _ = remote.score(&ctx);

        let text = remote.stats().unwrap();
        // The connection that asks is itself counted and still active.
        assert_eq!(
            metric_value(&text, "counter", "server.connections"),
            Some(1)
        );
        assert_eq!(
            metric_value(&text, "gauge", "server.connections_active"),
            Some(1)
        );
        // TOKENIZER + SCORE + SCORE answered before the STATS line itself
        // (the request counter increments after the reply is written, so the
        // in-flight STATS request is not yet included).
        assert_eq!(metric_value(&text, "counter", "server.requests"), Some(3));
        // The schedulers' metrics ride in the same registry as pool
        // totals. The two identical SCOREs route to one replica: one
        // miss (one dispatch, one model query) then one hit.
        assert_eq!(metric_value(&text, "counter", "engine.cache.hits"), Some(1));
        assert_eq!(
            metric_value(&text, "counter", "engine.cache.misses"),
            Some(1)
        );
        assert_eq!(
            metric_value(&text, "counter", "engine.batch.dispatches"),
            Some(1),
            "replicas={replicas}"
        );
        assert_eq!(
            metric_value(&text, "counter", "lm.model_queries"),
            Some(1),
            "replicas={replicas}"
        );
        assert_eq!(
            metric_value(&text, "gauge", "engine.cache.entries"),
            Some(1)
        );
        // The registry and the replicas' own caches agree.
        assert_eq!(server.cache_stats().hits, 1);
        assert_eq!(server.cache_stats().entries, 1);
        assert!(
            text.contains("histogram server.request_latency_us"),
            "latency histogram rendered: {text}"
        );
        assert!(
            text.contains("histogram engine.batch.size"),
            "engine batch histogram rendered: {text}"
        );

        remote.quit();
        server.shutdown();
    }
}

#[test]
fn stats_counts_accumulate_across_connections() {
    for replicas in SHAPES {
        let (server, _bpe) = spawn_scripted(replicas);

        let (first, bpe) = RemoteLm::connect(server.addr()).unwrap();
        let ctx = bpe.encode("Q:");
        let _ = first.score(&ctx);
        first.quit();
        drop(first);

        let (second, _) = RemoteLm::connect(server.addr()).unwrap();
        let text = second.stats().unwrap();
        assert_eq!(
            metric_value(&text, "counter", "server.connections"),
            Some(2)
        );
        // First connection: TOKENIZER + SCORE + QUIT; second: TOKENIZER.
        assert_eq!(metric_value(&text, "counter", "server.requests"), Some(4));

        // The handle's own snapshot agrees with what went over the wire; the
        // STATS request itself is counted once its reply has been written, so
        // by now the total may already include it.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("server.connections"), Some(2));
        let total = snap.counter("server.requests").unwrap();
        assert!((4..=5).contains(&total), "requests = {total}");

        second.quit();
        server.shutdown();
    }
}

#[test]
fn unknown_command_is_counted_but_not_fatal() {
    for replicas in SHAPES {
        let (server, _bpe) = spawn_scripted(replicas);
        let (remote, _) = RemoteLm::connect(server.addr()).unwrap();
        // An ERR reply must not kill the connection or skew later metrics
        // parsing: the next STATS still round-trips.
        // (RemoteLm has no raw-line API, so drive the socket directly.)
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "NONSENSE").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ERR "), "got {reply:?}");

        let text = remote.stats().unwrap();
        assert_eq!(
            metric_value(&text, "counter", "server.connections"),
            Some(2)
        );
        remote.quit();
        server.shutdown();
    }
}
