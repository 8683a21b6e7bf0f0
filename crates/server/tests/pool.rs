//! Replica-pool server acceptance: `SCORE`, `BATCH` and `STREAM` frames
//! route through the prefix-affinity [`Router`](lmql_engine::Router)
//! whatever `replicas` is — one replica is a one-replica pool — and the
//! wire results stay byte-identical to a local run, because routing
//! never changes what a query computes. Every test runs over both
//! deployment shapes.

use lmql::Runtime;
use lmql_lm::{Episode, LanguageModel, ScriptedLm};
use lmql_server::{InferenceServer, RemoteLm, ServerConfig};
use lmql_tokenizer::{Bpe, TokenId};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The deployment shapes every test covers.
const SHAPES: [usize; 2] = [1, 2];

const QUERY: &str = r#"
argmax
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

fn pooled_server(replicas: usize) -> (lmql_server::ServerHandle, Arc<Bpe>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = scripted(&bpe);
    let server = InferenceServer::spawn_with(
        lm,
        Arc::clone(&bpe),
        ServerConfig {
            replicas,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, bpe)
}

#[test]
fn pooled_scoring_frames_are_bit_identical_to_local() {
    for replicas in SHAPES {
        let (server, bpe) = pooled_server(replicas);
        let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();
        let reference = scripted(&bpe);
        for prompt in ["Q:", "Q: Where", "A: Apple"] {
            let ctx = remote_bpe.encode(prompt);
            // SCORE frame.
            let remote_logits = remote.score(&ctx);
            assert_eq!(remote_logits, reference.score(&ctx), "{prompt:?} SCORE");
        }
        // BATCH frame: one decoder step's worth of contexts in one round trip.
        let contexts: Vec<Vec<TokenId>> = ["Q:", "A:", "Q: W"]
            .iter()
            .map(|p| remote_bpe.encode(p))
            .collect();
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        let batched = remote.score_batch(&refs);
        for (ctx, got) in refs.iter().zip(&batched) {
            assert_eq!(*got, reference.score(ctx), "BATCH item diverged");
        }
        // SCORE and BATCH frames agree with each other, bit for bit.
        lmql_lm::testing::assert_scoring_consistent(&remote, &refs);
        server.shutdown();
    }
}

/// A `BATCH` frame reaches each replica's scheduler as one submission,
/// so k cold contexts cost one model dispatch per replica they shard
/// over — not one per context. This holds by construction, not by a wait
/// window: a submission is enqueued whole under one hold of the scheduler
/// lock, so the dispatcher can never see (and fire on) part of it.
#[test]
fn batch_frame_is_one_dispatch_per_replica() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let server = InferenceServer::spawn_with(
            scripted(&bpe),
            Arc::clone(&bpe),
            ServerConfig {
                replicas,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();
        let contexts: Vec<Vec<TokenId>> = (0..8)
            .map(|i| remote_bpe.encode(&format!("cold context {i}")))
            .collect();
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        assert_eq!(remote.score_batch(&refs).len(), refs.len());
        let dispatches = server
            .metrics_snapshot()
            .counter("engine.batch.dispatches")
            .expect("scheduler metrics are in STATS for every shape");
        assert!(
            (1..=replicas as u64).contains(&dispatches),
            "replicas={replicas}: {dispatches} dispatches for one BATCH frame"
        );
        server.shutdown();
    }
}

#[test]
fn pooled_stream_frame_matches_local_run() {
    for replicas in SHAPES {
        let (server, bpe) = pooled_server(replicas);
        let (remote, _bpe) = RemoteLm::connect(server.addr()).unwrap();
        let local_rt = Runtime::new(scripted(&bpe) as Arc<dyn LanguageModel>, Arc::clone(&bpe));
        let local = local_rt.run(QUERY).unwrap();
        let rebuilt = remote
            .stream_query(QUERY, TIMEOUT)
            .unwrap()
            .into_result()
            .unwrap();
        assert!(rebuilt.error.is_none());
        assert_eq!(rebuilt.runs.len(), local.runs.len());
        for (got, want) in rebuilt.runs.iter().zip(&local.runs) {
            assert_eq!(got.trace, want.trace);
            assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());
        }
        // The `Usage` event carries the query's own §6 counters, which
        // do not depend on where it ran.
        let usage = local_rt.meter().snapshot();
        assert_eq!(
            rebuilt.usage,
            Some((
                usage.model_queries,
                usage.decoder_calls,
                usage.billable_tokens
            )),
            "replicas={replicas}"
        );
        // The pool actually served it: router metrics are in the snapshot.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("router.queries"), Some(1));
        server.shutdown();
    }
}

#[test]
fn admission_cap_passes_one_frame_at_a_time() {
    for replicas in SHAPES {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = scripted(&bpe);
        let server = InferenceServer::spawn_with(
            lm,
            Arc::clone(&bpe),
            ServerConfig {
                replicas,
                max_inflight: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // One frame at a time is fine (the cap is on *concurrent* frames).
        let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();
        let ctx = remote_bpe.encode("Q:");
        let reference = scripted(&bpe);
        assert_eq!(remote.score(&ctx), reference.score(&ctx));
        assert_eq!(server.metrics_snapshot().counter("router.shed"), Some(0));
        server.shutdown();
    }
}
