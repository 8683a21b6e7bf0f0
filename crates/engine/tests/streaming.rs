//! Streaming acceptance: [`Router::stream_query`] delivers the same
//! bytes as [`Router::run_query`], and abandoning a stream frees
//! its scheduler work — the cancelled query's queued score request is
//! released at dispatch (the `engine.cancelled` counter) instead of
//! reaching the model, while unrelated queries keep decoding.

use lmql::{QueryEvent, Reassembler, Runtime};
use lmql_engine::{QueryStream, Router, RouterConfig, RouterObs};
use lmql_lm::{corpus, LanguageModel, LmResult, Logits};
use lmql_obs::{Registry, Tracer};
use lmql_tokenizer::{Bpe, TokenId, Vocabulary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const QA: &str = "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n";
const QB: &str =
    "argmax\n    \"The name of the largest ocean is[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
const SAMPLE: &str = "sample(n=2, temperature=1.2)\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n";
const BEAM: &str = "beam(n=2)\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n";

fn ngram_router() -> Router {
    Router::new(
        corpus::standard_ngram(),
        corpus::standard_bpe(),
        RouterConfig::default(),
    )
}

#[test]
fn streamed_results_match_pooled_results() {
    let eng = ngram_router();
    for query in [QA, SAMPLE, BEAM] {
        let pooled = eng.run_query(query);
        let pooled = pooled.as_ref().expect("pooled run");

        let stream = eng.stream_query(query);
        let events: Vec<QueryEvent> = stream.events().collect();
        let streamed = stream.wait().expect("streamed run");

        assert_eq!(streamed.runs.len(), pooled.runs.len());
        for (a, b) in streamed.runs.iter().zip(&pooled.runs) {
            assert_eq!(a.trace, b.trace, "trace diverged on {query:?}");
            assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
        }

        // The event stream alone reassembles to the same bytes.
        let rebuilt = Reassembler::from_events(&events).expect("reassembly");
        assert_eq!(rebuilt.runs.len(), pooled.runs.len());
        for (got, want) in rebuilt.runs.iter().zip(&pooled.runs) {
            assert_eq!(got.trace, want.trace);
            assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());
        }
        assert!(matches!(events.last(), Some(QueryEvent::Done { .. })));
    }
}

/// A model whose `score` blocks until the test opens the gate — lets the
/// test pin a query inside the dispatcher while another query's work
/// sits queued behind it.
struct GatedLm {
    inner: Arc<dyn LanguageModel>,
    open: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
}

impl GatedLm {
    fn new(inner: Arc<dyn LanguageModel>) -> Arc<Self> {
        Arc::new(GatedLm {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered: AtomicUsize::new(0),
        })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Blocks until at least one scoring call has entered the model.
    fn wait_entered(&self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.entered.load(Ordering::Acquire) == 0 {
            assert!(Instant::now() < deadline, "model was never entered");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl LanguageModel for GatedLm {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        self.entered.fetch_add(1, Ordering::AcqRel);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.inner.try_score_batch(contexts)
    }
}

fn gated_router() -> (Router, Arc<GatedLm>, Registry) {
    let gate = GatedLm::new(corpus::standard_ngram());
    let registry = Registry::new();
    let eng = Router::new_with_obs(
        Arc::clone(&gate) as Arc<dyn LanguageModel>,
        corpus::standard_bpe(),
        RouterConfig::default(),
        RouterObs {
            tracer: Tracer::disabled(),
            registry: Some(registry.clone()),
        },
    );
    (eng, gate, registry)
}

fn poll_counter(registry: &Registry, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = registry.snapshot().counter(name).unwrap_or(0);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn dropped_stream_releases_its_scheduler_slot() {
    let (eng, gate, registry) = gated_router();

    // Query A enters the model and blocks there, occupying the
    // dispatcher.
    let stream_a = eng.stream_query(QA);
    gate.wait_entered();

    // Query B's first score request now sits queued behind A (observed
    // via the per-request engine.cache.misses counter).
    let stream_b = eng.stream_query(QB);
    assert!(
        poll_counter(&registry, "engine.cache.misses", 2) >= 2,
        "query B never submitted its score request"
    );

    // Dropping the handle abandons B: its queued work must be released
    // at dispatch — never scoring — and A must be undisturbed.
    drop(stream_b);
    gate.release();

    let result_a = stream_a.wait().expect("query A completes");
    let direct = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe())
        .run(QA)
        .expect("direct run");
    assert_eq!(result_a.best().trace, direct.best().trace);
    assert_eq!(
        result_a.best().log_prob.to_bits(),
        direct.best().log_prob.to_bits()
    );

    assert_eq!(
        poll_counter(&registry, "engine.cancelled", 1),
        1,
        "abandoned queued request was not released at dispatch"
    );
    assert_eq!(
        poll_counter(&registry, "stream.cancelled", 1),
        1,
        "cancelled stream worker did not record its cancellation"
    );
}

#[test]
fn explicit_cancel_yields_cancelled_error() {
    let (eng, gate, _registry) = gated_router();

    let stream = eng.stream_query(QA);
    gate.wait_entered();
    stream.cancel();
    assert!(stream.is_cancelled());

    // The waiter gives up with Cancelled even while the model is still
    // blocked — cancellation never waits on the backend.
    let result = stream.wait();
    assert!(
        matches!(result, Err(lmql::Error::Cancelled)),
        "expected Err(Cancelled), got {result:?}"
    );
    gate.release();
}

#[test]
fn concurrent_streams_interleave_without_crosstalk() {
    let eng = ngram_router();
    let streams: Vec<QueryStream> = [QA, QB].map(|q| eng.stream_query(q)).into();
    let mut results = Vec::new();
    for stream in streams {
        let events: Vec<QueryEvent> = stream.events().collect();
        let rebuilt = Reassembler::from_events(&events).expect("reassembly");
        results.push((rebuilt, stream.wait().expect("stream run")));
    }
    for (rebuilt, direct) in &results {
        assert_eq!(rebuilt.runs[0].trace, direct.best().trace);
    }
    assert!(results[0].1.best().trace.contains("travelling"));
    assert!(results[1].1.best().trace.contains("ocean"));
}

#[test]
fn dropped_stream_cancels_its_subquery_tree() {
    // Regression: dropping a QueryStream must cancel not just the root
    // query but every subquery it spawned. The child's script is long
    // enough (600 chars at 5ms injected stall per call ≈ 3s) that it
    // cannot finish inside the poll window — the cancellation counter
    // firing proves the Drop reached down the tree.
    // The child source, pre-escaped for embedding in an LMQL string
    // literal.
    let child_src = r#"argmax\n    \"S:[B]\"\nfrom \"m\"\nwhere stops_at(B, \"!\")\n"#;
    let root_src = format!(
        "argmax\n    \"Q:[A]\"\n    sub = subquery(\"{child_src}\")\n    \"y{{sub}}\"\nfrom \"m\"\nwhere stops_at(A, \"\\n\")\n"
    );
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(lmql_lm::ScriptedLm::new(
        Arc::clone(&bpe),
        vec![
            lmql_lm::Episode::plain("Q:", " hi\n"),
            lmql_lm::Episode::plain("S:", format!("{}!", " x".repeat(300))),
        ],
    ));
    let chaos = Arc::new(lmql_lm::ChaosLm::new(
        lm,
        lmql_lm::FaultPlan {
            seed: 9,
            latency_rate: 1.0,
            latency: Duration::from_millis(5),
            ..lmql_lm::FaultPlan::default()
        },
    ));
    let registry = Registry::new();
    let eng = Router::new_with_obs(
        chaos,
        bpe,
        RouterConfig::default(),
        RouterObs {
            tracer: Tracer::disabled(),
            registry: Some(registry.clone()),
        },
    );

    let stream = eng.stream_query(&root_src);
    while let Some(event) = stream.next_event() {
        if matches!(event, QueryEvent::SubqueryStart { .. }) {
            break;
        }
    }
    drop(stream);

    assert!(
        poll_counter(&registry, "engine.subquery.cancelled", 1) >= 1,
        "dropping the stream must cancel the in-flight subquery"
    );
    assert_eq!(
        poll_counter(&registry, "stream.cancelled", 1),
        1,
        "the root stream worker records its cancellation"
    );
}

/// Sanity for `lmql_tokenizer::Bpe` linkage in this test crate: routed
/// raw scoring answers over the tokenizer's whole vocabulary.
#[test]
fn engine_exposes_consistent_vocab() {
    let bpe: Arc<Bpe> = corpus::standard_bpe();
    let eng = Router::new(
        corpus::standard_ngram(),
        Arc::clone(&bpe),
        RouterConfig::default(),
    );
    let logits = eng.try_score(&bpe.encode("A list")).unwrap();
    assert_eq!(logits.len(), bpe.vocab().len());
}
