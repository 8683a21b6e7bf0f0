//! Bit-identity of the batched engine path.
//!
//! The contract (and the reason the engine can exist at all): routing
//! scores through the prefix cache, single-flight map and microbatcher
//! changes *when* and *how often* the model runs, never what any query
//! observes. Every decoder — argmax, `sample(n)`, `beam(n)`, and
//! `distribute` scoring — must produce results bit-identical (f64 bit
//! patterns included) to a plain sequential [`Runtime`] over the bare
//! model, on both the scripted and the n-gram mock models.

mod common;

use common::run_concurrently;
use lmql::{QueryResult, Runtime};
use lmql_engine::{Router, RouterConfig};
use lmql_lm::{Branch, Episode, LanguageModel, NGramLm, ScriptedLm};
use lmql_tokenizer::{Bpe, BpeTrainer};
use std::sync::Arc;

/// Asserts two query results are bit-identical: traces, variables,
/// log-probabilities (as raw bits), hole records and distributions.
fn assert_bit_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(a.runs.len(), b.runs.len(), "{what}: run count");
    for (i, (ra, rb)) in a.runs.iter().zip(&b.runs).enumerate() {
        assert_eq!(ra.trace, rb.trace, "{what}: trace of run {i}");
        assert_eq!(
            ra.log_prob.to_bits(),
            rb.log_prob.to_bits(),
            "{what}: log_prob bits of run {i}"
        );
        assert_eq!(
            format!("{:?}", sorted_vars(ra)),
            format!("{:?}", sorted_vars(rb)),
            "{what}: variables of run {i}"
        );
        assert_eq!(
            ra.hole_records.len(),
            rb.hole_records.len(),
            "{what}: hole records of run {i}"
        );
    }
    match (&a.distribution, &b.distribution) {
        (None, None) => {}
        (Some(da), Some(db)) => {
            assert_eq!(da.len(), db.len(), "{what}: distribution size");
            for ((va, pa), (vb, pb)) in da.iter().zip(db) {
                assert_eq!(va, vb, "{what}: distribution value");
                assert_eq!(
                    pa.to_bits(),
                    pb.to_bits(),
                    "{what}: probability bits of {va}"
                );
            }
        }
        _ => panic!("{what}: distribution presence differs"),
    }
}

fn sorted_vars(run: &lmql::QueryRun) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = run
        .variables
        .iter()
        .map(|(k, val)| (k.clone(), format!("{val:?}")))
        .collect();
    v.sort();
    v
}

/// Runs `queries` both ways — sequentially on a plain runtime and
/// concurrently through a one-replica router — and demands bit-identical
/// results.
fn check_queries(model: Arc<dyn LanguageModel>, bpe: Arc<Bpe>, queries: &[&str], what: &str) {
    let sequential: Vec<QueryResult> = queries
        .iter()
        .map(|q| {
            Runtime::new(Arc::clone(&model), Arc::clone(&bpe))
                .run(q)
                .unwrap_or_else(|e| panic!("{what}: sequential run failed: {e}"))
        })
        .collect();

    let router = Router::new(model, bpe, RouterConfig::default());
    let batched = run_concurrently(&router, queries);
    for (i, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
        let bat = bat
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: engine run {i} failed: {e}"));
        assert_bit_identical(seq, bat, &format!("{what} (query {i})"));
    }
}

fn scripted() -> (Arc<dyn LanguageModel>, Arc<Bpe>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [
            Episode::plain("Q: hi\nA:", " hello there, friend."),
            Episode {
                trigger: "best:".to_owned(),
                script: " alpha".to_owned(),
                digressions: vec![],
                branches: vec![Branch {
                    at: 0,
                    text: " beta".to_owned(),
                    weight: 11.4,
                }],
            },
        ],
    ));
    (lm, bpe)
}

fn ngram() -> (Arc<dyn LanguageModel>, Arc<Bpe>) {
    let corpus =
        "the cat sat on the mat.\n\nthe cat ran off.\n\nthe dog sat down.\n\nthe dog ran home.";
    let bpe = Arc::new(BpeTrainer::new().merges(40).train(corpus));
    let lm = Arc::new(NGramLm::train(Arc::clone(&bpe), corpus, 3));
    (lm, bpe)
}

#[test]
fn scripted_beam_is_bit_identical() {
    let (lm, bpe) = scripted();
    let q = "beam(n=3)\n    \"Q: hi\\nA:[ANSWER]\"\nfrom \"m\"\nwhere stops_at(ANSWER, \",\")\n";
    check_queries(lm, bpe, &[q, q, q, q], "scripted beam(n=3)");
}

#[test]
fn scripted_sample_is_bit_identical() {
    let (lm, bpe) = scripted();
    let q = "sample(n=4, temperature=1.3)\n    \"Q: hi\\nA:[ANSWER]\"\nfrom \"m\"\nwhere len(ANSWER) < 12\n";
    check_queries(lm, bpe, &[q, q, q, q], "scripted sample(n=4)");
}

#[test]
fn scripted_distribute_is_bit_identical() {
    let (lm, bpe) = scripted();
    let q = "argmax\n    \"best:[CHOICE]\"\nfrom \"m\"\ndistribute CHOICE in [\" alpha\", \" beta\", \" gamma\"]\n";
    check_queries(lm, bpe, &[q, q], "scripted distribute");
}

#[test]
fn ngram_beam_is_bit_identical() {
    let (lm, bpe) = ngram();
    let q = "beam(n=3, max_length=8)\n    \"the cat[NEXT]\"\nfrom \"m\"\n";
    check_queries(lm, bpe, &[q, q, q], "ngram beam(n=3)");
}

#[test]
fn ngram_sample_is_bit_identical() {
    let (lm, bpe) = ngram();
    let q = "sample(n=3, temperature=0.9, max_length=10)\n    \"the dog[NEXT]\"\nfrom \"m\"\n";
    check_queries(lm, bpe, &[q, q, q], "ngram sample(n=3)");
}

#[test]
fn mixed_decoder_workload_is_bit_identical() {
    let (lm, bpe) = ngram();
    let beam = "beam(n=2, max_length=6)\n    \"the cat[A]\"\nfrom \"m\"\n";
    let sample = "sample(n=2, max_length=6)\n    \"the dog[B]\"\nfrom \"m\"\n";
    let greedy = "argmax(max_length=6)\n    \"the[C]\"\nfrom \"m\"\n";
    check_queries(
        lm,
        bpe,
        &[beam, sample, greedy, beam, sample],
        "mixed workload",
    );
}

/// The acceptance criterion's shape, as a deterministic test: four
/// concurrent sample queries sharing a prompt must reach the model at
/// least 2× less often than running them back to back, because the
/// engine's cache and single-flight pay for each distinct context once.
#[test]
fn shared_prompt_sample_workload_halves_dispatches() {
    let (lm, bpe) = ngram();
    let q = "sample(n=2, temperature=0.8, max_length=8)\n    \"the cat sat[TAIL]\"\nfrom \"m\"\n";
    let queries = [q, q, q, q];

    let mut sequential_dispatches = 0;
    for q in &queries {
        let rt = Runtime::new(Arc::clone(&lm), Arc::clone(&bpe));
        rt.run(q).unwrap();
        sequential_dispatches += rt.meter().snapshot().dispatches();
    }

    let router = Router::new(lm, bpe, RouterConfig::default());
    for r in run_concurrently(&router, &queries) {
        r.unwrap();
    }
    let engine_dispatches = router.stats().usage.dispatches();
    assert!(
        engine_dispatches * 2 <= sequential_dispatches,
        "expected ≥2× fewer dispatches: engine {engine_dispatches} vs sequential {sequential_dispatches}"
    );

    // A warm second wave on the same engine: every context is cached.
    for r in run_concurrently(&router, &queries) {
        r.unwrap();
    }
    assert_eq!(
        router.stats().usage.dispatches(),
        engine_dispatches,
        "a warm wave is answered entirely from the cache"
    );
}
