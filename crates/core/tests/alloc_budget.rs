//! Allocation-budget regression tests for the zero-copy data plane
//! (DESIGN.md §13): a counting global allocator pins the costs the rope
//! trace, pooled mask scratch and in-place softmax bought — forking a
//! hypothesis never copies the trace, the steady-state decode loop stays
//! within a hard allocations-per-step budget, and a compiled-automaton
//! mask step costs one set copy. This is the repo's one counting
//! allocator: allocation counts are pinned here, never timed.
//!
//! Allocations are counted per thread (a `const`-initialised thread-local
//! inside the allocator shim), so a measurement sees exactly what its own
//! test thread allocated — the harness running other tests in parallel
//! cannot inflate it.

use lmql::constraints::{MaskConfig, MaskEngine, Masker};
use lmql::{compile_source, decode_hole, DecodeOptions, Externals, Pick, Runtime, Step, VmState};
use lmql_arena::Rope;
use lmql_lm::{
    corpus, CachedLm, LanguageModel, LmResult, Logits, RadixCache, RadixCacheConfig, UniformLm,
};
use lmql_tokenizer::{Bpe, TokenContext, TokenId, Vocabulary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// `const`-initialised and without a destructor: touching it from
    /// inside the allocator never allocates and never re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations (a `realloc` counts its new
    /// size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least [`LARGE_MIN`] bytes.
    static LARGE: Cell<u64> = const { Cell::new(0) };
    /// The size from which an allocation counts as large (off: `MAX`).
    static LARGE_MIN: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn bump(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    if LARGE_MIN.try_with(Cell::get).is_ok_and(|min| bytes >= min) {
        let _ = LARGE.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on the calling thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    count_allocs_and_bytes(f).0
}

/// Allocations made by `f` on the calling thread, and the bytes they
/// requested.
fn count_allocs_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let start = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - start.0,
        BYTES.with(Cell::get) - start.1,
    )
}

/// Allocations of at least `min_bytes` made by `f` on the calling thread.
fn count_large_allocs(min_bytes: usize, f: impl FnOnce()) -> u64 {
    LARGE_MIN.with(|c| c.set(min_bytes));
    let start = LARGE.with(Cell::get);
    f();
    LARGE_MIN.with(|c| c.set(usize::MAX));
    LARGE.with(Cell::get) - start
}

/// A finished `VmState` whose trace is one emitted literal of `chars`
/// characters — no holes, no locals, so two states of different trace
/// length are structurally identical apart from the trace.
fn vm_with_trace(chars: usize) -> VmState {
    let literal = "x".repeat(chars);
    let source = format!("argmax\n    \"{literal}\"\nfrom \"m\"\n");
    let program = compile_source(&source).expect("literal-only query compiles");
    let externals = Externals::new();
    let mut vm = VmState::new([]);
    assert_eq!(vm.run(&program, &externals).unwrap(), Step::Done);
    assert_eq!(vm.trace().len(), chars);
    vm
}

#[test]
fn rope_clone_allocates_nothing() {
    let mut rope = Rope::new();
    for i in 0..100 {
        rope.push_str(&format!("chunk {i} of the interaction trace. "));
    }
    let allocs = count_allocs(|| {
        let fork = rope.clone();
        std::hint::black_box(&fork);
    });
    assert_eq!(allocs, 0, "Rope::clone must be a refcount bump");
}

#[test]
fn beam_fork_makes_zero_trace_copy_allocations() {
    // A beam fork is a `VmState::clone`. With the rope trace, forking a
    // width-8 beam costs the same number of allocations whether the
    // shared trace is 3 chars or 10k chars — and for a hole-free state,
    // exactly zero.
    let small = vm_with_trace(3);
    let large = vm_with_trace(10_000);
    let mut beam: Vec<VmState> = Vec::with_capacity(8);
    let mut fork_allocs = |vm: &VmState| {
        count_allocs(|| {
            for _ in 0..8 {
                beam.push(vm.clone());
            }
            std::hint::black_box(&beam);
            beam.clear();
        })
    };
    let small_allocs = fork_allocs(&small);
    let large_allocs = fork_allocs(&large);
    assert_eq!(
        small_allocs, large_allocs,
        "fork cost must be independent of trace length"
    );
    assert_eq!(
        large_allocs, 0,
        "forking a width-8 beam must not copy the 10k-char trace"
    );
}

#[test]
fn logits_clone_allocates_nothing() {
    let vocab = corpus::standard_bpe().vocab().len();
    let logits = Logits::constant(vocab, -1.5);
    let allocs = count_allocs(|| {
        let copy = logits.clone();
        std::hint::black_box(&copy);
    });
    assert_eq!(allocs, 0, "Logits::clone must be a refcount bump");
}

#[test]
fn warm_radix_hit_allocates_nothing() {
    let vocab = corpus::standard_bpe().vocab().len();
    let mut cache = RadixCache::new(RadixCacheConfig::default());
    let key: Vec<TokenId> = (0..600).map(TokenId).collect();
    cache.insert(&key, Logits::constant(vocab, 0.25));
    let _ = cache.get(&key);
    let allocs = count_allocs(|| {
        let hit = cache.get(&key);
        assert!(hit.is_some());
        std::hint::black_box(&hit);
    });
    assert_eq!(allocs, 0, "a warm radix hit must not copy the logits");
}

#[test]
fn cached_lm_decode_step_cost_is_independent_of_context_length() {
    // A decode step asks for the previous context plus one token: a miss
    // whose store adds one node with a one-token edge to the run's score
    // cache. It allocates the same, in count and in bytes, whether the
    // context is 100 tokens or 10 000.
    let bpe = corpus::standard_bpe();
    let vocab = bpe.vocab().len() as u32;
    let step = |context_tokens: u32| {
        let lm = CachedLm::new(UniformLm::new(bpe.clone()));
        let mut context: Vec<TokenId> = (0..context_tokens).map(|i| TokenId(i % vocab)).collect();
        let _ = lm.score(&context);
        context.push(TokenId(1));
        let cost = count_allocs_and_bytes(|| {
            std::hint::black_box(lm.score(&context));
        });
        assert_eq!((lm.misses(), lm.len()), (2, 2));
        cost
    };
    let short = step(100);
    let long = step(10_000);
    assert_eq!(
        short, long,
        "a decode step's (allocations, bytes) must not grow with the context"
    );
}

#[test]
fn decode_steady_state_stays_within_alloc_budget() {
    // Marginal allocations per decode step, isolated from per-hole setup
    // by differencing a short and a long run of the same workload: with
    // pooled mask outcomes, in-place softmax into reused scratch and the
    // rope trace, the loop body allocates only what the model call
    // returns — the logits buffer (the models collect their scores
    // straight into it, one allocation) and the one-element result
    // vector of `try_score_batch` — under argmax and sampling alike. Counting is per
    // thread, so this is the observed value, not a ceiling with slack.
    const BUDGET_ALLOCS_PER_STEP: u64 = 2;
    let bpe = corpus::standard_bpe();
    let lm = corpus::standard_ngram();
    // `len(X) > 2000` keeps EOS inadmissible, so every run decodes to its
    // token cap and the two runs differ by exactly the steady-state steps.
    let expr = lmql_syntax::parse_expr("not \"\\n\" in X and len(X) > 2000").unwrap();
    let scope = HashMap::new();
    let mut masker = Masker::new(MaskEngine::default(), bpe.clone());

    let mut run = |max_tokens: usize, mut pick: Pick| -> (u64, u64) {
        let options = DecodeOptions {
            max_tokens_per_hole: max_tokens,
            ..DecodeOptions::default()
        };
        let mut tokens = 0u64;
        let mut context = TokenContext::new();
        context.append(&bpe, "The little prince said: ");
        let allocs = count_allocs(|| {
            let out = decode_hole(
                lm.as_ref(),
                &bpe,
                &mut masker,
                Some(&expr),
                &scope,
                &mut context,
                "X",
                &mut pick,
                &options,
            )
            .expect("decode succeeds");
            tokens = out.tokens as u64;
        });
        (allocs, tokens)
    };

    // A fresh, equally seeded pick per run makes the short run a prefix
    // of the long one, so sampling visits no state the warm-up missed.
    let picks: [fn() -> Pick; 2] = [Pick::argmax, || Pick::sample(7)];
    for pick in picks {
        // Warm-up over the longest run: automaton compilation, first-visit
        // state discovery, scan caches, pool population.
        let _ = run(80, pick());
        let (short_allocs, short_tokens) = run(16, pick());
        let (long_allocs, long_tokens) = run(80, pick());
        assert!(
            long_tokens > short_tokens,
            "workload must keep decoding ({short_tokens} vs {long_tokens} tokens)"
        );
        let steps = long_tokens - short_tokens;
        let marginal = long_allocs.saturating_sub(short_allocs);
        let per_step = marginal / steps;
        assert!(
            per_step <= BUDGET_ALLOCS_PER_STEP,
            "decode loop allocates {per_step} allocs/step \
             ({marginal} allocs over {steps} steps), budget {BUDGET_ALLOCS_PER_STEP}"
        );
    }
}

/// A model that answers every context with the same shared score
/// vector, so scoring costs a refcount bump and a step's allocation
/// count holds none of the model's own buffers.
struct SharedLogitsLm {
    bpe: Arc<Bpe>,
    logits: Logits,
}

impl LanguageModel for SharedLogitsLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        contexts.iter().map(|_| Ok(self.logits.clone())).collect()
    }
}

#[test]
fn warm_beam_step_renormalises_in_place() {
    // Marginal vocabulary-sized allocations per `beam(n=1)` step, from
    // the difference of a short and a long run of the same query: the
    // softmax and the masked renormalisation reuse one per-search
    // scratch distribution, as in `decode_hole`, so the two left are
    // `Distribution::top_k`'s: the index vector it sorts and the stable
    // sort's scratch buffer.
    const VOCAB_SIZED_PER_STEP: u64 = 2;
    let bpe = corpus::standard_bpe();
    let vocab = bpe.vocab().len();
    let lm = Arc::new(SharedLogitsLm {
        bpe: bpe.clone(),
        logits: Logits::constant(vocab, 0.0),
    });
    let rt = Runtime::new(lm, bpe);
    // `len(X) > 2000` keeps EOS inadmissible, so every run decodes to its
    // token cap and the two runs differ by exactly the steady-state steps.
    let run = |max_length: usize| {
        let source = format!(
            "beam(n=1, max_length={max_length})\n    \"The little prince said: [X]\"\n\
             from \"m\"\nwhere not \"\\n\" in X and len(X) > 2000\n"
        );
        count_large_allocs(vocab * std::mem::size_of::<f64>(), || {
            let result = rt.run(&source).expect("beam search succeeds");
            std::hint::black_box(result);
        })
    };
    // Warm-up over the longest run: automaton compilation, first-visit
    // state discovery, scan caches, pool population.
    let _ = run(80);
    let short = run(16);
    let long = run(80);
    let per_step = long.saturating_sub(short) / 64;
    assert_eq!(
        per_step, VOCAB_SIZED_PER_STEP,
        "a warm beam step makes {per_step} vocabulary-sized allocations \
         ({short} over 16 steps, {long} over 80)"
    );
}

#[test]
fn automata_mask_of_an_advancing_value_allocates_one_set_per_step() {
    // Every step's value is new, so nothing is memoised: the compiled
    // automaton maps it onto a known state and the step costs one copy of
    // that state's cached mask, whichever engine backs the fallback.
    let bpe = corpus::standard_bpe();
    let expr =
        lmql_syntax::parse_expr("not \"\\n\" in X and stops_at(X, \".\") and len(words(X)) < 40")
            .unwrap();
    let scope = HashMap::new();
    for engine in [MaskEngine::Exact, MaskEngine::Symbolic] {
        let mut masker = Masker::new(engine, bpe.clone());
        let mut step = |i: usize| {
            let value = format!("some reasoning text so far {i}");
            count_allocs(|| {
                std::hint::black_box(masker.compute(Some(&expr), &scope, "X", &value));
            })
        };
        // Warm-up: automaton compilation and state discovery.
        for i in 0..3 {
            step(i);
        }
        let most = (3..67).map(&mut step).max().unwrap();
        assert!(most <= 1, "{engine:?}: a step allocated {most} times");
    }
}

#[test]
fn router_prefix_fingerprint_allocates_nothing_when_warm() {
    // The front-end router derives its affinity key by fingerprinting
    // the tokenized prompt prefix (DESIGN.md §15). The streaming chunk
    // iterator borrows the prompt and the fingerprint folds token ids
    // straight out of the BPE chunk cache, so once the cache has seen
    // the chunks of a prompt, routing a query allocates nothing.
    let bpe = corpus::standard_bpe();
    let prompt = "Q: The little prince asked about the fox and the rose. A:";
    // Warm the chunk cache (first sight of each chunk encodes + caches).
    let cold = bpe.prefix_fingerprint(prompt, 32);
    let allocs = count_allocs(|| {
        let key = bpe.prefix_fingerprint(prompt, 32);
        std::hint::black_box(key);
    });
    assert_eq!(allocs, 0, "warm routing-key derivation must not allocate");
    assert_eq!(
        bpe.prefix_fingerprint(prompt, 32),
        cold,
        "warm and cold fingerprints must agree"
    );
}

#[test]
fn masker_recycles_outcomes_through_the_pool() {
    // The decode loop hands every `MaskOutcome` back to the masker; the
    // pooled scratch means repeated pooled copies of the same mask reach
    // a steady state with no per-copy allocation.
    let bpe = corpus::standard_bpe();
    let mut masker =
        Masker::new(MaskEngine::default(), bpe.clone()).with_config(MaskConfig::default());
    let mask = lmql_tokenizer::TokenSet::full(bpe.vocab().len());
    // Prime the pool.
    for _ in 0..4 {
        let copy = masker.pooled_copy(&mask);
        masker.recycle_mask(copy);
    }
    let allocs = count_allocs(|| {
        for _ in 0..16 {
            let copy = masker.pooled_copy(&mask);
            std::hint::black_box(&copy);
            masker.recycle_mask(copy);
        }
    });
    assert_eq!(allocs, 0, "pooled mask copies must not allocate");
}

/// Allocations of at least 4 KiB that a second hole adds to a query under
/// `decoder`: the difference between a two-hole and a one-hole query
/// whose template opens with `chars` characters of text. Both holes are
/// forced (fast-forwarded, never scored), so the difference is the
/// second hole's start and its two appended tokens.
fn second_hole_large_allocs(decoder: &str, chars: usize) -> u64 {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(SharedLogitsLm {
        bpe: bpe.clone(),
        logits: Logits::constant(bpe.vocab().len(), 0.0),
    });
    let rt = Runtime::new(lm, bpe);
    let text: String = "word ".repeat(chars / 5 + 1)[..chars].to_owned();
    // `Y` sits under a branch on `X`, so the two holes decode one after
    // the other instead of as a parallel group.
    let source = |tail: &str| {
        format!(
            "{decoder}\n    \"{text}[X]\"\n    if X == \"ab\":\n        \" and{tail} end\"\n\
             from \"m\"\nwhere X in [\"ab\"] and Y in [\"cd\"]\n"
        )
    };
    let (one, two) = (source(""), source("[Y]"));
    let run = |source: &str| {
        count_large_allocs(4096, || {
            let result = rt.run(source).expect("forced holes decode");
            std::hint::black_box(result);
        })
    };
    // Warm-up: automata compilation and the tokenizer's chunk cache.
    run(&one);
    run(&two);
    run(&two).saturating_sub(run(&one))
}

#[test]
fn hole_start_allocates_no_trace_length_buffer() {
    // A hole starts from the run's token context brought up to the trace
    // by encoding only the bytes appended since the last hole (the
    // previous value and the template after it): no trace-length string
    // and no trace-length token vector, under argmax and in beam search's
    // `advance` alike.
    for decoder in ["argmax", "beam(n=2)"] {
        let short = second_hole_large_allocs(decoder, 3);
        let long = second_hole_large_allocs(decoder, 10_000);
        assert_eq!(
            short, long,
            "{decoder}: a hole start must not allocate with the trace's length"
        );
    }
}
