//! Decode-loop benchmark: steps/sec and allocations/step for the full
//! constrained decode loop (Alg. 2) under the reference mask
//! configuration against the zero-copy data plane (pooled mask scratch,
//! in-place softmax, rope trace), plus the cost of forking a hypothesis
//! (beam-width-8 `VmState::clone`) for a tiny and a 10k-char trace.
//! Emits `BENCH_decode.json`.
//!
//! Usage: `bench_decode [--out PATH]` (default `BENCH_decode.json`).
//! `LMQL_BENCH_BUDGET_MS` shrinks the per-scenario budget for CI smoke
//! runs. `LMQL_BENCH_ALLOC_BUDGET` (allocs/step) makes the dataplane
//! decode scenarios a hard assertion — exceeding the budget, or any
//! trace-copy allocation on fork, exits 1.
//!
//! The decode workload is inherently *advancing*: every picked token
//! grows the hole value, so every step is a mask-memo miss and the
//! automaton-state map is what keeps masking O(1). The two configs
//! bracket the data plane:
//! - `reference`: no memo, no pooling — every step reallocates its mask
//!   sets and distributions.
//! - `dataplane`: the default config — pooled mask outcomes, in-place
//!   softmax into reused scratch, rope trace. At steady state the loop
//!   allocates only the model's logits buffer.
//!
//! Fork cost is reported separately: a beam fork is a `VmState::clone`,
//! and with the rope trace its allocation count (and bytes) must be
//! independent of trace length — cloning a 10k-char trace is the same
//! refcount bump as cloning a 3-char one.

use lmql::constraints::{MaskConfig, MaskEngine, Masker};
use lmql::{compile_source, decode_hole, DecodeOptions, Externals, Pick, Step, VmState};
use lmql_lm::{corpus, LanguageModel, LmResult, Logits};
use lmql_syntax::parse_expr;
use lmql_tokenizer::{TokenId, Vocabulary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts every allocation (and reallocation) made by the process, and
/// the bytes they requested.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

struct Scenario {
    decoder: &'static str,
    config_name: &'static str,
    config: MaskConfig,
}

struct Measurement {
    steps: u64,
    elapsed: Duration,
    allocs: u64,
}

fn run_decode(s: &Scenario, budget: Duration) -> Measurement {
    let bpe = corpus::standard_bpe();
    let lm = corpus::standard_ngram();
    // `len(X) > 2000` keeps EOS inadmissible, so every hole decodes to
    // its 48-token cap — a pure advancing workload with the per-hole
    // setup amortised over the full cap.
    let expr = parse_expr("not \"\\n\" in X and len(X) > 2000").unwrap();
    let scope = HashMap::new();
    let mut masker = Masker::new(MaskEngine::default(), bpe.clone()).with_config(s.config);
    let options = DecodeOptions {
        max_tokens_per_hole: 48,
        mask: s.config,
        ..DecodeOptions::default()
    };
    let mut pick = match s.decoder {
        "argmax" => Pick::argmax(),
        _ => Pick::sample(7),
    };
    let trace = "The little prince said: ";

    let mut decode = |pick: &mut Pick| {
        let out = decode_hole(
            lm.as_ref(),
            &bpe,
            &mut masker,
            Some(&expr),
            &scope,
            trace,
            "X",
            pick,
            &options,
        )
        .expect("benchmark decode must succeed");
        out.tokens as u64
    };

    // Warm-up: scan caches, automaton compilation, state discovery along
    // the length-tracking constraint, memo population for the
    // empty-value first step of each hole. Sampled values vary, so give
    // discovery enough holes to reach steady state before measuring.
    for _ in 0..8 {
        std::hint::black_box(decode(&mut pick));
    }

    let (alloc_start, _) = counters();
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < budget {
        steps += std::hint::black_box(decode(&mut pick)).max(1);
    }
    Measurement {
        steps,
        elapsed: start.elapsed(),
        allocs: counters().0 - alloc_start,
    }
}

/// Builds a finished `VmState` whose trace is a single emitted literal of
/// `chars` characters — no holes, no locals, so two states of different
/// trace length are structurally identical apart from the trace.
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

struct ForkCost {
    allocs_per_fork: f64,
    bytes_per_fork: f64,
}

const FORK_WIDTH: usize = 8;
const FORK_ITERS: usize = 2_000;

/// Allocation cost of forking `vm` into a width-8 beam, averaged over
/// many rounds. The holding vector is reused so only the clones
/// themselves are measured.
fn fork_cost(vm: &VmState) -> ForkCost {
    let mut clones: Vec<VmState> = Vec::with_capacity(FORK_WIDTH);
    // Warm-up round: first-touch effects.
    for _ in 0..FORK_WIDTH {
        clones.push(vm.clone());
    }
    clones.clear();
    let (a0, b0) = counters();
    for _ in 0..FORK_ITERS {
        for _ in 0..FORK_WIDTH {
            clones.push(vm.clone());
        }
        std::hint::black_box(&clones);
        clones.clear();
    }
    let (a1, b1) = counters();
    let forks = (FORK_ITERS * FORK_WIDTH) as f64;
    ForkCost {
        allocs_per_fork: (a1 - a0) as f64 / forks,
        bytes_per_fork: (b1 - b0) as f64 / forks,
    }
}

/// A model wrapper adding a fixed per-call latency, standing in for real
/// inference where model latency dominates the decode loop — which is
/// exactly the regime program-level hole parallelism targets.
struct LatencyLm {
    inner: Arc<dyn LanguageModel>,
    delay: Duration,
}

impl LanguageModel for LatencyLm {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let one = |context: &&[TokenId]| {
            std::thread::sleep(self.delay);
            self.inner.try_score(context)
        };
        contexts.iter().map(one).collect()
    }
}

struct HolesMeasurement {
    parallel_ms: f64,
    sequential_ms: f64,
}

/// Wall clock for a four-independent-hole program with and without the
/// hole-DAG group decode (DESIGN.md §14), over a 2ms-per-call model.
fn run_holes() -> HolesMeasurement {
    const HOLES_SRC: &str = "argmax\n    \"L0:[H0]L1:[H1]L2:[H2]L3:[H3]\"\nfrom \"m\"\nwhere stops_at(H0, \"\\n\") and stops_at(H1, \"\\n\") and stops_at(H2, \"\\n\") and stops_at(H3, \"\\n\")\n";
    let bpe = corpus::standard_bpe();
    let lm: Arc<dyn LanguageModel> = Arc::new(LatencyLm {
        inner: corpus::standard_ngram(),
        delay: Duration::from_millis(2),
    });
    let run = |parallel: bool| {
        let mut rt = lmql::Runtime::new(Arc::clone(&lm), Arc::clone(&bpe));
        rt.options_mut().max_tokens_per_hole = 12;
        rt.options_mut().parallel_holes = parallel;
        let start = Instant::now();
        let result = rt.run(HOLES_SRC).expect("holes benchmark decode succeeds");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        (result.best().trace.clone(), elapsed)
    };
    // Warm-up: automata compilation and mask discovery for both paths.
    let _ = run(true);
    let _ = run(false);
    let (par_trace, parallel_ms) = run(true);
    let (seq_trace, sequential_ms) = run(false);
    assert_eq!(
        par_trace, seq_trace,
        "parallel decode must be byte-identical"
    );
    HolesMeasurement {
        parallel_ms,
        sequential_ms,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_decode.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let budget = Duration::from_millis(
        std::env::var("LMQL_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(400),
    );

    let alloc_budget: Option<f64> = std::env::var("LMQL_BENCH_ALLOC_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut budget_breached = false;

    let scenarios = [
        Scenario {
            decoder: "argmax",
            config_name: "reference",
            config: MaskConfig::reference(),
        },
        Scenario {
            decoder: "argmax",
            config_name: "dataplane",
            config: MaskConfig::default(),
        },
        Scenario {
            decoder: "sample",
            config_name: "reference",
            config: MaskConfig::reference(),
        },
        Scenario {
            decoder: "sample",
            config_name: "dataplane",
            config: MaskConfig::default(),
        },
    ];

    let mut rows = Vec::new();
    for s in &scenarios {
        let m = run_decode(s, budget);
        let secs = m.elapsed.as_secs_f64();
        let steps_per_sec = m.steps as f64 / secs;
        let ns_per_step = secs * 1e9 / m.steps as f64;
        let allocs_per_step = m.allocs as f64 / m.steps as f64;
        println!(
            "bench: decode/{}/{:<9} {:>10.1} steps/s  {:>10.0} ns/step  {:>8.1} allocs/step",
            s.decoder, s.config_name, steps_per_sec, ns_per_step, allocs_per_step
        );
        if s.config_name == "dataplane" {
            if let Some(max) = alloc_budget {
                if allocs_per_step > max {
                    eprintln!(
                        "bench: ALLOC BUDGET EXCEEDED for decode/{}/dataplane: \
                         {allocs_per_step:.1} allocs/step > budget {max:.1}",
                        s.decoder
                    );
                    budget_breached = true;
                }
            }
        }
        rows.push(format!(
            "    {{\n      \"decoder\": \"{}\",\n      \"config\": \"{}\",\n      \
             \"steps_per_sec\": {:.1},\n      \"ns_per_step\": {:.0},\n      \
             \"allocs_per_step\": {:.1}\n    }}",
            s.decoder, s.config_name, steps_per_sec, ns_per_step, allocs_per_step
        ));
    }

    // Fork cost: with the rope trace a fork must not copy trace bytes, so
    // allocation count and bytes are identical for a 3-char and a
    // 10k-char trace.
    let small = vm_with_trace(3);
    let large = vm_with_trace(10_000);
    let small_cost = fork_cost(&small);
    let large_cost = fork_cost(&large);
    let trace_copy_allocs = large_cost.allocs_per_fork - small_cost.allocs_per_fork;
    let trace_copy_bytes = large_cost.bytes_per_fork - small_cost.bytes_per_fork;
    println!(
        "bench: decode/fork/width{FORK_WIDTH}      small {:.2} allocs ({:.0} B)  \
         large {:.2} allocs ({:.0} B)  trace-copy {:+.2} allocs {:+.0} B",
        small_cost.allocs_per_fork,
        small_cost.bytes_per_fork,
        large_cost.allocs_per_fork,
        large_cost.bytes_per_fork,
        trace_copy_allocs,
        trace_copy_bytes,
    );
    if alloc_budget.is_some() && (trace_copy_allocs != 0.0 || trace_copy_bytes != 0.0) {
        eprintln!(
            "bench: FORK TRACE-COPY DETECTED: large-trace fork costs \
             {trace_copy_allocs:+.2} allocs / {trace_copy_bytes:+.0} bytes over a small-trace fork"
        );
        budget_breached = true;
    }

    // Program-level parallelism: the same four-independent-hole program
    // with the hole-DAG group decode on and off, over a fixed-latency
    // model — the wall-clock win is overlap of model calls, byte-
    // identical by construction (asserted inside run_holes).
    let holes = run_holes();
    let holes_parallel = holes.parallel_ms;
    let holes_sequential = holes.sequential_ms;
    let holes_speedup = holes_sequential / holes_parallel;
    println!(
        "bench: decode/holes/parallel4  {:>8.1} ms parallel  {:>8.1} ms sequential  {:>5.2}x speedup",
        holes.parallel_ms, holes.sequential_ms, holes_speedup
    );

    let json = format!(
        "{{\n  \"bench\": \"decode\",\n  \"budget_ms\": {},\n  \"scenarios\": [\n{}\n  ],\n  \
         \"holes\": {{\n    \"independent_holes\": 4,\n    \"model_latency_ms\": 2,\n    \
         \"parallel_ms\": {holes_parallel:.1},\n    \"sequential_ms\": {holes_sequential:.1},\n    \
         \"speedup\": {holes_speedup:.2}\n  }},\n  \
         \"fork\": {{\n    \"width\": {FORK_WIDTH},\n    \"small_trace_chars\": 3,\n    \
         \"large_trace_chars\": 10000,\n    \"allocs_per_fork_small\": {:.2},\n    \
         \"allocs_per_fork_large\": {:.2},\n    \"bytes_per_fork_small\": {:.0},\n    \
         \"bytes_per_fork_large\": {:.0},\n    \"trace_copy_allocs_per_fork\": {:.2},\n    \
         \"trace_copy_bytes_per_fork\": {:.0}\n  }}\n}}\n",
        budget.as_millis(),
        rows.join(",\n"),
        small_cost.allocs_per_fork,
        large_cost.allocs_per_fork,
        small_cost.bytes_per_fork,
        large_cost.bytes_per_fork,
        trace_copy_allocs,
        trace_copy_bytes,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_decode.json");
    println!("wrote {out_path}");
    if budget_breached {
        std::process::exit(1);
    }
}
