#!/usr/bin/env bash
# Full verification: formatting, lints, release build, tests, and the
# stand-alone benchmark package's own tests (`benchmark/run.sh --test`),
# so a change that removes an API the benchmark uses, or moves a byte its
# seed-1 digests cover, fails here and not in the benchmark pipeline.
#
# Usage: scripts/verify.sh [--slow | --quick | --chaos | --serve | --automata | --decode | --parallel | --tools | --bench-smoke | --bench-publish]
#   --slow    also runs the proptest suites (slow-tests feature)
#   --quick   build + tests + benchmark package tests only (skips
#             rustfmt/clippy; useful where the toolchain components are
#             not installed)
#   --chaos   fault-injection suites only (deterministic seeds, offline):
#             chaos determinism, engine chaos, server fault tolerance,
#             scheduler fault handling
#   --serve   the one serving path (DESIGN.md §11, §15): streaming
#             (byte-identical reassembly per decoder, engine
#             cancellation) and the router (affinity hashing, admission,
#             health-aware routing, replica fail-over + multi-replica
#             soak, pool-total metrics), the server's STREAM / SCORE /
#             BATCH / STATS wire suites over `replicas` 1 and 2, the
#             zero-alloc prefix-key budget pin, the scheduler's unit
#             tests and the server's blocking-accept / firing-rule suite
#             ten times in a row (a scheduling flake shows up here, not
#             in the benchmark pipeline), the entry-point agreement
#             table (one request, every way in), plus `lmql-run --stream`
#             and a `--replicas` CLI diff under non-default request
#             options (seed, binding, sequential holes; argmax + sampled)
#   --automata  constraint-automata suites only (DESIGN.md §12): the
#             automata crate's unit tests, differential mask equality
#             against the uncompiled engines, and fast-forward decoder
#             accounting
#   --decode  zero-copy data-plane suites only (DESIGN.md §13): the arena
#             crate's unit tests, the counting-allocator budget pins
#             (fork cost, decode allocs/step), and rope-trace round-trip
#             identity across all four decoders
#   --parallel  program-level parallelism suites only (DESIGN.md §14):
#             the hole-DAG differential byte-identity suite across all
#             four decoders, subquery tree admission/cancellation/usage
#             tests (with the >=2x dispatch-round pin), the streaming
#             drop-cancels-tree regression, plus an
#             `lmql-run --no-parallel-holes` bisection smoke run
#   --tools   first-class tool API + retrieval suites (DESIGN.md §16):
#             the core tool-registry unit tests, the BM25/corpus/session
#             crate, the legacy-closure differential byte-identity suite
#             across all four decoders, dynamic-set (`ANSWER in spans`)
#             soundness against the reference masker, the three
#             retrieval-workload scenarios, plus an `lmql-run --corpus`
#             smoke run
#   --bench-smoke  runs the masking/followmap benches with a tiny
#             measurement budget plus the mask, decode, router and
#             retrieval benchmark binaries, writing smoke-level JSON to
#             target/bench/ (never the committed BENCH_*.json); asserts
#             the allocs/step budgets, the router's >=2x affinity
#             hit-rate advantage, and retrieval-QA's billable-token
#             savings over the chunk-wise baseline, so it is safe to
#             gate merges on
#   --bench-publish  full-budget benchmark run that rewrites the
#             committed BENCH_mask.json, BENCH_decode.json,
#             BENCH_router.json and BENCH_retrieval.json in place; run
#             manually (or nightly) on quiet hardware
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
case "${1:-}" in
    "") ;;
    --slow) MODE=slow ;;
    --quick) MODE=quick ;;
    --chaos) MODE=chaos ;;
    --serve) MODE=serve ;;
    --automata) MODE=automata ;;
    --decode) MODE=decode ;;
    --parallel) MODE=parallel ;;
    --tools) MODE=tools ;;
    --bench-smoke) MODE=bench-smoke ;;
    --bench-publish) MODE=bench-publish ;;
    *)
        echo "usage: scripts/verify.sh [--slow | --quick | --chaos | --serve | --automata | --decode | --parallel | --tools | --bench-smoke | --bench-publish]" >&2
        exit 2
        ;;
esac

if [[ "$MODE" == bench-smoke ]]; then
    # Exercise the benchmark paths end to end on a small budget: catches
    # bench-target rot and perf-path panics, and asserts the hard
    # allocation budgets. Timing numbers at this budget are noise, so
    # the JSON goes to target/bench/, never over the committed files —
    # publishable numbers come from --bench-publish.
    export LMQL_BENCH_WARMUP_MS="${LMQL_BENCH_WARMUP_MS:-5}"
    export LMQL_BENCH_BUDGET_MS="${LMQL_BENCH_BUDGET_MS:-30}"
    # The compiled-automata advancing workload is designed to be
    # allocation-free after state discovery (one TokenSet clone per
    # step); a regression here silently reintroduces the per-step vocab
    # scan, so it is a hard budget, not a timing measurement.
    export LMQL_BENCH_ALLOC_BUDGET="${LMQL_BENCH_ALLOC_BUDGET:-25}"
    # The decode loop is tighter still: pooled mask scratch + in-place
    # softmax leave only the model's logits allocation per step.
    DECODE_ALLOC_BUDGET="${LMQL_BENCH_DECODE_ALLOC_BUDGET:-8}"
    mkdir -p target/bench
    echo "==> cargo bench: masking + followmap (budget ${LMQL_BENCH_BUDGET_MS}ms)"
    cargo bench -q -p lmql-bench --bench masking
    cargo bench -q -p lmql-bench --bench followmap
    echo "==> bench_mask (target/bench/BENCH_mask.json, alloc budget ${LMQL_BENCH_ALLOC_BUDGET}/step)"
    cargo run -q --release -p lmql-bench --bin bench_mask -- --out target/bench/BENCH_mask.json
    echo "==> bench_decode (target/bench/BENCH_decode.json, alloc budget ${DECODE_ALLOC_BUDGET}/step)"
    LMQL_BENCH_ALLOC_BUDGET="$DECODE_ALLOC_BUDGET" \
        cargo run -q --release -p lmql-bench --bin bench_decode -- --out target/bench/BENCH_decode.json
    # The affinity advantage is a property of the routing policy, not the
    # hardware, so even the smoke budget gates on the >=2x acceptance
    # floor from DESIGN.md §15.
    echo "==> bench_router (target/bench/BENCH_router.json, min advantage ${LMQL_BENCH_ROUTER_MIN_ADVANTAGE:-2.0}x)"
    LMQL_BENCH_ROUTER_REPEATS="${LMQL_BENCH_ROUTER_REPEATS:-4}" \
        LMQL_BENCH_ROUTER_MIN_ADVANTAGE="${LMQL_BENCH_ROUTER_MIN_ADVANTAGE:-2.0}" \
        cargo run -q --release -p lmql-bench --bin bench_router -- --out target/bench/BENCH_router.json
    # Retrieval-augmented QA must beat the prompt-everything baseline on
    # billable tokens (DESIGN.md §16) — a policy property, not a timing
    # number, so it gates even at smoke budget.
    echo "==> bench_retrieval (target/bench/BENCH_retrieval.json, min savings ${LMQL_BENCH_RETRIEVAL_MIN_SAVINGS:-2.0}x)"
    LMQL_BENCH_RETRIEVAL_N="${LMQL_BENCH_RETRIEVAL_N:-4}" \
        LMQL_BENCH_RETRIEVAL_MIN_SAVINGS="${LMQL_BENCH_RETRIEVAL_MIN_SAVINGS:-2.0}" \
        cargo run -q --release -p lmql-bench --bin bench_retrieval -- --out target/bench/BENCH_retrieval.json
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == bench-publish ]]; then
    # Full-budget run that replaces the committed benchmark numbers.
    export LMQL_BENCH_ALLOC_BUDGET="${LMQL_BENCH_ALLOC_BUDGET:-25}"
    DECODE_ALLOC_BUDGET="${LMQL_BENCH_DECODE_ALLOC_BUDGET:-8}"
    echo "==> bench_mask (publishing BENCH_mask.json)"
    cargo run -q --release -p lmql-bench --bin bench_mask -- --out BENCH_mask.json
    echo "==> bench_decode (publishing BENCH_decode.json)"
    LMQL_BENCH_ALLOC_BUDGET="$DECODE_ALLOC_BUDGET" \
        cargo run -q --release -p lmql-bench --bin bench_decode -- --out BENCH_decode.json
    echo "==> bench_router (publishing BENCH_router.json)"
    LMQL_BENCH_ROUTER_MIN_ADVANTAGE="${LMQL_BENCH_ROUTER_MIN_ADVANTAGE:-2.0}" \
        cargo run -q --release -p lmql-bench --bin bench_router -- --out BENCH_router.json
    echo "==> bench_retrieval (publishing BENCH_retrieval.json)"
    LMQL_BENCH_RETRIEVAL_MIN_SAVINGS="${LMQL_BENCH_RETRIEVAL_MIN_SAVINGS:-2.0}" \
        cargo run -q --release -p lmql-bench --bin bench_retrieval -- --out BENCH_retrieval.json
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == decode ]]; then
    echo "==> zero-copy data-plane suites (rope trace + allocation budgets)"
    cargo test -q -p lmql-arena
    cargo test -q -p lmql --test alloc_budget
    cargo test -q -p lmql --test rope_trace
    cargo test -q -p lmql-repro --test trace_semantics
    cargo test -q -p lmql-repro --test streaming
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == parallel ]]; then
    echo "==> program-level parallelism suites (hole DAGs + subquery trees)"
    cargo test -q -p lmql --test parallel_equivalence
    cargo test -q -p lmql-engine --test subquery
    cargo test -q -p lmql-engine --test streaming
    cargo test -q -p lmql --lib parallel
    echo "==> lmql-run --no-parallel-holes bisection smoke"
    QUERY_FILE="$(mktemp /tmp/lmql-parallel-smoke.XXXXXX.lmql)"
    trap 'rm -f "$QUERY_FILE"' EXIT
    printf '%s\n' \
        'argmax' \
        '    "Q:[A]\nR:[B]"' \
        'from "ngram"' \
        'where stops_at(A, "\n") and stops_at(B, "\n")' > "$QUERY_FILE"
    PAR_OUT="$(cargo run -q --bin lmql-run -- "$QUERY_FILE" --max-tokens 12)"
    SEQ_OUT="$(cargo run -q --bin lmql-run -- "$QUERY_FILE" --max-tokens 12 --no-parallel-holes)"
    if [[ "$PAR_OUT" != "$SEQ_OUT" ]]; then
        echo "error: lmql-run output differs with --no-parallel-holes" >&2
        exit 1
    fi
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == tools ]]; then
    echo "==> first-class tool + retrieval suites (DESIGN.md §16)"
    cargo test -q -p lmql --lib tool
    cargo test -q -p lmql-retrieval
    cargo test -q -p lmql-datasets --lib tools
    cargo test -q -p lmql-repro --test tool_api
    cargo test -q -p lmql-repro --test retrieved_spans
    cargo test -q -p lmql-bench --lib retrieval_exp
    echo "==> lmql-run --corpus smoke"
    QUERY_FILE="$(mktemp /tmp/lmql-tools-smoke.XXXXXX.lmql)"
    CORPUS_FILE="$(mktemp /tmp/lmql-tools-corpus.XXXXXX.txt)"
    trap 'rm -f "$QUERY_FILE" "$CORPUS_FILE"' EXIT
    printf '%s\n' \
        'The Atlas Project. The access code for the Atlas vault is 4471.' \
        '' \
        'The Borealis Project. The access code for the Borealis vault is 9032.' > "$CORPUS_FILE"
    printf '%s\n' \
        'import retrieval' \
        'argmax' \
        '    "Note:[X]\n"' \
        '    ev = retrieval.search("Atlas vault access code")' \
        '    "Evidence: {ev}"' \
        'from "ngram"' \
        'where stops_at(X, "\n")' > "$QUERY_FILE"
    CORPUS_OUT="$(cargo run -q --bin lmql-run -- "$QUERY_FILE" --corpus "$CORPUS_FILE" --max-tokens 12)"
    echo "$CORPUS_OUT" | grep -q "4471" || {
        echo "error: lmql-run --corpus did not splice retrieved evidence" >&2
        exit 1
    }
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == automata ]]; then
    echo "==> constraint-automata suites (compiled masks + fast-forwarding)"
    cargo test -q -p lmql-automata
    cargo test -q -p lmql --test automata_equivalence
    cargo test -q -p lmql --test fast_forward_accounting
    cargo test -q -p lmql --test mask_equivalence
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == chaos ]]; then
    echo "==> fault-injection suites (deterministic seeds)"
    cargo test -q -p lmql-repro --test chaos_determinism
    cargo test -q -p lmql-engine --test chaos
    cargo test -q -p lmql-server --test fault_tolerance
    cargo test -q -p lmql-engine --lib sched
    cargo test -q -p lmql-lm --lib retry
    cargo test -q -p lmql-lm --lib chaos
    echo "==> OK"
    exit 0
fi

if [[ "$MODE" == serve ]]; then
    echo "==> serving-path suites (streaming + router: one path, every replica count)"
    cargo test -q -p lmql-repro --test streaming
    cargo test -q -p lmql --lib stream
    cargo test -q -p lmql-engine --lib router
    cargo test -q -p lmql-engine --test streaming
    cargo test -q -p lmql-engine --test router
    cargo test -q -p lmql-engine --test entry_points
    cargo test -q -p lmql-server --test streaming
    cargo test -q -p lmql-server --test pool
    cargo test -q -p lmql-server --test stats
    cargo test -q -p lmql --test alloc_budget router_prefix
    echo "==> scheduler + served-path suites, ten rounds"
    for _ in $(seq 1 10); do
        cargo test -q -p lmql-engine --lib sched::
        cargo test -q -p lmql-server --test serving
    done
    QUERY_FILE="$(mktemp /tmp/lmql-serve-smoke.XXXXXX.lmql)"
    trap 'rm -f "$QUERY_FILE"' EXIT
    printf '%s\n' \
        'argmax' \
        '    "A list of things not to forget when travelling:\n-[THING]"' \
        'from "ngram"' \
        'where stops_at(THING, "\n")' > "$QUERY_FILE"
    echo "==> lmql-run --stream smoke"
    STREAM_OUT="$(cargo run -q --bin lmql-run -- "$QUERY_FILE" --stream --max-tokens 16)"
    echo "$STREAM_OUT" | grep -q -- "--- result ---" || {
        echo "error: lmql-run --stream produced no result summary" >&2
        exit 1
    }
    echo "==> lmql-run --replicas bisection smoke"
    # The result blocks must be byte-identical across the single-runtime
    # path, the pooled path, and the pooled round-robin path — under
    # non-default request options, for an argmax and a sampled query, so a
    # pooled run that dropped the seed, the binding or a decode option
    # shows up here. Only the usage footer differs, so strip it first.
    SAMPLE_FILE="$(mktemp /tmp/lmql-serve-smoke.XXXXXX.lmql)"
    trap 'rm -f "$QUERY_FILE" "$SAMPLE_FILE"' EXIT
    printf '%s\n' \
        'sample(n=2)' \
        '    "A note from {WHO}: things not to forget when travelling:\n-[THING]-[OTHER]"' \
        'from "ngram"' \
        'where stops_at(THING, "\n") and stops_at(OTHER, "\n")' > "$SAMPLE_FILE"
    run_cli() {
        cargo run -q --bin lmql-run -- "$@" --max-tokens 16 --bind WHO=me --no-parallel-holes \
            | grep -v '^--- usage:'
    }
    for q in "$QUERY_FILE" "$SAMPLE_FILE"; do
        ONE_OUT="$(run_cli "$q" --seed 7)"
        POOL_OUT="$(run_cli "$q" --seed 7 --replicas 3)"
        RR_OUT="$(run_cli "$q" --seed 7 --replicas 3 --no-affinity)"
        if [[ "$ONE_OUT" != "$POOL_OUT" || "$ONE_OUT" != "$RR_OUT" ]]; then
            echo "error: lmql-run output differs with --replicas/--no-affinity ($q)" >&2
            exit 1
        fi
    done
    # The seed must matter for the sampled query, or the check above
    # could not tell a pooled run that ignored it.
    if [[ "$ONE_OUT" == "$(run_cli "$SAMPLE_FILE" --seed 8)" ]]; then
        echo "error: sample(n=2) output does not depend on --seed" >&2
        exit 1
    fi
    echo "==> OK"
    exit 0
fi

FEATURES=()
if [[ "$MODE" == slow ]]; then
    FEATURES=(--features slow-tests)
fi

require_component() {
    # `cargo fmt`/`cargo clippy` exist as subcommands only when the
    # rustfmt/clippy rustup components are installed; fail with an
    # actionable message instead of cargo's "no such command".
    local subcommand="$1" component="$2"
    if ! cargo "$subcommand" --version >/dev/null 2>&1; then
        echo "error: \`cargo $subcommand\` is unavailable." >&2
        echo "  Install it with: rustup component add $component" >&2
        echo "  Or run the build+test subset only: scripts/verify.sh --quick" >&2
        exit 1
    fi
}

if [[ "$MODE" != quick ]]; then
    require_component fmt rustfmt
    require_component clippy clippy

    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (workspace, all targets, -D warnings)"
    cargo clippy --workspace --all-targets "${FEATURES[@]}" -- -D warnings
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q "${FEATURES[@]}"

echo "==> benchmark package tests (builds against this tree; digests unblessed)"
bash benchmark/run.sh --test

echo "==> OK"
