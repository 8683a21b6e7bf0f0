#!/usr/bin/env bash
# The benchmark's one entry point. From the repo root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       build (offline, release), run one workload; the last line of
#       standard output is the JSON result
#   bash benchmark/run.sh --aa [seconds] [pairs]
#       every workload as [pairs] (default 3) alternating A/B pairs of one
#       seed at run_seconds (or [seconds]); prints workload, metric, median
#       of A, median of B, diff, bound; exit 1 on a breach or an incorrect
#       run. One pair is enough on a quiet machine; on a shared one a
#       single run can sit a quarter away from the next.
#   bash benchmark/run.sh --spread [seconds]
#       every workload on ten seeds; prints each end-to-end metric's
#       median and interquartile spread against its bound
#   bash benchmark/run.sh --bless
#       rewrite expected/<workload>.seed1.digest from the current program
#   bash benchmark/run.sh --test
#       the package's unit and smoke tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cores="$(nproc)"
if [ "$cores" -lt 2 ]; then
    echo "benchmark/run.sh: $cores core(s) available, 2 needed (server dispatcher + one client)" >&2
    exit 2
fi

# Build into the repo's target/ unless the caller chose a directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
bin="$CARGO_TARGET_DIR/release/bench-e2e"

build() {
    cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
}

run_seconds() {
    sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json"
}

workloads="cot_repeat extract_unique chat_stream react_tools"

case "${1:-}" in
--test)
    exec cargo test --offline --release --manifest-path "$here/Cargo.toml"
    ;;
--bless)
    build
    for w in $workloads; do
        "$bin" --digest --workload "$w" --seed 1 2>/dev/null >"$here/expected/$w.seed1.digest"
        echo "$w $(cat "$here/expected/$w.seed1.digest")"
    done
    # The digests are compiled in: rebuild so the next run checks them.
    build
    ;;
--aa | --spread)
    mode="$1"
    seconds="${2:-$(run_seconds)}"
    build
    out="$(mktemp -d "$CARGO_TARGET_DIR/bench-XXXXXX")"
    trap 'rm -rf "$out"' EXIT
    if [ "$mode" = "--aa" ]; then
        runs=""
        for p in $(seq 1 "${3:-3}"); do runs="$runs A$p B$p"; done
    else
        runs="1 2 3 4 5 6 7 8 9 10"
    fi
    for w in $workloads; do
        seed=11
        for r in $runs; do
            # --aa repeats one seed; --spread takes another seed each time.
            if [ "$mode" = "--spread" ]; then seed=$((10 + r)); fi
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                2>/dev/null | tail -n 1 >"$out/$w.$r.json"
        done
    done
    python3 "$here/compare.py" "$mode" "$root/BENCHMARK.json" "$out"
    ;;
*)
    build
    exec "$bin" --trace-dir "$CARGO_TARGET_DIR/bench" "$@"
    ;;
esac
