#!/usr/bin/env bash
# Full verification: formatting, lints, rustdoc (a broken or private
# intra-doc link fails), release build, every workspace test (the tier-1
# `cargo test -q` runs the same crates through the root manifest's
# `default-members`), the Appendix A.3 debugger example (tests only
# compile examples; this runs its assertions), and the stand-alone
# benchmark package's own tests (`benchmark/run.sh --test`), so a change
# that removes an API the benchmark uses, or moves a byte its seed-1
# digests cover, fails here
# and not in the benchmark pipeline. `benchmark/` is the repo's only
# timing harness; everything this script runs is a count or a byte.
#
# Usage: scripts/verify.sh [--slow | --quick | --serve]
#   --slow    also runs the hole-analyzer proptest suite (crates/core's
#             slow-tests feature); the other property suites always run
#   --quick   build + tests + benchmark package tests only (skips
#             rustfmt/clippy/rustdoc; useful where the toolchain
#             components are not installed)
#   --serve   the scheduler's unit tests and the server's blocking-accept
#             / firing-rule suite ten times in a row: a scheduling flake
#             shows up here, not in the benchmark pipeline
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
case "${1:-}" in
    "") ;;
    --slow) MODE=slow ;;
    --quick) MODE=quick ;;
    --serve) MODE=serve ;;
    *)
        echo "usage: scripts/verify.sh [--slow | --quick | --serve]" >&2
        exit 2
        ;;
esac

if [[ "$MODE" == serve ]]; then
    echo "==> scheduler + served-path suites, ten rounds"
    for _ in $(seq 1 10); do
        cargo test -q -p lmql-engine --lib sched::
        cargo test -q -p lmql-server --test serving
    done
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

    echo "==> cargo doc (-D warnings: no broken or private intra-doc links)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --locked
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q "${FEATURES[@]}"

echo "==> cargo run --example debugger (Appendix A.3's step table, asserted)"
cargo run --release -q --example debugger

echo "==> benchmark package tests (builds against this tree; digests unblessed)"
bash benchmark/run.sh --test

echo "==> OK"
