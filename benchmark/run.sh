#!/usr/bin/env bash
# Builds the release binaries and the harness, then hands every argument
# to the harness:
#
#   benchmark/run.sh --workload narrow --seed 11 --seconds 40 --trace 0
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Works from any directory; everything it writes stays inside the checkout
# (build output under $CARGO_TARGET_DIR, default .bench_build; run output
# under benchmark/out).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
[ -f Cargo.toml ] && [ -d crates ] || {
  echo "benchmark/run.sh: $root is not a netclust checkout (no Cargo.toml, no crates/)" >&2
  exit 2
}
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# cargo reports on stderr; stdout is the harness's alone.
cargo build --release --offline --quiet >&2
cargo build --release --offline --quiet -p netclust-serve --bin netclustd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

bin="$target/release/netclust-benchmark"
if [ "${1:-}" = compare ]; then exec "$bin" "$@"; fi
exec "$bin" "$@" --bin-dir "$target/release"
