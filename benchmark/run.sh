#!/usr/bin/env bash
# The benchmark's one command. Builds e2ebench (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--smoke]          every workload, fixed work:
#       untraced then traced, each in its own process; prints every metric by
#       name with its unit and writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (what the benchmark driver calls); the last
#       line of its output is the JSON result
#   benchmark/run.sh compare A.json B.json [--exact-only]
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build where the caller says (the driver sets CARGO_TARGET_DIR, relative to
# the directory it runs from) or under the repository's ignored /target.
target="${CARGO_TARGET_DIR:-$here/../target/e2ebench}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/e2ebench"

# One CPU for the whole process. Every workload keeps at most one core busy
# (the clients wait while the single-threaded server works), and on two
# virtual CPUs the hand-off between a client and the server thread goes
# through an idle CPU's wake-up, whose cost in this sandbox jumps eightfold
# for minutes at a time (7 us to 50+ us after any burst of load, a build
# included). On one CPU the hand-off is a context switch and the numbers
# repeat. See the README's noise protocol.
pin=()
if command -v taskset >/dev/null 2>&1; then
  cpu=$(( $(nproc --all) - 1 ))
  if taskset -c "$cpu" true 2>/dev/null; then
    pin=(taskset -c "$cpu")
  fi
fi

out=(--out "$here/out")
for arg in "$@"; do
  [ "$arg" = "--out" ] && out=()
done

if [ "${1:-}" = "compare" ]; then
  exec "$bin" "$@"
fi
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "${pin[@]}" "$bin" run "$@" "${out[@]}"
  fi
done
exec "${pin[@]}" "$bin" suite "$@" "${out[@]}"
