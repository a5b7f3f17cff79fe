#!/usr/bin/env bash
# Flat CPU profile of one whole-stack benchmark workload, or with --alloc
# where the REST server's loop thread allocates.
#
#   scripts/profile.sh [--alloc] <workload> [seconds, default 10]
#
# Builds e2ebench with frame pointers into target/prof (its own directory, so
# the benchmark's build is untouched), runs it pinned to the last CPU exactly
# as benchmark/run.sh does, with scripts/prof/shim.c preloaded, and prints
# scripts/prof/symbolise.py's tables: flat by function, by crate per thread
# (libc split into send / recv / poll / other), inclusive by function for the
# busiest thread, by source line. With --alloc, scripts/prof/alloc_shim.c is
# preloaded instead: it samples one in 16 (PROF_EVERY) malloc/calloc/realloc calls of the
# policy-rest-loop thread (PROF_THREAD names another) with their call stacks,
# prints how many such calls the thread made, and the same tables read as
# allocation sites (the inclusive one is where to look). Needs gcc, nm,
# addr2line and python3; says so and exits 0 when one is missing.
set -euo pipefail
cd "$(dirname "$0")/.."
shim=shim
if [ "${1:-}" = "--alloc" ]; then
  shim=alloc_shim
  shift
fi
workload="${1:?usage: scripts/profile.sh [--alloc] <workload> [seconds]}"
seconds="${2:-10}"
for tool in gcc nm addr2line python3; do
  command -v "$tool" > /dev/null 2>&1 || { echo "profile.sh: $tool not found; nothing profiled"; exit 0; }
done

export CARGO_TARGET_DIR="$PWD/target/prof"
RUSTFLAGS="-C force-frame-pointers=yes" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "target/prof/$shim.so" "scripts/prof/$shim.c"

pin=()
if command -v taskset > /dev/null 2>&1; then
  cpu=$(( $(nproc --all) - 1 ))
  taskset -c "$cpu" true 2> /dev/null && pin=(taskset -c "$cpu")
fi
PROF_OUT="$PWD/target/prof/prof.out" LD_PRELOAD="$PWD/target/prof/$shim.so" \
  "${pin[@]}" target/prof/release/e2ebench run --workload "$workload" --seed 1 \
  --seconds "$seconds" --trace 0 --out target/prof/out | tail -n 1 \
  | sed -n 's/.*\("ops_per_s":{[^}]*}\).*/\1/p'
python3 scripts/prof/symbolise.py target/prof/prof.out
