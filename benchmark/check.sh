#!/usr/bin/env bash
# The benchmark's own gate: unit tests, then two smoke suites of one seed
# whose counts and simulated statistics must agree to the last bit. Timings
# of a smoke run are printed by `compare` but too short to be judged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

echo "== e2ebench unit tests =="
(cd "$here" && cargo test --release --offline --quiet)

for side in a b; do
  echo "== e2ebench smoke suite ($side) =="
  "$here/run.sh" --smoke --seed 1 --out "$here/out/smoke-$side"
done

echo "== e2ebench compare (exact counts) =="
"$here/run.sh" compare "$here/out/smoke-a/results.json" "$here/out/smoke-b/results.json" --exact-only
echo "e2ebench check OK"
