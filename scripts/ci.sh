#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

# `--all-targets` is libs, bins, tests and examples: the workspace has no
# bench targets (wall-clock is measured only by benchmark/, checked below).
echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc: every intra-doc link resolves and no public item's docs link to
# a private one. Moving or deleting an item is what leaves a link dangling.
echo "== cargo doc (workspace, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test =="
cargo test -q --workspace --offline

# Size report, informational (not a gate): first-party `.rs` lines under
# crates/ src/ tests/ examples/ of the tree at $1, in total and outside
# test code. Test code is a `tests/` directory at any depth, and a file
# that compiles only under a `#[cfg(test)] mod name;` declaration (a
# reference engine kept beside the module it checks); inline
# `#[cfg(test)]` modules count as non-test. ROADMAP item 8 tracks the
# second number; the parent-identity job below prints the parent's too.
# The files under $@ that only a `#[cfg(test)]` module declaration pulls in.
cfg_test_files() {
  local f m dir c
  find "$@" -name '*.rs' -not -path 'tests/*' -not -path '*/tests/*' -print0 |
    while IFS= read -r -d '' f; do
      awk '/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { t = 1; next }
           t && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ { sub(/;.*/, ""); print $NF }
           { t = 0 }' "$f" |
        while read -r m; do
          case "$f" in
            */lib.rs | */main.rs | */mod.rs) dir="${f%/*}" ;;
            *) dir="${f%.rs}" ;;
          esac
          for c in "$dir/$m.rs" "$dir/$m/mod.rs"; do
            if [ -f "$c" ]; then echo "$c"; fi
          done
        done
    done
}
rs_lines() {
  (
    cd "$1"
    local dirs=() d all non_test test_only
    for d in crates src tests examples; do [ -d "$d" ] && dirs+=("$d"); done
    all="$(find "${dirs[@]}" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
    non_test="$(find "${dirs[@]}" -name '*.rs' -not -path 'tests/*' -not -path '*/tests/*' -print0 \
      | xargs -0 cat | wc -l)"
    test_only="$(cfg_test_files "${dirs[@]}" | xargs -r cat | wc -l)"
    echo "$all $((non_test - test_only))"
  )
}
echo "== first-party .rs lines (informational) =="
read -r rs_total rs_non_test <<<"$(rs_lines .)"
echo "first-party .rs: ${rs_total} total, ${rs_non_test} outside test directories"

# The vendored JSON codec (third_party/serde*) is excluded from the
# workspace, so the run above never reaches its own unit tests. Its
# conformance suite is a workspace test (crates/rest/tests/codec_conformance.rs).
echo "== cargo test (vendored codec) =="
cargo test -q --offline --manifest-path third_party/serde_json/Cargo.toml
cargo test -q --offline --manifest-path third_party/serde/Cargo.toml

# Chaos job: the fault-injection suite in release mode with fixed seeds
# (the seeds are baked into tests/chaos_faults.rs; release catches
# timing-sensitive determinism regressions the debug run might mask).
echo "== cargo test --release (chaos) =="
cargo test -q --release --offline --test chaos_faults

# Exact-cost job: tests/alloc_budget.rs (a Montage campaign over loopback
# REST, resident policy memory, a scripted durable session) and
# tests/churn_allocations.rs (simulator churn) assert their sections of the
# committed scripts/costs.txt, row for row: policy calls, service and
# rule counters, WAL records, fsyncs and bytes, heap allocations and the
# bytes they keep. The debug run above
# asserts the same file, so this release run shows that the counts do not
# depend on the build. Not `-q`: the ledger belongs in the log.
echo "== cargo test --release (exact costs) =="
cargo test --release --offline --test alloc_budget --test churn_allocations -- --nocapture

# Observability job: a traced paper-setup run must export a valid,
# non-empty Chrome trace, and a live /metrics scrape over the REST
# interface must succeed. Both commands exit nonzero on failure. The
# scrape's series set (names + labels; values and the wall-clock latency
# `_bucket` lines stripped) is pinned by scripts/metrics_series.txt, so a
# renamed metric or a changed label fails here instead of passing silently.
# `repro` is the one pwm-bench front end: built once here, it also serves
# the parent-identity job below.
echo "== repro --trace + /metrics scrape =="
cargo build -q --release --offline -p pwm-bench --bin repro
TRACE_OUT="$(mktemp /tmp/pwm-trace.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT"' EXIT
./target/release/repro --trace "$TRACE_OUT" 1
test -s "$TRACE_OUT" || { echo "trace export is empty" >&2; exit 1; }
./target/release/repro validate-trace "$TRACE_OUT"
./target/release/repro scrape-metrics \
  | grep -v -e '^#' -e '_bucket{' | sed 's/ [^ ]*$//' | LC_ALL=C sort \
  | diff scripts/metrics_series.txt -

# Crash-recovery job: the durability acceptance suite in release mode
# (seeded disk faults — crash points, ENOSPC, failed syncs — on a
# simulated disk, warm-failover invariants, recovery determinism), its
# seeded equivalence test at 8x its 10 seeds through PWM_PROPTEST_CASES
# (read at compile time, as in the differential block), then the
# full-size crash scenario at seeds 1..=32 (~40 ms
# each): `repro crash` exits nonzero on a violated recovery invariant — a
# run that never failed over, a primary that took a call past its crash
# point, a backup over its grant bound, a failed warm replay. The
# parent-identity job below compares the same 32 seeds with the parent's.
echo "== cargo test --release (crash recovery) =="
PWM_PROPTEST_CASES=80 cargo test -q --release --offline --test crash_recovery
for seed in $(seq 1 32); do
  ./target/release/repro crash "$seed" > /dev/null \
    || { echo "repro crash $seed: a recovery invariant failed" >&2; exit 1; }
done

# Throughput floors. Wall-clock is measured in one place, the whole-stack
# benchmark (benchmark/run.sh); a floor here is one 5-second run of one of
# its workloads whose `ops_per_s` must reach <min>. Each floor against the
# last reading of its workload on a shared 2-vCPU host (medians of 10-20 30 s
# runs for the three benchmark workloads, two 5 s runs for the others):
#   netsim_churn       1 000 000 / ~3 070 000 events/s  ~0.33
#   netsim_churn_100k    650 000 /   ~790 000 events/s  ~0.82 (see its entry)
#   advice_hot            16 500 /    ~46 600 req/s     ~0.35
#   campaign                  55 /        ~99 wf/s      ~0.56
#   netsim_turbulent     135 000 /   ~260 000 events/s  ~0.52
# The host moves across a ~2x band minute to minute: a floor at a third or a
# half of its reading sits outside that noise and inside the integer factors
# a structural regression costs; `netsim_churn_100k`'s does not. Judged best
# of 3: a single cold run can land anywhere in that band, so the gate fails
# only when every attempt misses. The run's JSON result is the last line of
# its output. An optional fourth argument is a memory ceiling in MB: an
# attempt then passes only if its `peak_rss_mb` is at or under it as well.
bench_floor() {
  local workload="$1" min="$2" unit="$3" max_rss="${4:-}" attempt result rate rss
  echo "== ${workload} floor (${min} ${unit}${max_rss:+, peak RSS <= ${max_rss} MB}, best of 3) =="
  for attempt in 1 2 3; do
    result="$(timeout 300 benchmark/run.sh --workload "$workload" --seed 1 --seconds 5 --trace 0 \
      | tail -n 1 || true)"
    rate="$(sed -n 's/.*"ops_per_s":{"value":\([0-9]*\).*/\1/p' <<<"$result")"
    rss="$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p' <<<"$result")"
    echo "${workload} attempt ${attempt}: ${rate:-no result} ${unit}, peak RSS ${rss:-?} MB"
    if [ "${rate:-0}" -ge "$min" ] && { [ -z "$max_rss" ] ||
      awk -v r="${rss:-99999}" -v m="$max_rss" 'BEGIN { exit !(r + 0 <= m + 0) }'; }; then
      return 0
    fi
  done
  echo "${workload} stayed under ${min} ${unit}${max_rss:+ or over ${max_rss} MB} 3/3 attempts" >&2
  exit 1
}

# Simulator floor: 5000 flows in 2500 pair clusters under the clean stream
# model, every completion replaced (`netsim_churn`), must advance at least
# 1 000 000 events/s. With one-line link rows, one-load route lookups and
# allocator scratch the size of a component, the same machine measures
# ~3.2 M (2 vCPUs, shared; ~2.9 M before those three). Of that step, the
# one-load route lookup is ~5 %, the component-sized scratch and the
# clean-model short-circuits ~1.5 % each; padding the link row back to two
# lines measures inside the noise here. Losing the O(1) ladder queue or the
# one-line flow rows costs integer factors, and the incremental engine
# silently falling back to full recomputes costs orders of magnitude (a
# 1k-flow churn ran at ~400 events/s that way). Looking each new flow's
# route up in the topology's hash map again (and copying its links out)
# costs ~15 %.
#
# The same runs hold the workload's peak RSS to 11 MB, the repository's
# first memory gate. The event queue frees a bucket that empties holding
# more room than CUR_SPLIT + 4 * pending / NB entries instead of recycling
# it at full size; before that rule each of its ~390 bucket `Vec`s ratcheted
# up to the largest bucket it ever held, and this workload peaked at
# ~14.2 MB (60-80x its pending events retained as bucket capacity). With the
# rule it peaks at ~8.7 MB (2 vCPUs, shared).
bench_floor netsim_churn 1000000 events/s 11

# The same engine at 100 000 flows in 50 000 clusters (`netsim_churn_100k`)
# must advance at least 650 000 events/s. Its hot rows no longer fit a core's
# cache, so it follows the host's memory latency and moves most with the
# size of what one event touches: ~1.2 M with two-line link rows and
# network-wide allocator scratch, ~1.45 M with one-line rows and
# component-sized scratch. This is the shape behind the 1 M events/s bar.
# Its floor is 650 k against readings of 658 k (a first attempt), 686 k-729 k
# (direct alternating pairs) and 787 k-798 k (the two runs above): ~0.82-0.99,
# inside the host's noise, not half of what the code reaches. ROADMAP item
# 1's calibrated cell settles what the floor should be; until then a slow
# phase of the host across three attempts fails this gate on unchanged code.
bench_floor netsim_churn_100k 650000 events/s

# Advice floor: the Policy Service front end with 10k files resident on 4
# shards (`advice_hot`) must answer at least 16 500 requests/s. Every lookup
# the service does by key — the shard owning a cleanup's file, the fact an
# outcome report names, a host pair's ledger — is an index probe, and a
# rules pass evaluates only the matchers that read what the last firing
# wrote. One lookup falling back to a scan of policy memory costs integer
# factors here (the cleanup-routing scan alone ran this workload at ~4 400
# req/s), and losing the field-level watches, the `requires` guards and the
# sampled matcher timing takes the same machine from ~21 000 back to
# ~16 000. Losing the streaming codec — every document built as a value tree
# again between its text and its struct — returns the workload from ~27 000
# to ~21 000. Losing the write-proportional alpha indexes — keys digested
# once per fact and read back, re-keyed only by writes to the fields they
# read, minted keys hashed in one multiply — takes it from ~33 000 back to
# ~28 000. Its two callers pipeline, so the event loop falling back to one
# rules pass per request shows here too; that a pipelined window is served
# by the batched path at all is asserted by tests/observability.rs
# (`pwm_rest_batched_requests_total` >= 32 for a 32-deep window), and every
# benchmark run reports the share as `rest.batch_ratio`. Losing the
# literal-key codec (member keys and unit variants written and matched as
# precomputed literals) and the byte-level head scanner: ~39 000 to ~35 500.
# Losing the agenda groups and the wake set — every pass visiting all 23
# rules of all five families on every firing, the report passes re-running
# the batch matchers — takes the rules from ~31 back to ~66 matcher
# evaluations per request and the workload from ~41 700 back to ~36 000
# (medians of 10 alternating 30 s runs each). Losing the per-call buffers a
# handler, a shard and a rule keep from one call to the next (39 server
# allocations a request back instead of 7.4) and the typed index positions
# (a type-map probe on every keyed lookup) takes it from ~46 600 back to
# ~42 100 (the same protocol). Resolving every handle through a
# `handle → (table, slot)` map and every refraction check through a
# session-wide hash set, instead of the slot the handle names, takes it from
# ~59 500 back to ~55 600 (the same protocol, 9 of 10 pairs faster).
#
# The same runs hold its peak RSS to 14 MB, the third memory gate, next to
# `netsim_churn`'s and `campaign`'s. The 10 000 resident files are most of
# this process's heap. While a file's posting in the URL index was a
# `BTreeMap` node, its one user a `BTreeSet` node and its fact a slot of a
# `Vec` that doubled (leaving the outgrown block resident across the
# set-ups), the workload peaked at ~15.9 MB. With one posting and one user
# held inline and the slab in fixed 64-slot pages it peaks at ~12.9 MB
# (2 vCPUs, shared); the `resident` rows of scripts/costs.txt count the
# bytes and blocks a resident file holds.
bench_floor advice_hot 16500 req/s 14

# Campaign floor: the whole stack — one executor running 16 merged Montage
# workflows against the REST Policy Service over loopback while pwm-net
# simulates the transfers (`campaign`) — must finish at least 55
# workflows/s. Most of that wall-clock is policy round trips, and a round
# trip is not a fixed cost: in a traced run transport is ~0.8 of
# `executor.run`, and a round trip's ~17 us is a residual of ~11-12 us
# (syscalls, poll wake-ups, thread hand-off), the codecs' ~2.2-2.6 us and the
# service's ~2.9 us (3.6-3.9 us while each call also walked policy memory for
# its gauges); in a profile (scripts/profile.sh campaign) `send`, `recv` and
# `poll` take ~44 % of the samples (~37 % beside that walk's ~7 %). So the
# rate moves with the number of wire calls and with what the server does in
# each. With the executor's report window (DESIGN.md section 4: the cleanup
# jobs ending at one instant report in one call, 574 wire calls per
# workflow) the same machine measured ~80, and ~85 once the driver thread
# stopped doing derived work twice (one rate recompute per simulated
# instant, one file index per workflow); one report per cleanup job (792
# calls) took it to ~61, and a window that closes on every event instead of
# where the clock moves is the same loss.
# Losing the literal-key codec and the byte-level head scanner costs ~4.5 %
# (~96.5 to ~92.3). That walk of all policy memory on every call, to refresh
# gauges that are now read when scraped, takes it from ~99 back to ~90
# (medians of twenty alternating 30 s pairs, 19 of them faster without it).
#
# The same runs hold its peak RSS to 12.5 MB, the second memory gate, next
# to `netsim_churn`'s. The 16 plans are most of this process's heap: while
# every job carried its own edge `Vec`s and `merge_plans` deep-copied the
# plans under prefixed names, the workload peaked at ~15.6 MB. A plan is now
# one shared body (job rows, CSR edges, exact-size transfer and cleanup
# lists) and a merge is a view over the bodies, and it peaks at
# ~10.6-10.9 MB (2 vCPUs, shared). A merge that copies again, or a per-job
# `Vec` back in the plan, crosses the line.
bench_floor campaign 55 workflows/s 12.5

# Turbulent-simulator floor: 1000 flows in 100 clusters under the default
# `StreamModel` — slow start, churn turbulence, weight jitter: what Figs.
# 5-9, `campaign`, chaos and resilience all run — every completion replaced
# (`netsim_turbulent`), must advance at least 135 000 events/s. With one
# recompute per instant (however often `advance` and `start_flow` ask about
# it) and one `exp(-dt/tau)` per distinct `dt` of a recompute the same
# machine measures ~270 000. Re-settling every turbulent link with its own
# `exp` takes it to ~145 000, and recomputing on every ask as well to
# ~105 000. The only floor the default stream model has until the benchmark
# gates this workload (ROADMAP item 1(c)).
bench_floor netsim_turbulent 135000 events/s

# Parent-identity job: the simulated results of this tree against a release
# build of its parent commit (HEAD^, or HEAD while the tree has uncommitted
# source changes). Everything compared must be byte-identical: `table4`,
# `fig5 1` and `fig5 2`, the series set of the /metrics scrape, `repro chaos`
# and `repro crash` at seeds 1..=32, the traced paper run — the `--trace` file itself, so no
# policy call may be added, merged or reordered — the six ablation studies
# (`repro ablations`), and the full storage and resilience suites, whose
# reports must also equal the committed BENCH_storage.json and
# BENCH_resilience.json. `repro ablations` exits nonzero on a run that did
# not complete or a second sharing workflow that staged any byte;
# `repro chaos` on an incomplete run or ablation row, bytes left on scratch
# or an undrained backup ledger; `repro crash` on a recovery invariant
# (a failed warm replay included); `repro storage` on a cost-invariant violation
# (component sums, metered != staged bytes, a non-monotone
# makespan-vs-dollars frontier, no policy-picked run beating the worst fixed
# backend); `repro resilience` on an incomplete workflow, a
# same-seed mismatch, staged bytes != one clean copy per input, or a
# turbulent guided-vs-naive speedup under 1.2x. A change that means to move
# one of these says so here and compares what is left of that output; a
# change that does not (a refactor, an allocation cut, a recompute the
# simulator no longer repeats) has nothing to filter, and nothing is filtered.
# Every differing file is named before the job fails, so a run shows which
# outputs moved. The change that makes a Policy Service die at its crash
# point differs from its own parent in `crash.txt` (the cold and warm rows)
# and in nothing else; against any later parent nothing may differ.
echo "== parent identity (simulated results vs a build of the parent commit) =="
series() { grep -v -e '^#' -e '_bucket{' | sed 's/ [^ ]*$//' | LC_ALL=C sort; }
# Whether `repro` build $1 accepts subcommand $2: its usage line, printed on
# an unknown target, lists every subcommand.
has_subcommand() {
  local usage
  usage="$("$1" no-such-subcommand 2>&1 || true)"
  [[ "$usage" =~ [\[\|]"$2"[\]\|] ]]
}
# Every identity output of one `repro` build into one directory. Each suite
# exits nonzero on its own invariants, so the change side runs even when
# there is no parent to compare with.
identity_outputs() {
  local repro="$1" out="$2"
  mkdir -p "$out"
  "$repro" table4 > "$out/table4.txt"
  "$repro" fig5 1 > "$out/fig5.txt"
  # Two runs per point, so every `±` is a real sample stddev.
  "$repro" fig5 2 > "$out/fig5_2.txt"
  "$repro" scrape-metrics | series > "$out/series.txt"
  "$repro" --trace "$out/run.trace.json" 1 | sed -E 's/^trace [^ ]+ /trace /' > "$out/trace_stdout.txt"
  # Seeds 1..=32 of each fault suite, concatenated (~0.04 s a seed).
  local seed
  for seed in $(seq 1 32); do "$repro" chaos "$seed"; done > "$out/chaos.txt"
  for seed in $(seq 1 32); do "$repro" crash "$seed"; done > "$out/crash.txt"
  # A parent older than `repro ablations` has the six studies only as a
  # wall-clock bench target, which this job does not run: say so, compare
  # the rest.
  if has_subcommand "$repro" ablations; then
    "$repro" ablations > "$out/ablations.txt"
  else
    echo "ablations.txt: not compared, $repro has no \`repro ablations\`" >&2
  fi
  timeout 120 "$repro" storage --out "$out/BENCH_storage.json" > /dev/null
  timeout 120 "$repro" resilience --out "$out/BENCH_resilience.json" > /dev/null
}
# Wall-clock of one `identity_outputs` run, printed for the change and the
# parent: what the wire costs the simulated suites (informational).
timed_identity_outputs() {
  local start
  start=$(date +%s%N)
  identity_outputs "$@"
  echo "identity outputs of $1: $((($(date +%s%N) - start) / 1000000)) ms"
}
rm -rf target/identity
timed_identity_outputs target/release/repro target/identity/change
for f in BENCH_storage.json BENCH_resilience.json; do
  cmp "$f" "target/identity/change/$f" \
    || { echo "$f differs from the committed file" >&2; exit 1; }
done
if git status --porcelain -- Cargo.toml Cargo.lock src crates third_party | grep -q .; then
  parent_rev=HEAD
else
  parent_rev='HEAD^'
fi
if git rev-parse -q --verify "${parent_rev}^{commit}" > /dev/null; then
  rm -rf target/parent-src
  mkdir -p target/parent-src
  git archive "$parent_rev" | tar -x -C target/parent-src
  read -r parent_total parent_non_test <<<"$(rs_lines target/parent-src)"
  echo "first-party .rs at the parent ($parent_rev): ${parent_total} total," \
    "${parent_non_test} outside test directories; this tree differs by" \
    "$((rs_total - parent_total)) and $((rs_non_test - parent_non_test))"
  # The exact-cost ledger against the parent's, informational: each tree's
  # own tests assert its file, so a row that moved is one the change
  # re-committed, and CHANGES.md says why.
  if [ -f target/parent-src/scripts/costs.txt ]; then
    echo "scripts/costs.txt against the parent ($parent_rev), informational:"
    diff target/parent-src/scripts/costs.txt scripts/costs.txt || true
  else
    echo "the parent ($parent_rev) has no scripts/costs.txt; no ledger to compare"
  fi
  CARGO_TARGET_DIR="$PWD/target/parent" cargo build -q --release --offline \
    --manifest-path target/parent-src/Cargo.toml -p pwm-bench --bin repro
  timed_identity_outputs target/parent/release/repro target/identity/parent
  differ=()
  for f in table4.txt fig5.txt fig5_2.txt series.txt trace_stdout.txt run.trace.json chaos.txt crash.txt \
    ablations.txt BENCH_storage.json BENCH_resilience.json; do
    # Only a parent without `repro ablations` lacks a file (logged above).
    [ "$f" = ablations.txt ] && [ ! -e "target/identity/parent/$f" ] && continue
    cmp "target/identity/parent/$f" "target/identity/change/$f" || differ+=("$f")
  done
  if [ "${#differ[@]}" -gt 0 ]; then
    echo "differs from the parent commit ($parent_rev): ${differ[*]}" >&2
    exit 1
  fi
else
  echo "no parent commit to compare with; the suites ran, the comparison is skipped"
fi

# Differential job: the arena fact store and the ladder event queue are
# locked to their straightforward oracles (legacy map-backed working
# memory, sorted-Vec queue) by randomized lockstep suites — the queue suite
# drives the ladder through cancel/reschedule storms, same-instant bursts,
# and far-future outliers, checking its internal invariants as it goes.
# The workspace run above already exercises them at the default case
# budgets (128 / 256); this release pass raises the budget 8x so CI walks a
# much deeper slice of the command space. PWM_PROPTEST_CASES is read at
# *compile* time (option_env!), so it is set on the cargo invocation, not
# the binary. The rule engine's own unit tests run here too: a debug build
# checks every matcher evaluation the agenda skips against a from-scratch
# match and panics first (and on any focused pass that holds back an
# activation, which ends a debug script), so only a release build compares
# the engine as shipped — field-level watches, `requires` guards, the wake
# set, focused passes, no oracle — with the naive evaluator's firing
# sequences, here at 8x its 256 scripts. The same holds for the fact store's indexes:
# a debug `update_fields` re-extracts the key of every index it skipped and
# panics on a stale one, so only the release run of `facts_differential`
# shows the field-masked re-keying agreeing with the legacy store and with an
# index rebuilt from scratch on its own, without that re-extraction. The
# HTTP head scanner is held to the `str`-splitting parser it replaced, kept
# as the oracle in crates/rest/tests/http_differential.rs: same message, same
# "incomplete", same error on every head except those it refuses on purpose.
# The simulator's interned routes are held to `Topology::route`/`route_rtt`
# over random topologies (crates/net/tests/interned_routes.rs, 128 cases by
# default), and its link membership — inline slots spilling to a side table
# and back — to a sorted-`Vec` reference with the component BFS
# (crates/net/tests/link_membership.rs, 128 cases), beside the queue suite.
# Its incremental rate engine is held to the from-scratch reference that
# lives only in test code (`pwm-net`'s `network::reference` module): the
# proptest `repeating_an_advance_at_one_instant_changes_nothing` (48 cases
# by default) repeats advances at one instant on both paths and compares
# each flow's fate across them. The REST server's connection core answers a
# pipelined script of requests with the same bytes and the same close
# decision whole and cut into reads anywhere, and a script of staging
# requests, pipelined runs included, with the same answers in JSON and in
# XML (`pwm-rest`'s `server::connection` tests, 64 scripts each by default).
# The client's framing core frames a pipelined stream of responses (advice in
# JSON and XML, acks, error envelopes) into the same responses whole and cut
# anywhere (`pwm-rest`'s `client` tests, 64 streams by default).
echo "== differential suites (release, 8x case budget) =="
PWM_PROPTEST_CASES=1024 cargo test -q --release --offline \
  -p pwm-rules --test facts_differential
PWM_PROPTEST_CASES=2048 cargo test -q --release --offline -p pwm-rules --lib
PWM_PROPTEST_CASES=2048 cargo test -q --release --offline \
  -p pwm-sim --test event_differential
PWM_PROPTEST_CASES=1024 cargo test -q --release --offline \
  -p pwm-net --test interned_routes
PWM_PROPTEST_CASES=1024 cargo test -q --release --offline \
  -p pwm-net --test link_membership
PWM_PROPTEST_CASES=384 cargo test -q --release --offline \
  -p pwm-net --lib network::reference
PWM_PROPTEST_CASES=2048 cargo test -q --release --offline \
  -p pwm-rest --test http_differential
PWM_PROPTEST_CASES=512 cargo test -q --release --offline \
  -p pwm-rest --lib server::connection
PWM_PROPTEST_CASES=512 cargo test -q --release --offline \
  -p pwm-rest --lib client::tests::responses_do_not_depend_on_how_the_bytes_arrived

# E2ebench job: the whole-stack benchmark's own gate (benchmark/check.sh) —
# its unit tests (incl. BENCHMARK.json-vs-tables equality), then two smoke
# suites of one seed whose exact counts and simulated statistics must agree
# to the last bit. Smoke timings are printed but too short to be judged;
# the timed comparison is the driver's, through benchmark/run.sh.
echo "== e2ebench check (whole-stack benchmark gate) =="
bash benchmark/check.sh

echo "CI OK"
