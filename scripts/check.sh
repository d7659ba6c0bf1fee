#!/usr/bin/env bash
# Full verification gate: build and run the test suite under the four
# CMake presets — plain (RelWithDebInfo), ThreadSanitizer (concurrency
# suites), Address+LeakSanitizer (everything), and
# UndefinedBehaviorSanitizer (everything). This is what CI (and a
# release) should run; each stage stops the script on the first failure.
#
# After the test matrix, a bench-smoke stage builds the Release preset
# (-O3 -DNDEBUG) and runs each perf bench binary on a minimal workload
# — this catches bit-rot in the bench harnesses — then builds the
# repository benchmark (perfbench/) and runs its self-test, so a change
# that breaks the program surface perfbench compiles against fails here
# rather than only in the opt-in bench gate.
#
# A chaos-smoke stage runs the randomized fault-injection campaigns of
# tools/chaos against the plain build, one engine over four profiles at
# seed 2009: sim (100 simulator cases), huge (4 simulator cases of 10^5
# transactions under a randomized fault cocktail; the schedule audit
# is linear, so they take seconds), live (50 cases of the real
# executor on worker threads under the virtual clock) and twin (25
# digital-twin cases whose digest must not move across forecast_threads
# 1/2/8; the forecast-engine unit suite, which pins the serial forecast
# table and the thread fan-out against it, runs first). Every case runs
# twice (digests must match) and is audited by its validator; a failing
# case is auto-shrunk and the reproducer path is printed — commit it
# under tests/integration/replays/ to pin the regression.
#
# A bench-gate stage (opt-in) compares HEAD against a pinned revision on
# this host: scripts/bench_ab.sh <rev> HEAD <workload> for each
# workload of BENCHMARK.json (interleaved pairs, both sides built the
# same way). It fails on any "worse" verdict or any HEAD run that is not
# correct, and lists every "unresolved" one. Three bounds that the
# benchmark's own do not cover are held as well:
#   - paper_sweep txns_per_s: the median per-pair HEAD/rev ratio must
#     be >= 0.90 (tighter than its BENCHMARK.json bound);
#   - exp.speedup_t2 (the sweep at 2 threads vs 1, from one traced
#     paper_sweep run at HEAD) must be >= 0.9; skipped on a 1-CPU host;
#   - bench/ext_multi_server and bench/ext_twin (Release) must exit 0:
#     ext_multi_server's exit code guards only its fingerprint checks
#     against the reference simulator; ext_twin's guards the twin's
#     controller win, guard trip, validator and digest checks.
# It measures committed revisions only, so it refuses to run while
# src/, perfbench/ or CMakeLists.txt has uncommitted changes. It takes
# tens of minutes, and nothing else should run on the host meanwhile.
#
# A huge-smoke stage (opt-in) builds the Release preset and runs the
# 10^5-transaction open-system point of bench/ext_huge_scale and one
# validator-audited case of the huge chaos profile (10^5 transactions
# under a randomized fault cocktail) from that build.
#
# Usage: scripts/check.sh [--fast] [--chaos-smoke] [--huge-smoke]
#                         [--bench-gate <rev>]
#   --fast              plain preset only (skips chaos, sanitizers and
#                       bench smoke)
#   --chaos-smoke       plain preset + the four chaos campaigns only
#   --huge-smoke        release build + 10^5-txn end-to-end run and a
#                       validator-audited 10^5-txn chaos case only
#   --bench-gate <rev>  the A/B gate of HEAD against revision <rev> only

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
CHAOS_ONLY=0
GATE_REV=""
HUGE_SMOKE=0
usage() {
  echo "usage: $0 [--fast] [--chaos-smoke] [--huge-smoke]" \
       "[--bench-gate <rev>]" >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    --chaos-smoke) CHAOS_ONLY=1 ;;
    --bench-gate)
      [[ $# -ge 2 && "$2" != -* ]] || usage
      GATE_REV="$2"
      shift ;;
    --huge-smoke) HUGE_SMOKE=1 ;;
    *) echo "unknown flag: $1" >&2; usage ;;
  esac
  shift
done

run_preset() {
  local preset="$1"
  echo "==> configure+build [$preset]"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> ctest [$preset]"
  ctest --preset "$preset" -j "$(nproc)"
}

bench_smoke() {
  echo "==> configure+build [release]"
  cmake --preset release
  cmake --build --preset release -j "$(nproc)"
  echo "==> bench smoke [release]"
  ./build-release/bench/sweep_throughput --smoke
  ./build-release/bench/ext_huge_scale --smoke
  ./build-release/bench/ext_live_overload
  ./build-release/bench/micro_scheduler_overhead \
    --benchmark_min_time=0.01 \
    --benchmark_filter='BM_PolicyEventCost.*/256$|BM_IndexedPq.*/64$|BM_IndexedPqTopK/n:64/k:2$|BM_SimWorkloadRebuild/batched$'
  echo "==> perfbench self-test"
  python3 perfbench/run.py --selftest
}

bench_gate() {
  local rev="$1" root="$PWD" dirty out workload seconds bench code
  dirty=$(git status --porcelain -- src perfbench CMakeLists.txt)
  if [[ -n "$dirty" ]]; then
    echo "bench gate: bench_ab.sh measures committed revisions only;" \
         "commit or stash these first:" >&2
    echo "$dirty" >&2
    exit 2
  fi
  echo "==> configure+build [release]"
  cmake --preset release
  cmake --build --preset release -j "$(nproc)" \
    --target ext_multi_server ext_twin
  out=$(mktemp -d "${TMPDIR:-/tmp}/bench_gate.XXXXXX")
  for workload in $(python3 -c 'import json
print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  do
    echo "==> bench gate: $workload, $rev vs HEAD"
    scripts/bench_ab.sh "$rev" HEAD "$workload" | tee "$out/$workload.report"
  done
  echo "==> bench gate: traced paper_sweep at HEAD"
  seconds=$(python3 -c 'import json
print(json.load(open("BENCHMARK.json"))["run_seconds"])')
  python3 perfbench/run.py --workload paper_sweep --seed 0 --trace 1 \
    --seconds "$seconds" | tail -n 1 > "$out/traced.json"
  for bench in ext_multi_server ext_twin; do
    echo "==> bench gate: $bench [release]"
    code=0
    (cd "$out" && "$root/build-release/bench/$bench") || code=$?
    echo "$code" > "$out/$bench.exit"
  done
  bench_gate_verdict "$out" "$rev"
}

# Judges what bench_gate collected in directory $1 against revision $2:
# each workload's bench_ab.sh report (<workload>.report), the traced
# paper_sweep result line (traced.json) and the exit codes of the two
# benches with floors of their own (<bench>.exit). Prints one line per
# check and returns nonzero when any fails.
bench_gate_verdict() {
  local dir="$1" rev="$2" failed=0 report speedup bench code
  echo "==> bench gate summary ($rev vs HEAD)"
  for report in "$dir"/*.report; do
    # Metric rows read "<metric> <A q> <B q> <B/A> <pair B/A> <wins>/<pairs>
    # <verdict> ..."; HEAD's run line "B: <correct>/<pairs> runs correct;
    # <failed> of <attempted> operations failed".
    awk -v w="$(basename "$report" .report)" '
      $1 == "B:" {
        split($2, runs, "/")
        if (runs[1] != runs[2] || $5 != 0) { print "FAIL " w ": " $0; bad = 1 }
      }
      $6 !~ /^[0-9]+\/[0-9]+$/ { next }
      { ++metrics }
      $7 == "worse" { print "FAIL " w ": " $0; bad = 1 }
      $7 == "unresolved" { print "unresolved " w ": " $0 }
      w == "paper_sweep" && $1 == "txns_per_s" {
        sweep = 1
        if ($5 < 0.90) {
          print "FAIL " w ": txns_per_s pair B/A " $5 " < 0.90"; bad = 1
        } else {
          print "ok " w ": txns_per_s pair B/A " $5 " >= 0.90"
        }
      }
      END {
        if (w == "paper_sweep" && !sweep) {
          print "FAIL " w ": no txns_per_s row"; bad = 1
        }
        if (!bad) print "ok " w ": " metrics " metrics, none worse"
        exit bad
      }' "$report" || failed=1
  done
  speedup=$(python3 -c 'import json, sys
metric = json.load(open(sys.argv[1]))["metrics"].get("exp.speedup_t2")
print(metric["value"] if metric else 0)' "$dir/traced.json")
  # perfbench reports 0 when the host has one CPU and skips the probe.
  if awk -v s="$speedup" 'BEGIN { exit !(s == 0) }'; then
    echo "skipped paper_sweep: exp.speedup_t2 not measured on one CPU"
  elif awk -v s="$speedup" 'BEGIN { exit !(s < 0.9) }'; then
    echo "FAIL paper_sweep: exp.speedup_t2 $speedup < 0.9"
    failed=1
  else
    echo "ok paper_sweep: exp.speedup_t2 $speedup >= 0.9"
  fi
  for bench in ext_multi_server ext_twin; do
    code=$(cat "$dir/$bench.exit")
    if [[ "$code" == 0 ]]; then
      echo "ok $bench: exit 0"
    else
      echo "FAIL $bench: exit $code"
      failed=1
    fi
  done
  if [[ "$failed" == 0 ]]; then
    echo "bench gate: PASS"
  else
    echo "bench gate: FAIL"
  fi
  return "$failed"
}

huge_smoke() {
  echo "==> configure+build [release]"
  cmake --preset release
  cmake --build --preset release -j "$(nproc)"
  # The 10^5-txn open-system run, then a one-case chaos campaign at the
  # same population under a randomized fault cocktail with the schedule
  # validator auditing (exits 1 on a violation).
  echo "==> huge smoke [release]"
  ./build-release/bench/ext_huge_scale --smoke
  chaos_campaign ./build-release huge 1
}

# One seeded campaign of tools/chaos from the build in $1: profile $2,
# $3 cases. A violation exits nonzero (failing the script) after writing
# the shrunken reproducer to <build>/chaos_<profile>_reproducer.chaos.
chaos_campaign() {
  "$1/tools/chaos" --profile "$2" --cases "$3" --seed 2009 \
    --out "$1/chaos_$2_reproducer.chaos"
}

chaos_smoke() {
  echo "==> chaos smoke [default]"
  # The parallel fan-out must be byte-identical to the serial forecast
  # baseline before the randomized twin campaign bothers.
  ./build/tests/rt_test --gtest_filter='TwinForecastEngineTest.*'
  chaos_campaign ./build sim 100
  chaos_campaign ./build huge 4
  chaos_campaign ./build live 50
  chaos_campaign ./build twin 25
}

if [[ -n "$GATE_REV" ]]; then
  bench_gate "$GATE_REV"
  echo "All checks passed."
  exit 0
fi

if [[ "$HUGE_SMOKE" == "1" ]]; then
  huge_smoke
  echo "All checks passed."
  exit 0
fi

if [[ "$CHAOS_ONLY" == "1" ]]; then
  run_preset default
  chaos_smoke
  echo "All checks passed."
  exit 0
fi

run_preset default
if [[ "$FAST" == "0" ]]; then
  chaos_smoke
  run_preset tsan
  run_preset asan
  run_preset ubsan
  bench_smoke
fi

echo "All checks passed."
