#!/usr/bin/env bash
# Full verification gate: build and run the test suite under the four
# CMake presets — plain (RelWithDebInfo), ThreadSanitizer (concurrency
# suites), Address+LeakSanitizer (everything), and
# UndefinedBehaviorSanitizer (everything). This is what CI (and a
# release) should run; each stage stops the script on the first failure.
#
# After the test matrix, a bench-smoke stage builds the Release preset
# (-O3 -DNDEBUG) and runs each perf benchmark binary on a minimal
# workload, writing to a scratch JSON — this catches bit-rot in the
# bench harnesses without touching the committed BENCH_hotpath.json
# baseline (full-run numbers; see README "Benchmarking").
#
# A chaos-smoke stage runs a short randomized fault-injection campaign
# (tools/chaos) against the plain build: every case is audited by the
# schedule validator, so crash/migration regressions that no fixed test
# anticipates still fail the gate. A failing case is auto-shrunk and the
# reproducer path is printed — commit it under
# tests/integration/replays/ to pin the regression.
#
# A live-smoke stage runs the same idea against the REAL executor
# (tools/chaos --live): randomized fault-injected cases on worker
# threads under the deterministic virtual clock, each run twice (trace
# digests must match) and audited by the live trace validator. It
# catches attempt-lifecycle / failover / retry regressions that only
# manifest with real thread interleavings.
#
# A bench-gate stage (opt-in: perf numbers are machine-relative, so it
# only makes sense on the machine that produced the committed baseline)
# runs the full bench/sweep_throughput grid against the Release build and
# FAILS if any fig08 end-to-end instances_per_sec row regresses more than
# 10% below the committed BENCH_hotpath.json. After an intentional perf
# change, refresh the baseline by re-running the bench binaries with
# WEBTX_BENCH_JSON unset and committing the updated JSON.
#
# A huge-smoke stage (opt-in) runs the 10^5-transaction open-system
# point of bench/ext_huge_scale and a validator-audited
# tools/chaos --huge case under a randomized fault cocktail at the
# same population.
#
# A steal-smoke stage runs the sharded-policy campaign (tools/chaos
# --steal): multi-server overloaded cases run with a global-state policy
# and its "-sharded" variant — the schedule digests must be
# byte-identical (the work-stealing protocol must never change a
# decision) and the validator audits every sharded run.
#
# A twin-smoke stage runs the digital-twin campaign (tools/chaos
# --twin): randomized flash-crowd / ON-OFF cases where the shadow
# simulator steers the live executor (rt::Twin) — every case runs twice
# (trace+decision digests must match), the live validator audits the
# trace, and the controller contract (hysteresis, dwell, fallback
# cooldown) is checked decision by decision.
#
# Usage: scripts/check.sh [--fast] [--chaos-smoke] [--live-smoke]
#                         [--bench-gate] [--huge-smoke] [--steal-smoke]
#                         [--twin-smoke]
#   --fast         plain preset only (skips sanitizers and bench smoke)
#   --chaos-smoke  plain preset + chaos campaign only (quick fault audit)
#   --live-smoke   plain preset + live executor campaign only (50 cases
#                  of tools/chaos --live, digest-checked + validated)
#   --bench-gate   release build + fig08 perf-regression gate only
#   --huge-smoke   release build + 10^5-txn end-to-end run and a
#                  validator-audited 10^5-txn chaos case only
#   --steal-smoke  plain preset + sharded-policy campaign only (25 cases
#                  of tools/chaos --steal, digest-checked + validated)
#   --twin-smoke   plain preset + digital-twin campaign only (25 cases
#                  of tools/chaos --twin, digest-checked + validated)

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
CHAOS_ONLY=0
LIVE_ONLY=0
BENCH_GATE=0
HUGE_SMOKE=0
STEAL_ONLY=0
TWIN_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --chaos-smoke) CHAOS_ONLY=1 ;;
    --live-smoke) LIVE_ONLY=1 ;;
    --bench-gate) BENCH_GATE=1 ;;
    --huge-smoke) HUGE_SMOKE=1 ;;
    --steal-smoke) STEAL_ONLY=1 ;;
    --twin-smoke) TWIN_ONLY=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
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
  # Smoke rows go to a scratch file: the committed BENCH_hotpath.json at
  # the repo root holds full-run numbers (see README "Benchmarking") and
  # must not be overwritten by the one-iteration smoke subset.
  echo "==> bench smoke [release]"
  WEBTX_BENCH_JSON=build-release/BENCH_smoke.json \
    ./build-release/bench/sweep_throughput --smoke
  WEBTX_BENCH_JSON=build-release/BENCH_smoke.json \
    ./build-release/bench/ext_huge_scale --smoke
  WEBTX_BENCH_JSON=build-release/BENCH_smoke.json \
    ./build-release/bench/micro_scheduler_overhead \
    --benchmark_min_time=0.01 \
    --benchmark_filter='BM_PolicyEventCost.*/256$|BM_IndexedPq.*/64$'
}

# Value of one (bench, config, metric) row in a bench JSON.
bench_rate() {
  awk -F'"' -v bench="$2" -v cfg="$3" -v metric="$4" '
    $4 == bench && $8 == cfg && $12 == metric {
      v = $15; gsub(/[:, ]/, "", v); print v; exit
    }' "$1"
}

bench_gate() {
  echo "==> configure+build [release]"
  cmake --preset release
  cmake --build --preset release -j "$(nproc)"
  echo "==> bench gate [release]: fig08 end-to-end vs BENCH_hotpath.json"
  local gate_json=build-release/BENCH_gate.json
  # Fresh rows go to a scratch file seeded from the committed baseline,
  # so the bench still sees its seed_baseline reference rows and the
  # committed JSON itself is never overwritten by a gate run.
  cp BENCH_hotpath.json "$gate_json"
  WEBTX_BENCH_JSON="$gate_json" ./build-release/bench/sweep_throughput
  WEBTX_BENCH_JSON="$gate_json" ./build-release/bench/ext_huge_scale
  WEBTX_BENCH_JSON="$gate_json" ./build-release/bench/ext_multi_server
  WEBTX_BENCH_JSON="$gate_json" ./build-release/bench/ext_twin
  local failed=0 threads config old new
  for threads in 1 2 8; do
    config="fig08 threads=${threads}"
    old=$(bench_rate BENCH_hotpath.json sweep_throughput "$config" \
          instances_per_sec)
    new=$(bench_rate "$gate_json" sweep_throughput "$config" \
          instances_per_sec)
    if [[ -z "$old" || -z "$new" ]]; then
      echo "bench gate: missing instances_per_sec row for '$config'" >&2
      failed=1
      continue
    fi
    if awk -v new="$new" -v old="$old" 'BEGIN { exit !(new < 0.9 * old) }'
    then
      echo "bench gate: FAIL '$config': $new < 90% of baseline $old" >&2
      failed=1
    else
      echo "bench gate: ok '$config': $new vs baseline $old instances/sec"
    fi
  done
  # Huge-scale row: the 10^6-txn end-to-end rate must hold its
  # baseline. It is a single-rep multi-second run with ~10% observed
  # machine variance, so it gets a 75% floor — it guards
  # feasibility-scale collapses, not single-digit drift.
  local hs_config="e2e n=1000000"
  old=$(bench_rate BENCH_hotpath.json ext_huge_scale "$hs_config" \
        events_per_sec)
  new=$(bench_rate "$gate_json" ext_huge_scale "$hs_config" events_per_sec)
  if [[ -z "$old" || -z "$new" ]]; then
    echo "bench gate: missing events_per_sec row for '$hs_config'" >&2
    failed=1
  elif awk -v new="$new" -v old="$old" 'BEGIN { exit !(new < 0.75 * old) }'
  then
    echo "bench gate: FAIL '$hs_config': $new < 0.75 of baseline $old" >&2
    failed=1
  else
    echo "bench gate: ok '$hs_config': $new vs baseline $old events_per_sec"
  fi
  # Sharded-policy rows: ASETS*-sharded at shard_threads=8 must hold its
  # wall-clock ratio against the global-state ASETS* baseline within 10%
  # of the committed trajectory (a drop means the steal protocol or the
  # per-shard merge got more expensive, not machine noise — the ratio is
  # measured within one run of the same binary).
  local sp_servers sp_config
  for sp_servers in 4 8; do
    sp_config="servers=${sp_servers} threads=8 policy=sharded"
    old=$(bench_rate BENCH_hotpath.json ext_multi_server "$sp_config" \
          sharded_vs_global)
    new=$(bench_rate "$gate_json" ext_multi_server "$sp_config" \
          sharded_vs_global)
    if [[ -z "$old" || -z "$new" ]]; then
      echo "bench gate: missing sharded_vs_global row for '$sp_config'" >&2
      failed=1
      continue
    fi
    if awk -v new="$new" -v old="$old" 'BEGIN { exit !(new < 0.9 * old) }'
    then
      echo "bench gate: FAIL '$sp_config': sharded_vs_global $new < 90%" \
           "of baseline $old" >&2
      failed=1
    else
      echo "bench gate: ok '$sp_config': sharded_vs_global $new vs" \
           "baseline $old"
    fi
  done
  # Digital-twin rows: the flash-crowd metrics are virtual-clock
  # deterministic (not wall-clock), so the controller must STRICTLY beat
  # static serving on tardiness or shed ratio every run, and the
  # divergence guard must fire on the corrupted model. ext_twin itself
  # exits 1 on a miss; the row checks here catch a silently-stale JSON.
  new=$(bench_rate "$gate_json" ext_twin "flash controller" \
        controller_wins)
  if [[ -z "$new" ]] || awk -v w="$new" 'BEGIN { exit !(w < 1) }'; then
    echo "bench gate: FAIL ext_twin controller_wins = '${new}' != 1" >&2
    failed=1
  else
    echo "bench gate: ok ext_twin controller beats static serving"
  fi
  new=$(bench_rate "$gate_json" ext_twin "flash divergence" \
        guard_fallbacks)
  if [[ -z "$new" ]] || awk -v f="$new" 'BEGIN { exit !(f < 1) }'; then
    echo "bench gate: FAIL ext_twin guard_fallbacks = '${new}' < 1" >&2
    failed=1
  else
    echo "bench gate: ok ext_twin divergence guard fired ($new fallback)"
  fi
  # Decision-loop rows: pooling + pruning together must stay >= 2x
  # faster than the pinned twin_seed_baseline rebuild loop at 8
  # candidates (both sides strictly serial — the parallel_speedup rows
  # are reported but never gated, per the 1-core caveat), and the
  # pooled decision cost must not regress more than 10% against the
  # committed baseline at any grid size.
  new=$(bench_rate "$gate_json" ext_twin "decision cand=8 prune" \
        serial_speedup)
  if [[ -z "$new" ]]; then
    echo "bench gate: missing serial_speedup row at 8 candidates" >&2
    failed=1
  elif awk -v s="$new" 'BEGIN { exit !(s < 2.0) }'; then
    echo "bench gate: FAIL decision-loop serial_speedup at 8 candidates:" \
         "${new}x < 2x" >&2
    failed=1
  else
    echo "bench gate: ok decision-loop serial_speedup at 8 candidates:" \
         "${new}x >= 2x"
  fi
  # The regression rows get a 125% ceiling rather than the usual 110%:
  # the isolated decision loop shows ~10-17% run-to-run drift at the
  # larger grid sizes even on an idle host (frequency/cache effects on
  # a sub-millisecond loop), so a tight ceiling flakes on noise. These
  # rows guard structural collapses; single-digit drift is the
  # serial_speedup floor's job.
  local dl_cand dl_config
  for dl_cand in 2 4 8 16; do
    dl_config="decision cand=${dl_cand} pooled"
    old=$(bench_rate BENCH_hotpath.json ext_twin "$dl_config" decision_ms)
    new=$(bench_rate "$gate_json" ext_twin "$dl_config" decision_ms)
    if [[ -z "$old" || -z "$new" ]]; then
      echo "bench gate: missing decision_ms row for '$dl_config'" >&2
      failed=1
      continue
    fi
    if awk -v new="$new" -v old="$old" \
         'BEGIN { exit !(new > 1.25 * old) }'
    then
      echo "bench gate: FAIL '$dl_config': decision_ms $new > 125% of" \
           "baseline $old" >&2
      failed=1
    else
      echo "bench gate: ok '$dl_config': decision_ms $new vs baseline $old"
    fi
  done
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
  WEBTX_BENCH_JSON=build-release/BENCH_smoke.json \
    ./build-release/bench/ext_huge_scale --smoke
  ./build-release/tools/chaos --huge --cases 1 --seed 2009 --txns 100000 \
    --out build-release/chaos_huge_reproducer.chaos
}

chaos_smoke() {
  # Seeded so the campaign is reproducible run to run; 100 randomized
  # fault cases take well under a second. On a violation the tool exits
  # nonzero (failing the script) after writing the shrunken reproducer.
  echo "==> chaos smoke [default]"
  ./build/tools/chaos --cases 100 --seed 2009 \
    --out build/chaos_reproducer.chaos
}

live_smoke() {
  # 50 randomized cases against the real rt::Executor under the virtual
  # clock: each case runs twice (trace digests must match) and the live
  # validator audits every trace. Nonzero exit (violation or
  # nondeterminism) fails the script after writing the reproducer.
  echo "==> live chaos smoke [default]"
  ./build/tools/chaos --live --cases 50 --seed 2009 \
    --out build/live_chaos_reproducer.chaos
}

steal_smoke() {
  # 25 multi-server overloaded cases, each run with a global-state policy
  # and its "-sharded" variant: digests must be byte-identical and the
  # validator audits every sharded run. Exits 1 on any divergence.
  echo "==> steal smoke [default]"
  ./build/tools/chaos --steal --cases 25 --seed 2009
}

twin_smoke() {
  # 25 randomized digital-twin cases: the shadow-simulator controller
  # steers rt::Executor through flash crowds / ON-OFF arrivals under the
  # virtual clock. Each case runs twice (trace+decision digest must
  # match), the live validator audits the trace, and the controller
  # contract (dwell, hysteresis, fallback cooldown) is checked. A
  # violation exits nonzero after writing the shrunken reproducer. The
  # campaign also sweeps forecast_threads 1/2/8 per case — the digest
  # must not move. The forecast-engine unit suite runs first: parallel
  # fan-out and pruning must be byte-identical to the serial baseline
  # before the randomized campaign bothers.
  echo "==> twin smoke [default]"
  ./build/tests/rt_test --gtest_filter='TwinForecastEngineTest.*'
  ./build/tools/chaos --twin --cases 25 --seed 2009 \
    --out build/twin_chaos_reproducer.chaos
}

if [[ "$BENCH_GATE" == "1" ]]; then
  bench_gate
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

if [[ "$LIVE_ONLY" == "1" ]]; then
  run_preset default
  live_smoke
  echo "All checks passed."
  exit 0
fi

if [[ "$STEAL_ONLY" == "1" ]]; then
  run_preset default
  steal_smoke
  echo "All checks passed."
  exit 0
fi

if [[ "$TWIN_ONLY" == "1" ]]; then
  run_preset default
  twin_smoke
  echo "All checks passed."
  exit 0
fi

run_preset default
if [[ "$FAST" == "0" ]]; then
  chaos_smoke
  live_smoke
  steal_smoke
  twin_smoke
  run_preset tsan
  run_preset asan
  run_preset ubsan
  bench_smoke
fi

echo "All checks passed."
