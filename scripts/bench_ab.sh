#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two git revisions.
#
# Usage: scripts/bench_ab.sh <revA> <revB> <workload> [pairs] [first_seed]
#
# Checks out each revision into its own `git worktree` under a
# temporary directory, builds it with perfbench/run.py (Release), and
# runs `python3 perfbench/run.py --workload <workload> --trace 0` on both
# sides `pairs` times (default 10), alternating which side runs first so
# neither always gets the warmer or the quieter slot. Pair i uses seed
# first_seed + i (first_seed defaults to 0) on both sides, so the two
# runs of a pair time the same inputs; pass a first seed the claim was
# not developed on to re-measure it on held-out inputs.
#
# For every end-to-end metric (BENCHMARK.json of revA) it prints each
# side's quartiles and median, the ratio of the medians, the median of
# the per-pair ratios, how many pairs B won in the metric's "better"
# direction, and a verdict: "gain" when B won at least nine tenths of
# the pairs and its median beats A's by more than A's interquartile
# distance, else one against the metric's bound ("unresolved" when A's
# own interquartile spread is wider than the bound, unless every B run
# beats every A run; any worsening from a median of 0 at A is "worse"),
# then both sides' host-stamp lines. Runs that are not `correct` and
# failed operations are counted per side.
#
# Writes nothing outside the worktrees and its temporary directory
# (under $TMPDIR, removed on exit along with the worktrees).

set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
  echo "usage: $0 <revA> <revB> <workload> [pairs] [first_seed]" >&2
  exit 2
fi
REV_A="$1"
REV_B="$2"
WORKLOAD="$3"
PAIRS="${4:-10}"
FIRST_SEED="${5:-0}"
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ ]]; then
  echo "pairs must be a positive integer: $PAIRS" >&2
  exit 2
fi
if ! [[ "$FIRST_SEED" =~ ^(0|[1-9][0-9]*)$ ]]; then
  echo "first_seed must be a non-negative integer: $FIRST_SEED" >&2
  exit 2
fi

REPO="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
SHA_A="$(git -C "$REPO" rev-parse --verify "$REV_A^{commit}")"
SHA_B="$(git -C "$REPO" rev-parse --verify "$REV_B^{commit}")"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
cleanup() {
  for side in a b; do
    if [[ -d "$WORK/$side" ]]; then
      git -C "$REPO" worktree remove --force "$WORK/$side" || true
    fi
  done
  git -C "$REPO" worktree prune || true
  rm -rf "$WORK"
}
trap cleanup EXIT

git -C "$REPO" show "$SHA_A:BENCHMARK.json" > "$WORK/BENCHMARK.json"
RUN_SECONDS="$(python3 -c \
  'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$WORK/BENCHMARK.json")"
for side in a b; do
  sha="$SHA_A"
  [[ "$side" == b ]] && sha="$SHA_B"
  git -C "$REPO" worktree add --detach --quiet "$WORK/$side" "$sha"
  echo "==> building and self-testing $side ($sha)" >&2
  (cd "$WORK/$side" && python3 perfbench/run.py --selftest >&2)
done

run_side() {  # side, pair index
  (cd "$WORK/$1" &&
     python3 perfbench/run.py --workload "$WORKLOAD" \
       --seed "$((FIRST_SEED + $2))" --seconds "$RUN_SECONDS" --trace 0) \
    > "$WORK/$1.$2.out"
}

for ((i = 0; i < PAIRS; ++i)); do
  echo "==> pair $((i + 1))/$PAIRS (seed $((FIRST_SEED + i)))" >&2
  if ((i % 2 == 0)); then
    run_side a "$i"
    run_side b "$i"
  else
    run_side b "$i"
    run_side a "$i"
  fi
done

python3 "$(dirname "$0")/bench_ab_report.py" "$WORK" "$PAIRS" "$SHA_A" \
  "$SHA_B" "$WORKLOAD" "$FIRST_SEED"
