#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two git revisions.
#
# Usage: scripts/bench_ab.sh <revA> <revB> <workload> [pairs]
#
# Checks out each revision into its own `git worktree` under a
# temporary directory, builds it with perfbench/run.py (Release), and
# runs `python3 perfbench/run.py --workload <workload> --trace 0` on both
# sides `pairs` times (default 10), alternating which side runs first so
# neither always gets the warmer or the quieter slot. Pair i uses seed i
# on both sides, so the two runs of a pair time the same inputs.
#
# For every end-to-end metric (BENCHMARK.json of revA) it prints each
# side's quartiles and median, the ratio of the medians, how many pairs
# B won in the metric's "better" direction, and a verdict against the
# metric's bound ("unresolved" when A's own interquartile spread is
# wider than the bound), then both sides' host-stamp lines. Runs that
# are not `correct` and failed operations are counted per side.
#
# Writes nothing outside the worktrees and its temporary directory
# (under $TMPDIR, removed on exit along with the worktrees).

set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <revA> <revB> <workload> [pairs]" >&2
  exit 2
fi
REV_A="$1"
REV_B="$2"
WORKLOAD="$3"
PAIRS="${4:-10}"
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ ]]; then
  echo "pairs must be a positive integer: $PAIRS" >&2
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
     python3 perfbench/run.py --workload "$WORKLOAD" --seed "$2" \
       --seconds "$RUN_SECONDS" --trace 0) > "$WORK/$1.$2.out"
}

for ((i = 0; i < PAIRS; ++i)); do
  echo "==> pair $((i + 1))/$PAIRS" >&2
  if ((i % 2 == 0)); then
    run_side a "$i"
    run_side b "$i"
  else
    run_side b "$i"
    run_side a "$i"
  fi
done

python3 "$(dirname "$0")/bench_ab_report.py" "$WORK" "$PAIRS" "$SHA_A" \
  "$SHA_B" "$WORKLOAD"
