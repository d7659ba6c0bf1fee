#!/usr/bin/env python3
"""Summarizes the runs of scripts/bench_ab.sh.

    bench_ab_report.py <work dir> <pairs> <sha A> <sha B> <workload> \
        [first seed]

Reads <work dir>/BENCHMARK.json and the outputs <side>.<pair>.out of
perfbench/run.py (side a or b; pair i ran seed first seed + i, default
0), and prints the seed range, then, for every end-to-end metric,
both sides' quartiles, the ratio of the medians, the median of the
per-pair B/A ratios, B's pair wins and a verdict, then both host-stamp
lines. The verdict is "gain" when B wins at least nine tenths of the
pairs (ties count for neither side) and B's median beats A's by more
than A's interquartile distance; otherwise it is judged against the
metric's bound ("worse", "unresolved" or "ok").
"""

import json
import statistics
import sys


def load(work, side, i):
    path = "%s/%s.%d.out" % (work, side, i)
    lines = open(path).read().strip().splitlines()
    return lines[-2], json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def main():
    work, pairs, sha_a, sha_b, workload = sys.argv[1:6]
    pairs = int(pairs)
    first_seed = int(sys.argv[6]) if len(sys.argv) > 6 else 0
    spec = json.load(open(work + "/BENCHMARK.json"))
    runs = {side: [load(work, side, i) for i in range(pairs)]
            for side in "ab"}

    print("A/B %s: A=%s B=%s, %d interleaved pairs, seeds %d-%d" %
          (workload, sha_a, sha_b, pairs, first_seed,
           first_seed + pairs - 1))
    for side in "ab":
        results = [r for _, r in runs[side]]
        print("%s: %d/%d runs correct; %d of %d operations failed" % (
            side.upper(), sum(1 for r in results if r["correct"]), pairs,
            sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results)))

    # "gain" when B wins at least nine tenths of the pairs and its median
    # beats A's by more than A's interquartile distance; otherwise
    # "worse" when B's median is worse than A's by more than the metric's
    # bound; "unresolved" when A's own interquartile spread (relative to
    # its median) is already wider than the bound.
    print("%-24s %-33s %-33s %-7s %-9s %-7s %s" % (
        "metric", "A q1/median/q3", "B q1/median/q3", "B/A", "pair B/A",
        "B wins", "verdict"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in runs["a"][0][1]["metrics"]:
            continue
        a = [r["metrics"][name]["value"] for _, r in runs["a"]]
        b = [r["metrics"][name]["value"] for _, r in runs["b"]]
        higher = metric["better"] == "higher"
        wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] != 0 else 1.0
        pair_ratios = [y / x for x, y in zip(a, b) if x != 0]
        pair_ratio = statistics.median(pair_ratios) if pair_ratios else 1.0
        worse_by = (1 - ratio) if higher else (ratio - 1)
        better_by = (qb[1] - qa[1]) if higher else (qa[1] - qb[1])
        spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] != 0 else 0.0
        if wins * 10 >= pairs * 9 and better_by > qa[2] - qa[0]:
            verdict = "gain (by %.4g > A's interquartile %.4g)" % (
                better_by, qa[2] - qa[0])
        elif spread > metric["bound"]:
            verdict = "unresolved (spread %.3f > bound %g)" % (
                spread, metric["bound"])
        elif worse_by > metric["bound"]:
            verdict = "worse (by %.3f > bound %g)" % (worse_by,
                                                     metric["bound"])
        else:
            verdict = "ok"
        print("%-24s %-33s %-33s %-7.4f %-9.4f %-7s %s" % (
            name, "%.5g/%.5g/%.5g" % qa, "%.5g/%.5g/%.5g" % qb, ratio,
            pair_ratio, "%d/%d" % (wins, pairs), verdict))
    print("A host: " + runs["a"][0][0])
    print("B host: " + runs["b"][0][0])


if __name__ == "__main__":
    main()
