#!/usr/bin/env python3
"""Builds the webtx benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the webtx libraries plus the benchmark program, Release) into
.bench_build/perfbench; later calls only re-check the build. The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it
stamps the host (source identity, nproc, compiler, build type). Build
output goes to standard error. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_sweep", "huge_stream", "live_ramp", "twin_flash")
RUN_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomization, so heap and stack alignment is the same on every run.
    Layout alone moved the Forecast() tick time by up to 1.5x between
    runs of identical inputs."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def source_id():
    """The git SHA of a clean git checkout, else a digest of the sources."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench", "CMakeLists.txt"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return "git:" + lines[1] + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for entry in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no webtx sources next to perfbench/ (expected ../src); "
             "run from the root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(cpus()), "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source", source_id()]
    if args.trace:
        command += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, run.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
