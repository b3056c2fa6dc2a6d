#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program, snic_perfbench, from source (Release, into
.bench_build/ at the repository root) with the repository's own CMake build,
runs one workload in its own process, and prints its result as the last line
of stdout: one JSON object with "correct", "attempted", "failed" and
"metrics".

The metric names and units are checked against BENCHMARK.json: --trace 0
reports exactly its end_to_end metrics, --trace 1 its per_layer metrics. A
per-layer metric of a layer the workload does not exercise is reported as 0.
See perfbench/NOTES.md for the design.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "snic")
BINARY = os.path.join(BUILD, "snic_perfbench")
BUILD_TIMEOUT_S = 850
# A run gets its measuring time plus this for set-up and its last op.
RUN_GRACE_S = 150


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO, "src")):
        fail(2, f"no repository sources under {REPO}; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code = run_logged(
            ["cmake", "-S", REPO, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "attach.cmake")],
            BUILD_TIMEOUT_S)
        if code != 0:
            fail(3, "cmake configure failed")
    code = run_logged(["cmake", "--build", BUILD, "--target", "snic_perfbench",
                       "-j", "4"], BUILD_TIMEOUT_S)
    if code != 0 or not os.path.isfile(BINARY):
        fail(3, "build of snic_perfbench failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(2, f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--specs-dir", os.path.join(REPO, "bench", "scenarios")]
    try:
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(4, "workload run timed out")
    if proc.returncode != 0:
        fail(4, f"workload run exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(4, "workload run printed no result")
    result = json.loads(lines[-1])

    units = {m["name"]: m["unit"] for m in declared}
    measured = result["metrics"]
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            fail(4, f"metric {name} ({metric['unit']}) is not declared with "
                    "that unit in BENCHMARK.json")
    if not args.trace and set(measured) != set(units):
        fail(4, "end-to-end metrics differ from BENCHMARK.json")
    result["metrics"] = {
        name: measured.get(name, {"value": 0.0, "unit": unit})
        for name, unit in units.items()}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
