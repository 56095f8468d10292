#!/usr/bin/env python3
"""Service benchmark for deddb: builds the engine and the benchmark binary
from source, runs one workload, checks the result and prints it.

    python3 perfbench/run.py --workload employment_oltp --seed 1 \
        --seconds 25 --trace 0

--workload is one of the names in perfbench/design.json, or `all` to run
every workload in turn. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report (operation classes, oracle checks, machine and configuration).

The build goes to .bench_build/perfbench under the repository root, the
database directories of a run to .bench_build/run-<pid>; both stay inside
the checkout, and the run directory is removed when the run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "deddb_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def load_design():
    with open(os.path.join(HERE, "design.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "deddb_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return os.path.exists(BINARY)


def run_one(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns its parsed result, or None."""
    run_dir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--dir=" + run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_metrics(result, wanted):
    """Every metric the mode promises is present with its unit."""
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("%s has unit %s, expected %s"
                            % (m["name"], got["unit"], m["unit"]))
    return problems


def print_report(workload, result):
    print("== %s: correct=%s attempted=%d failed=%d"
          % (workload, result["correct"], result["attempted"], result["failed"]))
    for name, m in sorted(result["metrics"].items()):
        print("  metric  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, m in sorted(result.get("report", {}).items()):
        print("  class   %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, n in sorted(result.get("checks", {}).items()):
        print("  checked %-32s %16d answers" % (name, n))
    for name, v in sorted(result.get("info", {}).items()):
        print("  info    %-32s %s" % (name, v))
    for e in result.get("errors", []):
        print("  WRONG   " + e)


def main():
    design = load_design()
    names = [w["name"] for w in design["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    wanted = design["per_layer" if args.trace else "end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 3
        problems = check_metrics(result, wanted)
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        print_report(workload, result)
        final["correct"] = final["correct"] and result["correct"] and not problems
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None:
                continue
            key = m["name"] if len(workloads) == 1 else workload + "." + m["name"]
            final["metrics"][key] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
