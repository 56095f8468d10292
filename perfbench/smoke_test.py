#!/usr/bin/env python3
"""Smoke test of the service benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload very briefly in both modes and fails (exit 1) unless
each run is correct, emits every metric the mode promises with its unit,
and exercised each of the workload's oracle checks at least once. Also
checks that BENCHMARK.json agrees with perfbench/design.json. Takes about a
minute after the build.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 3
SECONDS = 1


def check_benchmark_json(design, failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        got = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        want = [(m["name"], m["unit"], m["better"]) for m in design[key]]
        if got != want:
            failures.append("BENCHMARK.json %s differs from design.json" % key)
    if [w["name"] for w in bench["workloads"]] != [w["name"] for w in design["workloads"]]:
        failures.append("BENCHMARK.json workloads differ from design.json")


def main():
    design = run.load_design()
    failures = []
    check_benchmark_json(design, failures)
    if not run.build():
        print("build failed")
        return 1
    for workload in design["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_one(name, SEED, SECONDS, trace)
            label = "%s trace=%d" % (name, trace)
            if result is None:
                failures.append(label + ": no result")
                continue
            if not result["correct"]:
                failures.append(label + ": incorrect: %s" % result["errors"][:3])
            if result["failed"] != 0 or result["attempted"] < 1:
                failures.append(label + ": attempted=%d failed=%d"
                                % (result["attempted"], result["failed"]))
            failures += [label + ": " + p
                         for p in run.check_metrics(result, design[key])]
            checks = workload["oracle_checks"]["trace%d" % trace]
            for check in checks:
                if result["checks"].get(check, 0) < 1:
                    failures.append(label + ": oracle check %s never ran" % check)
            print("%-34s ok=%s checks=%s" % (label, result["correct"],
                                            result["checks"]))
    for f in failures:
        print("FAIL " + f)
    print("smoke test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
