#!/usr/bin/env python3
"""Validates a bench_e2e result file against BENCHMARK.json.

    python3 bench/e2e/check_results.py BENCH_e2e.json [--benchmark BENCHMARK.json]

Checks that the build context is recorded, that every workload BENCHMARK.json
names is present with its request counts, and that every end_to_end and
per_layer metric is present in every workload, numeric, finite, and carries
the unit BENCHMARK.json gives it. Exits 1 and lists every problem otherwise.
Standard library only.
"""

import argparse
import json
import math
import os
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                            "BENCHMARK.json")
CONTEXT_KEYS = ("build_type", "cxx_flags", "compiler", "optimized", "seed", "reps", "sizes")


def check(results, spec):
    problems = []
    ctx = results.get("context", {})
    for key in CONTEXT_KEYS:
        if key not in ctx:
            problems.append("context.%s missing" % key)
    workloads = results.get("workloads", {})
    for w in spec["workloads"]:
        report = workloads.get(w["name"])
        if report is None:
            problems.append("workload %s missing" % w["name"])
            continue
        for key in ("reps", "attempted", "failed", "errors", "correct", "metrics"):
            if key not in report:
                problems.append("%s.%s missing" % (w["name"], key))
        metrics = report.get("metrics", {})
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = metrics.get(m["name"])
            where = "%s.%s" % (w["name"], m["name"])
            if got is None:
                problems.append(where + " missing")
                continue
            value = got.get("value")
            if isinstance(value, bool) or not isinstance(value, (int, float)) or \
                    not math.isfinite(value):
                problems.append("%s is not a finite number: %r" % (where, value))
            if got.get("unit") != m["unit"]:
                problems.append("%s has unit %r, expected %r" % (where, got.get("unit"),
                                                                  m["unit"]))
            for q in ("q1", "q3"):
                if not isinstance(got.get(q), (int, float)):
                    problems.append("%s.%s missing" % (where, q))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results")
    ap.add_argument("--benchmark", default=DEFAULT_SPEC)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    with open(args.results) as f:
        results = json.load(f)
    problems = check(results, spec)
    for p in problems:
        print("check_results: " + p)
    print("check_results: %s (%d problems)" % ("ok" if not problems else "FAILED", len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
