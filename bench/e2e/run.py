#!/usr/bin/env python3
"""Builds bench_e2e from source, runs one workload, prints one JSON result line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release binary under .bench_build/e2e; later calls rebuild only what
changed. The benchmark's own report goes to stderr. The last line on stdout
is {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list (which adds one profiled repetition and its trace file).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUN_TIMEOUT_S = 170
MIN_REPS = 3


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout=None):
    """Runs cmd with its output on stderr; kills its whole process group on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (os.path.basename(cmd[0]), timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "okws", "okws_world.cc")):
        fail("no Asbestos sources under %s/src to build the benchmark from" % ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    if run_logged(["cmake", "--build", BUILD, "-j", "4"]) != 0:
        fail("build failed")
    return os.path.join(BUILD, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    out_json = os.path.join(BUILD, "result-%s-%d.json" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--reps", str(MIN_REPS), "--seconds", str(args.seconds),
           "--out", out_json, "--scratch", os.path.join(BUILD, "scratch")]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    else:
        cmd += ["--no-traced-run"]
    started = time.time()
    code = run_logged(cmd, timeout=RUN_TIMEOUT_S)
    print("run.py: bench_e2e exited %d after %.1f s" % (code, time.time() - started),
          file=sys.stderr)
    if not os.path.exists(out_json):
        fail("bench_e2e wrote no results")
    with open(out_json) as f:
        results = json.load(f)
    os.unlink(out_json)

    report = results["workloads"][args.workload]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail("metric %s missing from the results" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = int(report["failed"])
    print(json.dumps({
        "correct": code == 0 and bool(report["correct"]),
        "attempted": max(1, int(report["attempted"])),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
