#!/usr/bin/env python3
"""Runs bench/e2e/run.py in two checkouts in alternating pairs and compares them.

    python3 scripts/ab_pairs.py BASE_DIR NEW_DIR --workload NAME --seeds 301-310
        [--seconds 20] [--out pairs.jsonl]
    python3 scripts/ab_pairs.py --from pairs.jsonl

Each seed is one pair: the same `run.py --workload NAME --seed N --seconds S
--trace 0` in BASE_DIR and in NEW_DIR, one after the other, with the order
flipped on every other pair so that drift on the machine falls on both sides.
Each checkout builds its own bench_e2e under its .bench_build/e2e. With
--out, every run's result line is appended to a JSON-lines file; --from
summarizes such a file again without running anything.

The summary has one row per end-to-end metric: the base median with its
quartiles [q1, q3], the new median, how many pairs read lower on the new
side, and a verdict:

  identical   every pair read the same value on both sides (modelled
              numbers must);
  unresolved  the gap between the medians is inside the base's q3 - q1;
  lower/higher otherwise, the direction of the new median.

Host-time numbers are reported, never gated on: nothing here exits nonzero
because of a gap. Quartiles use statistics.quantiles(method='inclusive'),
as bench_e2e does. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("ab_pairs.py: run.py failed in %s (seed %d, exit %d)" %
                 (checkout, seed, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(records):
    pairs = {}
    for r in records:
        pairs.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [p for _, p in sorted(pairs.items()) if "base" in p and "new" in p]
    if not pairs:
        sys.exit("ab_pairs.py: no complete pairs")
    workload = pairs[0]["base"]["workload"]
    print("%s: %d pairs, seeds %s" % (workload, len(pairs),
                                     ",".join(str(p["base"]["seed"]) for p in pairs)))
    for side in ("base", "new"):
        failed = sum(p[side]["result"]["failed"] for p in pairs)
        attempted = sum(p[side]["result"]["attempted"] for p in pairs)
        correct = all(p[side]["result"]["correct"] for p in pairs)
        print("  %-4s correct=%s failed %d of %d" % (side, correct, failed, attempted))
    names = list(pairs[0]["base"]["result"]["metrics"])
    print("  %-18s %14s %-25s %14s %11s  %s" %
          ("metric", "base median", "[q1, q3]", "new median", "pairs lower", "verdict"))
    for name in names:
        base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        new = [p["new"]["result"]["metrics"][name]["value"] for p in pairs]
        q1, q3 = quartiles(base)
        bmed, nmed = statistics.median(base), statistics.median(new)
        lower = sum(n < b for b, n in zip(base, new))
        if base == new:
            verdict = "identical"
        elif abs(nmed - bmed) <= q3 - q1:
            verdict = "unresolved"
        else:
            verdict = "lower" if nmed < bmed else "higher"
        print("  %-18s %14.6g %-25s %14.6g %8d/%-2d  %s" %
              (name, bmed, "[%.6g, %.6g]" % (q1, q3), nmed, lower, len(pairs), verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", help="e.g. 301-310 or 301,305,309")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", help="append every run's result here (JSON lines)")
    ap.add_argument("--from", dest="source", help="summarize a saved --out file")
    args = ap.parse_args()

    if args.source:
        with open(args.source) as f:
            summarize([json.loads(line) for line in f if line.strip()])
        return
    if not (args.base and args.new and args.workload and args.seeds):
        ap.error("BASE_DIR, NEW_DIR, --workload and --seeds are required without --from")
    checkouts = {"base": os.path.abspath(args.base), "new": os.path.abspath(args.new)}
    records = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for side in (("base", "new") if i % 2 == 0 else ("new", "base")):
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            record = {"workload": args.workload, "seed": seed, "side": side,
                      "result": result}
            records.append(record)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            print("ab_pairs.py: seed %d %s host_us_per_conn %s" %
                  (seed, side, result["metrics"].get("host_us_per_conn", {}).get("value")),
                  file=sys.stderr)
    summarize(records)


if __name__ == "__main__":
    main()
